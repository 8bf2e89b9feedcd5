package earthsim_test

import (
	"fmt"
	"strings"
	"testing"
)

// TestForallIterationIsolation: each forall iteration captures the
// induction state at spawn time (frame copy); concurrent iterations must
// not observe each other's view of the cursor.
func TestForallIterationIsolation(t *testing.T) {
	res := run(t, `
struct C { int v; int r; struct C *next; };
int main() {
	C *head;
	C *p;
	int i;
	int s;
	head = NULL;
	for (i = 0; i < 8; i++) {
		p = alloc_on(C, i % num_nodes());
		p->v = i;
		p->r = 0;
		p->next = head;
		head = p;
	}
	forall (p = head; p != NULL; p = p->next) {
		p->r = p->v * p->v;
	}
	s = 0;
	p = head;
	while (p != NULL) {
		s = s + p->r;
		p = p->next;
	}
	return s;
}
`, 4, true)
	want := int64(0)
	for i := 0; i < 8; i++ {
		want += int64(i * i)
	}
	if res.MainRet != want {
		t.Errorf("forall result %d, want %d", res.MainRet, want)
	}
}

// TestWokenTwiceAfterFinishing: an inner iteration whose one instruction
// reads two fills in flight (p->a * q->b) is woken by each; when both land
// while its EU is busy, the first wake-up runs it to completion, and the
// second must not run the finished fiber again (which once returned its
// record to the freelist twice, so two later fibers shared it).
func TestWokenTwiceAfterFinishing(t *testing.T) {
	const src = `
struct P { int a; int b; struct P *next; };
int main() {
	shared int acc;
	P *list; P *n; P *p; P *q; int i;
	list = NULL;
	for (i = 0; i < 4; i++) {
		n = alloc_on(P, i % num_nodes());
		n->a = 10 * i + 7;
		n->b = 5 - i;
		n->next = list;
		list = n;
	}
	writeto(&acc, 0);
	forall (p = list; p != NULL; p = p->next) {
		forall (q = list; q != NULL; q = q->next) {
			addto(&acc, p->a * q->b);
		}
	}
	return valueof(&acc);
}
`
	// (7 + 17 + 27 + 37) * (5 + 4 + 3 + 2)
	for _, nodes := range []int{1, 2, 4} {
		for _, opt := range []bool{false, true} {
			if res := run(t, src, nodes, opt); res.MainRet != 88*14 {
				t.Errorf("nodes=%d optimized=%v: main returned %d, want %d", nodes, opt, res.MainRet, 88*14)
			}
		}
	}
}

// TestSharedDoubleAdd: atomic adds on a shared double accumulate exactly.
func TestSharedDoubleAdd(t *testing.T) {
	res := run(t, `
struct C { double v; struct C *next; };
int main() {
	shared double total;
	C *head;
	C *p;
	int i;
	writeto(&total, 0.0);
	head = NULL;
	for (i = 0; i < 16; i++) {
		p = alloc_on(C, i % num_nodes());
		p->v = dbl(i) / 2.0;
		p->next = head;
		head = p;
	}
	forall (p = head; p != NULL; p = p->next) {
		addto(&total, p->v);
	}
	print_double(valueof(&total));
	return trunc(valueof(&total));
}
`, 4, false)
	want := 0.0
	for i := 0; i < 16; i++ {
		want += float64(i) / 2.0
	}
	if res.Output != fmt.Sprintf("%.6f\n", want) {
		t.Errorf("got %q want %.6f", res.Output, want)
	}
}

// TestRemoteStructCopyRoundTrip: whole-struct copies through remote
// pointers move every field intact in both directions.
func TestRemoteStructCopyRoundTrip(t *testing.T) {
	res := run(t, `
struct R { int a; double d; int b; struct R *self; };
int main() {
	R *src;
	R *dst;
	R tmp;
	src = alloc_on(R, num_nodes() - 1);
	dst = alloc_on(R, num_nodes() - 1);
	src->a = 11;
	src->d = 2.5;
	src->b = 33;
	src->self = src;
	tmp = *src;
	*dst = tmp;
	if (dst->self != src) return -1;
	print_int(dst->a);
	print_double(dst->d);
	print_int(dst->b);
	return dst->a + dst->b;
}
`, 2, true)
	if res.MainRet != 44 {
		t.Errorf("got %d want 44 (output %q)", res.MainRet, res.Output)
	}
	if !strings.Contains(res.Output, "2.500000") {
		t.Errorf("double field lost: %q", res.Output)
	}
}

// TestVoidPlacedCallCompletesBeforeJoin: a void RPC must finish before the
// spawning region's synchronization lets dependent reads run.
func TestVoidPlacedCallCompletesBeforeJoin(t *testing.T) {
	res := run(t, `
struct P { int v; };
void bump(P local *p) {
	p->v = p->v + 1;
}
int main() {
	P *p;
	int i;
	p = alloc_on(P, 1);
	p->v = 0;
	for (i = 0; i < 10; i++) {
		bump(p)@OWNER_OF(p);
	}
	return p->v;
}
`, 2, false)
	if res.MainRet != 10 {
		t.Errorf("void RPCs lost updates: got %d want 10", res.MainRet)
	}
}

// TestNestedParSeq: parallel sequences nest (arms spawning arms).
func TestNestedParSeq(t *testing.T) {
	res := run(t, `
int main() {
	int a;
	int b;
	int c;
	int d;
	{^
		{^
			a = 1;
			b = 2;
		^}
		{^
			c = 3;
			d = 4;
		^}
	^}
	return a + b * 10 + c * 100 + d * 1000;
}
`, 2, false)
	if res.MainRet != 4321 {
		t.Errorf("nested parseq: got %d want 4321", res.MainRet)
	}
}

// TestRecursiveParallelDivide: the tsp/voronoi pattern — parallel recursion
// with placed calls — on a synthetic reduction.
func TestRecursiveParallelDivide(t *testing.T) {
	res := run(t, `
struct N { int v; struct N *left; struct N *right; };

N *build(int n, int node, int lvl) {
	N *t;
	int c1;
	int c2;
	if (n <= 0) return NULL;
	t = alloc(N);
	t->v = n;
	if (lvl > 0) {
		c1 = (2 * node) % num_nodes();
		c2 = (2 * node + 1) % num_nodes();
		t->left = build(n - 1, c1, lvl - 1)@ON(c1);
		t->right = build(n - 2, c2, lvl - 1)@ON(c2);
		return t;
	}
	t->left = build(n - 1, node, 0);
	t->right = build(n - 2, node, 0);
	return t;
}

int sum(N *t) {
	int l;
	int r;
	N *lc;
	N *rc;
	if (t == NULL) return 0;
	lc = t->left;
	rc = t->right;
	l = 0;
	r = 0;
	if (lc != NULL && rc != NULL) {
		{^
			l = sum(lc)@OWNER_OF(lc);
			r = sum(rc)@OWNER_OF(rc);
		^}
	} else {
		if (lc != NULL) l = sum(lc)@OWNER_OF(lc);
		if (rc != NULL) r = sum(rc)@OWNER_OF(rc);
	}
	return t->v + l + r;
}

int seqsum(N *t) {
	if (t == NULL) return 0;
	return t->v + seqsum(t->left) + seqsum(t->right);
}

int main() {
	N *root;
	int a;
	int b;
	root = build(8, 0, 2);
	a = sum(root);
	b = seqsum(root);
	if (a != b) return -1;
	return a;
}
`, 4, true)
	if res.MainRet <= 0 {
		t.Errorf("parallel and sequential sums disagree (ret %d)", res.MainRet)
	}
}

// TestOwnerOfNullInArmTraps: @OWNER_OF(NULL) traps rather than corrupting.
func TestOwnerOfNullInArmTraps(t *testing.T) {
	src := `
struct P { int v; };
int get(P local *p) { return p->v; }
int main() {
	P *p;
	int x;
	p = NULL;
	x = get(p)@OWNER_OF(p);
	return x;
}
`
	// The message is the client's: it names the site and nothing of the frame.
	const want = "earthsim: main@1: @OWNER_OF(NULL)"
	if err := runErr(t, src, 2); err == nil || err.Error() != want {
		t.Errorf("got error %v, want %s", err, want)
	}
}

// TestSwitchDispatch: multi-way dispatch with shared and default cases.
func TestSwitchDispatch(t *testing.T) {
	res := run(t, `
int classify(int k) {
	int r;
	switch (k) {
	case 0: r = 100;
	case 1:
	case 2: r = 200;
	case 3: r = 300;
	default: r = 900;
	}
	return r;
}
int main() {
	return classify(0) + classify(1) + classify(2) + classify(3) + classify(7);
}
`, 1, true)
	if res.MainRet != 100+200+200+300+900 {
		t.Errorf("switch dispatch: got %d", res.MainRet)
	}
}
