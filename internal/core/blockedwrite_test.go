package core

import (
	"fmt"
	"testing"
)

// blockedWriteShared is the setup every blockedWritePrograms program
// shares: a five-word struct allocated on node 1 % num_nodes(), and a
// show function that prints its fields. The k > 5 guards keep the inliner
// away, so each function is selected on its own.
const blockedWriteShared = `
struct S {
	int a;
	int b;
	int c;
	int d;
	int e;
};

int show(S *p, int k) {
	if (k > 5) return show(p, k - 1);
	print_int(p->a);
	print_int(p->b);
	print_int(p->c);
	print_int(p->d);
	print_int(p->e);
	return 0;
}
`

// blockedWriteMain allocates the struct, sets a..e to 10..50, calls the
// program's f and prints the struct.
const blockedWriteMain = `
int main() {
	S *p;
	p = alloc_on(S, 1 %% num_nodes());
	p->a = 10;
	p->b = 20;
	p->c = 30;
	p->d = 40;
	p->e = 50;
	%s;
	show(p, 0);
	return 0;
}
`

// blockedWritePrograms each once compiled to a blocked write-back that
// sent a word stale on some path to it: the fill sat in a branch not
// taken, in another switch case or in a loop that ran no iteration, or
// after the fill a loop stored the word through an alias or rebound the
// pointer, or a parallel arm stored the word beside the write-back.
var blockedWritePrograms = []struct{ name, f, call, want string }{
	// The fill that would cover b happens only inside the if.
	{"if", `
int f(S *p, int k) {
	int x;
	if (k > 5) return f(p, k - 1);
	x = 0;
	if (k == 1) {
		x = p->a + p->b + p->c;
	}
	p->a = 1;
	p->c = 2;
	p->e = 3;
	return x;
}
`, "f(p, 0)", "1\n20\n2\n40\n3\n"},
	// The fill sits in one case, the stores in another.
	{"switch", `
int f(S *p, int k) {
	int x;
	if (k > 5) return f(p, k - 1);
	x = 0;
	switch (k) {
	case 1: {
		x = p->a + p->b + p->c;
	}
		break;
	default: {
		p->a = 1;
		p->c = 2;
		p->e = 3;
	}
		break;
	}
	return x;
}
`, "f(p, 0)", "1\n20\n2\n40\n3\n"},
	// q aliases p: g's read of q->b and the store to it make the buffer
	// filled before the loop stale in every later iteration.
	{"loop", `
int g(S *q, int k) {
	if (k > 5) return g(q, k - 1);
	print_int(q->a + q->c + q->e);
	print_int(q->b);
	return 0;
}

int f(S *p, S *q, int n) {
	int x;
	int i;
	if (n > 5) return f(p, q, n - 1);
	x = p->a + p->b + p->c;
	i = 0;
	while (i < n) {
		p->a = i;
		p->c = i;
		p->e = i;
		x = x + g(q, 0);
		q->b = 100 + i;
		i = i + 1;
	}
	return x;
}
`, "f(p, p, 3)", "0\n20\n3\n100\n6\n101\n2\n102\n2\n40\n2\n"},
	// The buffer is filled from the struct p points to before the loop;
	// from the second iteration on, p points to another.
	{"rebind", `
int f(S *p, S *q, int n) {
	int x;
	int i;
	if (n > 5) return f(p, q, n - 1);
	x = p->a + p->b + p->c;
	i = 0;
	while (i < n) {
		p->a = i;
		p->c = i;
		p->e = i;
		p = q;
		i = i + 1;
	}
	return x;
}
`, "f(alloc_on(S, 0), p, 2)", "1\n20\n1\n40\n1\n"},
	// The fill sits in a loop that runs no iteration.
	{"zero_trip", `
int f(S *p, S *q, int n) {
	int x;
	int i;
	if (n > 5) return f(p, q, n - 1);
	x = 0;
	i = 0;
	while (i < n) {
		p = q;
		x = x + p->a + p->b + p->c;
		i = i + 1;
	}
	p->a = 1;
	p->c = 2;
	p->e = 3;
	return x;
}
`, "f(p, p, 0)", "1\n20\n2\n40\n3\n"},
	// One arm of a parallel sequence stores through the buffer's fields
	// while the other writes b through an alias.
	{"par", `
int f(S *p, S *q, int k) {
	int x;
	if (k > 5) return f(p, q, k - 1);
	x = 0;
	{^
		{
			x = p->a + p->c + p->e;
			p->a = 1;
			p->c = 2;
			p->e = 3;
		}
		q->b = 99;
	^}
	return x;
}
`, "f(p, p, 0)", "1\n99\n2\n40\n3\n"},
}

// TestBlockedWriteLegality checks that a blocked write-back moves only words
// valid on every path to it (the paper's RemoteFill condition): each
// blockedWritePrograms program prints the simple build's output when
// optimized, on one node and on two.
func TestBlockedWriteLegality(t *testing.T) {
	for _, bp := range blockedWritePrograms {
		t.Run(bp.name, func(t *testing.T) {
			src := blockedWriteShared + bp.f + fmt.Sprintf(blockedWriteMain, bp.call)
			for _, nodes := range []int{1, 2} {
				var outs [2]string
				for i, optimize := range []bool{false, true} {
					res, err := compileAndRun(bp.name+".ec", src, optimize, nodes)
					if err != nil {
						t.Fatalf("nodes=%d optimize=%v: %v", nodes, optimize, err)
					}
					outs[i] = res.Output
				}
				if outs[0] != bp.want {
					t.Errorf("nodes=%d: simple output %q, want %q", nodes, outs[0], bp.want)
				}
				if outs[1] != outs[0] {
					t.Errorf("nodes=%d: optimized output %q, simple %q", nodes, outs[1], outs[0])
				}
			}
		})
	}
}
