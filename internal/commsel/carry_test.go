package commsel_test

import (
	"strings"
	"testing"

	"repro/internal/commsel"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/simple"
)

// carrySrc is the frame of every TestLoopCarriedRule case: main builds a
// four-element circular list spread over the machine and prints
// f(list, list, k) for the case's body (BODY) and k (KARG).
const carrySrc = `
struct P { int a; int b; struct P *next; };
void bump(P *s) { s->a = s->a + 1; }
int f(P *p, P *r, int k) {
	P *q; int x; int i;
BODY
}
int main() {
	P *list; P *n; P *last; int i;
	list = NULL;
	last = NULL;
	for (i = 0; i < 4; i++) {
		n = alloc_on(P, (i + 1) % num_nodes());
		n->a = 10 * i + 7;
		n->b = 5 - i;
		n->next = list;
		if (last == NULL) last = n;
		list = n;
	}
	last->next = list;
	print_int(f(list, list, KARG));
	return 0;
}
`

// carried returns the report's carried-read count for function name.
func carried(u *core.Unit, name string) int {
	for _, fr := range u.Report.Funcs {
		if fr.Name == name {
			return fr.CarriedReads
		}
	}
	return 0
}

// TestLoopCarriedRule compiles one function per case with -O (no inlining)
// and checks how many loop-head fields it carries around the back edge
// (placement.Carry), and that it carries none without read motion. Each
// case then runs on 1, 2 and 4 nodes, and on 2 nodes over a lossy link for
// seeds 1-16, and must print what the simple build prints (a trap must trap
// in both builds).
func TestLoopCarriedRule(t *testing.T) {
	for _, c := range []struct {
		name    string
		carried int
		k       string
		body    string
	}{
		// distance(p, p->next) inlined: p->a, p->b and p->next are read at
		// the loop head and fetched with q's fields instead.
		{"tsp's shape", 3, "1", `
	x = 0;
	do {
		q = p->next;
		x = x + (p->a - q->a) * (p->b - q->b);
		p = p->next;
	} while (p != r);
	return x;`},
		{"explicit copy", 2, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		p = q;
	} while (p != r);
	return x;`},
		// q is never dereferenced: carrying would fetch an object the
		// iteration does not touch (the parked loop-carried prefetch).
		{"health's shape", 0, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a + p->b;
		p = q;
	} while (p != r);
	return x;`},
		// q is read only on one path per field, so its fill is not
		// selected at the top of the iteration.
		{"q read on some paths", 0, "1", `
	x = 0;
	do {
		q = p->next;
		if (x < 100) x = x + q->a; else x = x - q->b;
		x = x + p->a;
		p = q;
	} while (p != r);
	return x;`},
		// r may be q (and p): a is not carried, next still is.
		{"aliased write between", 1, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		r->a = x;
		p = q;
	} while (p != r);
	return x;`},
		{"call writes the field", 1, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		bump(r);
		p = q;
	} while (p != r);
	return x;`},
		{"stored through p", 1, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		p->a = x;
		p = q;
	} while (p != r);
	return x;`},
		// The entry get of p->a would be forwarded from r->a's copy at
		// p = r, and the head loads would read that copy, which the latch
		// does not refill: a comm temp the latch copies write is not
		// forwarded.
		{"head forwarded from a copy", 2, "1", `
	x = r->a;
	p = r;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		p = p->next;
	} while (p != r);
	return x;`},
		// q is read only in a loop that may run zero times.
		{"q read in an inner loop", 0, "0", `
	x = 0;
	do {
		q = p->next;
		i = 0;
		while (i < k) {
			x = x + q->a;
			i = i + 1;
		}
		x = x * 3 + p->a;
		p = q;
	} while (p != r);
	return x;`},
		{"stored through q", 1, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		q->a = x;
		p = q;
	} while (p != r);
	return x;`},
		// p->next is written through an alias between q = p->next and the
		// latch, so q may not be what p becomes.
		{"next written through an alias", 0, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		r->next = q;
		p = p->next;
	} while (p != r);
	return x;`},
		{"next rewritten between", 0, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		p->next = q;
		p = p->next;
	} while (p != r);
	return x;`},
		{"q rebound before the latch", 0, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		q = r;
		p = p->next;
	} while (p != r);
	return x;`},
		{"q rebound after its fill", 0, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		q = q->next;
		p = q;
	} while (p != r);
	return x;`},
		{"p rebound twice", 0, "1", `
	x = 0;
	do {
		q = p->next;
		x = x * 3 + p->a - q->b;
		p = q;
		p = p->next;
	} while (p != r);
	return x;`},
		{"forall body", 0, "1", `
	forall (i = 0; i < 1; i++) {
		x = 0;
		do {
			q = p->next;
			x = x * 3 + p->a - q->b;
			p = p->next;
		} while (p != r);
		print_int(x);
	}
	return 0;`},
		{"parallel arm", 0, "1", `
	x = 0;
	i = 0;
	{^
		do {
			q = p->next;
			x = x * 3 + p->a - q->b;
			p = p->next;
		} while (p != r);
		i = k;
	^}
	return x + i;`},
		// With k = 0 the loop runs zero times on a NULL p: the entry fill is
		// not deref-safe above it, so the rule refuses rather than guard it.
		{"while loop, possibly empty", 0, "0", `
	x = 0;
	if (k == 0) {
		p = NULL;
		r = NULL;
	} else {
		x = p->a;
		p = p->next;
	}
	while (p != r) {
		q = p->next;
		x = x * 3 + p->a - q->b;
		p = q;
	}
	return x;`},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			src := strings.Replace(strings.Replace(carrySrc, "BODY", c.body, 1), "KARG", c.k, 1)
			opt := core.NewPipeline(core.Options{Optimize: true, NoInline: true})
			u, err := opt.Compile("t.ec", src)
			if err != nil {
				t.Fatal(err)
			}
			if got := carried(u, "f"); got != c.carried {
				t.Errorf("carried %d fields, want %d:\n%s", got, c.carried,
					simple.FuncString(u.Simple.FuncByName("f"), simple.PrintOptions{Labels: true}))
			}
			if c.carried > 0 {
				if n := carried(optimized(t, src, commsel.Options{NoReadMotion: true}), "f"); n > 0 {
					t.Errorf("NoReadMotion build carried %d fields", n)
				}
			}
			plain := core.NewPipeline(core.Options{NoInline: true})
			su, err := plain.Compile("t.ec", src)
			if err != nil {
				t.Fatal(err)
			}
			same := func(what string, nodes int, faults *earthsim.FaultConfig) {
				t.Helper()
				want, werr := plain.Run(su, core.RunConfig{Nodes: nodes})
				got, gerr := opt.Run(u, core.RunConfig{Nodes: nodes, Faults: faults})
				switch {
				case (werr != nil) != (gerr != nil):
					t.Errorf("%s: simple build err %v, optimized build err %v", what, werr, gerr)
				case werr == nil && got.Output != want.Output:
					t.Errorf("%s: optimized build printed %q, simple build %q", what, got.Output, want.Output)
				}
			}
			same("1 node", 1, nil)
			same("2 nodes", 2, nil)
			same("4 nodes", 4, nil)
			for seed := uint64(1); seed <= lossySeeds; seed++ {
				same("2 nodes, lossy", 2, &earthsim.FaultConfig{Drop: 0.3, Delay: 4, Seed: seed})
			}
		})
	}
}

// TestLoopCarriedCensus pins, per function, where the rule fires in each
// Olden program and halo at default size under -O: the report's carried
// fields. tsp's tour_length walk (inlined into main, and its out-of-line
// copy) and voronoi's final walk in main carry x, y and next; splice's
// scans, wrap's march, collect and halo's loops carry nothing.
func TestLoopCarriedCensus(t *testing.T) {
	census := map[string]map[string]int{
		"tsp":     {"main": 3, "tour_length": 3},
		"voronoi": {"main": 3},
	}
	for _, b := range append(olden.All(), olden.Halo()) {
		u, err := core.NewPipeline(core.Options{Optimize: true}).Compile(b.Name+".ec", b.Source(b.DefaultParams))
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range u.Report.Funcs {
			if want := census[b.Name][fr.Name]; fr.CarriedReads != want {
				t.Errorf("%s.%s: %d carried fields, pinned %d", b.Name, fr.Name, fr.CarriedReads, want)
			}
		}
	}
}
