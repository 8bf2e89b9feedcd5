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

// forwardSrc is the frame of every TestForwardingRule case: main builds a
// three-element list spread over the machine and prints f(list, list, k)
// for the case's body (BODY) and k (KARG).
const forwardSrc = `
struct P { int a; int b; struct P *next; };
void bump(P *s) { s->a = s->a + 1; }
int f(P *p, P *r, int k) {
	P *q; P *best; int x; int y; int d;
BODY
}
int main() {
	P *list; P *n; int i;
	list = NULL;
	for (i = 0; i < 3; i++) {
		n = alloc_on(P, (i + 1) % num_nodes());
		n->a = 10 * i + 7;
		n->b = 5 - i;
		n->next = list;
		list = n;
	}
	print_int(f(list, list, KARG));
	return 0;
}
`

// forwarded counts the statements of fn that mention a forwarding copy
// (a variable named fwdN): its copies and the reads that use them.
func forwarded(fn *simple.Func) int {
	n := 0
	simple.WalkBasics(fn.Body, func(b *simple.Basic) {
		simple.EachVar(b, func(v *simple.Var, _ bool) {
			if strings.HasPrefix(v.Name, "fwd") {
				n++
			}
		})
	})
	return n
}

// TestForwardingRule compiles one function per case with -O (no inlining)
// and checks whether a read through a pointer copy is forwarded from the
// copy's fields, and that it never is without read motion. Each case then runs on 1 and 2 nodes, and on 2 nodes over
// a lossy link for seeds 1-16, and must print what the simple build prints
// (a trap must trap in both builds).
func TestForwardingRule(t *testing.T) {
	for _, c := range []struct {
		name string
		fire bool
		k    string
		body string
	}{
		{"voronoi's shape", true, "1", `
	best = NULL;
	q = p;
	while (q != NULL) {
		if (q->a != k) {
			if (best == NULL) {
				best = q;
			} else {
				d = best->a - q->a;
				if (d < 0) {
					best = q;
				} else {
					if (best->b < q->b) best = q;
				}
			}
		}
		q = q->next;
	}
	return best->a * 100 + best->b;`},
		{"straight line", true, "1", `
	q = p;
	x = p->a;
	y = q->a;
	return x * 100 + y;`},
		{"aliased write between", false, "1", `
	q = p;
	x = p->a;
	r->a = k;
	y = q->a;
	return x * 100 + y;`},
		{"stored through the copy", false, "1", `
	q = p;
	x = p->a;
	q->a = k;
	if (k) y = q->a;
	return x * 100 + y;`},
		{"call writes the field", false, "1", `
	q = p;
	x = p->a;
	bump(r);
	y = q->a;
	return x * 100 + y;`},
		{"rebound on one path", false, "1", `
	q = p;
	x = p->a;
	if (k) q = p->next;
	y = q->a;
	return x * 100 + y;`},
		{"possibly NULL", false, "0", `
	q = NULL;
	x = p->a;
	if (k) q = p;
	y = q->a;
	return x * 100 + y;`},
		{"sibling arm", false, "1", `
	q = p;
	x = 0;
	{^
		{ q = p; x = p->a; }
		y = q->a;
	^}
	return x * 100 + y;`},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			src := strings.Replace(strings.Replace(forwardSrc, "BODY", c.body, 1), "KARG", c.k, 1)
			opt := core.NewPipeline(core.Options{Optimize: true, NoInline: true})
			u, err := opt.Compile("t.ec", src)
			if err != nil {
				t.Fatal(err)
			}
			f := u.Simple.FuncByName("f")
			if got := forwarded(f) > 0; got != c.fire {
				t.Errorf("forwarded: %v, want %v:\n%s", got, c.fire,
					simple.FuncString(f, simple.PrintOptions{Labels: true}))
			}
			if c.fire {
				// Forwarding is off where redundancy elimination is.
				if n := forwarded(optimized(t, src, commsel.Options{NoReadMotion: true}).Simple.FuncByName("f")); n > 0 {
					t.Errorf("NoReadMotion build forwarded (%d mentions of a copy)", n)
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
			for seed := uint64(1); seed <= lossySeeds; seed++ {
				same("2 nodes, lossy", 2, &earthsim.FaultConfig{Drop: 0.3, Delay: 4, Seed: seed})
			}
		})
	}
}

// lossySeeds is how many fault seeds each TestForwardingRule case runs
// under on a lossy link.
const lossySeeds = 16

// TestForwardingCensus pins, for each Olden program and halo at default
// size under -O, the report's ReadsEliminated, which counts each forwarded
// get, the reads of a forwarding copy that replace the gets' loads, and the
// copies inserted. Only voronoi forwards; before forwarding its
// ReadsEliminated was 4.
func TestForwardingCensus(t *testing.T) {
	census := map[string]struct{ eliminated, forwarded, copies int }{
		"power":     {0, 0, 0},
		"tsp":       {2, 0, 0},
		"health":    {15, 0, 0},
		"perimeter": {4, 0, 0},
		// wrap's best->y and best->x (the gets S62/S63 before forwarding)
		// read copies taken at its three "best = p".
		"voronoi": {6, 2, 6},
		"halo":    {0, 0, 0},
	}
	for _, b := range append(olden.All(), olden.Halo()) {
		u, err := core.NewPipeline(core.Options{Optimize: true}).Compile(b.Name+".ec", b.Source(b.DefaultParams))
		if err != nil {
			t.Fatal(err)
		}
		reads, copies := 0, 0
		for _, f := range u.Simple.Funcs {
			simple.WalkBasics(f.Body, func(bb *simple.Basic) {
				if lv, ok := bb.Lhs.(simple.VarLV); ok && strings.HasPrefix(lv.V.Name, "fwd") {
					copies++
					return
				}
				simple.EachVar(bb, func(v *simple.Var, _ bool) {
					if strings.HasPrefix(v.Name, "fwd") {
						reads++
					}
				})
			})
		}
		want := census[b.Name]
		if got := u.Report.Totals().ReadsEliminated; got != want.eliminated || reads != want.forwarded || copies != want.copies {
			t.Errorf("%s: ReadsEliminated %d, %d reads of a forwarding copy, %d copies; pinned %d, %d and %d",
				b.Name, got, reads, copies, want.eliminated, want.forwarded, want.copies)
		}
	}
}
