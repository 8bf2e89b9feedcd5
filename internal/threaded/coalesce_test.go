package threaded_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/simple"
	"repro/internal/threaded"
)

// coalesceMain builds one remote struct on the last node (and q on node 0)
// and prints f's result.
const coalesceMain = `
int main() {
	P *p; P *q;
	p = alloc_on(P, num_nodes() - 1);
	q = alloc_on(P, 0);
	p->next = q;
	p->a = 7;
	q->a = 11;
	q->b = 5;
	print_int(f(p, q, 3));
	return 0;
}
`

// lossySeeds is how many fault seeds each TestCoalescingRule case runs
// under on a lossy link.
const lossySeeds = 16

// TestCoalescingRule compiles one function per case with -O (no inlining,
// so f keeps its own frame) and checks whether the copy "x = commN" that
// selection leaves behind shares x's slot. Each case then runs on 1 and 2
// nodes, and on 2 nodes over a lossy link, and must print what the simple
// build prints.
func TestCoalescingRule(t *testing.T) {
	for _, c := range []struct {
		name  string
		merge bool
		f     string
	}{
		{"plain", true, `
	z = k * 3;
	x = p->a;
	y = x + z;
	return y;`},
		{"read between", false, `
	x = k;
	z = x * 3;
	x = p->a;
	y = x + z;
	return y;`},
		{"written between", false, `
	x = k;
	z = k * 3;
	x = p->a;
	y = x + z;
	return y;`},
		{"two readers", false, `
	x = p->a;
	z = x * k;
	y = p->a;
	return y + z;`},
		{"address taken", false, `
	z = k * 3;
	x = p->a;
	y = x + z;
	bump(&x);
	return x + y;`},
		{"address taken, then read through it", false, `
	z = k * 3;
	x = p->a;
	bump(&x);
	y = x + z;
	return y;`},
		{"hoisted above a loop", false, `
	y = 0;
	z = 0;
	do {
		x = p->a;
		y = y + x * z;
		z = z + 1;
	} while (z < k);
	return y;`},
		{"inside an arm", true, `
	{^
		{ r = p->next; x = r->a; y = x + k; }
		w = q->b;
	^}
	{^
		z = y * 2;
		w = w + 1;
	^}
	return x + z + w;`},
		{"overwritten by a remote call", true, `
	x = p->a;
	if (k) x = g(p)@OWNER_OF(p);
	return x;`},
		{"sibling arm", false, `
	{^
		{ r = p->next; x = r->a; y = x + k; }
		w = q->b;
	^}
	{^
		z = x * 2;
		w = w + 1;
	^}
	return y + z + w;`},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			src := "struct P { int a; int b; struct P *next; };\n" +
				"void bump(int local *v) { *v = *v + 1; }\n" +
				"int g(P *p) { return p->b + 1; }\n" +
				"int f(P *p, P *q, int k) {\n\tint x; int y; int z; int w; P *r;" + c.f + "\n}\n" + coalesceMain
			opt := core.NewPipeline(core.Options{Optimize: true, NoInline: true})
			u, err := opt.Compile("t.ec", src)
			if err != nil {
				t.Fatal(err)
			}
			f := u.Simple.FuncByName("f")
			copies := 0
			simple.WalkBasics(f.Body, func(b *simple.Basic) {
				if lv, ok := b.Lhs.(simple.VarLV); ok && lv.V.Name == "x" {
					if rv, ok := b.Rhs.(simple.AtomRV); ok && strings.HasPrefix(rv.A.String(), "comm") {
						copies++
					}
				}
			})
			if copies != 1 {
				t.Fatalf("selection left %d copies x = commN, want 1:\n%s", copies,
					simple.FuncString(f, simple.PrintOptions{Labels: true}))
			}
			// No other copy of these functions may coalesce: a refused x
			// must not hand its comm temp to another variable either.
			got := threaded.Coalesced(f)
			merged := len(got) == 1
			for _, x := range got {
				merged = merged && x == "x"
			}
			if merged != c.merge || !c.merge && len(got) > 0 {
				t.Errorf("coalesced %v, want x coalesced: %v:\n%s", got, c.merge,
					simple.FuncString(f, simple.PrintOptions{Labels: true}))
			}
			plain := core.NewPipeline(core.Options{NoInline: true})
			su, err := plain.Compile("t.ec", src)
			if err != nil {
				t.Fatal(err)
			}
			for _, nodes := range []int{1, 2} {
				want, err := plain.Run(su, core.RunConfig{Nodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				got, err := opt.Run(u, core.RunConfig{Nodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				if got.Output != want.Output {
					t.Errorf("%d nodes: optimized build printed %q, simple build %q", nodes, got.Output, want.Output)
				}
				if nodes == 1 {
					continue
				}
				// On a lossy link a retried get's fill can land after a
				// later write to the same slot has been issued; both builds
				// must still print what the reliable machine prints.
				for seed := uint64(1); seed <= lossySeeds; seed++ {
					faults := &earthsim.FaultConfig{Drop: 0.3, Delay: 4, Seed: seed}
					for _, b := range []struct {
						name string
						p    *core.Pipeline
						u    *core.Unit
					}{{"simple", plain, su}, {"optimized", opt, u}} {
						res, err := b.p.Run(b.u, core.RunConfig{Nodes: nodes, Faults: faults})
						if err != nil {
							t.Fatal(err)
						}
						if res.Output != want.Output {
							t.Errorf("%d nodes, lossy seed %d: %s build printed %q, reliable simple build %q",
								nodes, seed, b.name, res.Output, want.Output)
						}
					}
				}
			}
		})
	}
}

// TestCoalescingCensus pins, for each Olden program and halo at default size
// under -O, how many copies "x = commN" selection leaves and how many of
// them still cost a move after coalescing.
// voronoi had 35 copies before wrap's best->y and best->x were forwarded
// from a pointer copy (commsel's forwardReads): both were merged. tsp had
// 39 and voronoi 33 before the walks in tsp's tour_length (inlined into
// main, and its own copy) and voronoi's main began to fetch q->x and q->y
// in one block with q->next (placement.Carry): those four gets' copies,
// two per walk, were all merged.
func TestCoalescingCensus(t *testing.T) {
	census := map[string]struct{ copies, kept int }{
		"power":     {3, 1},
		"tsp":       {35, 20},
		"health":    {17, 8},
		"perimeter": {16, 0},
		"voronoi":   {31, 18},
		"halo":      {7, 4},
	}
	for _, b := range append(olden.All(), olden.Halo()) {
		u, err := core.NewPipeline(core.Options{Optimize: true}).Compile(b.Name+".ec", b.Source(b.DefaultParams))
		if err != nil {
			t.Fatal(err)
		}
		copies, merged := 0, 0
		for _, f := range u.Simple.Funcs {
			merged += len(threaded.Coalesced(f))
			simple.WalkBasics(f.Body, func(bb *simple.Basic) {
				_, lv := bb.Lhs.(simple.VarLV)
				if rv, ok := bb.Rhs.(simple.AtomRV); ok && lv {
					if v := simple.AtomVar(rv.A); v != nil && v.Kind == simple.VarComm {
						copies++
					}
				}
			})
		}
		want := census[b.Name]
		if copies != want.copies || copies-merged != want.kept {
			t.Errorf("%s: %d copies x = commN, %d still a move; pinned %d and %d",
				b.Name, copies, copies-merged, want.copies, want.kept)
		}
	}
}
