package threaded_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/threaded"
)

// spawnSrc is the frame of every TestForallSpawnRule case: main builds a
// six-element list, one element per node in turn, calls f(list, 3) for the
// case's body (BODY), and prints its result and every element.
const spawnSrc = `
struct P { int a; int b; struct P *next; };
int rd(int *v) { return *v; }
void bump(P *s) { s->a = s->a + 1; }
void relink(P *s) { s->next = s->next; }
int f(P *head, int k) {
	shared int acc;
	P *p; P *q; int x; int y;
BODY
}
int main() {
	P *list; P *n; int i;
	list = NULL;
	for (i = 0; i < 6; i++) {
		n = alloc_on(P, i % num_nodes());
		n->a = 10 * i + 7;
		n->b = 9 - i;
		n->next = list;
		list = n;
	}
	print_int(f(list, 3));
	for (n = list; n != NULL; n = n->next) {
		print_int(n->a);
		print_int(n->b);
	}
	return 0;
}
`

// family returns the spawniter instructions of fn and of every body it
// spawns, depth first in code order, each with the code it sits in.
func family(fn *threaded.FnCode) (spawns []threaded.Instr, in []*threaded.FnCode) {
	for _, ins := range fn.Code {
		switch ins.Op {
		case threaded.OpSpawnIter:
			spawns, in = append(spawns, ins), append(in, fn)
			s, i := family(ins.Fn)
			spawns, in = append(spawns, s...), append(in, i...)
		case threaded.OpSpawnArm:
			s, i := family(ins.Fn)
			spawns, in = append(spawns, s...), append(in, i...)
		}
	}
	return spawns, in
}

// getBeforeSpawn reports whether the code of the loop test's exit jump up
// to the spawn at index i issues a get, the step's early read.
func getBeforeSpawn(code []threaded.Instr, i int) bool {
	for j := i - 1; j >= 0 && code[j].Op != threaded.OpJmpIfNot; j-- {
		if code[j].Op == threaded.OpGet {
			return true
		}
	}
	return false
}

// spawnIndex returns the index in code of the spawn s.
func spawnIndex(code []threaded.Instr, s threaded.Instr) int {
	return slices.IndexFunc(code, func(in threaded.Instr) bool {
		return in.Op == threaded.OpSpawnIter && in.Fn == s.Fn
	})
}

// TestForallSpawnRule compiles one function per case with -O (no inlining,
// so f keeps its own frame) and pins how many words each of its iteration
// spawns copies, whether the step's get is issued before the spawn, and
// (fill) whether a get still in flight at the spawn fills a copied word.
// Each case then runs on 1, 2 and 4 nodes, and on 2 nodes over a lossy link
// for seeds 1-16, and must print what the simple build prints, and on one
// node what the sequential build prints.
func TestForallSpawnRule(t *testing.T) {
	for _, c := range []struct {
		name  string
		words []int // copied words of each spawn, depth first
		early bool  // the step's get precedes every spawn
		fill  bool
		body  string
	}{
		{"local set before the loop", []int{2}, true, false, `
	x = k * 5;
	forall (p = head; p != NULL; p = p->next) {
		p->b = p->a + x;
	}
	return 0;`},
		{"shared local", []int{2}, true, false, `
	writeto(&acc, k);
	forall (p = head; p != NULL; p = p->next) {
		addto(&acc, p->a);
	}
	return valueof(&acc);`},
		// x is read only through the pointer rd receives.
		{"address-taken local", []int{2}, true, false, `
	x = k + 2;
	forall (p = head; p != NULL; p = p->next) {
		p->b = rd(&x) * p->a;
	}
	return 0;`},
		// The body's x is its own: y is copied, x is not, and the
		// parent's x is k after the loop.
		{"writes a parent local", []int{2}, true, false, `
	x = k;
	y = 2;
	forall (p = head; p != NULL; p = p->next) {
		x = p->a * y;
		p->b = x + 1;
	}
	return x;`},
		// The same in the serialized loop, where the body runs in the
		// spawner's frame: its x is still its own.
		{"writes a parent local and the field it read", []int{2}, true, false, `
	x = k;
	y = 2;
	forall (p = head; p != NULL; p = p->next) {
		x = p->a * y;
		p->a = x;
	}
	return x;`},
		// x is a live-in the body also writes: every iteration starts
		// from the spawner's x, in the serialized loop too.
		{"reads then writes a parent local", []int{2}, true, false, `
	x = k;
	forall (p = head; p != NULL; p = p->next) {
		p->b = x;
		x = p->a;
	}
	return x;`},
		{"writes the step's field", []int{1}, false, false, `
	forall (p = head; p != NULL; p = p->next) {
		p->next = p->next;
		p->a = p->a + 1;
	}
	return 0;`},
		{"a call writes the step's field", []int{1}, false, false, `
	forall (p = head; p != NULL; p = p->next) {
		relink(p);
		bump(p);
	}
	return 0;`},
		// The outer body reads head, p and acc's cell; the inner one p, q
		// and the cell.
		{"nested forall", []int{3, 3}, true, false, `
	writeto(&acc, 0);
	forall (p = head; p != NULL; p = p->next) {
		forall (q = head; q != NULL; q = q->next) {
			addto(&acc, p->a * q->b);
		}
	}
	return valueof(&acc);`},
		{"forall in a parallel arm", []int{2}, true, false, `
	x = k;
	{^
		forall (p = head; p != NULL; p = p->next) {
			p->b = p->a - x;
		}
		y = k * 2;
	^}
	return y;`},
		// head->b is read once, above the loop, into a comm temp the
		// body reads: its get is still in flight at the first spawn,
		// which must wait for it.
		{"fill in flight to a live-in", []int{2}, true, true, `
	forall (p = head; p != NULL; p = p->next) {
		p->a = p->a + head->b;
	}
	return head->b;`},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			src := strings.Replace(spawnSrc, "BODY", c.body, 1)
			opt := core.NewPipeline(core.Options{Optimize: true, NoInline: true})
			u, err := opt.Compile("t.ec", src)
			if err != nil {
				t.Fatal(err)
			}
			tp, err := u.Threaded(threaded.Options{})
			if err != nil {
				t.Fatal(err)
			}
			spawns, in := family(tp.Funcs["f"])
			var words []int
			for i, s := range spawns {
				words = append(words, len(s.Args))
				if got := getBeforeSpawn(in[i].Code, spawnIndex(in[i].Code, s)); got != c.early {
					t.Errorf("spawn of %s: get before the spawn %v, want %v:\n%s", s.Fn.Name, got, c.early, in[i].Disasm())
				}
				if c.fill {
					filled := false
					for _, ins := range in[i].Code[:spawnIndex(in[i].Code, s)] {
						filled = filled || ins.Op == threaded.OpGet && slices.Contains(s.Args, ins.A)
					}
					if !filled {
						t.Errorf("spawn of %s: no get fills one of its copied words %v:\n%s", s.Fn.Name, s.Args, in[i].Disasm())
					}
				}
			}
			if !slices.Equal(words, c.words) {
				t.Errorf("spawns copy %v words, want %v", words, c.words)
			}

			plain := core.NewPipeline(core.Options{NoInline: true})
			su, err := plain.Compile("t.ec", src)
			if err != nil {
				t.Fatal(err)
			}
			run := func(p *core.Pipeline, u *core.Unit, rc core.RunConfig) string {
				t.Helper()
				res, err := p.Run(u, rc)
				if err != nil {
					t.Fatal(err)
				}
				return res.Output
			}
			seq := run(plain, su, core.RunConfig{Nodes: 1, Sequential: true})
			if got := run(opt, u, core.RunConfig{Nodes: 1}); got != seq {
				t.Errorf("1 node: optimized build printed %q, sequential build %q", got, seq)
			}
			for _, nodes := range []int{1, 2, 4} {
				want := run(plain, su, core.RunConfig{Nodes: nodes})
				if got := run(opt, u, core.RunConfig{Nodes: nodes}); got != want {
					t.Errorf("%d nodes: optimized build printed %q, simple build %q", nodes, got, want)
				}
				if nodes != 2 {
					continue
				}
				for seed := uint64(1); seed <= lossySeeds; seed++ {
					rc := core.RunConfig{Nodes: 2, Faults: &earthsim.FaultConfig{Drop: 0.3, Delay: 4, Seed: seed}}
					if got := run(opt, u, rc); got != want {
						t.Errorf("2 nodes, lossy seed %d: optimized build printed %q, reliable simple build %q", seed, got, want)
					}
				}
			}
		})
	}
}

// TestForallLiveIns pins, for each Olden program with a forall, halo and
// testdata/count.ec under -O, the words each iteration spawn copies, per
// function in name order: halo's two loops copy c, power's copies lat, tr
// and ti, and count's copies p, x and the address of the shared counter
// (in count and in its copy inlined into main). In each, the step's get of
// the cursor's next element is issued before the spawn.
func TestForallLiveIns(t *testing.T) {
	count, err := os.ReadFile("../../testdata/count.ec")
	if err != nil {
		t.Fatal(err)
	}
	census := map[string]map[string][]int{
		"power":    {"main": {3}},
		"halo":     {"main": {1, 1}},
		"count.ec": {"count": {3}, "main": {3}},
	}
	type prog struct{ name, src string }
	progs := []prog{{"count.ec", string(count)}}
	for _, b := range append(olden.All(), olden.Halo()) {
		progs = append(progs, prog{b.Name, b.Source(b.DefaultParams)})
	}
	for _, p := range progs {
		u, err := core.NewPipeline(core.Options{Optimize: true}).Compile(p.name, p.src)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := u.Threaded(threaded.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]int{}
		for _, f := range u.Simple.Funcs {
			spawns, in := family(tp.Funcs[f.Name])
			for i, s := range spawns {
				got[f.Name] = append(got[f.Name], len(s.Args))
				if !getBeforeSpawn(in[i].Code, spawnIndex(in[i].Code, s)) {
					t.Errorf("%s: spawn of %s issues no get before it:\n%s", p.name, s.Fn.Name, in[i].Disasm())
				}
			}
		}
		want := census[p.name]
		if want == nil {
			want = map[string][]int{}
		}
		if len(got) != len(want) {
			t.Errorf("%s: spawns copy %v words, pinned %v", p.name, got, want)
			continue
		}
		for fn, w := range want {
			if !slices.Equal(got[fn], w) {
				t.Errorf("%s.%s: spawns copy %v words, pinned %v", p.name, fn, got[fn], w)
			}
		}
	}
}
