package threaded_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/olden"
	"repro/internal/threaded"
)

func gen(t *testing.T, src string, seq bool) *threaded.Program {
	t.Helper()
	u, err := core.NewPipeline(core.Options{NoInline: true}).Compile("t.ec", src)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := u.Threaded(threaded.Options{Sequential: seq})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func countOps(fc *threaded.FnCode, op threaded.Op) int {
	n := 0
	for _, in := range fc.Code {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestRemoteLoadsBecomeGets(t *testing.T) {
	tp := gen(t, `
struct P { int a; };
int g(P *p) { return p->a; }
int main() { return 0; }
`, false)
	g := tp.Funcs["g"]
	if countOps(g, threaded.OpGet) != 1 {
		t.Errorf("remote load should compile to OpGet:\n%s", g.Disasm())
	}
}

func TestLocalPointerLoadsAreDirect(t *testing.T) {
	tp := gen(t, `
struct P { int a; };
int g(P local *p) { return p->a; }
int main() { return 0; }
`, false)
	g := tp.Funcs["g"]
	if countOps(g, threaded.OpGet) != 0 {
		t.Errorf("local-pointer load must not use the runtime:\n%s", g.Disasm())
	}
	if countOps(g, threaded.OpMemLoad) != 1 {
		t.Errorf("local-pointer load should be a direct memory access:\n%s", g.Disasm())
	}
}

func TestSequentialModeHasNoRuntimeOps(t *testing.T) {
	tp := gen(t, `
struct P { int a; struct P *next; };
int main() {
	P *p;
	int s;
	int i;
	p = alloc(P);
	p->a = 2;
	s = 0;
	{^
		s = p->a;
	^}
	forall (i = 0; i < 3; i++) { }
	return s;
}
`, true)
	for name, fc := range tp.Funcs {
		for _, bad := range []threaded.Op{
			threaded.OpGet, threaded.OpPut, threaded.OpBlkGet, threaded.OpBlkPut,
			threaded.OpSpawnArm, threaded.OpSpawnIter, threaded.OpCallAt,
		} {
			if countOps(fc, bad) != 0 {
				t.Errorf("sequential build of %s contains %v:\n%s", name, bad, fc.Disasm())
			}
		}
	}
}

func TestParallelConstructsSpawn(t *testing.T) {
	tp := gen(t, `
int main() {
	int a;
	int b;
	int i;
	{^
		a = 1;
		b = 2;
	^}
	forall (i = 0; i < 3; i++) { a = 3; }
	return a + b;
}
`, false)
	m := tp.Main
	if countOps(m, threaded.OpSpawnArm) != 2 {
		t.Errorf("two parallel arms expected:\n%s", m.Disasm())
	}
	if countOps(m, threaded.OpSpawnIter) != 1 {
		t.Errorf("one iteration spawn site expected:\n%s", m.Disasm())
	}
	if countOps(m, threaded.OpJoin) != 2 {
		t.Errorf("two joins expected:\n%s", m.Disasm())
	}
}

// TestFrameFamilyUnified: spawned bodies share the spawner's frame layout,
// so their frame sizes must match exactly (regression test for the frame
// overrun bug).
func TestFrameFamilyUnified(t *testing.T) {
	tp := gen(t, `
struct C { int v; struct C *next; };
int main() {
	shared int s;
	C *head;
	C *p;
	int i;
	head = NULL;
	for (i = 0; i < 3; i++) {
		p = alloc(C);
		p->v = i;
		p->next = head;
		head = p;
	}
	writeto(&s, 0);
	forall (p = head; p != NULL; p = p->next) {
		addto(&s, p->v * 2 + 1);
	}
	return valueof(&s);
}
`, false)
	main := tp.Main
	for name, fc := range tp.Funcs {
		if fc == main || fc.Name == "nextrand" {
			continue
		}
		if len(name) > 4 && name[:4] == "main" {
			if fc.NSlots != main.NSlots {
				t.Errorf("%s frame size %d != main's %d (family must be unified)",
					name, fc.NSlots, main.NSlots)
			}
		}
	}
}

// TestArmScratchDisjoint: parallel arms share a frame; their scratch slots
// must not overlap (regression test for the arm-races bug).
func TestArmScratchDisjoint(t *testing.T) {
	tp := gen(t, `
int f(int x) { return x + 1; }
int main() {
	int a;
	int b;
	int c;
	int d;
	{^
		a = f(1) + f(2);
		b = f(3) + f(4);
		c = f(5) + f(6);
		d = f(7) + f(8);
	^}
	return a + b + c + d;
}
`, false)
	// Collect each arm's written slots (destination A of each op).
	written := map[string]map[int]bool{}
	for name, fc := range tp.Funcs {
		if !fc.IsArm {
			continue
		}
		set := map[int]bool{}
		for _, in := range fc.Code {
			switch in.Op {
			case threaded.OpMove, threaded.OpLoadImm, threaded.OpBin, threaded.OpCall:
				if in.A >= 0 {
					set[in.A] = true
				}
			}
		}
		written[name] = set
	}
	if len(written) != 4 {
		t.Fatalf("expected 4 arms, got %d", len(written))
	}
	names := make([]string, 0, 4)
	for n := range written {
		names = append(names, n)
	}
	// The user variables a..d are distinct by construction; scratch slots
	// must also be disjoint across arms.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			for s := range written[names[i]] {
				if written[names[j]][s] {
					t.Errorf("arms %s and %s both write slot %d", names[i], names[j], s)
				}
			}
		}
	}
}

func TestGlobalInitCarried(t *testing.T) {
	tp := gen(t, `
int answer = 42;
double ratio = 1.5;
int main() { return answer; }
`, false)
	if len(tp.GlobalInit) != 2 {
		t.Fatalf("want 2 global initializers, got %d", len(tp.GlobalInit))
	}
	if tp.GlobalInit[0][1] != 42 {
		t.Errorf("answer initializer = %d, want 42", tp.GlobalInit[0][1])
	}
}

// TestConstantsAreImmediate: in every Olden program, plain and optimized,
// parallel and sequential, a constant never costs an imm whose slot only the
// next instruction reads as a bin or move operand — such a constant rides in
// the instruction (bini) or loads straight into the assigned variable.
// Readers are over-approximated by every mention of the slot in the
// function's family (its fiber bodies share its frame), so a slot any other
// instruction might read is never reported.
func TestConstantsAreImmediate(t *testing.T) {
	for _, b := range append(olden.All(), olden.Halo()) {
		for _, optimize := range []bool{false, true} {
			u, err := core.NewPipeline(core.Options{Optimize: optimize}).Compile(b.Name+".ec", b.Source(b.DefaultParams))
			if err != nil {
				t.Fatal(err)
			}
			for _, seq := range []bool{false, true} {
				if seq && optimize {
					continue
				}
				tp, err := u.Threaded(threaded.Options{Sequential: seq})
				if err != nil {
					t.Fatal(err)
				}
				mentions := map[string]map[int]int{} // family root -> slot -> mentions
				for name, fc := range tp.Funcs {
					root, _, _ := strings.Cut(name, "$")
					if mentions[root] == nil {
						mentions[root] = map[int]int{}
					}
					for _, in := range fc.Code {
						for _, s := range append([]int{in.A, in.B, in.C, in.D}, in.Args...) {
							mentions[root][s]++
						}
					}
				}
				for name, fc := range tp.Funcs {
					root, _, _ := strings.Cut(name, "$")
					for i, in := range fc.Code[:len(fc.Code)-1] {
						next := fc.Code[i+1]
						if in.Op != threaded.OpLoadImm || mentions[root][in.A] != 2 ||
							!(next.Op == threaded.OpMove && next.B == in.A ||
								next.Op == threaded.OpBin && (next.B == in.A || next.C == in.A)) {
							continue
						}
						t.Errorf("%s (optimize %v, sequential %v): %s@%d: the constant of %q only feeds %q",
							b.Name, optimize, seq, name, i, in, next)
					}
				}
			}
		}
	}
}

// TestDisasmReadable: an opcode whose Imm is an operand prints it even when
// it is 0, so a comparison against 0 or a case 0 is visible.
func TestDisasmReadable(t *testing.T) {
	tp := gen(t, `
int main() {
	int k;
	int r;
	k = 3;
	r = 0;
	switch (k) {
	case 0: r = 1;
	default: r = 2;
	}
	if (k > 0) { r = r + 1; }
	return r;
}
`, false)
	d := tp.Main.Disasm()
	for _, want := range []string{"jeq", "bini", "imm="} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly lacks %q:\n%s", want, d)
		}
	}
	for _, in := range tp.Main.Code {
		switch in.Op {
		case threaded.OpJmpEq, threaded.OpBinImm, threaded.OpLoadImm:
			if in.Imm == 0 && !strings.Contains(in.String(), " imm=0") {
				t.Errorf("%v carries Imm 0 but prints %q", in.Op, in)
			}
		}
	}
}
