package earthsim

import (
	"math"
	"testing"

	"repro/internal/earthc"
	"repro/internal/threaded"
)

// countLoop is main counting slot 0 up to limit, three covered instructions
// per trip: slots 0 i, 1 one, 2 limit, 3 cond.
func countLoop(limit int64) *threaded.Program {
	return prog(&threaded.FnCode{Name: "main", NSlots: 4, Code: []threaded.Instr{
		imm(0, 0), imm(1, 1), imm(2, limit),
		bin(earthc.Add, 0, 0, 1), // 3
		bin(earthc.Lt, 3, 0, 2),
		{Op: threaded.OpJmpIf, A: 3, C: 3},
		{Op: threaded.OpRet, A: 0},
	}})
}

// TestLocalRunExits pins each place a run of frame-local and local-memory
// instructions must stop and leave the next instruction to the general step:
// the limit checks, a trapping operation, a word outside the node's budget or
// on another node, a fill in flight, and a profiled access. The error strings
// carry the pc and instruction counts, and the successful runs their exact
// time and instruction count, so stopping one instruction late (or never)
// shows.
func TestLocalRunExits(t *testing.T) {
	fuel := DefaultConfig(1)
	fuel.Fuel = 100_000
	runaway := DefaultConfig(1)
	runaway.MaxFiberInstr = 1000
	small := DefaultConfig(1)
	small.MaxNodeWords = 200 // the first ensure grows the slice to 1,024 words
	unbounded := DefaultConfig(1)
	unbounded.MaxNodeWords = -1 // no budget: a word past the slice grows it

	divZero := prog(&threaded.FnCode{Name: "main", NSlots: 4, Code: []threaded.Instr{
		imm(0, 7), imm(1, 0),
		{Op: threaded.OpMove, A: 2, B: 0},
		bin(earthc.Add, 2, 2, 0),
		bin(earthc.Div, 3, 2, 1), // 4
		{Op: threaded.OpRet, A: 3},
	}})
	nullField := prog(&threaded.FnCode{Name: "main", NSlots: 3, Code: []threaded.Instr{
		imm(0, 0), imm(1, 5),
		bin(earthc.Add, 1, 1, 1),
		{Op: threaded.OpFieldAddr, A: 2, B: 0, C: 3}, // 3
		{Op: threaded.OpRet, A: 2},
	}})
	pastBudget := prog(&threaded.FnCode{Name: "main", NSlots: 2, Code: []threaded.Instr{
		imm(0, threaded.PackAddr(0, 500)), imm(1, 3),
		bin(earthc.Add, 1, 1, 1),
		{Op: threaded.OpMemStore, A: 1, B: 0}, // 3
		{Op: threaded.OpRet, A: 1},
	}})
	pastSlice := prog(&threaded.FnCode{Name: "main", NSlots: 3, Code: []threaded.Instr{
		imm(0, threaded.PackAddr(0, 5000)), imm(1, 3),
		bin(earthc.Add, 1, 1, 1),
		{Op: threaded.OpMemStore, A: 1, B: 0}, // 3
		{Op: threaded.OpMemLoad, A: 2, B: 0},
		{Op: threaded.OpRet, A: 2},
	}})
	remote := prog(&threaded.FnCode{Name: "main", NSlots: 3, Code: []threaded.Instr{
		imm(0, threaded.PackAddr(1, 8)), imm(1, 3),
		bin(earthc.Add, 1, 1, 1),
		{Op: threaded.OpMemLoad, A: 2, B: 0}, // 3
		{Op: threaded.OpRet, A: 2},
	}})
	// slots: 0 p, 1 v, 2 x, 3 one, 4 y
	inFlight := prog(&threaded.FnCode{Name: "main", NSlots: 5, Code: []threaded.Instr{
		imm(0, threaded.PackAddr(1, 3)),
		{Op: threaded.OpGet, A: 2, B: 0}, // slot 2 pending
		imm(3, 1),
		bin(earthc.Add, 4, 3, 3),
		{Op: threaded.OpMove, A: 1, B: 2}, // 4: blocks, re-executes after the fill
		bin(earthc.Add, 1, 1, 4),
		{Op: threaded.OpRet, A: 1},
	}})
	// slots: 0 p, 1 v, 2 x
	profiled := prog(&threaded.FnCode{Name: "main", NSlots: 3, Code: []threaded.Instr{
		{Op: threaded.OpAlloc, A: 0, B: -1, C: 1},
		imm(1, 9),
		{Op: threaded.OpMemStore, A: 1, B: 0, Site: "w"},
		{Op: threaded.OpMemLoad, A: 2, B: 0, Site: "r"},
		bin(earthc.Add, 2, 2, 1),
		{Op: threaded.OpRet, A: 2},
	}})
	profiled.Profiled = true

	for _, tc := range []struct {
		name string
		prog *threaded.Program
		cfg  Config
		err  string // "": the run succeeds with ret, time and inst
		ret  int64
		time int64
		inst int64
	}{
		{name: "fuel", prog: countLoop(1 << 40), cfg: fuel,
			err: "earthsim: fuel exhausted: 114688 EU instructions executed (fuel 100000) — raise Config.Fuel / -fuel if the program is genuinely long-running; no blocked fibers recorded"},
		{name: "runaway", prog: countLoop(1 << 40), cfg: runaway,
			err: "earthsim: fiber runaway: main@4 executed 1001 instructions (infinite loop?)"},
		{name: "division by zero", prog: divZero, cfg: DefaultConfig(1),
			err: "earthsim: main@4: integer division by zero"},
		{name: "faddr of null", prog: nullField, cfg: DefaultConfig(1),
			err: "earthsim: main@3: field address of null pointer"},
		{name: "mstore past the budget", prog: pastBudget, cfg: small,
			err: "earthsim: main: local store beyond the node's memory budget"},
		{name: "mstore past the slice with no budget", prog: pastSlice, cfg: unbounded,
			ret: 6, time: 550, inst: 6},
		{name: "mload through a remote pointer", prog: remote, cfg: DefaultConfig(2),
			err: "earthsim: main: 'local' access to address on node 1 from node 0 (locality violation)"},
		{name: "move from a slot in flight", prog: inFlight, cfg: DefaultConfig(2),
			ret: 2, time: 7535, inst: 8},
		{name: "profiled mload", prog: profiled, cfg: DefaultConfig(1),
			ret: 18, time: 700, inst: 6},
	} {
		res, err := New(tc.prog, tc.cfg).Run()
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: got error %v\nwant %s", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if res.MainRet != tc.ret || res.Time != tc.time || res.Counts.Instructions != tc.inst {
			t.Errorf("%s: ret %d, time %d, %d instructions; want %d, %d, %d", tc.name,
				res.MainRet, res.Time, res.Counts.Instructions, tc.ret, tc.time, tc.inst)
		}
		if tc.prog.Profiled {
			if n, remote, ok := res.Profile.AccessCount("r"); !ok || n != 1 || remote != 0 {
				t.Errorf("%s: site r: %d accesses, %d remote, recorded %v; want 1, 0, true", tc.name, n, remote, ok)
			}
		}
	}
}

// binImm is frame[a] = frame[b] op v, or v op frame[b] when left.
func binImm(op earthc.BinOp, a, b int, v int64, left bool) threaded.Instr {
	in := threaded.Instr{Op: threaded.OpBinImm, BOp: op, A: a, B: b, Imm: v}
	if left {
		in.D = 1
	}
	return in
}

// runStepped runs p with the machine's next limit check placed so that
// execLocal stops before instruction at of main's straight-line code and the
// general step runs it.
func runStepped(p *threaded.Program, cfg Config, at int) (*Result, error) {
	m := New(p, cfg)
	m.nextLimitCheck = int64(at) + 1
	return m.Run()
}

// TestBinImmPaths runs bini through both interpreter paths — execLocal, and
// the general step (reached at a limit check, or when the operand has a
// fill in flight) — and requires the same value, time and instruction count
// from each, the value bin computes from two slots, and the same positioned
// trap for an immediate zero divisor.
func TestBinImmPaths(t *testing.T) {
	f := func(v float64) int64 { return int64(math.Float64bits(v)) }
	for _, tc := range []struct {
		name string
		op   earthc.BinOp
		x, c int64 // frame operand, immediate
		left bool  // c op x
		flt  bool
		want int64
		err  string
	}{
		{name: "x - 5", op: earthc.Sub, x: 17, c: 5, want: 12},
		{name: "x << 3", op: earthc.Shl, x: 5, c: 3, want: 40},
		{name: "x < 0", op: earthc.Lt, x: -4, c: 0, want: 1},
		{name: "10 - x", op: earthc.Sub, x: 3, c: 10, left: true, want: 7},
		{name: "7 / x", op: earthc.Div, x: 2, c: 7, left: true, want: 3},
		{name: "1.0 / x", op: earthc.Div, x: f(4), c: f(1), left: true, flt: true, want: f(0.25)},
		{name: "x * 2.5", op: earthc.Mul, x: f(2), c: f(2.5), flt: true, want: f(5)},
		{name: "x % 0", op: earthc.Rem, x: 9, c: 0, err: "earthsim: main@1: integer modulo by zero"},
		{name: "x / 0", op: earthc.Div, x: 9, c: 0, err: "earthsim: main@1: integer division by zero"},
	} {
		in := binImm(tc.op, 1, 0, tc.c, tc.left)
		in.Flt = tc.flt
		p := prog(&threaded.FnCode{Name: "main", NSlots: 2, Code: []threaded.Instr{
			imm(0, tc.x), in, {Op: threaded.OpRet, A: 1},
		}})
		// The same operation with the constant in a slot.
		ref := bin(tc.op, 1, 0, 2)
		if tc.left {
			ref.B, ref.C = 2, 0
		}
		ref.Flt = tc.flt
		refProg := prog(&threaded.FnCode{Name: "main", NSlots: 3, Code: []threaded.Instr{
			imm(0, tc.x), imm(2, tc.c), ref, {Op: threaded.OpRet, A: 1},
		}})
		local, errLocal := New(p, DefaultConfig(1)).Run()
		stepped, errStepped := runStepped(p, DefaultConfig(1), 1)
		if tc.err != "" {
			for _, err := range []error{errLocal, errStepped} {
				if err == nil || err.Error() != tc.err {
					t.Errorf("%s: got error %v, want %s", tc.name, err, tc.err)
				}
			}
			continue
		}
		if errLocal != nil || errStepped != nil {
			t.Errorf("%s: %v / %v", tc.name, errLocal, errStepped)
			continue
		}
		want, err := New(refProg, DefaultConfig(1)).Run()
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if local.MainRet != tc.want || want.MainRet != tc.want {
			t.Errorf("%s: bini gives %#x and bin %#x, want %#x", tc.name, local.MainRet, want.MainRet, tc.want)
		}
		if stepped.MainRet != local.MainRet || stepped.Time != local.Time ||
			stepped.Counts.Instructions != local.Counts.Instructions {
			t.Errorf("%s: general step gives ret %#x, time %d, %d instructions; execLocal %#x, %d, %d", tc.name,
				stepped.MainRet, stepped.Time, stepped.Counts.Instructions,
				local.MainRet, local.Time, local.Counts.Instructions)
		}
		if local.Time+DefaultConfig(1).InstrCost != want.Time {
			t.Errorf("%s: bini takes %d ns, bin with its imm %d; want one instruction less", tc.name, local.Time, want.Time)
		}
	}

	// 10 - x with x in flight from node 1 (which holds 0 there): bini
	// blocks on its operand as bin does and runs when the fill lands.
	inFlight := prog(&threaded.FnCode{Name: "main", NSlots: 3, Code: []threaded.Instr{
		imm(0, threaded.PackAddr(1, 3)),
		{Op: threaded.OpGet, A: 2, B: 0},
		binImm(earthc.Sub, 1, 2, 10, true),
		{Op: threaded.OpRet, A: 1},
	}})
	res, err := New(inFlight, DefaultConfig(2)).Run()
	if err != nil || res.MainRet != 10 || res.Counts.Instructions != 5 {
		t.Errorf("operand in flight: ret %v, err %v; want 10 after 5 instructions (bini twice)", res, err)
	}
}
