package earthsim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/earthc"
	"repro/internal/threaded"
)

// Hand-assembled guests: EARTH-C has no pointer arithmetic, but threaded
// code does (OpFieldAddr on a raw address), and localWord honours any
// in-budget offset — which is exactly the surface a dirty arena would leak
// through.

func prog(main *threaded.FnCode, fns ...*threaded.FnCode) *threaded.Program {
	p := &threaded.Program{Funcs: map[string]*threaded.FnCode{"main": main}, Main: main}
	for _, f := range fns {
		p.Funcs[f.Name] = f
	}
	return p
}

func imm(a int, v int64) threaded.Instr { return threaded.Instr{Op: threaded.OpLoadImm, A: a, Imm: v} }

func bin(op earthc.BinOp, a, b, c int) threaded.Instr {
	return threaded.Instr{Op: threaded.OpBin, BOp: op, A: a, B: b, C: c}
}

// Scribbler endings.
const (
	endRet = iota
	endTrap
	endSpin
)

// scribbleProg stores non-zero words 13 apart up to ~20k words above each
// node's heap top, on every node. Node 0 (inline, after the calls to the
// others went out) then returns; nodes 1.. return too, or start an
// alloc_on(0) and divide by zero with its fill in flight, or spin forever.
func scribbleProg(end int) *threaded.Program {
	// work slots: 0 p, 1 i, 2 one, 3 limit, 4 cond
	work := &threaded.FnCode{Name: "work", NSlots: 5, Code: []threaded.Instr{
		{Op: threaded.OpAlloc, A: 0, B: -1, C: 4},
		imm(1, 0), imm(2, 1), imm(3, 1500),
		{Op: threaded.OpFieldAddr, A: 0, B: 0, C: 13}, // 4: p += 13
		{Op: threaded.OpMemStore, A: 3, B: 0},         //    *p = 1500
		bin(earthc.Add, 1, 1, 2),
		bin(earthc.Lt, 4, 1, 3),
		{Op: threaded.OpJmpIf, A: 4, C: 4},
		{Op: threaded.OpMyNode, A: 4},
		{Op: threaded.OpJmpIfNot, A: 4, C: 14},
		imm(4, 0), // 11
		{}, {},    // 12, 13: the ending
		{Op: threaded.OpRet, A: -1},
	}}
	switch end {
	case endTrap:
		work.Code[12] = threaded.Instr{Op: threaded.OpAlloc, A: 1, B: 4, C: 1}
		work.Code[13] = bin(earthc.Div, 4, 2, 4)
	case endSpin:
		work.Code[12] = threaded.Instr{Op: threaded.OpJmp, C: 12}
	}
	// main slots: 0 n, 1 one, 2 zero, 3 cond
	main := &threaded.FnCode{Name: "main", NSlots: 4, Code: []threaded.Instr{
		{Op: threaded.OpNumNodes, A: 0},
		imm(1, 1), imm(2, 0),
		bin(earthc.Sub, 0, 0, 1),                             // 3: n--
		{Op: threaded.OpCallAt, A: -1, B: 1, C: 0, Fn: work}, //    work()@ON(n)
		bin(earthc.Gt, 3, 0, 2),                              //    n > 0
		{Op: threaded.OpJmpIf, A: 3, C: 3},                   //
		{Op: threaded.OpRet, A: -1},                          // fences the void calls
	}}
	return prog(main, work)
}

// probeProg sums, on every node, 24k words above the heap top — words the
// program never allocated — and returns (and prints) the total.
func probeProg() *threaded.Program {
	// probe slots: 0 p, 1 i, 2 one, 3 limit, 4 cond, 5 sum, 6 v
	probe := &threaded.FnCode{Name: "probe", NSlots: 7, Code: []threaded.Instr{
		{Op: threaded.OpAlloc, A: 0, B: -1, C: 1},
		imm(1, 0), imm(2, 1), imm(3, 24000), imm(5, 0),
		{Op: threaded.OpFieldAddr, A: 0, B: 0, C: 1}, // 5: p++
		{Op: threaded.OpMemLoad, A: 6, B: 0},
		bin(earthc.Add, 5, 5, 6),
		bin(earthc.Add, 1, 1, 2),
		bin(earthc.Lt, 4, 1, 3),
		{Op: threaded.OpJmpIf, A: 4, C: 5},
		{Op: threaded.OpRet, A: 5},
	}}
	// main slots: 0 n, 1 nn, 2 one, 3 cond, 4 r, 5 total
	main := &threaded.FnCode{Name: "main", NSlots: 6, Code: []threaded.Instr{
		imm(0, 0), {Op: threaded.OpNumNodes, A: 1}, imm(2, 1), imm(5, 0),
		{Op: threaded.OpCallAt, A: 4, B: 1, C: 0, Fn: probe}, // 4: r = probe()@ON(n)
		bin(earthc.Add, 5, 5, 4),
		bin(earthc.Add, 0, 0, 2),
		bin(earthc.Lt, 3, 0, 1),
		{Op: threaded.OpJmpIf, A: 3, C: 4},
		{Op: threaded.OpPrint, B: 5, C: threaded.PrintInt},
		{Op: threaded.OpRet, A: 5},
	}}
	return prog(main, probe)
}

// pollCtx is a context that reports cancellation from its sixth Done poll
// on: by then every node of the scribbler has stored and is spinning.
type pollCtx struct {
	context.Context
	polls  atomic.Int32 // worker goroutines poll too
	closed chan struct{}
}

func newPollCtx() *pollCtx {
	c := &pollCtx{Context: context.Background(), closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls.Add(1) > 5 {
		return c.closed
	}
	return nil
}

func (c *pollCtx) Err() error { return context.Canceled }

// poolClean takes arena sets out of the pool, checks the pool's invariants
// on each arena — within the size cap, zero through the capacity of both
// arrays, free lists empty — puts them back, and reports whether any had
// backing memory (i.e. came from an earlier run).
func poolClean(t *testing.T) (reused bool) {
	t.Helper()
	var held []*arenaSet
	for i := 0; i < 64; i++ {
		set := arenaPool.Get().(*arenaSet)
		held = append(held, set)
		if len(set.a) == 0 {
			break // the pool ran dry and made a new one
		}
		for _, a := range set.a {
			reused = reused || cap(a.mem) > 0
			if len(a.mem) != 0 || len(a.pending) != 0 {
				t.Errorf("pooled arena has length %d/%d, want 0", len(a.mem), len(a.pending))
			}
			if cap(a.mem) > arenaMaxWords {
				t.Errorf("pooled arena of %d words, cap is %d", cap(a.mem), arenaMaxWords)
			}
			for size, l := range a.freeSmall {
				if len(l) != 0 {
					t.Errorf("pooled arena: %d free frames of size %d", len(l), size)
				}
			}
			for j, w := range a.mem[:cap(a.mem)] {
				if w != 0 {
					t.Fatalf("pooled arena: mem[%d] = %d, want 0", j, w)
				}
			}
			for j, c := range a.pending[:cap(a.pending)] {
				if c != 0 {
					t.Fatalf("pooled arena: pending[%d] = %d, want 0", j, c)
				}
			}
		}
	}
	for _, set := range held {
		arenaPool.Put(set)
	}
	return reused
}

// TestArenaIsolation: whatever a job wrote — and however it ended — the next
// machine built from the pool sees all-zero memory, and runs bit-identically
// to one that never shared a process with it. The finished machine itself
// refuses a second Run instead of computing on the arenas it gave back.
func TestArenaIsolation(t *testing.T) {
	// Windows run inline: zero workers, the only way a round runs.
	t.Run("workers=0", func(t *testing.T) {
		cfg := DefaultConfig(4)
		probe := func() string {
			t.Helper()
			res, err := New(probeProg(), cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.MainRet != 0 || res.Output != "0\n" {
				t.Fatalf("probe read another job's words: sum %d, output %q", res.MainRet, res.Output)
			}
			return fmt.Sprintf("%+v", *res)
		}
		ref := probe()

		spinCfg := cfg
		spinCfg.Fuel = 200_000
		reused := false
		for _, tc := range []struct {
			name string
			m    *Machine
			want error // nil: the run succeeds
			text string
		}{
			{"returns", New(scribbleProg(endRet), cfg), nil, ""},
			{"traps", New(scribbleProg(endTrap), cfg), nil, "division by zero"},
			{"out of fuel", New(scribbleProg(endSpin), spinCfg), ErrFuelExhausted, ""},
			{"canceled", New(scribbleProg(endSpin), cfg).SetContext(newPollCtx()), ErrCanceled, ""},
		} {
			_, err := tc.m.Run()
			switch {
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("%s: want %v, got %v", tc.name, tc.want, err)
			case tc.text != "" && (err == nil || !strings.Contains(err.Error(), tc.text)):
				t.Fatalf("%s: want an error containing %q, got %v", tc.name, tc.text, err)
			case tc.want == nil && tc.text == "" && err != nil:
				t.Fatalf("%s: %v", tc.name, err)
			}
			reused = poolClean(t) || reused
			if res, err := tc.m.Run(); res != nil || err == nil || !strings.Contains(err.Error(), "Run called twice") {
				t.Errorf("%s: second Run on the same Machine: got %v, %v, want a called-twice error", tc.name, res, err)
			}
			poolClean(t)
			for i := 0; i < 2; i++ {
				if got := probe(); got != ref {
					t.Errorf("after a scribbler that %s, probe run %d differs:\n got %s\nwant %s", tc.name, i, got, ref)
				}
			}
		}
		if !reused {
			t.Error("no machine ever got a used arena back: the pool is not pooling")
		}
	})
}

// TestArenaCapNotPooled: a node grown past arenaMaxWords is dropped at the
// end of the run, not kept alive by the pool.
func TestArenaCapNotPooled(t *testing.T) {
	// main slots: 0 p, 1 v
	main := &threaded.FnCode{Name: "main", NSlots: 2, Code: []threaded.Instr{
		{Op: threaded.OpAlloc, A: 0, B: -1, C: 1},
		imm(1, 7),
		{Op: threaded.OpMemStore, A: 1, B: 0, C: arenaMaxWords + 10},
		{Op: threaded.OpRet, A: -1},
	}}
	m := New(prog(main), DefaultConfig(1))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.nodes[0].mem != nil || m.nodes[0].arena != nil {
		t.Error("node still holds its arena after Run")
	}
	poolClean(t)
}

// inflightRetProg: work() issues three hoisted remote reads and returns with
// all of them still in flight, so OpRet must drain them.
func inflightRetProg() *threaded.Program {
	// work slots: 0 one, 1 p, 2..4 the reads
	work := &threaded.FnCode{Name: "work", NSlots: 5, Code: []threaded.Instr{
		imm(0, 1),
		{Op: threaded.OpAlloc, A: 1, B: 0, C: 4}, // p = alloc_on(1, 4 words)
		{Op: threaded.OpGet, A: 2, B: 1, C: 0},
		{Op: threaded.OpGet, A: 3, B: 1, C: 1},
		{Op: threaded.OpGet, A: 4, B: 1, C: 2},
		{Op: threaded.OpRet, A: -1},
	}}
	main := &threaded.FnCode{Name: "main", NSlots: 1, Code: []threaded.Instr{
		{Op: threaded.OpCall, A: -1, Fn: work},
		{Op: threaded.OpRet, A: -1},
	}}
	return prog(main, work)
}

// TestReturnDrainsFillsInOffsetOrder: a returning fiber blocks on its lowest
// outstanding offset, so the wake → re-execute count — and with it
// Instructions, EU time and Events — is a function of the program alone.
// (With fiber.pending a map this varied run to run.)
func TestReturnDrainsFillsInOffsetOrder(t *testing.T) {
	type key struct{ time, events, instr int64 }
	var ref key
	for i := 0; i < 50; i++ {
		res, err := New(inflightRetProg(), DefaultConfig(2)).Run()
		if err != nil {
			t.Fatal(err)
		}
		got := key{res.Time, res.Events, res.Counts.Instructions}
		if i == 0 {
			ref = got
			// 2 + 6 straight-line instructions, the first get re-executed
			// once (it waits for p), OpRet once per fill it had to wait for.
			if got.instr != 2+6+1+3 {
				t.Errorf("instructions = %d, want %d", got.instr, 2+6+1+3)
			}
		} else if got != ref {
			t.Fatalf("run %d: %+v, first run %+v", i, got, ref)
		}
	}
}

// TestBlockedReportCountsFills: the deadlock report names the slot and the
// number of fills outstanding on it — the counter without its waiter flag —
// for every fiber parked there, and is built while the arenas still exist.
func TestBlockedReportCountsFills(t *testing.T) {
	arm := &threaded.FnCode{Name: "arm", NSlots: 3, IsArm: true, Code: []threaded.Instr{
		{Op: threaded.OpMove, A: 2, B: 1},
		{Op: threaded.OpRet, A: -1},
	}}
	main := &threaded.FnCode{Name: "main", NSlots: 3, Code: []threaded.Instr{
		{Op: threaded.OpSpawnArm, Fn: arm},
		{Op: threaded.OpMove, A: 0, B: 1},
		{Op: threaded.OpJoin},
		{Op: threaded.OpRet, A: -1},
	}}
	m := New(prog(main, arm), DefaultConfig(1))
	// One fill that will never arrive, on slot 1 of the (future) main frame.
	m.nodes[0].pending[m.nodes[0].heapTop+1] = 1
	_, err := m.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	for _, want := range []string{"main@1", "arm@0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report does not name %s: %v", want, err)
		}
	}
	if n := strings.Count(err.Error(), "on frame slot 1 (abs "); n != 2 {
		t.Errorf("%d fibers reported on frame slot 1, want 2: %v", n, err)
	}
	if n := strings.Count(err.Error(), "; 1 fill(s) outstanding)"); n != 2 {
		t.Errorf("%d reports of exactly 1 outstanding fill, want 2: %v", n, err)
	}
}

// TestDuplicateFillNeverBelowZero: a second delivery of the same fill leaves
// the presence counter at zero — it must not wrap, or the next read issued
// into the word would look complete while still in flight.
func TestDuplicateFillNeverBelowZero(t *testing.T) {
	m := New(loopProg(), DefaultConfig(1))
	f := m.newFiber(0, m.prog.Main, nil, replyRoute{})
	n, abs := f.node, f.base
	f.addPending(abs)
	m.block(f, abs)
	m.fill(f, abs, 5, 0)
	if n.pending[abs] != 0 || len(f.pending) != 0 || len(n.waiters) != 0 || f.blocked() {
		t.Fatalf("after the fill: counter %d, fiber list %v, %d waiter lists, blocked %v",
			n.pending[abs], f.pending, len(n.waiters), f.blocked())
	}
	m.fill(f, abs, 6, 0) // the duplicate
	if n.pending[abs] != 0 || len(f.pending) != 0 {
		t.Fatalf("duplicate fill moved the counter to %d (fiber list %v)", n.pending[abs], f.pending)
	}
	f.addPending(abs)
	if n.pending[abs] != 1 {
		t.Errorf("counter after a new read = %d, want 1", n.pending[abs])
	}
}

// TestDupInjectionDeliversOnce: under the fault layer's duplicate injection
// the reads of inflightRetProg are each delivered exactly once — same
// program-visible result as the clean run, with duplicates actually drawn.
func TestDupInjectionDeliversOnce(t *testing.T) {
	clean, err := New(inflightRetProg(), DefaultConfig(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	dups := int64(0)
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := DefaultConfig(2)
		if cfg.Faults, err = ParseFaultSpec(fmt.Sprintf("drop=0,dup=0.05,seed=%d", seed)); err != nil {
			t.Fatal(err)
		}
		res, err := New(inflightRetProg(), cfg).Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Visible() != clean.Visible() {
			t.Errorf("seed %d: %s, clean run %s", seed, res.Visible(), clean.Visible())
		}
		dups += res.Faults.Dups
	}
	if dups == 0 {
		t.Error("no duplicate was ever injected: the test exercised nothing")
	}
}
