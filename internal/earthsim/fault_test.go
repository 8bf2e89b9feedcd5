package earthsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/threaded"
)

func TestParseFaultSpec(t *testing.T) {
	f, err := ParseFaultSpec("drop=0.01, dup=0.005, delay=3, stall=0.1, stallns=5000, timeout=50000, retries=9, seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if f.Drop != 0.01 || f.Dup != 0.005 || f.Delay != 3 || f.Stall != 0.1 {
		t.Errorf("distributions misparsed: %+v", f)
	}
	if f.StallNs != 5000 || f.Timeout != 50000 || f.MaxRetries != 9 || f.Seed != 42 {
		t.Errorf("parameters misparsed: %+v", f)
	}

	if f, err := ParseFaultSpec("  "); err != nil || f != nil {
		t.Errorf("empty spec must be (nil, nil), got (%v, %v)", f, err)
	}
	for _, bad := range []string{
		"drop",          // no value
		"drop=x",        // not a number
		"drop=1.5",      // probability out of [0,1)
		"drop=-0.1",     // negative probability
		"delay=-2",      // negative parameter
		"jitter=3",      // unknown key
		"timeout=abc",   // not an integer
		"drop=0.5,dup6", // malformed entry
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestFaultSpecString(t *testing.T) {
	f, err := ParseFaultSpec("drop=0.05,dup=0.01,delay=3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	round, err := ParseFaultSpec(f.String())
	if err != nil {
		t.Fatalf("String() output %q did not re-parse: %v", f, err)
	}
	if *round != *f {
		t.Errorf("spec did not round-trip: %q vs %q", f, round)
	}
	if (&FaultConfig{}).String() != "none" {
		t.Errorf("empty config String = %q", (&FaultConfig{}).String())
	}
}

// loopProg is a guest that never terminates: a one-instruction jump loop.
func loopProg() *threaded.Program {
	fc := &threaded.FnCode{Name: "main", NSlots: 1}
	fc.Code = []threaded.Instr{{Op: threaded.OpJmp, C: 0}}
	return &threaded.Program{Funcs: map[string]*threaded.FnCode{"main": fc}, Main: fc}
}

func TestFuelExhausted(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Fuel = 1000
	_, err := New(loopProg(), cfg).Run()
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("want ErrFuelExhausted, got %v", err)
	}
	if !strings.Contains(err.Error(), "fuel") {
		t.Errorf("error does not mention fuel: %v", err)
	}
}

// TestFuelIsMachineWide: fuel bounds the sum of every node's instructions.
// Every node spins: each loop trip calls a function on the next node and
// waits for its result, so all four keep executing. The machine checks its
// total every limitCheckInterval instructions, whichever node executes
// them, so the run stops past Fuel by at most one interval.
func TestFuelIsMachineWide(t *testing.T) {
	const nodes = 4
	one := &threaded.FnCode{Name: "one", NSlots: 1, Code: []threaded.Instr{imm(0, 1), {Op: threaded.OpRet, A: 0}}}
	// loop calls one()@ON(slot 0) into slot 1, waits on it and repeats.
	loop := func(at int) []threaded.Instr {
		return []threaded.Instr{
			{Op: threaded.OpCallAt, A: 1, B: 1, C: 0, Fn: one},
			{Op: threaded.OpMove, A: 2, B: 1},
			{Op: threaded.OpJmp, C: at},
		}
	}
	spin := &threaded.FnCode{Name: "spin", NSlots: 3, Params: []int{0}, Code: loop(0)}
	main := &threaded.FnCode{Name: "main", NSlots: 3}
	for id := 1; id < nodes; id++ {
		main.Code = append(main.Code, imm(0, int64(id)), imm(1, int64((id+1)%nodes)),
			threaded.Instr{Op: threaded.OpCallAt, A: -1, B: 1, C: 0, Args: []int{1}, Fn: spin})
	}
	main.Code = append(main.Code, imm(0, 1))
	main.Code = append(main.Code, loop(len(main.Code))...)
	cfg := DefaultConfig(nodes)
	cfg.Fuel = 100_000
	m := New(prog(main, spin, one), cfg)
	_, err := m.Run()
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("want ErrFuelExhausted, got %v", err)
	}
	var reported, fuel int64
	if _, scanErr := fmt.Sscanf(err.Error(), "earthsim: fuel exhausted: %d EU instructions executed (fuel %d)", &reported, &fuel); scanErr != nil {
		t.Fatalf("no instruction total in %q: %v", err, scanErr)
	}
	for _, n := range m.nodes {
		if n.nextFiber == 0 {
			t.Errorf("node %d never ran a fiber", n.id)
		}
	}
	total := m.counts.Instructions
	if reported != total || fuel != cfg.Fuel {
		t.Errorf("reported %d instructions (fuel %d); the machine executed %d (fuel %d)", reported, fuel, total, cfg.Fuel)
	}
	if total <= cfg.Fuel || total > cfg.Fuel+limitCheckInterval {
		t.Errorf("stopped at %d instructions, want in (%d, %d]", total, cfg.Fuel, cfg.Fuel+limitCheckInterval)
	}
}

func TestWallDeadline(t *testing.T) {
	m := New(loopProg(), DefaultConfig(1))
	m.SetDeadline(time.Nanosecond)
	_, err := m.Run()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

// TestFaultFreeScheduleUnchanged locks the zero-cost-when-disabled property
// at the event level: with Config.Faults nil, sendMsg must be exactly the
// pre-fault path (no transactions, no sequence numbers, no timers).
func TestFaultFreeScheduleUnchanged(t *testing.T) {
	m := New(loopProg(), DefaultConfig(2))
	g := m.getMsg()
	g.class, g.f, g.src, g.dst = 0, nil, m.nodes[0], m.nodes[1]
	m.sendMsg(g, 0, 100)
	if g.seq != 0 || g.lseq != 0 {
		t.Errorf("fault-free sendMsg assigned sequence numbers: seq=%d lseq=%d", g.seq, g.lseq)
	}
	if len(m.events) != 1 {
		t.Errorf("fault-free sendMsg scheduled %d events, want 1 (no retry timer)", len(m.events))
	}
	if m.txns != nil || m.seen != nil {
		t.Error("fault-free machine allocated protocol state")
	}
}

// TestRetryBackoffCap: the retransmit timeout doubles per retry but is
// capped, so a long outage cannot push the timer past all usefulness.
func TestRetryBackoffCap(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultConfig{Drop: 0.9999, MaxRetries: 6, Seed: 1}
	m := New(loopProg(), cfg)
	g := m.getMsg()
	g.class, g.src, g.dst = 0, m.nodes[0], m.nodes[1]
	m.sendMsg(g, 0, 100)
	tx := m.txns[g.seq]
	base := cfg.Faults.timeout()
	for i := 0; i < 20 && m.trap == nil; i++ {
		m.retryFire(tx, int64(i)*base)
		if tx.timeout > base*backoffCapFactor {
			t.Fatalf("timeout %d exceeds cap %d", tx.timeout, base*backoffCapFactor)
		}
	}
	if m.trap == nil {
		t.Fatal("exhausted retries must trap the run")
	}
	if !strings.Contains(m.trap.Error(), "retry budget") {
		t.Errorf("trap does not explain the retry budget: %v", m.trap)
	}
}
