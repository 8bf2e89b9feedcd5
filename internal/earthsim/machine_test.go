package earthsim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/threaded"
	"repro/internal/trace"
)

// emptyProg is a main that returns at once.
func emptyProg() *threaded.Program {
	prog := &threaded.Program{
		Funcs: map[string]*threaded.FnCode{"main": {Name: "main", NSlots: 1,
			Code: []threaded.Instr{{Op: threaded.OpRet, A: -1}}}},
	}
	prog.Main = prog.Funcs["main"]
	return prog
}

// popAll empties the machine's event queue, returning the events in the
// order the event loop would dispatch them.
func popAll(m *Machine) []event {
	var evs []event
	for len(m.events) > 0 {
		evs = append(evs, m.events.pop())
	}
	return evs
}

// TestAddrPacking checks the global-address scheme round-trips.
func TestAddrPacking(t *testing.T) {
	for _, node := range []int{0, 1, 7, 200} {
		for _, off := range []int64{0, 1, 12345, 1 << 30} {
			a := threaded.PackAddr(node, off)
			if a == 0 {
				t.Fatalf("packed address must be nonzero (node %d off %d)", node, off)
			}
			if threaded.AddrNode(a) != node || threaded.AddrOff(a) != off {
				t.Errorf("round trip failed: node %d off %d -> %d/%d",
					node, off, threaded.AddrNode(a), threaded.AddrOff(a))
			}
		}
	}
	if threaded.AddrNode(0) != -1 {
		t.Error("address 0 must decode to an invalid node (null)")
	}
}

// TestSUTaskSerialization: the SU is a serial resource — overlapping tasks
// queue behind each other.
func TestSUTaskSerialization(t *testing.T) {
	m := New(emptyProg(), DefaultConfig(1))
	n := m.nodes[0]
	for i := 0; i < 3; i++ {
		g := m.getMsg()
		g.class, g.stage = trace.ClassGet, 1
		m.suSched(n, 0, 100, g)
	}
	var done []int64
	for _, ev := range popAll(m) {
		done = append(done, ev.time)
	}
	if len(done) != 3 || done[0] != 100 || done[1] != 200 || done[2] != 300 {
		t.Errorf("SU tasks must serialize: got %v", done)
	}
}

// TestNetFIFO: messages between one (src, dst) pair arrive in send order
// even when a later message is smaller/faster.
func TestNetFIFO(t *testing.T) {
	m := New(emptyProg(), DefaultConfig(2))
	src, dst := m.nodes[0], m.nodes[1]
	// A large (slow) message sent first, then a zero-payload one.
	g1, g2 := m.getMsg(), m.getMsg()
	g1.class, g1.stage = trace.ClassGet, 2
	g2.class, g2.stage = trace.ClassGet, 2
	m.netSched(src, dst, 0, 100, g1)
	m.netSched(src, dst, 1, 0, g2)
	// Both hops are arrivals at node 1 in the machine's one queue, in send
	// order and with strictly increasing arrival times.
	evs := popAll(m)
	if len(evs) != 2 || evs[0].g != g1 || evs[1].g != g2 {
		t.Fatalf("per-link FIFO violated: %+v", evs)
	}
	for _, ev := range evs {
		if ev.kind != evNetArrive || ev.node != 1 {
			t.Errorf("hop scheduled as kind %d for node %d, want an arrival at node 1", ev.kind, ev.node)
		}
	}
	if evs[0].time >= evs[1].time {
		t.Errorf("later send arrives first: %d then %d", evs[0].time, evs[1].time)
	}
}

// TestSimultaneousArrivalsInScheduleOrder pins the machine's tie rule: two
// messages from different senders that reach one node in the same
// nanosecond are served in the order their arrivals were scheduled —
// whichever sender went first, and whatever the senders' node ids.
func TestSimultaneousArrivalsInScheduleOrder(t *testing.T) {
	for _, senders := range [][2]int{{1, 2}, {2, 1}} {
		mach := New(emptyProg(), DefaultConfig(3))
		dst := mach.nodes[0]
		var sent [2]*msg
		for i, id := range senders {
			g := mach.getMsg()
			g.class, g.stage = trace.ClassGet, 2
			mach.netSched(mach.nodes[id], dst, 0, 0, g)
			sent[i] = g
		}
		evs := popAll(mach)
		if len(evs) != 2 || evs[0].time != evs[1].time {
			t.Fatalf("senders %v: want two arrivals at one time, got %+v", senders, evs)
		}
		if evs[0].g != sent[0] || evs[1].g != sent[1] {
			t.Errorf("senders %v: arrivals served out of schedule order", senders)
		}
	}
}

// TestFrameReuse: freed frames are reused and re-zeroed.
func TestFrameReuse(t *testing.T) {
	prog := &threaded.Program{
		Funcs: map[string]*threaded.FnCode{"main": {Name: "main", NSlots: 1,
			Code: []threaded.Instr{{Op: threaded.OpRet, A: -1}}}},
	}
	prog.Main = prog.Funcs["main"]
	m := New(prog, DefaultConfig(1))
	n := m.nodes[0]
	b1 := n.allocFrame(8)
	n.mem[b1+3] = 99
	n.freeFrame(b1, 8)
	b2 := n.allocFrame(8)
	if b2 != b1 {
		t.Errorf("frame not reused: %d vs %d", b2, b1)
	}
	if n.mem[b2+3] != 0 {
		t.Error("reused frame not zeroed")
	}
}

// TestDeadlockDetection: a fiber blocked on a slot nobody fills is reported
// as a deadlock, not a hang.
func TestDeadlockDetection(t *testing.T) {
	fc := &threaded.FnCode{Name: "main", NSlots: 2}
	fc.Code = []threaded.Instr{
		{Op: threaded.OpJoin}, // no children ever: fine
		{Op: threaded.OpRet, A: -1},
	}
	prog := &threaded.Program{Funcs: map[string]*threaded.FnCode{"main": fc}, Main: fc}
	if _, err := New(prog, DefaultConfig(1)).Run(); err != nil {
		t.Fatalf("empty join should complete: %v", err)
	}

	// A fiber parked on a slot no one will fill must surface as a
	// deadlock error rather than a hang.
	fc2 := &threaded.FnCode{Name: "main", NSlots: 2}
	fc2.Code = []threaded.Instr{
		{Op: threaded.OpMove, A: 0, B: 1},
		{Op: threaded.OpRet, A: -1},
	}
	prog2 := &threaded.Program{Funcs: map[string]*threaded.FnCode{"main": fc2}, Main: fc2}
	m := New(prog2, DefaultConfig(1))
	// Mark slot 1 of the (future) main frame as eternally pending. The main
	// frame lands at the current heap top.
	base := m.nodes[0].heapTop
	m.nodes[0].pending[base+1] = 1
	_, err := m.Run()
	if err == nil {
		t.Fatal("expected a deadlock error for an unfillable pending slot")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("deadlock error does not wrap ErrDeadlock: %v", err)
	}
	// The diagnostic must name the stuck fiber and the slot it waits on.
	for _, want := range []string{"blocked fibers", "main@", "frame slot 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report missing %q: %v", want, err)
		}
	}
}

// TestDeadlockReportsEveryNode: a deadlock that leaves fibers blocked on two
// nodes names fibers of both in one report, capped at 16 lines however many
// nodes are stuck. main calls stuck on node 1, and each of the two spawns 12
// arms that block on frame slot 1, marked eternally pending on both nodes:
// 26 blocked fibers in all.
func TestDeadlockReportsEveryNode(t *testing.T) {
	const arms = 12
	wait := &threaded.FnCode{Name: "wait", NSlots: 3, IsArm: true, Code: []threaded.Instr{
		{Op: threaded.OpMove, A: 2, B: 1},
		{Op: threaded.OpRet, A: -1},
	}}
	spawnAndJoin := func(code ...threaded.Instr) []threaded.Instr {
		for i := 0; i < arms; i++ {
			code = append(code, threaded.Instr{Op: threaded.OpSpawnArm, Fn: wait})
		}
		return append(code, threaded.Instr{Op: threaded.OpJoin}, threaded.Instr{Op: threaded.OpRet, A: -1})
	}
	stuck := &threaded.FnCode{Name: "stuck", NSlots: 3, Code: spawnAndJoin()}
	main := &threaded.FnCode{Name: "main", NSlots: 3, Code: spawnAndJoin(
		imm(0, 1),
		threaded.Instr{Op: threaded.OpCallAt, A: -1, B: 1, C: 0, Fn: stuck},
	)}
	m := New(prog(main, wait, stuck), DefaultConfig(2))
	// main's frame lands at node 0's heap top, stuck's at node 1's (zero).
	m.nodes[0].pending[m.nodes[0].heapTop+1] = 1
	m.nodes[1].ensure(0, 3)
	m.nodes[1].pending[1] = 1
	_, err := m.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"node 0) blocked", "node 1) blocked", "\n  ... and 10 more blocked fiber(s)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report missing %q: %v", want, err)
		}
	}
	if n := strings.Count(msg, "\n  fiber "); n != 16 {
		t.Errorf("deadlock report lists %d fibers, want 16: %v", n, err)
	}
}

// TestMainReturnPropagates: the value returned by main surfaces in Result.
func TestMainReturnPropagates(t *testing.T) {
	fc := &threaded.FnCode{Name: "main", NSlots: 1}
	fc.Code = []threaded.Instr{
		{Op: threaded.OpLoadImm, A: 0, Imm: 77},
		{Op: threaded.OpRet, A: 0},
	}
	prog := &threaded.Program{Funcs: map[string]*threaded.FnCode{"main": fc}, Main: fc}
	res, err := New(prog, DefaultConfig(1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MainRet != 77 {
		t.Errorf("MainRet = %d, want 77", res.MainRet)
	}
	if res.Counts.Instructions != 2 {
		t.Errorf("instructions = %d, want 2", res.Counts.Instructions)
	}
}

// TestCountsString smoke-checks the Counts renderer.
func TestCountsString(t *testing.T) {
	c := Counts{RemoteReads: 5, RemoteWrites: 2, RemoteBlk: 1}
	if c.TotalRemote() != 8 {
		t.Errorf("TotalRemote = %d", c.TotalRemote())
	}
	if len(c.String()) == 0 {
		t.Error("empty Counts string")
	}
}
