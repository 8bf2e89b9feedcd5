package earthsim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/threaded"
	"repro/internal/trace"
)

// drain processes every pending event regardless of main's state.
func drain(m *shard) {
	for len(m.events) > 0 {
		m.dispatch(m.events.pop())
	}
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
	prog := &threaded.Program{
		Funcs: map[string]*threaded.FnCode{"main": {Name: "main", NSlots: 1,
			Code: []threaded.Instr{{Op: threaded.OpRet, A: -1}}}},
	}
	prog.Main = prog.Funcs["main"]
	m := New(prog, DefaultConfig(1)).sh[0]
	n := m.nodes[0]
	for i := 0; i < 3; i++ {
		g := m.getMsg()
		g.class, g.stage = trace.ClassGet, 1
		m.suSched(n, 0, 100, g)
	}
	var done []int64
	for len(m.events) > 0 {
		done = append(done, m.events.pop().time)
	}
	if len(done) != 3 || done[0] != 100 || done[1] != 200 || done[2] != 300 {
		t.Errorf("SU tasks must serialize: got %v", done)
	}
}

// TestNetFIFO: messages between one (src, dst) pair arrive in send order
// even when a later message is smaller/faster.
func TestNetFIFO(t *testing.T) {
	prog := &threaded.Program{
		Funcs: map[string]*threaded.FnCode{"main": {Name: "main", NSlots: 1,
			Code: []threaded.Instr{{Op: threaded.OpRet, A: -1}}}},
	}
	prog.Main = prog.Funcs["main"]
	mach := New(prog, DefaultConfig(2))
	m := mach.sh[0]
	src, dst := m.nodes[0], m.nodes[1]
	// A large (slow) message sent first, then a zero-payload one.
	g1, g2 := m.getMsg(), m.getMsg()
	g1.class, g1.stage = trace.ClassGet, 2
	g2.class, g2.stage = trace.ClassGet, 2
	m.netSched(src, dst, 0, 100, g1)
	m.netSched(src, dst, 1, 0, g2)
	// Node 1 belongs to shard 1, so both hops wait in shard 0's outbox as
	// mail, in send order and with strictly increasing arrival times.
	if len(m.events) != 0 {
		t.Errorf("cross-shard hops scheduled locally: %d events", len(m.events))
	}
	if len(m.outbox) != 2 || m.outbox[0].g != g1 || m.outbox[1].g != g2 {
		t.Fatalf("per-link FIFO violated: outbox %v", m.outbox)
	}
	for _, o := range m.outbox {
		if o.to != mach.sh[1] || o.node != 1 {
			t.Errorf("mail addressed to shard %d node %d, want shard 1 node 1", o.to.id, o.node)
		}
	}
	if m.outbox[0].at >= m.outbox[1].at {
		t.Errorf("later send arrives first: %d then %d", m.outbox[0].at, m.outbox[1].at)
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
