package earthsim

// White-box tests for the shard internals: selective-repeat window
// accounting, the EWMA RTO estimator and its clamps, spurious-retransmit
// scoring (with Karn's rule), the shard-tagged id encodings, and fiber
// record recycling.

import (
	"math"
	"testing"
)

// sendOne builds a minimal class-0 message from node 0 to node 1 and hands
// it to sendMsg at time t.
func sendOne(m *shard, t int64) *msg {
	g := m.getMsg()
	g.class, g.src, g.dst = 0, m.nodes[0], m.nodes[1]
	m.sendMsg(g, t, 100)
	return g
}

// TestWindowCapsInFlight: with Window=2, the third and later sends queue
// instead of transmitting, and completing a transaction admits the next
// queued one without exceeding the cap.
func TestWindowCapsInFlight(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultConfig{Window: 2, Seed: 1}
	m := New(loopProg(), cfg).sh[0]
	var gs []*msg
	for i := 0; i < 5; i++ {
		gs = append(gs, sendOne(m, int64(i)))
	}
	key := linkKey(m.nodes[0], m.nodes[1])
	if m.winOpen[key] != 2 {
		t.Errorf("winOpen = %d, want 2", m.winOpen[key])
	}
	if len(m.winQ[key]) != 3 {
		t.Errorf("queued = %d, want 3", len(m.winQ[key]))
	}
	if m.fstats.WindowQueued != 3 {
		t.Errorf("WindowQueued = %d, want 3", m.fstats.WindowQueued)
	}
	for _, g := range gs[2:] {
		if m.txns[g.seq].attempt != 0 {
			t.Errorf("queued txn seq=%d already transmitted (attempt %d)", g.seq, m.txns[g.seq].attempt)
		}
	}
	// Completing one in-flight transaction frees a slot and transmits the
	// head of the queue.
	m.finishTxn(m.txns[gs[0].seq], 50_000, 1)
	if m.winOpen[key] != 2 {
		t.Errorf("winOpen after completion = %d, want 2 (slot reused)", m.winOpen[key])
	}
	if len(m.winQ[key]) != 2 {
		t.Errorf("queued after completion = %d, want 2", len(m.winQ[key]))
	}
	if m.txns[gs[2].seq].attempt != 1 {
		t.Error("head-of-queue transaction was not transmitted on window release")
	}
}

// TestWindowAccessor pins the Window encoding: 0 = default, negative =
// unlimited.
func TestWindowAccessor(t *testing.T) {
	if w := (&FaultConfig{}).window(); w != defaultWindow {
		t.Errorf("default window = %d, want %d", w, defaultWindow)
	}
	if w := (&FaultConfig{Window: -1}).window(); w != 0 {
		t.Errorf("negative window = %d, want 0 (unlimited)", w)
	}
	if w := (&FaultConfig{Window: 5}).window(); w != 5 {
		t.Errorf("window = %d, want 5", w)
	}
}

// TestRTOClamps: the per-link RTO is srtt + 4·rttvar clamped to
// [Timeout/2, Timeout·cap]; without samples — or with the fixedRTO knob —
// it is the configured Timeout.
func TestRTOClamps(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultConfig{Timeout: 10_000, Seed: 1}
	m := New(loopProg(), cfg).sh[0]
	key := uint32(7)
	if got := m.rto(key); got != 10_000 {
		t.Errorf("no-sample rto = %d, want the fixed timeout 10000", got)
	}
	cases := []struct {
		est  rttEst
		want int64
	}{
		{rttEst{srtt: 100, rttvar: 10}, 5_000},              // raw 140 → floor Timeout/2
		{rttEst{srtt: 6_000, rttvar: 500}, 8_000},           // raw in range
		{rttEst{srtt: 1_000_000, rttvar: 250_000}, 320_000}, // raw 2e6 → cap Timeout·32
	}
	for _, tc := range cases {
		est := tc.est
		m.rtt[key] = &est
		if got := m.rto(key); got != tc.want {
			t.Errorf("rto(srtt=%d rttvar=%d) = %d, want %d", est.srtt, est.rttvar, got, tc.want)
		}
	}
	cfg.Faults.fixedRTO = true
	if got := m.rto(key); got != 10_000 {
		t.Errorf("fixedRTO rto = %d, want 10000 regardless of the estimator", got)
	}
}

// TestRttEstimatorConverges: constant samples pin srtt and decay rttvar
// toward zero (RFC 6298 gains).
func TestRttEstimatorConverges(t *testing.T) {
	var e rttEst
	e.observe(8_000)
	if e.srtt != 8_000 || e.rttvar != 4_000 {
		t.Fatalf("first sample: srtt=%d rttvar=%d, want 8000/4000", e.srtt, e.rttvar)
	}
	for i := 0; i < 20; i++ {
		e.observe(8_000)
	}
	if e.srtt != 8_000 {
		t.Errorf("srtt drifted to %d on constant samples", e.srtt)
	}
	if e.rttvar > 100 {
		t.Errorf("rttvar = %d, want near-zero after 20 constant samples", e.rttvar)
	}
}

// TestSpuriousAccountingAndKarn: a transaction completed by an earlier copy
// than the last one sent scores the extra transmissions as spurious, and —
// per Karn's rule — contributes no RTT sample; a clean first-attempt
// completion does.
func TestSpuriousAccountingAndKarn(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultConfig{Timeout: 10_000, Seed: 1}
	m := New(loopProg(), cfg).sh[0]

	g1 := sendOne(m, 0)
	tx1 := m.txns[g1.seq]
	tx1.attempt = 3 // two retransmissions happened
	m.finishTxn(tx1, 30_000, 1)
	if m.fstats.SpuriousRetries != 2 {
		t.Errorf("SpuriousRetries = %d, want 2", m.fstats.SpuriousRetries)
	}
	if m.rtt[tx1.link] != nil {
		t.Error("retransmitted txn contributed an RTT sample (Karn violation)")
	}

	g2 := sendOne(m, 1_000)
	tx2 := m.txns[g2.seq]
	m.finishTxn(tx2, 8_000, 1)
	if m.fstats.SpuriousRetries != 2 {
		t.Errorf("clean completion changed SpuriousRetries: %d", m.fstats.SpuriousRetries)
	}
	e := m.rtt[tx2.link]
	if e == nil || e.srtt != 7_000 {
		t.Errorf("clean completion RTT sample: %+v, want srtt=7000", e)
	}
}

// TestShardIDEncodings pins the id spaces: transaction sequences and trace
// message ids tag the owning shard in bits 40+, fiber ids in bits 32+ — for
// every SimWorkers value, since the worker count never changes the topology.
func TestShardIDEncodings(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		cfg := DefaultConfig(2)
		cfg.SimWorkers = workers
		m := New(loopProg(), cfg)
		if len(m.sh) != 2 {
			t.Fatalf("SimWorkers=%d on 2 nodes: %d shards, want one per node", workers, len(m.sh))
		}
		s0, s1 := m.sh[0], m.sh[1]
		if got := s1.txnSeq(5); got != 2<<40|5 {
			t.Errorf("shard1 txnSeq(5) = %#x, want %#x", got, uint64(2<<40|5))
		}
		if got := s0.txnSeq(5); got != 1<<40|5 {
			t.Errorf("shard0 txnSeq(5) = %#x, want %#x", got, uint64(1<<40|5))
		}
		if got := s1.fiberID(5); got != 1<<32|5 {
			t.Errorf("shard1 fiberID(5) = %#x, want %#x", got, int64(1<<32|5))
		}
		if got := s0.fiberID(5); got != 5 {
			t.Errorf("shard0 fiberID(5) = %#x, want 5", got)
		}
		if got := s1.encMid(5); got != 2<<40|5 {
			t.Errorf("shard1 encMid(5) = %#x, want %#x", got, int64(2<<40|5))
		}
		if got := s1.encMid(0); got != 0 {
			t.Errorf("encMid(0) = %#x, want 0 (no message)", got)
		}
	}
	if got := satAdd(math.MaxInt64, 5); got != math.MaxInt64 {
		t.Errorf("satAdd must saturate: %d", got)
	}
}

// TestFiberRecycleGuards: a fiber still referenced by unfinished children,
// in-flight acks, or pending fills must not be recycled; a quiescent one is,
// and comes back reset.
func TestFiberRecycleGuards(t *testing.T) {
	m := New(loopProg(), DefaultConfig(1)).sh[0]
	f := m.newFiber(0, m.prog.Main, nil, replyRoute{})

	f.children = 1
	m.recycleFiber(f)
	if m.fiberFree != nil {
		t.Error("fiber with live children recycled")
	}
	f.children = 0
	f.outstanding = 2
	m.recycleFiber(f)
	if m.fiberFree != nil {
		t.Error("fiber with in-flight acks recycled")
	}
	f.outstanding = 0
	f.done = true
	f.ninstr = 99
	m.recycleFiber(f)
	if m.fiberFree != f {
		t.Fatal("quiescent fiber not recycled")
	}
	g := m.getFiber()
	if g != f {
		t.Fatal("freelist did not return the recycled record")
	}
	if g.done || g.ninstr != 0 {
		t.Error("recycled fiber state not reset")
	}
}
