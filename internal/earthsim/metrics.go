package earthsim

import (
	"slices"

	"repro/internal/metrics"
)

// simMetrics is the shard-side accumulator behind SetMetrics: cheap
// cumulative counters bumped from the EU/SU/network hooks of the shard's
// node. At each sampling boundary the shard appends a shardSample
// contribution to pend, and the coordinator merges the contributions from
// every shard at the next barrier (mergeSamples) — only the final
// Sampler.Record crosses goroutines, at barrier time.
type simMetrics struct {
	interval int64
	next     int64 // next simulated-time sampling boundary

	euBusy int64 // cumulative EU busy ns
	suBusy int64 // cumulative SU busy ns
	// suDone is a FIFO of the node's SU completion times. suSched pushes in
	// acceptance order and n.suFree is monotone, so the queue is sorted: the
	// sample drains completions ≤ t from suHead and what remains is exactly
	// the requests accepted but not finished at t — the SU queue depth.
	suDone []int64
	suHead int
	// links holds the node's out-links sorted by destination. A node talks
	// to few peers, so a binary search stands in for a map and a snapshot
	// needs no sort.
	links []linkAgg

	// pend holds boundary contributions not yet merged. pendAt is the
	// consumer cursor so the backing array is reused.
	pend   []shardSample
	pendAt int
}

// linkAgg accumulates the traffic of the link to dst.
type linkAgg struct {
	dst               int
	busy, msgs, words int64
}

// shardSample is one shard's cumulative contribution to the machine-wide
// sample at a boundary: counter totals as of that simulated time, plus the
// shard's own node and out-link snapshots.
type shardSample struct {
	time         int64
	instructions int64
	remoteReads  int64
	remoteWrites int64
	blkMoves     int64
	liveFibers   int64
	retries      int64
	spurious     int64
	drops        int64
	dups         int64
	stalls       int64
	node         metrics.NodeSample
	links        []metrics.LinkSample
}

// SetMetrics attaches a time-series sampler to the machine (call before
// Run; nil detaches). Like SetTrace, sampling is purely observational — the
// hooks never alter costs or scheduling — and the hooks are consulted only
// in event-loop order, so for identical seed + spec the recorded series is
// bit-identical run to run. A machine without a sampler pays one nil check
// per instrumentation point and allocates nothing. Returns m for chaining.
func (m *Machine) SetMetrics(s *metrics.Sampler) *Machine {
	m.sampler = s
	if s == nil {
		for _, sh := range m.sh {
			sh.ms = nil
		}
		return m
	}
	m.gNext = s.Interval()
	m.gLast = -1
	for _, sh := range m.sh {
		sh.ms = &simMetrics{
			interval: s.Interval(),
			next:     s.Interval(),
			pend:     make([]shardSample, 0, 4),
		}
	}
	return m
}

// suObserve records one SU service interval (hook in suSched).
func (ms *simMetrics) suObserve(busy, done int64) {
	ms.suBusy += busy
	ms.suDone = append(ms.suDone, done)
}

// linkObserve records one wire hop on the link to dst (hook in netSched).
func (ms *simMetrics) linkObserve(dst int, busy, words int64) {
	i, ok := slices.BinarySearchFunc(ms.links, dst, func(la linkAgg, dst int) int { return la.dst - dst })
	if !ok {
		ms.links = slices.Insert(ms.links, i, linkAgg{dst: dst})
	}
	la := &ms.links[i]
	la.busy += busy
	la.msgs++
	la.words += words
}

// sampleTick takes every sample due at or before t (hook in the event loop,
// before each event dispatches, so a sample at boundary B covers exactly the
// events with time < B).
func (m *shard) sampleTick(t int64) {
	for m.ms.next <= t {
		m.takeSample(m.ms.next)
		m.ms.next += m.ms.interval
	}
}

// drainSUQueue advances the SU completion FIFO past t and returns the
// remaining depth — the SU queue length at time t.
func (ms *simMetrics) drainSUQueue(t int64) int64 {
	q, h := ms.suDone, ms.suHead
	for h < len(q) && q[h] <= t {
		h++
	}
	if h == len(q) {
		q, h = q[:0], 0
		ms.suDone = q
	}
	ms.suHead = h
	return int64(len(q) - h)
}

// takeSample snapshots the shard at simulated time t onto the
// pending-contribution list. The slot it fills may have carried an earlier,
// already merged boundary; its link buffer is reused.
func (m *shard) takeSample(t int64) {
	ms := m.ms
	if len(ms.pend) < cap(ms.pend) {
		ms.pend = ms.pend[:len(ms.pend)+1]
	} else {
		ms.pend = append(ms.pend, shardSample{})
	}
	ss := &ms.pend[len(ms.pend)-1]
	links := ss.links[:0]
	*ss = shardSample{
		time:         t,
		instructions: m.counts.Instructions,
		remoteReads:  m.counts.RemoteReads,
		remoteWrites: m.counts.RemoteWrites,
		blkMoves:     m.counts.RemoteBlk,
		liveFibers:   m.liveFibers,
	}
	if m.fstats != nil {
		ss.retries = m.fstats.Retries
		ss.spurious = m.fstats.SpuriousRetries
		ss.drops = m.fstats.Drops
		ss.dups = m.fstats.Dups
		ss.stalls = m.fstats.Stalls
	}
	ss.node = metrics.NodeSample{
		EUBusyNs: ms.euBusy,
		SUBusyNs: ms.suBusy,
		SUQueue:  ms.drainSUQueue(t),
		Ready:    int64(m.nodes[m.id].readyLen()),
	}
	for _, la := range ms.links {
		links = append(links, metrics.LinkSample{Src: m.id, Dst: la.dst,
			BusyNs: la.busy, Msgs: la.msgs, Words: la.words})
	}
	ss.links = links
}

// mergeSamples combines every shard's pending contributions for boundaries
// ≤ horizon into machine-wide samples. Called at barriers with every shard
// stopped and every event below horizon processed, so each shard either
// already flushed a contribution for a boundary or flushes one now from its
// settled state.
func (m *Machine) mergeSamples(horizon int64) {
	for m.gNext <= horizon {
		m.mergeOne(m.gNext, false)
		m.gNext += m.sampler.Interval()
	}
}
