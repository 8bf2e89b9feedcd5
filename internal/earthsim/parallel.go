package earthsim

// The event loop: one shard per simulated node, synchronized by conservative
// lookahead (a barrier-synchronous variant of the null-message protocol).
// The coordinator repeatedly:
//
//  1. delivers cross-shard mail buffered during the previous round, in
//     (sender shard id, send order);
//  2. computes T1 = min over shards of the local event-heap head and T2 =
//     the second such minimum;
//  3. grants every shard a window bound below which it may dispatch events
//     without seeing a message it has not received yet: messages generated
//     this round originate at times ≥ T1 and need the wire latency L to
//     arrive, so T1+L is safe for everyone; the shard holding T1 itself is
//     additionally safe up to min(T2+L, T1+2L) — nothing can reach it
//     earlier, neither directly from another shard (≥ T2+L) nor relayed off
//     its own sends (≥ T1+2L);
//  4. runs the active shards' windows one after another on the caller's
//     goroutine, then barriers.
//
// A round's windows hold a handful of events, so handing them to other
// goroutines costs more than running them (DESIGN.md §13 has the
// measurements).
//
// Determinism: the bounds depend only on heap heads, mail delivery order is
// fixed, each window is a sequential per-shard replay, and every active
// shard's fuel view is snapshotted before any window runs — so the order the
// windows run in within a round cannot alter any outcome.
// Progress: every bound is floored at T1+1, so each round dispatches at
// least the event at T1. The floor only binds at L = 0, where the window
// degenerates to "everything at T1": zero-latency mail then arrives at T1 or
// later — the receiver's present, never its past — and is dispatched the
// round after. A one-node machine has L = ∞ and runs in a single window.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// pollRounds is how many coordinator rounds pass between polls of the wall
// clock and the run context; windows poll both every 4096 events themselves.
const pollRounds = 1024

// runWindow dispatches the shard's local events strictly below bound,
// stopping early on a trap. The global event budget and wall clock are
// enforced here as per-shard backstops (a runaway window must not outlive
// the barrier checks).
func (s *shard) runWindow(bound int64) {
	for len(s.events) > 0 && s.events[0].time < bound {
		if s.trap != nil {
			return
		}
		s.nEvents++
		if s.nEvents > s.maxEvents {
			s.trapw(ErrFuelExhausted, "event budget exceeded on shard %d (%d events, t=%dns) — livelock?%s",
				s.id, s.nEvents, s.lastTime, s.blockedReport())
			return
		}
		if s.wallLimit > 0 && s.nEvents&4095 == 0 && time.Now().After(s.wallDeadline) {
			s.trapw(ErrDeadline, "host wall clock exceeded %s (t=%dns, shard %d)",
				s.wallLimit, s.lastTime, s.id)
			return
		}
		if s.ctx != nil && s.nEvents&4095 == 0 {
			if s.ctxCheck(); s.trap != nil {
				return
			}
		}
		ev := s.events.pop()
		s.lastTime = ev.time
		s.dispatch(ev)
	}
}

// satAdd is a+b saturating at MaxInt64 (an empty heap's head is the MaxInt64
// sentinel).
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// shardHeap is a binary min-heap of shards with non-empty event queues,
// keyed by (cached head event time, shard id) — the same total order the
// coordinator's old full scan used, so T1/T2/argmin are unchanged. Each
// shard caches its key in s.head and its position in s.hpos, making the
// per-round coordinator cost O(active shards · log S) instead of O(S).
type shardHeap struct {
	a []*shard
}

func heapLess(x, y *shard) bool {
	return x.head < y.head || (x.head == y.head && x.id < y.id)
}

func (h *shardHeap) len() int { return len(h.a) }

func (h *shardHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.a[i].hpos, h.a[j].hpos = i, j
}

func (h *shardHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h.a[i], h.a[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *shardHeap) down(i int) {
	n := len(h.a)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && heapLess(h.a[r], h.a[c]) {
			c = r
		}
		if !heapLess(h.a[c], h.a[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// push inserts s; s.head must already hold its key.
func (h *shardHeap) push(s *shard) {
	s.hpos = len(h.a)
	h.a = append(h.a, s)
	h.up(s.hpos)
}

// pop removes and returns the minimum shard.
func (h *shardHeap) pop() *shard {
	s := h.a[0]
	last := len(h.a) - 1
	h.swap(0, last)
	h.a[last] = nil
	h.a = h.a[:last]
	if last > 0 {
		h.down(0)
	}
	s.hpos = -1
	return s
}

// fix restores heap order after the key at position i changed.
func (h *shardHeap) fix(i int) {
	h.up(i)
	h.down(i)
}

// refresh re-keys s from its event queue after mail arrived: fix its heap
// position, or insert it if its queue was empty before.
func (h *shardHeap) refresh(s *shard) {
	nh := s.events[0].time
	if s.hpos < 0 {
		s.head = nh
		h.push(s)
		return
	}
	if nh != s.head {
		s.head = nh
		h.fix(s.hpos)
	}
}

// Run executes the program's main function on node 0 and simulates until
// completion (or deadlock/trap). The round structure — barrier, T1/T2
// bounds, windows, mail — is described in the comment at the top of this
// file; this implementation keeps every machine-wide quantity (head order,
// instruction/event/fiber totals) incrementally, touching only the round's
// active shards and mail receivers, so coordinator overhead scales with
// traffic rather than machine size. A Machine is good for one Run: every exit
// hands the nodes' memory back to arenaPool, and a second call is an error.
func (m *Machine) Run() (*Result, error) {
	if m.nodes[0].arena == nil {
		return nil, errors.New("earthsim: Run called twice on one Machine")
	}
	maxEvents := m.cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 500_000_000
	}
	var deadline time.Time
	if m.wallLimit > 0 {
		deadline = time.Now().Add(m.wallLimit)
	}
	for _, s := range m.sh {
		s.maxEvents = maxEvents
		s.wallLimit = m.wallLimit
		s.wallDeadline = deadline
		s.ctx = m.ctx
		s.hpos = -1
	}
	s0 := m.sh[0]
	main := s0.newFiber(0, m.prog.Main, nil, replyRoute{kind: 0})
	s0.enqueueReady(m.nodes[0], main, 0)

	// Incremental machine-wide totals; windows fold their deltas in at each
	// barrier. Only shard 0 has any state yet (the main fiber), but summing
	// the loop keeps no assumptions.
	var totalInstr, totalEvents, live int64
	heads := shardHeap{a: make([]*shard, 0, len(m.sh))}
	for _, s := range m.sh {
		totalInstr += s.counts.Instructions
		totalEvents += s.nEvents
		live += s.liveFibers
		if len(s.events) > 0 {
			s.head = s.events[0].time
			heads.push(s)
		}
	}

	L := m.lookahead
	actives := make([]*shard, 0, len(m.sh))
	recv := make([]*shard, 0, 8)
	var round int64
	for {
		round++
		if s0.mainDone && live == 0 {
			break
		}
		if heads.len() == 0 {
			return m.fail(fmt.Errorf("earthsim: %w — event queues drained with main incomplete (%d live fibers)%s",
				ErrDeadlock, live, m.blockedReports()))
		}
		t1 := heads.a[0].head
		if totalEvents > maxEvents {
			return m.fail(fmt.Errorf("earthsim: %w: event budget exceeded (%d events, t=%dns) — livelock?%s",
				ErrFuelExhausted, totalEvents, t1, m.blockedReports()))
		}
		// The host-side limits are polled on the first round and every
		// pollRounds after: a round is a handful of events, so reading the
		// clock each time would cost a tenth of a small machine's run.
		if round%pollRounds == 1 {
			if m.wallLimit > 0 && time.Now().After(deadline) {
				return m.fail(fmt.Errorf("earthsim: %w: host wall clock exceeded %s (t=%dns, %d events)",
					ErrDeadline, m.wallLimit, t1, totalEvents))
			}
			if m.ctx != nil {
				select {
				case <-m.ctx.Done():
					return m.fail(fmt.Errorf("earthsim: %w: %v (t=%dns, %d events)",
						ErrCanceled, m.ctx.Err(), t1, totalEvents))
				default:
				}
			}
		}

		// This round's bounds. near is the shared bound T1+L. far is the
		// argmin's when it runs alone, T1+2L: nothing can reach it earlier,
		// neither directly from another shard (≥ T2+L) nor relayed off its
		// own sends (≥ T1+2L). Both are floored at T1+1 — see Progress above.
		near := max(satAdd(t1, L), t1+1)
		far := max(satAdd(satAdd(t1, L), L), near)

		// Single-active fast path. The second-smallest head is the lesser
		// root child (every other shard sits below one of them); when it
		// clears T1+L the argmin runs alone, its bound simplifies to far
		// (T2+L ≥ T1+2L here), and the pop/push, active-list, and sort
		// machinery all degenerate — run the window with the shard still in
		// the heap and re-key it in place. On nearest-neighbor workloads
		// almost every round takes this path.
		t2peek := int64(math.MaxInt64)
		if n := heads.len(); n > 1 {
			t2peek = heads.a[1].head
			if n > 2 && heads.a[2].head < t2peek {
				t2peek = heads.a[2].head
			}
		}
		if t2peek >= near {
			s := heads.a[0]
			s.othersInstr = totalInstr - s.counts.Instructions
			s.barInstr = s.counts.Instructions
			s.barEvents = s.nEvents
			s.barLive = s.liveFibers
			s.runWindow(far)
			totalInstr += s.counts.Instructions - s.barInstr
			totalEvents += s.nEvents - s.barEvents
			live += s.liveFibers - s.barLive
			if s.trap != nil {
				return m.fail(s.trap)
			}
			recv = recv[:0]
			for i, o := range s.outbox {
				o.to.schedule(o.at, evNetArrive, o.node, o.g)
				if o.to.mailStamp != round {
					o.to.mailStamp = round
					recv = append(recv, o.to)
				}
				s.outbox[i] = mail{}
			}
			s.outbox = s.outbox[:0]
			if len(s.events) > 0 {
				s.head = s.events[0].time
				heads.fix(s.hpos)
			} else {
				heads.pop() // s is still the root: nothing above moved it
			}
			for _, r := range recv {
				heads.refresh(r)
			}
			continue
		}

		// Pop the round's active shards: argmin first (T2 is the next head
		// once it is out), then everyone below near.
		amin := heads.pop()
		t2 := int64(math.MaxInt64)
		if heads.len() > 0 {
			t2 = heads.a[0].head
		}
		boundMin := min(max(satAdd(t2, L), near), far)
		actives = actives[:0]
		actives = append(actives, amin)
		for heads.len() > 0 && heads.a[0].head < near {
			actives = append(actives, heads.pop())
		}

		// Snapshot the totals each window starts from. othersInstr is set
		// for every active before any window runs, so the fuel view cannot
		// depend on the order the windows run in.
		for _, s := range actives {
			s.othersInstr = totalInstr - s.counts.Instructions
			s.barInstr = s.counts.Instructions
			s.barEvents = s.nEvents
			s.barLive = s.liveFibers
		}
		for _, s := range actives {
			bound := near
			if s == amin {
				bound = boundMin
			}
			s.runWindow(bound)
		}

		// Barrier: surface the lowest-id trap, fold window deltas into the
		// running totals, then deliver mail in (sender shard id, send order)
		// and re-key every shard whose queue changed.
		var trapped *shard
		for _, s := range actives {
			if s.trap != nil && (trapped == nil || s.id < trapped.id) {
				trapped = s
			}
			totalInstr += s.counts.Instructions - s.barInstr
			totalEvents += s.nEvents - s.barEvents
			live += s.liveFibers - s.barLive
		}
		if trapped != nil {
			return m.fail(trapped.trap)
		}
		slices.SortFunc(actives, func(a, b *shard) int { return a.id - b.id })
		recv = recv[:0]
		for _, s := range actives {
			for i, o := range s.outbox {
				o.to.schedule(o.at, evNetArrive, o.node, o.g)
				if o.to.mailStamp != round {
					o.to.mailStamp = round
					recv = append(recv, o.to)
				}
				s.outbox[i] = mail{}
			}
			s.outbox = s.outbox[:0]
		}
		// Actives are out of the heap; reinsert the ones with events left
		// (their queues now include any mail from this round).
		for _, s := range actives {
			if len(s.events) > 0 {
				s.head = s.events[0].time
				heads.push(s)
			}
		}
		for _, r := range recv {
			heads.refresh(r)
		}
	}

	m.releaseArenas()
	return m.buildResult(), nil
}

// fail surfaces a run error. err is already built — blocked-fiber reports
// read the presence counters — so the node arenas can go back to the pool.
func (m *Machine) fail(err error) (*Result, error) {
	m.releaseArenas()
	return nil, err
}

// blockedReports concatenates every shard's blocked-fiber report.
func (m *Machine) blockedReports() string {
	var b strings.Builder
	for _, s := range m.sh {
		if r := s.blockedReport(); strings.HasPrefix(r, "; blocked") {
			b.WriteString(r)
		}
	}
	if b.Len() == 0 {
		return "; no blocked fibers recorded"
	}
	return b.String()
}

// buildResult sums the per-shard outcomes into the machine Result.
func (m *Machine) buildResult() *Result {
	s0 := m.sh[0]
	res := &Result{Time: s0.mainTime, MainRet: s0.mainRet}
	var out []outItem
	for _, s := range m.sh {
		c, d := &res.Counts, s.counts
		c.RemoteReads += d.RemoteReads
		c.RemoteWrites += d.RemoteWrites
		c.RemoteBlk += d.RemoteBlk
		c.LocalReads += d.LocalReads
		c.LocalWrites += d.LocalWrites
		c.LocalBlk += d.LocalBlk
		c.SharedOps += d.SharedOps
		c.RPCs += d.RPCs
		c.Spawns += d.Spawns
		c.BlkWords += d.BlkWords
		c.Instructions += d.Instructions
		c.Allocs += d.Allocs
		res.Events += s.nEvents
		out = append(out, s.output...)
	}
	res.Output = renderOutput(out)
	if m.prof != nil {
		m.prof.Runs = 1
		res.Profile = m.prof
	}
	if m.cfg.Faults != nil {
		fs := &FaultStats{}
		for _, s := range m.sh {
			fs.Drops += s.fstats.Drops
			fs.Dups += s.fstats.Dups
			fs.Delayed += s.fstats.Delayed
			fs.Stalls += s.fstats.Stalls
			fs.Retries += s.fstats.Retries
			fs.DupSuppressed += s.fstats.DupSuppressed
			fs.SpuriousRetries += s.fstats.SpuriousRetries
			fs.WindowQueued += s.fstats.WindowQueued
			for c := range fs.RetriesByClass {
				fs.RetriesByClass[c] += s.fstats.RetriesByClass[c]
			}
			fs.MaxAttempt = max(fs.MaxAttempt, s.fstats.MaxAttempt)
		}
		res.Faults = fs
	}
	return res
}
