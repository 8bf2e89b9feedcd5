package earthsim

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Run executes the program's main function on node 0 and simulates until
// main has completed and no fiber is live (or a deadlock or trap). It is one
// loop over the machine's one event queue: pop the earliest event, hand it
// to the shard of the node it is for, repeat. Events are ordered by (time,
// seq), seq being the machine-wide schedule counter, so simultaneous events
// are served in the order they were scheduled. The event budget is checked
// at every event, the wall clock and the run context every pollEvents
// events, and fuel, wall clock and context again every limitCheckInterval
// instructions a node executes (limits.go). A Machine is good for one Run:
// every exit hands the nodes' memory back to arenaPool, and a second call is
// an error.
func (m *Machine) Run() (*Result, error) {
	if m.nodes[0].arena == nil {
		return nil, errors.New("earthsim: Run called twice on one Machine")
	}
	maxEvents := m.cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 500_000_000
	}
	if m.wallLimit > 0 {
		m.deadline = time.Now().Add(m.wallLimit)
	}
	s0 := m.sh[0]
	main := s0.newFiber(0, m.prog.Main, nil, replyRoute{kind: 0})
	s0.enqueueReady(m.nodes[0], main, 0)

	for !s0.mainDone || m.live > 0 {
		if len(m.events) == 0 {
			return m.fail(fmt.Errorf("earthsim: %w — event queue drained with main incomplete (%d live fibers)%s",
				ErrDeadlock, m.live, m.blockedReports()))
		}
		ev := m.events.pop()
		m.now = ev.time
		m.nEvents++
		if m.nEvents > maxEvents {
			return m.fail(fmt.Errorf("earthsim: %w: event budget exceeded (%d events, t=%dns) — livelock?%s",
				ErrFuelExhausted, m.nEvents, ev.time, m.blockedReports()))
		}
		if m.nEvents%pollEvents == 1 {
			if err := m.pollHost(); err != nil {
				return m.fail(err)
			}
		}
		s := m.sh[ev.node]
		s.dispatch(ev)
		if s.trap != nil {
			return m.fail(s.trap)
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
	res := &Result{Time: s0.mainTime, MainRet: s0.mainRet, Events: m.nEvents}
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
