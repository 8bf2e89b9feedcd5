package earthsim

import (
	"errors"
	"fmt"
	"time"
)

// Run executes the program's main function on node 0 and simulates until
// main has completed and no fiber is live (or a deadlock or trap). It is one
// loop over the machine's one event queue: pop the earliest event, dispatch
// it, repeat. Events are ordered by (time, seq), seq being the machine-wide
// schedule counter, so simultaneous events are served in the order they were
// scheduled. The event budget is checked at every event, the wall clock and
// the run context every pollEvents events, and fuel, wall clock and context
// again every limitCheckInterval instructions the machine executes
// (limits.go). A Machine is good for one Run: every exit hands the nodes'
// memory back to arenaPool, and a second call is an error.
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
	main := m.newFiber(0, m.prog.Main, nil, replyRoute{kind: 0})
	m.enqueueReady(m.nodes[0], main, 0)

	for !m.mainDone || m.live > 0 {
		if len(m.events) == 0 {
			return m.fail(fmt.Errorf("earthsim: %w — event queue drained with main incomplete (%d live fibers)%s",
				ErrDeadlock, m.live, m.blockedReport()))
		}
		ev := m.events.pop()
		m.now = ev.time
		m.nEvents++
		if m.nEvents > maxEvents {
			return m.fail(fmt.Errorf("earthsim: %w: event budget exceeded (%d events, t=%dns) — livelock?%s",
				ErrFuelExhausted, m.nEvents, ev.time, m.blockedReport()))
		}
		if m.nEvents%pollEvents == 1 {
			if err := m.pollHost(); err != nil {
				return m.fail(err)
			}
		}
		m.dispatch(ev)
		if m.trap != nil {
			return m.fail(m.trap)
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

// buildResult assembles the machine Result.
func (m *Machine) buildResult() *Result {
	res := &Result{Time: m.mainTime, Counts: m.counts, Output: renderOutput(m.output),
		MainRet: m.mainRet, Events: m.nEvents, Faults: m.fstats}
	if m.prof != nil {
		m.prof.Runs = 1
		res.Profile = m.prof
	}
	return res
}
