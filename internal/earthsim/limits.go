package earthsim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Run limits. A guest program that loops forever, leaks fibers, or (under
// fault injection) stalls behind an undeliverable message must turn into a
// descriptive error, never a hang: Config.Fuel bounds total EU instructions,
// Config.MaxEvents bounds the event loop, and SetDeadline bounds host wall
// time. All three surface as errors matchable with errors.Is.
var (
	// ErrFuelExhausted reports that the run exceeded its instruction or
	// event budget (Config.Fuel / Config.MaxEvents).
	ErrFuelExhausted = errors.New("fuel exhausted")
	// ErrDeadline reports that the run exceeded its wall-clock deadline
	// (Machine.SetDeadline).
	ErrDeadline = errors.New("deadline exceeded")
	// ErrDeadlock reports that the event queue drained with main incomplete.
	ErrDeadlock = errors.New("deadlock")
	// ErrCanceled reports that the run's context (Machine.SetContext) was
	// cancelled — a client disconnect, a DELETE /jobs/{id} abort, or a
	// per-job wall deadline, as opposed to the simulated-time limits above.
	ErrCanceled = errors.New("run canceled")
)

// limitCheckInterval is how many EU instructions the machine executes
// between fuel/deadline checks; it bounds the per-instruction cost of
// limiting to one compare. pollEvents is how many events pass between the
// event loop's own wall-clock and context polls, which catch runs whose
// events execute few instructions.
const (
	limitCheckInterval = 16384
	pollEvents         = 4096
)

// SetDeadline bounds the run's host wall-clock time (0 disables). Call
// before Run. Returns m for chaining.
func (m *Machine) SetDeadline(d time.Duration) *Machine {
	m.wallLimit = d
	return m
}

// SetContext attaches a cancellation context to the run (nil detaches, the
// default). The simulator polls it on the same cadence as the wall-clock
// deadline — every limitCheckInterval EU instructions the machine executes
// and every pollEvents events — and stops with an error wrapping ErrCanceled.
// Unlike Fuel/SetDeadline this limit is external to simulated time: a
// client disconnect or a DELETE /jobs/{id} aborts a run that is making
// perfectly good simulated-time progress. Call before Run. Returns m for
// chaining.
func (m *Machine) SetContext(ctx context.Context) *Machine {
	m.ctx = ctx
	return m
}

// trapw stops the simulation with an error wrapping a sentinel.
func (m *Machine) trapw(sentinel error, format string, args ...any) {
	if m.trap == nil {
		m.trap = fmt.Errorf("earthsim: %w: %s", sentinel, fmt.Sprintf(format, args...))
	}
}

// limitCheck runs every limitCheckInterval instructions the machine
// executes (from execFiber's hot loop) and traps on an exhausted instruction
// budget, an expired wall-clock deadline or a cancelled context. Fuel is one
// machine-wide total, so a run stops within limitCheckInterval instructions
// past it.
func (m *Machine) limitCheck() {
	m.nextLimitCheck += limitCheckInterval
	if fuel := m.cfg.Fuel; fuel > 0 && m.counts.Instructions > fuel {
		m.trapw(ErrFuelExhausted, "%d EU instructions executed (fuel %d) — raise Config.Fuel / -fuel if the program is genuinely long-running%s",
			m.counts.Instructions, fuel, m.blockedReport())
		return
	}
	if err := m.pollHost(); err != nil && m.trap == nil {
		m.trap = err
	}
}

// pollHost reports an expired wall-clock deadline or a cancelled context.
// Free when neither is set (the common case): two compares.
func (m *Machine) pollHost() error {
	if m.wallLimit > 0 && time.Now().After(m.deadline) {
		return fmt.Errorf("earthsim: %w: host wall clock exceeded %s (t=%dns, %d events)",
			ErrDeadline, m.wallLimit, m.now, m.nEvents)
	}
	if m.ctx != nil {
		select {
		case <-m.ctx.Done():
			return fmt.Errorf("earthsim: %w: %v (t=%dns, %d events)",
				ErrCanceled, m.ctx.Err(), m.now, m.nEvents)
		default:
		}
	}
	return nil
}

// park records a fiber on the machine's blocked-fiber list the first time
// it blocks. The list is an intrusive singly-linked stack with lazy
// deletion — fibers are never removed, only skipped at report time — so
// parking stays allocation-free on the simulator hot path.
func (m *Machine) park(f *fiber) {
	if f.parkListed {
		return
	}
	f.parkListed = true
	f.parkNext = m.parkedHead
	m.parkedHead = f
}

// blockedReport describes the currently-blocked fibers of every node — which
// slot, fence or join each waits on, and how many fills/acks it still
// expects — so deadlocks and fault-induced stalls are debuggable from the
// error alone. It is one list in park-list order: newest first by when the
// fiber record first blocked (a recycled record keeps its place), whatever
// the node. At most maxListed fibers are named; a last line counts the rest.
func (m *Machine) blockedReport() string {
	const maxListed = 16
	var b strings.Builder
	count, omitted := 0, 0
	for f := m.parkedHead; f != nil; f = f.parkNext {
		if f.done {
			continue
		}
		var why string
		switch {
		case f.waitSlot >= 0:
			why = fmt.Sprintf("on frame slot %d (abs %d; %d fill(s) outstanding)",
				f.waitSlot-f.base, f.waitSlot, f.node.pending[f.waitSlot]&^hasWaiter)
		case f.waitFence:
			why = fmt.Sprintf("on a fence (%d unacked write(s)/void call(s))", f.outstanding)
		case f.waitJoin:
			why = fmt.Sprintf("joining %d child fiber(s)", f.children)
		default:
			continue // parked once, since resumed
		}
		if count >= maxListed {
			omitted++
			continue
		}
		count++
		fmt.Fprintf(&b, "\n  fiber %d (%s@%d, node %d) blocked %s", f.id, f.code.Name, f.pc, f.node.id, why)
	}
	if count == 0 {
		return "; no blocked fibers recorded"
	}
	if omitted > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more blocked fiber(s)", omitted)
	}
	return "; blocked fibers:" + b.String()
}
