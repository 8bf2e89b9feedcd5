package core

import (
	"context"
	"time"

	"repro/internal/earthsim"
	"repro/internal/threaded"
	"repro/internal/trace"
)

// Threaded generates threaded code for the unit (Phase III of the paper's
// compiler). Generation is deterministic and the resulting program is
// immutable, so the code for each option set is generated once and cached;
// repeated simulator Runs — and Runs from concurrent goroutines — share it.
func (u *Unit) Threaded(opt threaded.Options) (*threaded.Program, error) {
	u.tmu.Lock()
	defer u.tmu.Unlock()
	if p, ok := u.tcache[opt]; ok {
		return p, nil
	}
	p, err := threaded.Generate(u.Simple, u.Locality, opt)
	if err != nil {
		return nil, err
	}
	if u.tcache == nil {
		u.tcache = make(map[threaded.Options]*threaded.Program, 2)
	}
	u.tcache[opt] = p
	return p, nil
}

// RunConfig selects how a compiled unit is executed on the simulator.
type RunConfig struct {
	Nodes int
	// Sequential selects the paper's "truly sequential" baseline: serialized
	// parallel constructs and direct local memory accesses (valid only with
	// Nodes == 1).
	Sequential bool
	// Machine overrides the simulator cost model; nil means the calibrated
	// EARTH-MANNA defaults. Nodes always comes from the field above, so an
	// override built once (e.g. from earthsim.ParseOverrides) is reusable
	// across node counts.
	Machine *earthsim.Config
	// Profile instruments the generated code so the run collects a
	// profile.Data (returned in Result.Profile; see internal/profile).
	Profile bool
	// Fuel bounds total EU instructions (0 = unlimited); a run that exceeds
	// it fails with an error wrapping earthsim.ErrFuelExhausted rather than
	// hanging.
	Fuel int64
	// Deadline bounds host wall-clock time (0 = none); exceeding it fails
	// with an error wrapping earthsim.ErrDeadline.
	Deadline time.Duration
	// Context, when non-nil, cancels the run cooperatively: the simulator
	// polls it on the wall-clock cadence and fails with an error wrapping
	// earthsim.ErrCanceled once it is done. This is how a serving layer
	// aborts a run on client disconnect, explicit DELETE, or a per-job wall
	// deadline; nil (the default) costs nothing.
	Context context.Context
	// Faults attaches a fault-injection model + reliable-messaging protocol
	// to the simulated transport (see earthsim.FaultConfig and
	// earthsim.ParseFaultSpec); nil runs the idealized reliable machine.
	Faults *earthsim.FaultConfig
	// Trace, when non-nil, receives this run's simulator events (see
	// internal/trace): every EU, SU and network span, message and fault.
	// Tracing is purely observational: a traced run produces a bit-identical
	// Result to an untraced one. The simulator records straight into the
	// recorder as the run goes, so a run that fails part-way leaves what it
	// recorded up to the failure.
	Trace *trace.Recorder
}
