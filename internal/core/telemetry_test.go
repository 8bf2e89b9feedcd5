package core

import (
	"bytes"
	"testing"

	"repro/internal/earthsim"
	"repro/internal/metrics"
)

// telemetryBytes runs u once on a fresh metered pipeline and returns both
// registry expositions concatenated: Prometheus text, then JSON.
func telemetryBytes(t *testing.T, u *Unit, rc RunConfig) []byte {
	t.Helper()
	reg := metrics.NewRegistry()
	p := NewPipeline(Options{Metrics: reg})
	if _, err := p.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	reg.WriteJSON(&buf)
	return buf.Bytes()
}

// TestTelemetryDeterministic: identical unit + RunConfig (same fault seed)
// must fill a fresh registry with byte-identical expositions — the
// simulator's determinism invariant extended to telemetry, with faults both
// off and on.
func TestTelemetryDeterministic(t *testing.T) {
	u, err := compile("det.ec", remoteListSrc, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		faults *earthsim.FaultConfig
	}{
		{"no-faults", nil},
		{"faults", &earthsim.FaultConfig{Drop: 0.05, Dup: 0.02, Delay: 2, Stall: 0.05, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := telemetryBytes(t, u, RunConfig{Nodes: 4, Faults: tc.faults})
			b := telemetryBytes(t, u, RunConfig{Nodes: 4, Faults: tc.faults})
			if !bytes.Equal(a, b) {
				t.Errorf("telemetry not byte-identical across runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
			}
			if tc.faults != nil {
				// Pin the fault-layer counter names: downstream dashboards key
				// on these strings, so renames must fail loudly here.
				for _, want := range [][]byte{
					[]byte("earth_fault_retries_total"),
					[]byte("earth_fault_retries_spurious_total"),
				} {
					if !bytes.Contains(a, want) {
						t.Errorf("faulted run exposition missing %s", want)
					}
				}
			}
		})
	}
}
