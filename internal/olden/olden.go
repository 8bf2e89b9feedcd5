// Package olden provides the five Olden benchmarks of the paper's
// evaluation (Table II) — power, perimeter, tsp, health, and voronoi —
// rewritten in this repository's EARTH-C dialect, with the data-distribution
// strategies the paper describes (each benchmark spreads its top-level
// structure across the machine and keeps subtrees node-local where
// possible).
//
// Each benchmark is exposed as EARTH-C source text parameterized by a
// problem size, plus the paper's description for Table II. Problem sizes
// default to values that simulate in seconds; the paper's full sizes are
// recorded separately.
package olden

import "strings"

// Benchmark describes one Olden program.
type Benchmark struct {
	Name        string
	Description string // Table II description
	PaperSize   string // problem size used in the paper
	// DefaultParams are the scaled-down parameters used by the harness.
	DefaultParams Params
	// Source produces EARTH-C text for the given parameters.
	Source func(Params) string
	// PaperImprovement16 is the paper's reported % improvement at 16
	// processors (for EXPERIMENTS.md comparison).
	PaperImprovement16 float64
}

// Params parameterizes a benchmark's problem size.
type Params struct {
	Size  int // primary size knob (leaves / depth / cities / points)
	Iters int // iterations (power, health)
}

// All returns the benchmark registry in the paper's order.
func All() []*Benchmark {
	return []*Benchmark{
		Power(),
		Tsp(),
		Health(),
		Perimeter(),
		Voronoi(),
	}
}

// QuickParams returns parameters that keep one simulated run in the tens of
// milliseconds of host time — the sizes the repo-root benchmarks, the
// benchmark/ load generator, and service smoke tests share.
func QuickParams(b *Benchmark) Params {
	p := b.DefaultParams
	switch b.Name {
	case "power":
		p.Size, p.Iters = 8, 2
	case "perimeter":
		p.Size = 5
	case "tsp":
		p.Size = 64
	case "health":
		p.Size, p.Iters = 3, 20
	case "voronoi":
		p.Size = 96
	}
	return p
}

// ByName finds a benchmark.
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// lcg is the deterministic pseudo-random helper injected into every
// benchmark: a 31-bit linear congruential generator written in EARTH-C so
// simple and optimized builds see identical inputs.
const lcg = `
int nextrand(int seed) {
	return (seed * 1103515245 + 12345) % 2147483647;
}
`

// expand substitutes @SIZE@ and @ITERS@ parameter markers in a benchmark
// template (EARTH-C uses % heavily, so printf-style formatting is avoided).
func expand(template string, p Params) string {
	return strings.NewReplacer(
		"@SIZE@", itoa(p.Size),
		"@ITERS@", itoa(p.Iters),
	).Replace(template)
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}
