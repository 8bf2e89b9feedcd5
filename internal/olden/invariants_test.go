package olden

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simple"
)

// TestOneRemoteOpInvariant: after optimization, every basic statement in
// every benchmark still contains at most one indirect memory operation (the
// SIMPLE property the paper's analysis depends on).
func TestOneRemoteOpInvariant(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		u, err := core.NewPipeline(core.Options{Optimize: true}).Compile(b.Name+".ec", src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, fn := range u.Simple.Funcs {
			simple.WalkBasics(fn.Body, func(bb *simple.Basic) {
				n := 0
				switch bb.Kind {
				case simple.KAssign:
					if _, ok := bb.Rhs.(simple.LoadRV); ok {
						n++
					}
					if _, ok := bb.Lhs.(simple.StoreLV); ok {
						n++
					}
				case simple.KBlkCopy:
					if bb.P != nil {
						n++
					}
					if bb.P2 != nil {
						n++
					}
				case simple.KGetF, simple.KPutF, simple.KBlkRead, simple.KBlkWrite:
					n++
				}
				if n > 1 {
					t.Errorf("%s/%s S%d: %d indirect ops in one basic statement: %s",
						b.Name, fn.Name, bb.Label, n, simple.BasicText(bb))
				}
			})
		}
	}
}

// TestLabelsStayConsistent: communication selection inserts statements; the
// label index must still resolve every walked basic.
func TestLabelsStayConsistent(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		u, err := core.NewPipeline(core.Options{Optimize: true}).Compile(b.Name+".ec", src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, fn := range u.Simple.Funcs {
			simple.WalkBasics(fn.Body, func(bb *simple.Basic) {
				if bb.Label < 0 || bb.Label >= len(fn.Basics) {
					t.Errorf("%s/%s: label S%d out of range", b.Name, fn.Name, bb.Label)
					return
				}
				if fn.Basics[bb.Label] != bb {
					t.Errorf("%s/%s: label S%d does not resolve to its statement",
						b.Name, fn.Name, bb.Label)
				}
			})
		}
	}
}

// TestBenchmarkReportsNonTrivial: the optimizer must actually do something
// on every benchmark (communication statements inserted, loads redirected).
func TestBenchmarkReportsNonTrivial(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		u, err := core.NewPipeline(core.Options{Optimize: true}).Compile(b.Name+".ec", src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		tot := u.Report.Totals()
		if tot.PipelinedReads+tot.BlockedReads == 0 {
			t.Errorf("%s: no reads selected at all", b.Name)
		}
		if tot.ReadsRewritten == 0 {
			t.Errorf("%s: no loads redirected", b.Name)
		}
	}
}
