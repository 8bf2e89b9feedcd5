package harness

import (
	"testing"

	"repro/internal/olden"
)

// TestPaperSizeCells pins two of Table III's rows at the paper's own problem
// sizes on 16 nodes, simple and optimized, to the nanosecond: health at 4
// levels and 600 iterations, and perimeter at depth 11 (the row whose gain
// sits furthest below the paper's). A change that moves either build's time
// edits these literals in the same step. Perimeter's pair was 250,834,825
// and 240,775,745 ns before each top quadrant's subtree was built on one
// owner (levels(4)): fewer remote reads leave less for selection to
// remove. Each pair takes seconds, so -short skips the test.
func TestPaperSizeCells(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size runs take seconds")
	}
	for _, c := range []struct {
		name        string
		params      olden.Params
		simple, opt int64
	}{
		{"health", olden.Params{Size: 4, Iters: 600}, 401_698_091, 368_591_070},
		{"perimeter", olden.Params{Size: 11}, 228_088_620, 226_808_170},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, o, err := RunPair(olden.ByName(c.name), c.params, 16)
			if err != nil {
				t.Fatal(err)
			}
			if s.Time != c.simple || o.Time != c.opt {
				t.Errorf("16 nodes: simple %d ns, optimized %d ns; pinned %d and %d",
					s.Time, o.Time, c.simple, c.opt)
			}
		})
	}
}
