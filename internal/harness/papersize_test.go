package harness

import (
	"testing"

	"repro/internal/olden"
)

// TestPaperSizeCells pins three of Table III's rows at the paper's own
// problem sizes on 16 nodes, simple and optimized, to the nanosecond: health
// at 4 levels and 600 iterations, perimeter at depth 11 (the row whose gain
// sits furthest below the paper's), and tsp at 32,768 cities (the row that
// barely speeds up from 4 to 16 nodes). A change that moves a build's time
// edits these literals in the same step. Perimeter's pair was 250,834,825
// and 240,775,745 ns before each top quadrant's subtree was built on one
// owner (levels(4)): fewer remote reads leave less for selection to
// remove. tsp's optimized time was 1,625,320,405 ns before its
// tour_length walk began to carry each city's fields around the loop's
// back edge (placement.Carry), fetching every city once instead of twice.
// The three pairs were 401,698,091 / 368,591,070, 228,088,620 /
// 226,808,170 and 3,179,173,380 / 1,383,534,775 ns before independent
// placed builds ran as the arms of a {^ ^} sequence: perimeter's serial
// quadrant builds were half of both its builds.
// Each pair takes seconds, so -short skips the test.
func TestPaperSizeCells(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size runs take seconds")
	}
	for _, c := range []struct {
		name        string
		simple, opt int64
	}{
		{"health", 401_337_191, 368_230_170},
		{"perimeter", 115_259_715, 113_979_265},
		{"tsp", 3_121_620_530, 1_325_981_925},
	} {
		t.Run(c.name, func(t *testing.T) {
			bm := olden.ByName(c.name)
			s, o, err := RunPair(bm, olden.PaperParams(bm), 16)
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
