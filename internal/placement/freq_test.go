package placement_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/simple"
)

// fakeProfile is a FreqProvider backed by literal per-site factors; sites
// not listed decline (the static heuristics must then apply).
type fakeProfile struct {
	loops    map[string]float64
	branches map[string]float64 // then-probability
	switches map[string][]float64
}

func (f *fakeProfile) LoopFactor(site string) (float64, bool) {
	v, ok := f.loops[site]
	return v, ok
}

func (f *fakeProfile) BranchFactors(site string) (float64, float64, bool) {
	v, ok := f.branches[site]
	if !ok {
		return 0, 0, false
	}
	return v, 1 - v, true
}

func (f *fakeProfile) SwitchFactors(site string, ncases int) ([]float64, bool) {
	v, ok := f.switches[site]
	if !ok || len(v) != ncases {
		return nil, false
	}
	return v, true
}

const freqSrc = `
struct Point {
	double x;
	double y;
	struct Point *next;
};

double g(Point *p, int c) {
	double a; double b;
	a = 0.0;
	while (c > 0) {
		a = a + p->x;
		c = c - 1;
	}
	if (c > 10) { b = p->y; } else { b = 0.0; }
	return a + b;
}

int main() { return 0; }
`

// compileFreq compiles the test program and returns the function plus the
// site keys of its while loop and if statement.
func compileFreq(t *testing.T) (*core.Unit, *simple.Func, string, string) {
	t.Helper()
	u, err := core.NewPipeline(core.Options{NoInline: true}).Compile("t.ec", freqSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := u.Simple.FuncByName("g")
	if f == nil {
		t.Fatal("no function g")
	}
	var loopKey, ifKey string
	simple.WalkStmts(f.Body, func(s simple.Stmt) {
		switch s.(type) {
		case *simple.While, *simple.Do:
			loopKey = simple.CompoundSiteKey(f.Name, simple.SiteOf(s))
		case *simple.If:
			if ifKey == "" {
				ifKey = simple.CompoundSiteKey(f.Name, simple.SiteOf(s))
			}
		}
	})
	if loopKey == "" || ifKey == "" {
		t.Fatalf("site keys not assigned: loop=%q if=%q", loopKey, ifKey)
	}
	return u, f, loopKey, ifKey
}

// TestFreqProviderOverridesStatics: measured factors replace ×10 and ÷2.
func TestFreqProviderOverridesStatics(t *testing.T) {
	u, f, loopKey, ifKey := compileFreq(t)
	fp := &fakeProfile{
		loops:    map[string]float64{loopKey: 3.5},
		branches: map[string]float64{ifKey: 0.9},
	}
	res := placement.AnalyzeProfiledP(u.Simple, u.RWSets, u.Locality, fp, nil)

	var loopStmt, ifStmt simple.Stmt
	simple.WalkStmts(f.Body, func(s simple.Stmt) {
		switch s.(type) {
		case *simple.While, *simple.Do:
			loopStmt = s
		case *simple.If:
			if ifStmt == nil {
				ifStmt = s
			}
		}
	})
	if !setHas(res.Reads[loopStmt], "p", "x", 3.5) {
		t.Errorf("(p->x) hoisted out of the loop should carry the measured factor 3.5: %s",
			res.Reads[loopStmt])
	}
	if !setHas(res.Reads[ifStmt], "p", "y", 0.9) {
		t.Errorf("(p->y) above the if should carry the measured then-probability 0.9: %s",
			res.Reads[ifStmt])
	}
}

// TestFreqProviderFallback: a provider with no data (and a nil provider)
// reproduce the static ×10/÷2 factors exactly.
func TestFreqProviderFallback(t *testing.T) {
	u, f, _, _ := compileFreq(t)
	empty := &fakeProfile{}
	for _, res := range []*placement.Result{
		placement.AnalyzeProfiledP(u.Simple, u.RWSets, u.Locality, empty, nil),
		placement.AnalyzeProfiledP(u.Simple, u.RWSets, u.Locality, nil, nil),
	} {
		var loopStmt, ifStmt simple.Stmt
		simple.WalkStmts(f.Body, func(s simple.Stmt) {
			switch s.(type) {
			case *simple.While, *simple.Do:
				loopStmt = s
			case *simple.If:
				if ifStmt == nil {
					ifStmt = s
				}
			}
		})
		if !setHas(res.Reads[loopStmt], "p", "x", placement.LoopFreq) {
			t.Errorf("(p->x) should fall back to the static x%v: %s",
				placement.LoopFreq, res.Reads[loopStmt])
		}
		if !setHas(res.Reads[ifStmt], "p", "y", 0.5) {
			t.Errorf("(p->y) should fall back to the static 0.5: %s", res.Reads[ifStmt])
		}
	}
}

// TestSwitchFreqProvider: measured per-case probabilities replace ÷k.
func TestSwitchFreqProvider(t *testing.T) {
	src := `
struct P { int a; int b; };
int g(P *p, int k) {
	int x;
	x = 0;
	switch (k) {
	case 0: x = p->a;
	case 1: x = p->a;
	case 2: x = p->a;
	default: x = p->b;
	}
	return x;
}
int main() { return 0; }
`
	u, err := core.NewPipeline(core.Options{NoInline: true}).Compile("t.ec", src)
	if err != nil {
		t.Fatal(err)
	}
	f := u.Simple.FuncByName("g")
	var swKey string
	simple.WalkStmts(f.Body, func(s simple.Stmt) {
		if _, ok := s.(*simple.Switch); ok {
			swKey = simple.CompoundSiteKey(f.Name, simple.SiteOf(s))
		}
	})
	if swKey == "" {
		t.Fatal("switch site not assigned")
	}
	fp := &fakeProfile{switches: map[string][]float64{
		swKey: {0.125, 0.25, 0.25, 0.375},
	}}
	res := placement.AnalyzeProfiledP(u.Simple, u.RWSets, u.Locality, fp, nil)
	first := findBasic(f, "x = 0")
	set := res.Reads[simple.Stmt(first)]
	// (p->a) appears in cases 0..2: 0.125+0.25+0.25 = 0.625; (p->b) in
	// default: 0.375 (dyadic fractions, so the sums are exact).
	if !setHas(set, "p", "a", 0.625) {
		t.Errorf("(p->a) should carry the summed measured case probabilities 0.625: %s", set)
	}
	if !setHas(set, "p", "b", 0.375) {
		t.Errorf("(p->b) should carry the measured default probability 0.375: %s", set)
	}
}
