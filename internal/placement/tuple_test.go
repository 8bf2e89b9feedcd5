package placement

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/simple"
)

// tup builds a tuple for p->off; with one pointer per test, the offset
// doubles as the location id.
func tup(p *simple.Var, off int, freq float64, labels ...int) *Tuple {
	d := append(LabelSet(nil), labels...)
	sort.Ints(d)
	return &Tuple{P: p, Field: "f", Off: off, Loc: off, Freq: freq, D: d}
}

// setOf folds the tuples into a set, in order, as the analysis merges them.
func setOf(ts ...*Tuple) Set {
	var s Set
	for _, t := range ts {
		s = union(s, Set{ts: []*Tuple{t}})
	}
	return s
}

func TestSetMergeSumsFrequency(t *testing.T) {
	p := &simple.Var{Name: "p"}
	s := setOf(tup(p, 0, 0.5, 1), tup(p, 0, 0.5, 2))
	ts := s.Tuples()
	if len(ts) != 1 {
		t.Fatalf("tuples for the same location must merge, got %d", len(ts))
	}
	if ts[0].Freq != 1.0 {
		t.Errorf("frequencies should sum: got %v", ts[0].Freq)
	}
	if len(ts[0].D) != 2 {
		t.Errorf("Dlists should union: got %v", ts[0].Labels())
	}
}

func TestSetDistinctOffsetsStaySeparate(t *testing.T) {
	p := &simple.Var{Name: "p"}
	s := setOf(tup(p, 0, 1, 1), tup(p, 1, 1, 2))
	if s.Len() != 2 {
		t.Errorf("different offsets are different locations: got %d", s.Len())
	}
}

func TestSetAddIsIdempotentOnLabels(t *testing.T) {
	p := &simple.Var{Name: "p"}
	s := setOf(tup(p, 0, 1, 3), tup(p, 0, 1, 3))
	ts := s.Tuples()
	if len(ts[0].D) != 1 {
		t.Errorf("label union must be idempotent, got %v", ts[0].Labels())
	}
}

// TestSetOpsLeaveInputsUnchanged: union, meet and scaled build new sets and
// records; a set already recorded keeps its tuples, frequencies and labels,
// and a tuple only one side holds is shared, not copied.
func TestSetOpsLeaveInputsUnchanged(t *testing.T) {
	p := &simple.Var{Name: "p"}
	a0, a1 := tup(p, 0, 1, 1), tup(p, 1, 1, 2)
	a := setOf(a0, a1)
	b := setOf(tup(p, 0, 2, 9))
	u := union(a, b)
	m := meet(a, b)
	sc := a.scaled(10)
	if a.String() != "{(p->f, 1, {S1}), (p->f, 1, {S2})}" || a0.Freq != 1 || len(a0.D) != 1 {
		t.Errorf("combining sets changed an input: %s", a)
	}
	if u.String() != "{(p->f, 3, {S1,S9}), (p->f, 1, {S2})}" {
		t.Errorf("union: got %s", u)
	}
	if u.Tuples()[1] != a1 {
		t.Error("union copied a tuple only one side holds")
	}
	if m.String() != "{(p->f, 3, {S1,S9})}" {
		t.Errorf("meet: got %s", m)
	}
	if sc.String() != "{(p->f, 10, {S1}), (p->f, 10, {S2})}" {
		t.Errorf("scaled: got %s", sc)
	}
}

// TestSetMergeLaws: merging is commutative and associative on frequencies
// and label sets (property-based).
func TestSetMergeLaws(t *testing.T) {
	p := &simple.Var{Name: "p"}
	type spec struct {
		Off   uint8
		Freq  uint8
		Label uint8
	}
	build := func(specs []spec) Set {
		var ts []*Tuple
		for _, sp := range specs {
			ts = append(ts, tup(p, int(sp.Off%4), float64(sp.Freq%8), int(sp.Label%16)))
		}
		return setOf(ts...)
	}
	f := func(a, b []spec) bool {
		ab := build(append(append([]spec{}, a...), b...))
		ba := build(append(append([]spec{}, b...), a...))
		return ab.String() == ba.String() && union(build(a), build(b)).String() == ab.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTupleStringFormat(t *testing.T) {
	p := &simple.Var{Name: "p"}
	tu := tup(p, 0, 11, 4, 11)
	want := "(p->f, 11, {S4,S11})"
	if tu.String() != want {
		t.Errorf("got %q want %q", tu.String(), want)
	}
}

func TestScale(t *testing.T) {
	p := &simple.Var{Name: "p"}
	s := setOf(tup(p, 0, 1, 1))
	if got := s.scaled(10).Tuples()[0].Freq; got != 10 {
		t.Errorf("scale x10 failed: %v", got)
	}
	if s.Tuples()[0].Freq != 1 {
		t.Error("scaling changed the input set")
	}
}
