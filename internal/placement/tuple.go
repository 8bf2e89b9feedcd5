// Package placement implements the paper's possible-placement analysis
// (§4.1): a structured, single-traversal flow analysis over SIMPLE form that
// computes, for every statement S, the set RemoteReads(S) of remote read
// tuples that may safely be placed just before S (propagated backwards,
// optimistically) and the set RemoteWrites(S) of remote write tuples that
// may safely be placed just after S (propagated forwards, conservatively).
package placement

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/simple"
)

// LabelSet is a sorted, duplicate-free set of basic-statement labels. The
// typical set has one element, so it is a slice rather than a map. A label
// set inside a tuple is never edited once the tuple is in a Set: growing one
// builds a new slice (union).
type LabelSet []int

// union returns s ∪ o. When one side already holds every label of the other
// it returns that side itself, so the result may share storage with s or o;
// that is safe because published label sets are immutable.
func (s LabelSet) union(o LabelSet) LabelSet {
	if len(o) == 0 {
		return s
	}
	if len(s) == 0 {
		return o
	}
	out := make(LabelSet, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	switch len(out) {
	case len(s):
		return s
	case len(o):
		return o
	}
	return out
}

// Tuple is a remote communication expression (p, f, n, Dlist): pointer
// variable, field, estimated frequency, and the set of basic-statement
// labels whose accesses the tuple covers.
//
// A tuple is immutable once it is in a Set: a tuple that crosses a
// statement unchanged is the same record on both sides, and a merge, a
// frequency scale or a grown CrossedW/CrossedR builds a new record.
type Tuple struct {
	P     *simple.Var
	Field string // display name of the field ("" for *p)
	Off   int    // word offset; (P, Off) is the tuple's identity
	// Loc is the location id of (P, Off), interned once per Result: sets
	// are ordered by it and selection keys its bookkeeping on it.
	Loc  int
	Freq float64
	D    LabelSet // basic statement labels
	// CrossedW records, for read tuples, the labels of *direct* remote
	// writes to the same location the tuple floated across (direct writes
	// do not kill read tuples, per the paper, because the transformation
	// redirects every access to one local copy — the selection phase uses
	// this set to know exactly which stores must update that copy).
	CrossedW LabelSet
	// CrossedR is the symmetric set for write tuples: direct reads floated
	// across while moving the write downwards.
	CrossedR LabelSet
}

// Key identifies the location a tuple refers to.
type Key struct {
	P   *simple.Var
	Off int
}

// Labels returns the sorted Dlist.
func (t *Tuple) Labels() []int { return t.D }

// String renders the tuple in the paper's (p->f, n, {S...}) notation.
func (t *Tuple) String() string {
	labels := t.Labels()
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("S%d", l)
	}
	field := t.Field
	if field == "" {
		field = "*"
	}
	n := strconv(t.Freq)
	return fmt.Sprintf("(%s->%s, %s, {%s})", t.P.Name, field, n, strings.Join(parts, ","))
}

func strconv(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.2f", f)
}

// merged is the tuple for one location reached along two ways, a then b:
// frequencies sum and label sets unite, as the paper specifies for moving
// tuples out of conditionals. The sum is a + b in that order, so a chain of
// merges adds in the order the ways were taken.
func merged(a, b *Tuple) *Tuple {
	return &Tuple{P: a.P, Field: a.Field, Off: a.Off, Loc: a.Loc,
		Freq:     a.Freq + b.Freq,
		D:        a.D.union(b.D),
		CrossedW: a.CrossedW.union(b.CrossedW),
		CrossedR: a.CrossedR.union(b.CrossedR)}
}

// Set is an immutable set of tuples, one per location, ordered by location
// id. The zero value is the empty set. Sets share tuple records, and the
// functions that combine sets build new ones without editing their inputs,
// so a set recorded in a Result never changes.
type Set struct {
	ts []*Tuple
}

// Len reports the number of tuples.
func (s Set) Len() int { return len(s.ts) }

// Tuples returns the tuples in location-id order. The slice is the set's
// own storage: callers must not modify it.
func (s Set) Tuples() []*Tuple { return s.ts }

// String renders the set in the paper's brace notation, tuples sorted by
// (pointer name, offset).
func (s Set) String() string {
	ts := append([]*Tuple(nil), s.ts...)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].P.Name != ts[j].P.Name {
			return ts[i].P.Name < ts[j].P.Name
		}
		return ts[i].Off < ts[j].Off
	})
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// union returns a ∪ b. A location in both gets merged(a's, b's) — a's
// frequency first; every other tuple is shared. With either side empty the
// other is returned as is.
func union(a, b Set) Set {
	if len(b.ts) == 0 {
		return a
	}
	if len(a.ts) == 0 {
		return b
	}
	out := make([]*Tuple, 0, len(a.ts)+len(b.ts))
	i, j := 0, 0
	for i < len(a.ts) && j < len(b.ts) {
		ta, tb := a.ts[i], b.ts[j]
		switch {
		case ta.Loc < tb.Loc:
			out = append(out, ta)
			i++
		case ta.Loc > tb.Loc:
			out = append(out, tb)
			j++
		default:
			out = append(out, merged(ta, tb))
			i++
			j++
		}
	}
	out = append(out, a.ts[i:]...)
	out = append(out, b.ts[j:]...)
	return Set{ts: out}
}

// meet returns the locations in both a and b, each as merged(a's, b's).
func meet(a, b Set) Set {
	var out []*Tuple
	i, j := 0, 0
	for i < len(a.ts) && j < len(b.ts) {
		ta, tb := a.ts[i], b.ts[j]
		switch {
		case ta.Loc < tb.Loc:
			i++
		case ta.Loc > tb.Loc:
			j++
		default:
			out = append(out, merged(ta, tb))
			i++
			j++
		}
	}
	return Set{ts: out}
}

// scaled returns s with every frequency multiplied by factor (loop exit:
// x10; conditional exit: /2 or /k), in new tuple records.
func (s Set) scaled(factor float64) Set {
	if len(s.ts) == 0 {
		return s
	}
	out := make([]*Tuple, len(s.ts))
	recs := make([]Tuple, len(s.ts))
	for i, t := range s.ts {
		recs[i] = *t
		recs[i].Freq *= factor
		out[i] = &recs[i]
	}
	return Set{ts: out}
}
