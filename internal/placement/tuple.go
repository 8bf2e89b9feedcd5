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

// LabelSet is a sorted, duplicate-free set of basic-statement labels. Tuples
// carry several of these per propagation step, so they are slices rather
// than maps: cloning is a memcpy and the typical set has one element.
type LabelSet []int

// Add inserts l, keeping the set sorted.
func (s *LabelSet) Add(l int) {
	i := sort.SearchInts(*s, l)
	if i < len(*s) && (*s)[i] == l {
		return
	}
	*s = append(*s, 0)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = l
}

// AddAll inserts every label of o.
func (s *LabelSet) AddAll(o LabelSet) {
	for _, l := range o {
		s.Add(l)
	}
}

// Clone returns an independent copy.
func (s LabelSet) Clone() LabelSet {
	if s == nil {
		return nil
	}
	out := make(LabelSet, len(s))
	copy(out, s)
	return out
}

// Tuple is a remote communication expression (p, f, n, Dlist): pointer
// variable, field, estimated frequency, and the set of basic-statement
// labels whose accesses the tuple covers.
type Tuple struct {
	P     *simple.Var
	Field string // display name of the field ("" for *p)
	Off   int    // word offset; (P, Off) is the tuple's identity
	Freq  float64
	D     LabelSet // basic statement labels
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

// Key returns the tuple's identity.
func (t *Tuple) Key() Key { return Key{P: t.P, Off: t.Off} }

// clone returns a deep copy (Dlists are mutable sets).
func (t *Tuple) clone() *Tuple {
	return &Tuple{P: t.P, Field: t.Field, Off: t.Off, Freq: t.Freq,
		D: t.D.Clone(), CrossedW: t.CrossedW.Clone(), CrossedR: t.CrossedR.Clone()}
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

// Set is a set of tuples keyed by location. Merging tuples for the same
// location sums frequencies and unions Dlists, as the paper specifies for
// moving tuples out of conditionals. The backing map is allocated lazily:
// most statements generate no tuples at all.
type Set struct {
	m map[Key]*Tuple
}

// NewSet returns an empty tuple set.
func NewSet() *Set { return &Set{} }

// Len reports the number of tuples.
func (s *Set) Len() int { return len(s.m) }

// Get returns the tuple for a key, or nil.
func (s *Set) Get(k Key) *Tuple { return s.m[k] }

// Add merges a tuple into the set (cloning it, so callers keep ownership).
func (s *Set) Add(t *Tuple) {
	if have, ok := s.m[t.Key()]; ok {
		have.Freq += t.Freq
		have.D.AddAll(t.D)
		have.CrossedW.AddAll(t.CrossedW)
		have.CrossedR.AddAll(t.CrossedR)
		return
	}
	if s.m == nil {
		s.m = make(map[Key]*Tuple, 4)
	}
	s.m[t.Key()] = t.clone()
}

// AddAll merges every tuple of o.
func (s *Set) AddAll(o *Set) {
	for _, t := range o.m {
		s.Add(t)
	}
}

// Remove deletes the tuple for a key.
func (s *Set) Remove(k Key) { delete(s.m, k) }

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	out := NewSet()
	if len(s.m) > 0 {
		out.m = make(map[Key]*Tuple, len(s.m))
		for k, t := range s.m {
			out.m[k] = t.clone()
		}
	}
	return out
}

// Tuples returns the tuples sorted by (pointer name, offset) for stable
// iteration and printing.
func (s *Set) Tuples() []*Tuple {
	out := make([]*Tuple, 0, len(s.m))
	for _, t := range s.m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P.Name != out[j].P.Name {
			return out[i].P.Name < out[j].P.Name
		}
		return out[i].Off < out[j].Off
	})
	return out
}

// String renders the set in the paper's brace notation.
func (s *Set) String() string {
	ts := s.Tuples()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// scale multiplies all frequencies (loop exit: x10; conditional exit: /2 or
// /k), in place.
func (s *Set) scale(factor float64) {
	for _, t := range s.m {
		t.Freq *= factor
	}
}
