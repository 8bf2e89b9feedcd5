// Package pointsto implements a whole-program, flow-insensitive,
// field-sensitive points-to analysis over SIMPLE form. It stands in for the
// McCAT stack points-to analysis (Emami et al.) and heap connection analysis
// (Ghiya & Hendren) that the paper's placement analysis consumes.
//
// Abstract locations are (base, word offset) pairs, where a base is either a
// variable (parameter, local, or global — including struct-valued storage)
// or a heap allocation site. Field sensitivity is by word offset, which
// matches the word-granular layout used throughout this reproduction and
// lets interior pointers (&p->f) be modeled exactly.
//
// The analysis is Andersen-style (inclusion constraints) and
// context-insensitive across calls. It runs in two steps: constraint
// generation walks each function body exactly once, in function order, then
// a flat solver iterates the collected constraint list to a fixpoint. The
// solver never re-walks the AST, which is where the old per-pass walker
// spent most of its time.
package pointsto

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/par"
	"repro/internal/simple"
)

// AllocSite names a heap allocation site (one KAlloc basic statement).
type AllocSite struct {
	Fn     *simple.Func
	B      *simple.Basic
	Struct string
	Size   int
}

func (a *AllocSite) String() string {
	return fmt.Sprintf("heap:%s@%s.S%d", a.Struct, a.Fn.Name, a.B.Label)
}

// Base is the root of an abstract location: a *simple.Var or an *AllocSite.
type Base any

// Loc is an abstract memory location: a word within a base object.
type Loc struct {
	Base Base
	Off  int
}

// String renders the location for diagnostics.
func (l Loc) String() string {
	switch b := l.Base.(type) {
	case *simple.Var:
		if l.Off == 0 {
			return b.Name
		}
		return fmt.Sprintf("%s+%d", b.Name, l.Off)
	case *AllocSite:
		return fmt.Sprintf("%s+%d", b, l.Off)
	}
	return "?loc"
}

// LocSet is a set of abstract locations.
type LocSet map[Loc]bool

// Add inserts a location, reporting whether it was new.
func (s LocSet) Add(l Loc) bool {
	if s[l] {
		return false
	}
	s[l] = true
	return true
}

// AddAll inserts all of o, reporting whether anything was new.
func (s LocSet) AddAll(o LocSet) bool {
	changed := false
	for l := range o {
		if s.Add(l) {
			changed = true
		}
	}
	return changed
}

// String renders the set sorted, for stable test output.
func (s LocSet) String() string {
	items := make([]string, 0, len(s))
	for l := range s {
		items = append(items, l.String())
	}
	sort.Strings(items)
	return "{" + strings.Join(items, ", ") + "}"
}

// Result is the solved points-to information for a program.
type Result struct {
	Prog *simple.Program

	// VarPts maps each pointer variable to the locations it may target.
	VarPts map[*simple.Var]LocSet
	// MemPts maps each abstract location (a pointer-holding word) to the
	// locations the stored pointer may target.
	MemPts map[Loc]LocSet
	// Sites lists all allocation sites.
	Sites []*AllocSite
	// addrTaken records variables whose storage can be reached via a
	// pointer.
	addrTaken map[*simple.Var]bool
	// Returns maps each function to the points-to set of its return values.
	Returns map[*simple.Func]LocSet
}

// Pts returns the points-to set of a variable (nil-safe, read-only).
func (r *Result) Pts(v *simple.Var) LocSet { return r.VarPts[v] }

// AddressTaken reports whether v's own storage may be reached via pointers.
func (r *Result) AddressTaken(v *simple.Var) bool { return r.addrTaken[v] }

// MayAlias reports whether accesses via pointers p (at offset poff) and q
// (at offset qoff) can touch the same word.
func (r *Result) MayAlias(p *simple.Var, poff int, q *simple.Var, qoff int) bool {
	ps, qs := r.VarPts[p], r.VarPts[q]
	for pl := range ps {
		target := Loc{Base: pl.Base, Off: pl.Off + poff}
		for ql := range qs {
			if ql.Base == target.Base && ql.Off+qoff == target.Off {
				return true
			}
		}
	}
	return false
}

// Targets returns the set of words reached by dereferencing p at off.
func (r *Result) Targets(p *simple.Var, off int) LocSet {
	out := make(LocSet)
	for pl := range r.VarPts[p] {
		out.Add(Loc{Base: pl.Base, Off: pl.Off + off})
	}
	return out
}

// ------------------------------------------------------------ constraints ---

type cKind uint8

const (
	cCopy       cKind = iota // pts(dst) ⊇ pts(src)
	cLoad                    // pts(dst) ⊇ mem(pts(p)+off)
	cLoadFixed               // pts(dst) ⊇ mem(loc)
	cLoadRange               // pts(dst) ⊇ mem(base+i), i = start, start+step, … < limit+start? (see apply)
	cStore                   // mem(pts(p)+off) ⊇ pts(src)
	cStoreFixed              // mem(loc) ⊇ pts(src)
	cStoreRange              // mem(base+i) ⊇ pts(src) over the range
	cFieldAddr               // pts(dst) ⊇ {(b, o+off) | (b,o) ∈ pts(p)}
	cCallRet                 // pts(dst) ⊇ Returns[fn]
	cRetFlow                 // Returns[fn] ⊇ pts(src)
	cBlkCopy                 // word-by-word mem-mem flow between b's ranges
)

// constraint is one inclusion edge. Only the fields its kind uses are set.
type constraint struct {
	kind  cKind
	dst   *simple.Var
	src   *simple.Var
	p     *simple.Var // dereferenced pointer (cLoad/cStore/cFieldAddr)
	loc   Loc         // cLoadFixed/cStoreFixed
	base  *simple.Var // cLoadRange/cStoreRange
	off   int         // deref offset, or range start offset
	step  int         // range stride
	limit int         // range extent (base's size in words)
	fn    *simple.Func
	b     *simple.Basic // cBlkCopy
}

// Deprecated: ignored pool; use Analyze.
func AnalyzeP(prog *simple.Program, _ *par.Pool) (*Result, error) { return Analyze(prog) }

// Analyze runs the analysis over a SIMPLE program.
func Analyze(prog *simple.Program) (*Result, error) {
	r := &Result{
		Prog:      prog,
		VarPts:    make(map[*simple.Var]LocSet),
		MemPts:    make(map[Loc]LocSet),
		addrTaken: make(map[*simple.Var]bool),
		Returns:   make(map[*simple.Func]LocSet),
	}
	funcs := make(map[string]*simple.Func, len(prog.Funcs))
	for _, f := range prog.Funcs {
		funcs[f.Name] = f
		r.Returns[f] = make(LocSet)
	}

	// Generate constraints, one walk per function. Allocation sites keep
	// their (function, walk) order; ground facts land before solving.
	s := solver{r: r}
	g := generator{s: &s, funcs: funcs}
	prog.EachFunc(func(f *simple.Func) {
		g.fn = f
		simple.WalkBasics(f.Body, g.basic)
	})
	cons := g.cons

	// Iterate the flat constraint list to a fixpoint.
	for pass := 0; ; pass++ {
		s.changed = false
		for i := range cons {
			s.apply(&cons[i])
		}
		if !s.changed {
			break
		}
		if pass > 200 {
			// Termination is guaranteed (finite lattice, monotone), but
			// guard against bugs — as a returned error, not a crash, since
			// any source program can reach this path.
			return nil, fmt.Errorf("pointsto: fixpoint did not converge after %d passes over %d constraints (internal invariant violated)", pass, len(cons))
		}
	}
	return r, nil
}

// ------------------------------------------------------------- generation ---

// generator collects the constraints of every function, one function (fn)
// at a time, and records ground facts (allocation sites, address-taken
// variables, seed points-to sets) straight into the result.
type generator struct {
	s     *solver
	fn    *simple.Func
	funcs map[string]*simple.Func
	cons  []constraint
}

func (g *generator) emit(c constraint) { g.cons = append(g.cons, c) }

func (g *generator) copyFlow(dst *simple.Var, at simple.Atom) {
	if v := simple.AtomVar(at); v != nil && v.IsPtr() {
		g.emit(constraint{kind: cCopy, dst: dst, src: v})
	}
}

func (g *generator) basic(b *simple.Basic) {
	switch b.Kind {
	case simple.KAssign:
		g.assign(b)
	case simple.KAlloc:
		site := &AllocSite{Fn: g.fn, B: b, Struct: b.StructName, Size: b.AllocSize}
		g.s.r.Sites = append(g.s.r.Sites, site)
		if b.Dst != nil {
			g.s.varSet(b.Dst).Add(Loc{Base: site, Off: 0})
		}
	case simple.KCall:
		callee := g.funcs[b.Fun]
		if callee == nil {
			return
		}
		for i, arg := range b.Args {
			if i >= len(callee.Params) {
				break
			}
			pv := callee.Params[i]
			if pv.IsPtr() {
				g.copyFlow(pv, arg)
			}
		}
		if b.Dst != nil && b.Dst.IsPtr() {
			g.emit(constraint{kind: cCallRet, dst: b.Dst, fn: callee})
		}
	case simple.KBuiltin:
		// Shared-variable intrinsics can move pointers: writeto(&sp, q)
		// stores q into sp's slot, valueof(&sp) reads it back.
		if len(b.ArgVars) == 1 {
			sv := b.ArgVars[0]
			g.s.r.addrTaken[sv] = true
			if len(b.Args) == 1 {
				if v := simple.AtomVar(b.Args[0]); v != nil && v.IsPtr() {
					g.emit(constraint{kind: cStoreFixed, loc: Loc{Base: sv, Off: 0}, src: v})
				}
			}
			if b.Dst != nil && b.Dst.IsPtr() {
				g.emit(constraint{kind: cLoadFixed, dst: b.Dst, loc: Loc{Base: sv, Off: 0}})
			}
		}
	case simple.KReturn:
		if b.Val != nil {
			if v := simple.AtomVar(b.Val); v != nil && v.IsPtr() {
				g.emit(constraint{kind: cRetFlow, fn: g.fn, src: v})
			}
		}
	case simple.KBlkCopy:
		g.emit(constraint{kind: cBlkCopy, b: b})
	}
}

func (g *generator) assign(b *simple.Basic) {
	switch lhs := b.Lhs.(type) {
	case simple.VarLV:
		if !lhs.V.IsPtr() {
			return
		}
		switch rhs := b.Rhs.(type) {
		case simple.AtomRV:
			g.copyFlow(lhs.V, rhs.A)
		case simple.LoadRV:
			g.emit(constraint{kind: cLoad, dst: lhs.V, p: rhs.P, off: rhs.Off})
		case simple.LocalLoadRV:
			if rhs.Idx != nil {
				// Any element of the array could be the source.
				g.emit(constraint{kind: cLoadRange, dst: lhs.V, base: rhs.Base,
					off: 0, step: 1, limit: rhs.Base.Size})
			} else {
				g.emit(constraint{kind: cLoadFixed, dst: lhs.V,
					loc: Loc{Base: rhs.Base, Off: rhs.Off}})
			}
		case simple.AddrRV:
			g.s.r.addrTaken[rhs.X] = true
			g.s.varSet(lhs.V).Add(Loc{Base: rhs.X, Off: rhs.Off})
		case simple.FieldAddrRV:
			g.emit(constraint{kind: cFieldAddr, dst: lhs.V, p: rhs.P, off: rhs.Off})
		}
	case simple.StoreLV:
		// p->f = atom
		rhs, ok := b.Rhs.(simple.AtomRV)
		if !ok {
			return
		}
		v := simple.AtomVar(rhs.A)
		if v == nil || !v.IsPtr() {
			return
		}
		g.emit(constraint{kind: cStore, p: lhs.P, off: lhs.Off, src: v})
	case simple.LocalStoreLV:
		rhs, ok := b.Rhs.(simple.AtomRV)
		if !ok {
			return
		}
		v := simple.AtomVar(rhs.A)
		if v == nil || !v.IsPtr() {
			return
		}
		if lhs.Idx != nil {
			// Conservatively: could be any element.
			step := max(1, lhs.Scale)
			g.emit(constraint{kind: cStoreRange, base: lhs.Base, src: v,
				off: lhs.Off % step, step: step, limit: lhs.Base.Size})
		} else {
			g.emit(constraint{kind: cStoreFixed, src: v,
				loc: Loc{Base: lhs.Base, Off: lhs.Off}})
		}
	}
}

// ----------------------------------------------------------------- solving ---

type solver struct {
	r       *Result
	changed bool
}

func (s *solver) varSet(v *simple.Var) LocSet {
	set, ok := s.r.VarPts[v]
	if !ok {
		set = make(LocSet)
		s.r.VarPts[v] = set
	}
	return set
}

func (s *solver) memSet(l Loc) LocSet {
	set, ok := s.r.MemPts[l]
	if !ok {
		set = make(LocSet)
		s.r.MemPts[l] = set
	}
	return set
}

func (s *solver) flowMemVar(dst *simple.Var, src Loc) {
	if s.varSet(dst).AddAll(s.memSet(src)) {
		s.changed = true
	}
}

func (s *solver) flowVarMem(dst Loc, src *simple.Var) {
	if s.memSet(dst).AddAll(s.varSet(src)) {
		s.changed = true
	}
}

func (s *solver) flowMemMem(dst, src Loc) {
	if s.memSet(dst).AddAll(s.memSet(src)) {
		s.changed = true
	}
}

func (s *solver) apply(c *constraint) {
	switch c.kind {
	case cCopy:
		if s.varSet(c.dst).AddAll(s.varSet(c.src)) {
			s.changed = true
		}
	case cLoad:
		for pl := range s.varSet(c.p) {
			s.flowMemVar(c.dst, Loc{Base: pl.Base, Off: pl.Off + c.off})
		}
	case cLoadFixed:
		s.flowMemVar(c.dst, c.loc)
	case cLoadRange:
		for i := 0; i < c.limit; i += c.step {
			s.flowMemVar(c.dst, Loc{Base: c.base, Off: i + c.off})
		}
	case cStore:
		for pl := range s.varSet(c.p) {
			s.flowVarMem(Loc{Base: pl.Base, Off: pl.Off + c.off}, c.src)
		}
	case cStoreFixed:
		s.flowVarMem(c.loc, c.src)
	case cStoreRange:
		for i := 0; i < c.limit; i += c.step {
			s.flowVarMem(Loc{Base: c.base, Off: i + c.off}, c.src)
		}
	case cFieldAddr:
		dst := s.varSet(c.dst)
		for pl := range s.varSet(c.p) {
			if dst.Add(Loc{Base: pl.Base, Off: pl.Off + c.off}) {
				s.changed = true
			}
		}
	case cCallRet:
		if s.varSet(c.dst).AddAll(s.r.Returns[c.fn]) {
			s.changed = true
		}
	case cRetFlow:
		if s.r.Returns[c.fn].AddAll(s.varSet(c.src)) {
			s.changed = true
		}
	case cBlkCopy:
		s.blkCopy(c.b)
	}
}

func (s *solver) blkCopy(b *simple.Basic) {
	// Word-by-word pointer flow between the source and destination ranges.
	srcLocs := func(i int) []Loc {
		if b.P != nil {
			out := make([]Loc, 0, len(s.varSet(b.P)))
			for pl := range s.varSet(b.P) {
				out = append(out, Loc{Base: pl.Base, Off: pl.Off + b.Off + i})
			}
			return out
		}
		return []Loc{{Base: b.Local, Off: b.Off + i}}
	}
	dstLocs := func(i int) []Loc {
		if b.P2 != nil {
			out := make([]Loc, 0, len(s.varSet(b.P2)))
			for pl := range s.varSet(b.P2) {
				out = append(out, Loc{Base: pl.Base, Off: pl.Off + b.Off2 + i})
			}
			return out
		}
		return []Loc{{Base: b.Dst, Off: b.Off2 + i}}
	}
	for i := 0; i < b.Size; i++ {
		for _, src := range srcLocs(i) {
			for _, dst := range dstLocs(i) {
				s.flowMemMem(dst, src)
			}
		}
	}
}
