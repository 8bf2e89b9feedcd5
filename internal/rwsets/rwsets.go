// Package rwsets computes per-statement read/write sets over SIMPLE form,
// for both basic and compound statements, including interprocedural
// summaries for calls. This reproduces the side-effect information the
// paper's possible-placement analysis consumes: every statement is decorated
// with the locations it reads/writes, and indirect accesses distinguish the
// access made *directly* through a given pointer from accesses made through
// aliases (the anchor-handle distinction of Ghiya & Hendren's connection
// analysis).
//
// The analysis runs in three steps: (1) per-function "own" effects — the
// body's effects with callee summaries excluded — computed once per
// function; (2) a summary fixpoint that only merges projected summaries
// along call edges; (3) a per-function populate pass that decorates every
// statement with its effects using the converged summaries.
package rwsets

import (
	"repro/internal/par"
	"repro/internal/pointsto"
	"repro/internal/sema"
	"repro/internal/simple"
)

// Via identifies how a memory word was accessed: through which pointer
// variable and at what offset. The zero Via ("other") covers accesses whose
// provenance is not a simple pointer+field (calls, local struct storage,
// block copies through a different route).
type Via struct {
	P   *simple.Var // nil for "other"
	Off int
}

// Other is the provenance for accesses not made via a simple pointer+field.
var Other = Via{}

// viaSet is a small set of provenances; almost every location is reached
// through one or two, so a slice with linear membership beats a map.
type viaSet []Via

func (s viaSet) has(v Via) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// AccessMap records, for each abstract location, the set of provenances
// through which the statement may access it.
type AccessMap map[pointsto.Loc]viaSet

func (m AccessMap) add(l pointsto.Loc, v Via) bool {
	s := m[l]
	if s.has(v) {
		return false
	}
	m[l] = append(s, v)
	return true
}

// Effects summarizes what a statement (or function) may do to memory.
// All four maps are allocated lazily (nil means empty): most statements
// touch only one or two of them, and an Effects is built for every
// statement in the program.
type Effects struct {
	// VarReads/VarWrites are the scalar variables read/written directly by
	// name (frame slots and globals).
	VarReads  map[*simple.Var]bool
	VarWrites map[*simple.Var]bool
	// Reads/Writes are the abstract memory words possibly read/written,
	// with provenance.
	Reads  AccessMap
	Writes AccessMap
	// HasCall reports whether the statement may invoke a user function.
	HasCall bool
}

func newEffects() *Effects { return &Effects{} }

func (e *Effects) varRead(v *simple.Var) bool {
	if e.VarReads[v] {
		return false
	}
	if e.VarReads == nil {
		e.VarReads = make(map[*simple.Var]bool, 4)
	}
	e.VarReads[v] = true
	return true
}

func (e *Effects) varWrite(v *simple.Var) bool {
	if e.VarWrites[v] {
		return false
	}
	if e.VarWrites == nil {
		e.VarWrites = make(map[*simple.Var]bool, 4)
	}
	e.VarWrites[v] = true
	return true
}

func (e *Effects) addRead(l pointsto.Loc, v Via) bool {
	if e.Reads == nil {
		e.Reads = make(AccessMap, 4)
	}
	return e.Reads.add(l, v)
}

func (e *Effects) addWrite(l pointsto.Loc, v Via) bool {
	if e.Writes == nil {
		e.Writes = make(AccessMap, 4)
	}
	return e.Writes.add(l, v)
}

func (e *Effects) mergeFrom(o *Effects) bool {
	changed := false
	for v := range o.VarReads {
		if e.varRead(v) {
			changed = true
		}
	}
	for v := range o.VarWrites {
		if e.varWrite(v) {
			changed = true
		}
	}
	for l, vs := range o.Reads {
		for _, v := range vs {
			if e.addRead(l, v) {
				changed = true
			}
		}
	}
	for l, vs := range o.Writes {
		for _, v := range vs {
			if e.addWrite(l, v) {
				changed = true
			}
		}
	}
	if o.HasCall && !e.HasCall {
		e.HasCall = true
		changed = true
	}
	return changed
}

// Result holds the computed read/write sets for a program.
type Result struct {
	PT   *pointsto.Result
	prog *simple.Program
	// Stmt maps every statement (basic and compound) to its effects.
	Stmt map[simple.Stmt]*Effects
	// Summary maps each function to its transitive effects (heap and
	// global; callee-local frame effects are excluded except where
	// reachable through pointers).
	Summary map[*simple.Func]*Effects

	// funcs indexes prog.Funcs by name (FuncByName is a linear scan).
	funcs map[string]*simple.Func
	// frame holds each function's own frame variables (params + locals)
	// for O(1) summary projection.
	frame map[*simple.Func]map[*simple.Var]bool
}

// Deprecated: ignored pool; use Analyze.
func AnalyzeP(prog *simple.Program, pt *pointsto.Result, _ *par.Pool) *Result {
	return Analyze(prog, pt)
}

// Analyze computes read/write sets given points-to results.
func Analyze(prog *simple.Program, pt *pointsto.Result) *Result {
	r := &Result{
		PT:      pt,
		prog:    prog,
		Stmt:    make(map[simple.Stmt]*Effects),
		Summary: make(map[*simple.Func]*Effects),
		funcs:   make(map[string]*simple.Func, len(prog.Funcs)),
		frame:   make(map[*simple.Func]map[*simple.Var]bool, len(prog.Funcs)),
	}
	for _, f := range prog.Funcs {
		r.funcs[f.Name] = f
		fr := make(map[*simple.Var]bool, len(f.Params)+len(f.Locals))
		for _, p := range f.Params {
			fr[p] = true
		}
		for _, l := range f.Locals {
			fr[l] = true
		}
		r.frame[f] = fr
	}

	// Step 1: each summary starts as the function's own effects (callee
	// summaries excluded), projected to caller-visible form; callees[i] is
	// prog.Funcs[i]'s callee list.
	callees := make([][]*simple.Func, 0, len(prog.Funcs))
	prog.EachFunc(func(f *simple.Func) {
		own := newEffects()
		r.ownEffects(f.Body, own)
		r.Summary[f] = r.project(own, f)
		callees = append(callees, r.calleesOf(f))
	})

	// Step 2: summary fixpoint along call edges (call graph cycles
	// converge). Purely a merge of small summary sets.
	for changed := true; changed; {
		changed = false
		for i, f := range prog.Funcs {
			for _, c := range callees[i] {
				if r.mergeProjected(r.Summary[f], r.Summary[c], f) {
					changed = true
				}
			}
		}
	}

	// Step 3: populate r.Stmt with the converged summaries.
	prog.EachFunc(func(f *simple.Func) { r.computeStmt(f.Body) })
	return r
}

// project builds a function's caller-visible summary from its body effects:
// frame variables of the callee are dropped (their lifetimes end), but heap
// locations, globals, and any variable whose address escapes are kept.
// Provenance does not survive the call boundary: the caller sees each
// access as "via other" (an alias it cannot name).
func (r *Result) project(eff *Effects, f *simple.Func) *Effects {
	out := newEffects()
	out.HasCall = true
	fr := r.frame[f]
	for v := range eff.VarReads {
		if v.Kind == simple.VarGlobal {
			out.varRead(v)
		}
	}
	for v := range eff.VarWrites {
		if v.Kind == simple.VarGlobal {
			out.varWrite(v)
		}
	}
	for l := range eff.Reads {
		if v, ok := l.Base.(*simple.Var); ok && fr[v] {
			continue
		}
		out.addRead(l, Other)
	}
	for l := range eff.Writes {
		if v, ok := l.Base.(*simple.Var); ok && fr[v] {
			continue
		}
		out.addWrite(l, Other)
	}
	return out
}

// mergeProjected merges callee summary src into dst, dropping locations in
// f's own frame (a callee summary can mention them when f passed &local
// down the call chain — those accesses die with f's frame as far as f's
// own callers are concerned). Reports whether dst changed.
func (r *Result) mergeProjected(dst, src *Effects, f *simple.Func) bool {
	changed := false
	for v := range src.VarReads {
		if v.Kind == simple.VarGlobal && dst.varRead(v) {
			changed = true
		}
	}
	for v := range src.VarWrites {
		if v.Kind == simple.VarGlobal && dst.varWrite(v) {
			changed = true
		}
	}
	fr := r.frame[f]
	for l := range src.Reads {
		if v, ok := l.Base.(*simple.Var); ok && fr[v] {
			continue
		}
		if dst.addRead(l, Other) {
			changed = true
		}
	}
	for l := range src.Writes {
		if v, ok := l.Base.(*simple.Var); ok && fr[v] {
			continue
		}
		if dst.addWrite(l, Other) {
			changed = true
		}
	}
	if src.HasCall && !dst.HasCall {
		dst.HasCall = true
		changed = true
	}
	return changed
}

// ownEffects accumulates the effects of s and everything under it into eff,
// excluding callee summaries (the summary fixpoint adds those along call
// edges instead). No per-statement records are made.
func (r *Result) ownEffects(s simple.Stmt, eff *Effects) {
	switch st := s.(type) {
	case *simple.Basic:
		r.basic(eff, st, false)
	default:
		for _, seq := range simple.Subseqs(st) {
			for _, c := range seq.Stmts {
				r.ownEffects(c, eff)
			}
		}
		r.compoundReads(eff, s)
	}
}

// computeStmt computes effects for s (with converged callee summaries) and
// records them for s and every statement beneath it in r.Stmt.
func (r *Result) computeStmt(s simple.Stmt) *Effects {
	eff := newEffects()
	switch st := s.(type) {
	case *simple.Basic:
		r.basic(eff, st, true)
	default:
		for _, seq := range simple.Subseqs(st) {
			// Record effects for the subsequence itself too: parallel-arm
			// interference checks query sibling sequences directly.
			seqEff := newEffects()
			for _, c := range seq.Stmts {
				seqEff.mergeFrom(r.computeStmt(c))
			}
			r.Stmt[seq] = seqEff
			eff.mergeFrom(seqEff)
		}
		r.compoundReads(eff, s)
	}
	r.Stmt[s] = eff
	return eff
}

// compoundReads adds the atom reads a compound statement's condition (or
// switch tag) performs.
func (r *Result) compoundReads(eff *Effects, s simple.Stmt) {
	switch st := s.(type) {
	case *simple.If:
		r.condReads(eff, st.Cond)
	case *simple.While:
		r.condReads(eff, st.Cond)
	case *simple.Do:
		r.condReads(eff, st.Cond)
	case *simple.Forall:
		r.condReads(eff, st.Cond)
	case *simple.Switch:
		r.atomRead(eff, st.Tag)
	}
}

func (r *Result) condReads(eff *Effects, c simple.Cond) {
	for _, a := range c.Atoms() {
		r.atomRead(eff, a)
	}
}

func (r *Result) atomRead(eff *Effects, a simple.Atom) {
	if v := simple.AtomVar(a); v != nil {
		eff.varRead(v)
	}
}

func (r *Result) basic(eff *Effects, b *simple.Basic, withSummaries bool) {
	switch b.Kind {
	case simple.KAssign:
		r.rvalue(eff, b.Rhs)
		r.lvalue(eff, b.Lhs)
	case simple.KCall:
		for _, a := range b.Args {
			r.atomRead(eff, a)
		}
		if b.Place != nil && b.Place.Arg != nil {
			r.atomRead(eff, b.Place.Arg)
		}
		if b.Dst != nil {
			eff.varWrite(b.Dst)
		}
		eff.HasCall = true
		if withSummaries {
			if callee := r.funcs[b.Fun]; callee != nil {
				eff.mergeFrom(r.Summary[callee])
			}
		}
	case simple.KBuiltin:
		for _, a := range b.Args {
			r.atomRead(eff, a)
		}
		if b.Dst != nil {
			eff.varWrite(b.Dst)
		}
		for _, sv := range b.ArgVars {
			switch sema.Builtin(b.BFun) {
			case sema.BWriteTo, sema.BAddTo:
				eff.addWrite(pointsto.Loc{Base: sv, Off: 0}, Other)
				if sema.Builtin(b.BFun) == sema.BAddTo {
					eff.addRead(pointsto.Loc{Base: sv, Off: 0}, Other)
				}
			case sema.BValueOf:
				eff.addRead(pointsto.Loc{Base: sv, Off: 0}, Other)
			}
		}
	case simple.KAlloc:
		if b.Node != nil {
			r.atomRead(eff, b.Node)
		}
		if b.Dst != nil {
			eff.varWrite(b.Dst)
		}
	case simple.KReturn:
		if b.Val != nil {
			r.atomRead(eff, b.Val)
		}
	case simple.KBlkCopy:
		// Source range.
		if b.P != nil {
			eff.varRead(b.P)
			// Block copies are never redirected to a shadow copy by the
			// selection phase, so their accesses count as aliased ("other")
			// accesses: tuples must not float across an overlapping one.
			for i := 0; i < b.Size; i++ {
				for pl := range r.PT.Pts(b.P) {
					eff.addRead(pointsto.Loc{Base: pl.Base, Off: pl.Off + b.Off + i}, Other)
				}
			}
		} else if b.Local != nil {
			for i := 0; i < b.Size; i++ {
				eff.addRead(pointsto.Loc{Base: b.Local, Off: b.Off + i}, Other)
			}
		}
		// Destination range.
		if b.P2 != nil {
			eff.varRead(b.P2)
			for i := 0; i < b.Size; i++ {
				for pl := range r.PT.Pts(b.P2) {
					eff.addWrite(pointsto.Loc{Base: pl.Base, Off: pl.Off + b.Off2 + i}, Other)
				}
			}
		} else if b.Dst != nil {
			for i := 0; i < b.Size; i++ {
				eff.addWrite(pointsto.Loc{Base: b.Dst, Off: b.Off2 + i}, Other)
			}
		}
	case simple.KGetF:
		// Post-selection split-phase and block operations count as aliased
		// accesses: later analyses must not float tuples across them.
		eff.varRead(b.P)
		if b.Dst != nil {
			eff.varWrite(b.Dst)
		}
		for pl := range r.PT.Pts(b.P) {
			eff.addRead(pointsto.Loc{Base: pl.Base, Off: pl.Off + b.Off}, Other)
		}
	case simple.KPutF:
		eff.varRead(b.P)
		if b.Val != nil {
			r.atomRead(eff, b.Val)
		}
		if b.Local != nil {
			eff.addRead(pointsto.Loc{Base: b.Local, Off: b.Off2}, Other)
		}
		for pl := range r.PT.Pts(b.P) {
			eff.addWrite(pointsto.Loc{Base: pl.Base, Off: pl.Off + b.Off}, Other)
		}
	case simple.KBlkRead:
		eff.varRead(b.P)
		for i := 0; i < b.Size; i++ {
			for pl := range r.PT.Pts(b.P) {
				eff.addRead(pointsto.Loc{Base: pl.Base, Off: pl.Off + b.Off + i}, Other)
			}
			eff.addWrite(pointsto.Loc{Base: b.Local, Off: i}, Other)
		}
	case simple.KBlkWrite:
		eff.varRead(b.P)
		for i := 0; i < b.Size; i++ {
			for pl := range r.PT.Pts(b.P) {
				eff.addWrite(pointsto.Loc{Base: pl.Base, Off: pl.Off + b.Off + i}, Other)
			}
			eff.addRead(pointsto.Loc{Base: b.Local, Off: i}, Other)
		}
	}
}

func (r *Result) rvalue(eff *Effects, rv simple.Rvalue) {
	switch x := rv.(type) {
	case simple.AtomRV:
		r.atomRead(eff, x.A)
	case simple.UnaryRV:
		r.atomRead(eff, x.X)
	case simple.BinaryRV:
		r.atomRead(eff, x.X)
		r.atomRead(eff, x.Y)
	case simple.LoadRV:
		eff.varRead(x.P)
		for pl := range r.PT.Pts(x.P) {
			eff.addRead(pointsto.Loc{Base: pl.Base, Off: pl.Off + x.Off}, Via{P: x.P, Off: x.Off})
		}
	case simple.LocalLoadRV:
		if x.Idx != nil {
			r.atomRead(eff, x.Idx)
			for i := 0; i < x.Base.Size; i++ {
				eff.addRead(pointsto.Loc{Base: x.Base, Off: i}, Other)
			}
		} else {
			eff.addRead(pointsto.Loc{Base: x.Base, Off: x.Off}, Other)
		}
	case simple.AddrRV:
		// No memory access; the variable's address is computed.
	case simple.FieldAddrRV:
		eff.varRead(x.P)
	}
}

func (r *Result) lvalue(eff *Effects, lv simple.Lvalue) {
	switch x := lv.(type) {
	case simple.VarLV:
		eff.varWrite(x.V)
	case simple.StoreLV:
		eff.varRead(x.P)
		for pl := range r.PT.Pts(x.P) {
			eff.addWrite(pointsto.Loc{Base: pl.Base, Off: pl.Off + x.Off}, Via{P: x.P, Off: x.Off})
		}
	case simple.LocalStoreLV:
		if x.Idx != nil {
			r.atomRead(eff, x.Idx)
			for i := 0; i < x.Base.Size; i++ {
				eff.addWrite(pointsto.Loc{Base: x.Base, Off: i}, Other)
			}
		} else {
			eff.addWrite(pointsto.Loc{Base: x.Base, Off: x.Off}, Other)
		}
	}
}

func (r *Result) calleesOf(f *simple.Func) []*simple.Func {
	var out []*simple.Func
	var seen map[*simple.Func]bool
	simple.WalkBasics(f.Body, func(b *simple.Basic) {
		if b.Kind != simple.KCall {
			return
		}
		c := r.funcs[b.Fun]
		if c == nil || seen[c] {
			return
		}
		if seen == nil {
			seen = make(map[*simple.Func]bool)
		}
		seen[c] = true
		out = append(out, c)
	})
	return out
}

// --------------------------------------------------------------- queries ---

// VarWritten reports whether statement s may modify the value of variable p
// itself: a direct assignment, or — when p's address has been taken — an
// indirect write reaching p's slot, or a call that may do the same.
func (r *Result) VarWritten(p *simple.Var, s simple.Stmt) bool {
	eff := r.Stmt[s]
	if eff == nil {
		return true // unknown statement: be conservative
	}
	if eff.VarWrites[p] {
		return true
	}
	if r.PT.AddressTaken(p) {
		for i := 0; i < max(1, p.Size); i++ {
			if _, hit := eff.Writes[pointsto.Loc{Base: p, Off: i}]; hit {
				return true
			}
		}
	}
	return false
}

// AccessedViaAlias reports whether statement s may read (write=false) or
// write (write=true) the word p->off through something other than the
// direct pointer p itself. Direct accesses via (p, off) are excluded: the
// paper's rules keep tuples alive across direct accesses because the
// transformation redirects all of them to the same local copy.
func (r *Result) AccessedViaAlias(p *simple.Var, off int, s simple.Stmt, write bool) bool {
	eff := r.Stmt[s]
	if eff == nil {
		return true
	}
	m := eff.Reads
	if write {
		m = eff.Writes
	}
	self := Via{P: p, Off: off}
	for pl := range r.PT.Pts(p) {
		target := pointsto.Loc{Base: pl.Base, Off: pl.Off + off}
		vias, hit := m[target]
		if !hit {
			continue
		}
		for _, v := range vias {
			if v != self {
				return true
			}
		}
	}
	return false
}

// Register computes and records the effects of a newly created basic
// statement. The selection phase calls this for every communication
// statement it inserts, so later queries (dereference safety, write floats)
// see sound effects instead of falling back to "unknown".
func (r *Result) Register(b *simple.Basic) {
	eff := newEffects()
	r.basic(eff, b, true)
	r.Stmt[b] = eff
}
