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
//
// Every variable, abstract location and provenance is interned once per
// Analyze as a uint32, and a statement's effects are two sorted,
// duplicate-free arrays of keys built from those ids (see effects), carved
// from slabs the Result owns. A compound statement's arrays are the union of
// its children's.
package rwsets

import (
	"slices"

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
// Its interned id is 0.
var Other = Via{}

// effects is what a statement (or a function summary) may do, as two
// sorted, duplicate-free key arrays:
//
//   - vars holds id<<1 | write for each scalar variable read or written
//     directly by name (frame slots and globals);
//   - mem holds loc<<33 | write<<32 | via for each abstract memory word
//     possibly read or written, once per provenance (via 0 is Other).
//
// Sorting by key puts all accesses of one (loc, write) pair in one run, so
// "is loc written" is a binary search and "is loc written other than via v"
// a scan of that run.
type effects struct {
	vars []uint32
	mem  []uint64
}

const viaBits = 1<<32 - 1

// Owners recorded for variables that are in no analyzed function's frame.
const (
	global  = -1 // a global variable
	noFrame = -2 // a heap word's base, or a variable created after Analyze
)

// Result holds the computed read/write sets for a program. It is not safe
// for concurrent use: queries intern what they look up.
type Result struct {
	pt *pointsto.Result
	// stmt maps every statement (basic and compound) to its effects.
	stmt map[simple.Stmt]effects
	// summary[i] is prog.Funcs[i]'s transitive effects (heap and global;
	// callee-local frame effects are excluded except where reachable
	// through pointers), every access via Other.
	summary []effects
	// funcs indexes prog.Funcs by name (FuncByName is a linear scan).
	funcs map[string]int

	// varID interns variables; varFn[id] is the index of the function
	// whose frame holds the variable, or global or noFrame.
	varID map[*simple.Var]uint32
	varFn []int32
	// locID interns abstract locations; locFn[id] is the owner of the
	// location's base variable as in varFn, noFrame for a heap word.
	locID map[pointsto.Loc]uint32
	locFn []int32
	// viaID interns provenances, Other as 0; targets[id] holds the ids of
	// the words P->Off may reach (nil for Other).
	viaID   map[Via]uint32
	targets [][]uint32

	// slab32 and slab64 back every effects array and targets slice.
	slab32 []uint32
	slab64 []uint64
	// bufs are per-depth scratch builders: computeStmt at depth d builds a
	// statement in bufs[2d] and a subsequence of it in bufs[2d+1]. tmp is
	// ref's.
	bufs []*builder
	tmp  []uint32
}

// builder accumulates keys, unsorted and possibly repeated, until seal.
type builder struct {
	r    *Result
	vars []uint32
	mem  []uint64
}

func (e *builder) reset() { e.vars, e.mem = e.vars[:0], e.mem[:0] }

func (e *builder) varRead(v *simple.Var)  { e.vars = append(e.vars, e.r.varOf(v)<<1) }
func (e *builder) varWrite(v *simple.Var) { e.vars = append(e.vars, e.r.varOf(v)<<1|1) }

func (e *builder) addRead(loc, via uint32) { e.mem = append(e.mem, uint64(loc)<<33|uint64(via)) }
func (e *builder) addWrite(loc, via uint32) {
	e.mem = append(e.mem, uint64(loc)<<33|1<<32|uint64(via))
}

// add appends another statement's effects.
func (e *builder) add(o effects) {
	e.vars = append(e.vars, o.vars...)
	e.mem = append(e.mem, o.mem...)
}

// normalize sorts the keys and drops repeats.
func (e *builder) normalize() {
	slices.Sort(e.vars)
	e.vars = slices.Compact(e.vars)
	slices.Sort(e.mem)
	e.mem = slices.Compact(e.mem)
}

// buf returns the scratch builder i, emptied.
func (r *Result) buf(i int) *builder {
	for len(r.bufs) <= i {
		r.bufs = append(r.bufs, &builder{r: r})
	}
	e := r.bufs[i]
	e.reset()
	return e
}

// seal normalizes e and copies its keys into the slabs.
func (r *Result) seal(e *builder) effects {
	e.normalize()
	return effects{vars: carve(&r.slab32, e.vars), mem: carve(&r.slab64, e.mem)}
}

// carve copies s to the end of *slab, starting a new slab when it does not
// fit, and returns the copy capped so that appending to it cannot overwrite
// a neighbour.
func carve[T uint32 | uint64](slab *[]T, s []T) []T {
	if len(s) == 0 {
		return nil
	}
	if cap(*slab)-len(*slab) < len(s) {
		*slab = make([]T, 0, max(len(s), 2*cap(*slab), 1024))
	}
	n := len(*slab)
	*slab = append(*slab, s...)
	return (*slab)[n:len(*slab):len(*slab)]
}

// varOf interns v.
func (r *Result) varOf(v *simple.Var) uint32 {
	if id, ok := r.varID[v]; ok {
		return id
	}
	fn := int32(noFrame)
	if v.Kind == simple.VarGlobal {
		fn = global
	}
	return r.newVar(v, fn)
}

func (r *Result) newVar(v *simple.Var, fn int32) uint32 {
	id := uint32(len(r.varFn))
	r.varID[v] = id
	r.varFn = append(r.varFn, fn)
	return id
}

// loc interns the word off of base.
func (r *Result) loc(base pointsto.Base, off int) uint32 {
	l := pointsto.Loc{Base: base, Off: off}
	if id, ok := r.locID[l]; ok {
		return id
	}
	fn := int32(noFrame)
	if v, ok := base.(*simple.Var); ok {
		fn = r.varFn[r.varOf(v)]
	}
	id := uint32(len(r.locFn))
	r.locID[l] = id
	r.locFn = append(r.locFn, fn)
	return id
}

// ref interns the provenance p->off and returns it with the words it may
// reach; the words are looked up in p's points-to set once per (p, off).
func (r *Result) ref(p *simple.Var, off int) (uint32, []uint32) {
	v := Via{P: p, Off: off}
	if id, ok := r.viaID[v]; ok {
		return id, r.targets[id]
	}
	r.tmp = r.tmp[:0]
	for pl := range r.pt.Pts(p) {
		r.tmp = append(r.tmp, r.loc(pl.Base, pl.Off+off))
	}
	t := carve(&r.slab32, r.tmp)
	id := uint32(len(r.targets))
	r.viaID[v] = id
	r.targets = append(r.targets, t)
	return id, t
}

// Deprecated: ignored pool; use Analyze.
func AnalyzeP(prog *simple.Program, pt *pointsto.Result, _ *par.Pool) *Result {
	return Analyze(prog, pt)
}

// Analyze computes read/write sets given points-to results.
func Analyze(prog *simple.Program, pt *pointsto.Result) *Result {
	nstmt, nvar := 0, len(prog.Globals)
	for _, f := range prog.Funcs {
		nstmt += 2 * len(f.Basics)
		nvar += len(f.Params) + len(f.Locals)
	}
	r := &Result{
		pt:      pt,
		stmt:    make(map[simple.Stmt]effects, nstmt),
		summary: make([]effects, len(prog.Funcs)),
		funcs:   make(map[string]int, len(prog.Funcs)),
		varID:   make(map[*simple.Var]uint32, nvar),
		varFn:   make([]int32, 0, nvar),
		locID:   make(map[pointsto.Loc]uint32),
		viaID:   map[Via]uint32{Other: 0},
		targets: [][]uint32{nil},
	}
	for i, f := range prog.Funcs {
		r.funcs[f.Name] = i
		for _, p := range f.Params {
			r.newVar(p, int32(i))
		}
		for _, l := range f.Locals {
			r.newVar(l, int32(i))
		}
	}

	// Step 1: each summary starts as the function's own effects (callee
	// summaries excluded), projected to caller-visible form; callees[i] is
	// prog.Funcs[i]'s callee list.
	callees := make([][]int, len(prog.Funcs))
	i := 0
	prog.EachFunc(func(f *simple.Func) {
		own := r.buf(0)
		r.ownEffects(f.Body, own)
		r.summary[i] = r.project(own, i)
		callees[i] = r.calleesOf(f)
		i++
	})

	// Step 2: summary fixpoint along call edges (call graph cycles
	// converge). Purely a merge of small summary sets.
	for changed := true; changed; {
		changed = false
		for f := range prog.Funcs {
			for _, c := range callees[f] {
				if r.mergeProjected(f, c) {
					changed = true
				}
			}
		}
	}

	// Step 3: populate r.stmt with the converged summaries.
	prog.EachFunc(func(f *simple.Func) { r.computeStmt(f.Body, 0) })
	return r
}

// project builds function fn's caller-visible summary from its body
// effects: frame variables of the callee are dropped (their lifetimes end),
// but heap locations, globals, and any variable whose address escapes are
// kept. Provenance does not survive the call boundary: the caller sees each
// access as "via other" (an alias it cannot name). e holds every access
// of the body, repeats included, so it is filtered before it is sorted.
func (r *Result) project(e *builder, fn int) effects {
	vars := e.vars[:0]
	for _, k := range e.vars {
		if r.varFn[k>>1] == global {
			vars = append(vars, k)
		}
	}
	mem := e.mem[:0]
	for _, k := range e.mem {
		if r.locFn[k>>33] != int32(fn) {
			mem = append(mem, k&^viaBits)
		}
	}
	e.vars, e.mem = vars, mem
	return r.seal(e)
}

// mergeProjected merges callee c's summary into caller fn's, dropping
// locations in fn's own frame (a callee summary can mention them when fn
// passed &local down the call chain — those accesses die with fn's frame
// as far as fn's own callers are concerned). Reports whether fn's summary
// changed; summaries only grow, so it did exactly when the union is longer.
func (r *Result) mergeProjected(fn, c int) bool {
	dst, src := r.summary[fn], r.summary[c]
	e := r.buf(0)
	e.add(dst)
	e.vars = append(e.vars, src.vars...)
	for _, k := range src.mem {
		if r.locFn[k>>33] != int32(fn) {
			e.mem = append(e.mem, k)
		}
	}
	e.normalize()
	if len(e.vars) == len(dst.vars) && len(e.mem) == len(dst.mem) {
		return false
	}
	r.summary[fn] = r.seal(e)
	return true
}

// ownEffects accumulates the effects of s and everything under it into eff,
// excluding callee summaries (the summary fixpoint adds those along call
// edges instead). No per-statement records are made.
func (r *Result) ownEffects(s simple.Stmt, eff *builder) {
	switch st := s.(type) {
	case *simple.Basic:
		r.basic(eff, st, false)
	default:
		simple.EachSubseq(st, func(seq *simple.Seq) {
			for _, c := range seq.Stmts {
				r.ownEffects(c, eff)
			}
		})
		r.compoundReads(eff, s)
	}
}

// computeStmt computes effects for s (with converged callee summaries) at
// nesting depth depth and records them for s and every statement beneath
// it in r.stmt.
func (r *Result) computeStmt(s simple.Stmt, depth int) effects {
	var eff effects
	switch st := s.(type) {
	case *simple.Basic:
		e := r.buf(2 * depth)
		r.basic(e, st, true)
		eff = r.seal(e)
	case *simple.Seq:
		return r.computeSeq(st, depth)
	default:
		e := r.buf(2 * depth)
		simple.EachSubseq(st, func(seq *simple.Seq) {
			e.add(r.computeSeq(seq, depth))
		})
		r.compoundReads(e, s)
		eff = r.seal(e)
	}
	r.stmt[s] = eff
	return eff
}

// computeSeq computes and records the effects of a sequence at depth depth.
// Subsequences get a record of their own: parallel-arm interference checks
// query sibling sequences directly.
func (r *Result) computeSeq(seq *simple.Seq, depth int) effects {
	var eff effects
	if len(seq.Stmts) == 1 {
		eff = r.computeStmt(seq.Stmts[0], depth+1)
	} else {
		e := r.buf(2*depth + 1)
		for _, c := range seq.Stmts {
			e.add(r.computeStmt(c, depth+1))
		}
		eff = r.seal(e)
	}
	r.stmt[seq] = eff
	return eff
}

// compoundReads adds the atom reads a compound statement's condition (or
// switch tag) performs.
func (r *Result) compoundReads(eff *builder, s simple.Stmt) {
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

func (r *Result) condReads(eff *builder, c simple.Cond) {
	r.atomRead(eff, c.X)
	if c.Op != simple.TruthTest {
		r.atomRead(eff, c.Y)
	}
}

func (r *Result) atomRead(eff *builder, a simple.Atom) {
	if v := simple.AtomVar(a); v != nil {
		eff.varRead(v)
	}
}

// deref adds an Other-provenance access to each word p->off may reach.
func (r *Result) deref(eff *builder, p *simple.Var, off int, write bool) {
	_, ts := r.ref(p, off)
	for _, t := range ts {
		if write {
			eff.addWrite(t, 0)
		} else {
			eff.addRead(t, 0)
		}
	}
}

func (r *Result) basic(eff *builder, b *simple.Basic, withSummaries bool) {
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
		if withSummaries {
			if callee, ok := r.funcs[b.Fun]; ok {
				eff.add(r.summary[callee])
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
				eff.addWrite(r.loc(sv, 0), 0)
				if sema.Builtin(b.BFun) == sema.BAddTo {
					eff.addRead(r.loc(sv, 0), 0)
				}
			case sema.BValueOf:
				eff.addRead(r.loc(sv, 0), 0)
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
				r.deref(eff, b.P, b.Off+i, false)
			}
		} else if b.Local != nil {
			for i := 0; i < b.Size; i++ {
				eff.addRead(r.loc(b.Local, b.Off+i), 0)
			}
		}
		// Destination range.
		if b.P2 != nil {
			eff.varRead(b.P2)
			for i := 0; i < b.Size; i++ {
				r.deref(eff, b.P2, b.Off2+i, true)
			}
		} else if b.Dst != nil {
			for i := 0; i < b.Size; i++ {
				eff.addWrite(r.loc(b.Dst, b.Off2+i), 0)
			}
		}
	case simple.KGetF:
		// Post-selection split-phase and block operations count as aliased
		// accesses: later analyses must not float tuples across them.
		eff.varRead(b.P)
		if b.Dst != nil {
			eff.varWrite(b.Dst)
		}
		r.deref(eff, b.P, b.Off, false)
	case simple.KPutF:
		eff.varRead(b.P)
		if b.Val != nil {
			r.atomRead(eff, b.Val)
		}
		if b.Local != nil {
			eff.addRead(r.loc(b.Local, b.Off2), 0)
		}
		r.deref(eff, b.P, b.Off, true)
	case simple.KBlkRead:
		eff.varRead(b.P)
		for i := 0; i < b.Size; i++ {
			r.deref(eff, b.P, b.Off+i, false)
			eff.addWrite(r.loc(b.Local, i), 0)
		}
	case simple.KBlkWrite:
		eff.varRead(b.P)
		for i := 0; i < b.Size; i++ {
			r.deref(eff, b.P, b.Off+i, true)
			eff.addRead(r.loc(b.Local, i), 0)
		}
	}
}

func (r *Result) rvalue(eff *builder, rv simple.Rvalue) {
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
		via, ts := r.ref(x.P, x.Off)
		for _, t := range ts {
			eff.addRead(t, via)
		}
	case simple.LocalLoadRV:
		if x.Idx != nil {
			r.atomRead(eff, x.Idx)
			for i := 0; i < x.Base.Size; i++ {
				eff.addRead(r.loc(x.Base, i), 0)
			}
		} else {
			eff.addRead(r.loc(x.Base, x.Off), 0)
		}
	case simple.AddrRV:
		// No memory access; the variable's address is computed.
	case simple.FieldAddrRV:
		eff.varRead(x.P)
	}
}

func (r *Result) lvalue(eff *builder, lv simple.Lvalue) {
	switch x := lv.(type) {
	case simple.VarLV:
		eff.varWrite(x.V)
	case simple.StoreLV:
		eff.varRead(x.P)
		via, ts := r.ref(x.P, x.Off)
		for _, t := range ts {
			eff.addWrite(t, via)
		}
	case simple.LocalStoreLV:
		if x.Idx != nil {
			r.atomRead(eff, x.Idx)
			for i := 0; i < x.Base.Size; i++ {
				eff.addWrite(r.loc(x.Base, i), 0)
			}
		} else {
			eff.addWrite(r.loc(x.Base, x.Off), 0)
		}
	}
}

// calleesOf lists the indexes of the analyzed functions f calls, once each.
func (r *Result) calleesOf(f *simple.Func) []int {
	var out []int
	simple.WalkBasics(f.Body, func(b *simple.Basic) {
		if b.Kind != simple.KCall {
			return
		}
		if c, ok := r.funcs[b.Fun]; ok && !slices.Contains(out, c) {
			out = append(out, c)
		}
	})
	return out
}

// --------------------------------------------------------------- queries ---

// run returns where the accesses of (loc, write) start in mem, and the
// key>>32 they all share.
func run(mem []uint64, loc uint32, write bool) (int, uint64) {
	hi := uint64(loc) << 1
	if write {
		hi |= 1
	}
	i, _ := slices.BinarySearch(mem, hi<<32)
	return i, hi
}

// VarWritten reports whether statement s may modify the value of variable p
// itself: a direct assignment, or — when p's address has been taken — an
// indirect write reaching p's slot, or a call that may do the same.
func (r *Result) VarWritten(p *simple.Var, s simple.Stmt) bool {
	eff, ok := r.stmt[s]
	if !ok {
		return true // unknown statement: be conservative
	}
	id, ok := r.varID[p]
	if !ok {
		return false // no statement names p, and no location has p as base
	}
	if _, hit := slices.BinarySearch(eff.vars, id<<1|1); hit {
		return true
	}
	if r.pt.AddressTaken(p) {
		for i := 0; i < max(1, p.Size); i++ {
			if l, ok := r.locID[pointsto.Loc{Base: p, Off: i}]; ok {
				if j, hi := run(eff.mem, l, true); j < len(eff.mem) && eff.mem[j]>>32 == hi {
					return true
				}
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
	return r.SpanAccessedViaAlias(p, off, 1, s, write)
}

// SpanAccessedViaAlias is AccessedViaAlias for any of the size words p->off
// .. p->off+size-1, with one lookup of s.
func (r *Result) SpanAccessedViaAlias(p *simple.Var, off, size int, s simple.Stmt, write bool) bool {
	eff, ok := r.stmt[s]
	if !ok {
		return true
	}
	if len(eff.mem) == 0 {
		return false
	}
	for w := off; w < off+size; w++ {
		self, ts := r.ref(p, w)
		for _, t := range ts {
			for i, hi := run(eff.mem, t, write); i < len(eff.mem) && eff.mem[i]>>32 == hi; i++ {
				if uint32(eff.mem[i]) != self {
					return true
				}
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
	e := r.buf(0)
	r.basic(e, b, true)
	r.stmt[b] = r.seal(e)
}
