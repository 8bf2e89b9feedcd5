package placement

import (
	"sort"

	"repro/internal/locality"
	"repro/internal/par"
	"repro/internal/rwsets"
	"repro/internal/simple"
)

// LoopFreq is the factor applied to tuple frequencies when a tuple moves out
// of a loop (the paper's adjustFrequency uses 10: the expected iteration
// count).
const LoopFreq = 10.0

// FreqProvider supplies measured frequency factors for compound-statement
// sites (see internal/profile), overriding the static ×10/÷2/÷k scaling of
// adjustFrequency. Every query may decline (ok == false) — e.g. the site
// was never reached while profiling — in which case the analysis falls
// back to the static heuristic for exactly that site.
//
// Implementations must be safe for concurrent read-only use: concurrent
// compiles may share one provider.
type FreqProvider interface {
	// LoopFactor is the measured expected iteration count per arrival at
	// the loop (replaces LoopFreq).
	LoopFactor(site string) (float64, bool)
	// BranchFactors are the measured then/else probabilities (replace the
	// uniform 0.5/0.5).
	BranchFactors(site string) (thenF, elseF float64, ok bool)
	// SwitchFactors are the measured per-case probabilities in declaration
	// order (replace the uniform 1/k).
	SwitchFactors(site string, ncases int) ([]float64, bool)
}

// Result carries the per-statement possible-placement sets for a program.
// Its sets are immutable and share tuple records (see Set).
type Result struct {
	// Reads maps each statement S to RemoteReads(S): tuples placeable just
	// before S. A statement with an empty set has no entry.
	Reads map[simple.Stmt]Set
	// Writes maps each statement S to RemoteWrites(S): tuples placeable
	// just after S. A statement with an empty set has no entry.
	Writes map[simple.Stmt]Set
	// ForallHeads maps each forall to the tuples of its step that no body
	// can kill or store to: placeable in the forall's Head, after the loop
	// test and before the iteration is spawned. A forall with none has no
	// entry.
	ForallHeads map[*simple.Forall]Set
	// CandidateReads / CandidateWrites count the basic statements that
	// generate a tuple (each walk visits every basic statement once): the
	// remote loads and stores entering placement.
	CandidateReads, CandidateWrites int
	// Profiled records that a FreqProvider drove the analysis, so tuple
	// frequencies are measured wherever it answered rather than the static
	// ×10/÷2/÷k guesses. Selection reads it to weigh frequencies when
	// blocking.
	Profiled bool
	// Carries lists, per function, the loops whose head reads are carried
	// around the back edge (see Carry), one Carry per loop and pointer; a
	// function without one has no entry.
	Carries map[*simple.Func][]*Carry
}

// PlacedTuples sums the tuples of every statement's RemoteReads and
// RemoteWrites sets: the analysis's §4.1 output.
func (r *Result) PlacedTuples() (reads, writes int) {
	for _, set := range r.Reads {
		reads += set.Len()
	}
	for _, set := range r.Writes {
		writes += set.Len()
	}
	return reads, writes
}

// Deprecated: ignored pool; use AnalyzeProfiled.
func AnalyzeProfiledP(prog *simple.Program, rw *rwsets.Result, loc *locality.Result, fp FreqProvider, _ *par.Pool) *Result {
	return AnalyzeProfiled(prog, rw, loc, fp)
}

// AnalyzeProfiled runs possible-placement analysis over every function.
// Wherever fp answers for a site, its measured frequency factor replaces the
// static constant; everywhere else (fp nil, site unassigned, or no data) the
// static heuristics apply unchanged.
func AnalyzeProfiled(prog *simple.Program, rw *rwsets.Result, loc *locality.Result, fp FreqProvider) *Result {
	res := &Result{
		Reads:       make(map[simple.Stmt]Set),
		Writes:      make(map[simple.Stmt]Set),
		ForallHeads: make(map[*simple.Forall]Set),
		Profiled:    fp != nil,
	}
	locs := make(map[Key]int)
	prog.EachFunc(func(f *simple.Func) {
		a := &analysis{rw: rw, loc: loc, fp: fp, fn: f, res: res, locs: locs}
		a.readsSeq(f.Body)
		a.writesSeq(f.Body)
	})
	return res
}

type analysis struct {
	rw  *rwsets.Result
	loc *locality.Result
	fp  FreqProvider // nil: static heuristics only
	fn  *simple.Func // function under analysis (for site keys)

	// The Result, its per-statement sets and candidate counts filled as
	// the walk goes.
	res *Result
	// locs interns location ids for the whole Result: an id is assigned the
	// first time the analysis meets a remote access to (pointer, offset).
	locs map[Key]int

	// conc counts the forall bodies and {^ ^} arms around the walk; no
	// read is carried around a loop inside one.
	conc int

	// daMemo caches, per compound statement, the labels of direct
	// loads/stores in its subtree by location id: the propagation loops
	// query directAccessLabels once per surviving tuple per statement, and
	// the uncached walk dominated the whole analysis.
	daMemo map[simple.Stmt]*daInfo
}

type daInfo struct {
	w map[int][]int // location id -> sorted labels of direct stores
	r map[int][]int // location id -> sorted labels of direct loads
}

// remoteLoc returns the location id of p->off, interning it, when p is a
// remote pointer; ok is false otherwise (no tuple can refer to it).
func (a *analysis) remoteLoc(p *simple.Var, off int) (id int, ok bool) {
	if !a.loc.RemoteLoad(p) {
		return 0, false
	}
	k := Key{P: p, Off: off}
	id, ok = a.locs[k]
	if !ok {
		id = len(a.locs)
		a.locs[k] = id
	}
	return id, true
}

// branchFactors returns the then/else scaling of an if: measured when the
// profile knows the site, the paper's uniform 0.5/0.5 otherwise.
func (a *analysis) branchFactors(st *simple.If) (float64, float64) {
	if a.fp != nil && st.Site != 0 {
		if tf, ef, ok := a.fp.BranchFactors(simple.CompoundSiteKey(a.fn.Name, st.Site)); ok {
			return tf, ef
		}
	}
	return 0.5, 0.5
}

// switchFactors returns the per-case scaling of a switch: measured when
// known, the paper's uniform 1/k otherwise.
func (a *analysis) switchFactors(st *simple.Switch) []float64 {
	n := len(st.Cases)
	if a.fp != nil && st.Site != 0 {
		if fs, ok := a.fp.SwitchFactors(simple.CompoundSiteKey(a.fn.Name, st.Site), n); ok {
			return fs
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 1.0 / float64(n)
	}
	return out
}

// loopFactor returns the iteration scaling applied when hoisting out of a
// loop: measured when known, LoopFreq otherwise.
func (a *analysis) loopFactor(loop simple.Stmt) float64 {
	if a.fp != nil {
		if site := simple.SiteOf(loop); site != 0 {
			if f, ok := a.fp.LoopFactor(simple.CompoundSiteKey(a.fn.Name, site)); ok {
				return f
			}
		}
	}
	return LoopFreq
}

// ------------------------------------------------------------------ kills ---

// killsRead reports whether statement s kills a read tuple: the base
// pointer itself is (possibly) rewritten, or the word p->off may be written
// through an alias. A direct write via (p, off) does not kill — the
// transformation redirects all direct accesses to one local copy.
func (a *analysis) killsRead(t *Tuple, s simple.Stmt) bool {
	return a.rw.VarWritten(t.P, s) || a.rw.AccessedViaAlias(t.P, t.Off, s, true)
}

// killsWrite reports whether statement s kills a write tuple: as for reads,
// plus aliased *reads* (a delayed write must not float below a read that
// expects the new value through another name), plus a possible return (a
// delayed write must never float past one: the store would be skipped on
// that path).
func (a *analysis) killsWrite(t *Tuple, s simple.Stmt) bool {
	return simple.HasReturn(s) ||
		a.rw.VarWritten(t.P, s) ||
		a.rw.AccessedViaAlias(t.P, t.Off, s, true) ||
		a.rw.AccessedViaAlias(t.P, t.Off, s, false)
}

// --------------------------------------------------------- reads (upward) ---

// readsSeq implements collectCommReadsSeq (Figure 5): backward propagation
// through a statement sequence, recording RemoteReads(S) for every element.
// Returns the set valid just before the first statement.
func (a *analysis) readsSeq(seq *simple.Seq) Set {
	return a.readsSeqInto(seq, Set{})
}

// readsSeqInto is readsSeq with an initial set valid just after the
// sequence's last statement (used to chain regions, e.g. a loop's eval code
// into its body, or forall step code into the induction evaluation).
func (a *analysis) readsSeqInto(seq *simple.Seq, below Set) Set {
	cur := below
	for i := len(seq.Stmts) - 1; i >= 0; i-- {
		s := seq.Stmts[i]
		// The tuples s generates, merged with those surviving from below.
		cur = union(a.readsStmt(s), a.cross(cur, s, true))
		if cur.Len() > 0 {
			a.res.Reads[s] = cur
		}
	}
	return cur
}

// cross propagates a read set (reads true) or a write set across statement
// s: tuples s kills drop out, and a tuple floating across direct accesses to
// its own location records their labels (stores in CrossedW for reads,
// loads in CrossedR for writes) — the selection phase must redirect them to
// the tuple's local copy. Every other tuple is shared, and an unchanged set
// is returned as is.
func (a *analysis) cross(cur Set, s simple.Stmt, reads bool) Set {
	kills := a.killsWrite
	if reads {
		kills = a.killsRead
	}
	var out []*Tuple // nil while nothing has changed
	for i, t := range cur.ts {
		nt := t
		if kills(t, s) {
			nt = nil
		} else if labels := a.directAccessLabels(s, t, reads); len(labels) > 0 {
			nt = t.withCrossed(labels, reads)
		}
		if out == nil {
			if nt == t {
				continue
			}
			out = make([]*Tuple, i, len(cur.ts))
			copy(out, cur.ts[:i])
		}
		if nt != nil {
			out = append(out, nt)
		}
	}
	if out == nil {
		return cur
	}
	return Set{ts: out}
}

// withCrossed returns t with labels added to CrossedW (stores) or CrossedR
// (loads): t itself when it already holds them all, else a new record.
func (t *Tuple) withCrossed(labels []int, stores bool) *Tuple {
	w, r := t.CrossedW, t.CrossedR
	if stores {
		w = w.union(labels)
	} else {
		r = r.union(labels)
	}
	if len(w) == len(t.CrossedW) && len(r) == len(t.CrossedR) {
		return t
	}
	nt := *t
	nt.CrossedW, nt.CrossedR = w, r
	return &nt
}

// directAccessLabels returns the sorted labels of basic statements in s's
// subtree that directly access t's location through its own pointer: stores
// when stores is true, loads otherwise. A basic statement is checked in
// place; a compound statement's index is built once and memoized.
func (a *analysis) directAccessLabels(s simple.Stmt, t *Tuple, stores bool) []int {
	if b, ok := s.(*simple.Basic); ok {
		if b.Kind != simple.KAssign {
			return nil
		}
		if stores {
			if stv, ok := b.Lhs.(simple.StoreLV); ok && stv.P == t.P && stv.Off == t.Off {
				return []int{b.Label}
			}
		} else if ld, ok := b.Rhs.(simple.LoadRV); ok && ld.P == t.P && ld.Off == t.Off {
			return []int{b.Label}
		}
		return nil
	}
	info, ok := a.daMemo[s]
	if !ok {
		info = &daInfo{}
		add := func(m *map[int][]int, p *simple.Var, off, label int) {
			if id, ok := a.remoteLoc(p, off); ok {
				if *m == nil {
					*m = make(map[int][]int)
				}
				(*m)[id] = append((*m)[id], label)
			}
		}
		simple.WalkBasics(s, func(b *simple.Basic) {
			if b.Kind != simple.KAssign {
				return
			}
			if stv, okw := b.Lhs.(simple.StoreLV); okw {
				add(&info.w, stv.P, stv.Off, b.Label)
			}
			if ld, okr := b.Rhs.(simple.LoadRV); okr {
				add(&info.r, ld.P, ld.Off, b.Label)
			}
		})
		for _, ls := range info.w {
			sort.Ints(ls)
		}
		for _, ls := range info.r {
			sort.Ints(ls)
		}
		if a.daMemo == nil {
			a.daMemo = make(map[simple.Stmt]*daInfo)
		}
		a.daMemo[s] = info
	}
	if stores {
		return info.w[t.Loc]
	}
	return info.r[t.Loc]
}

// readsStmt implements collectCommSet(stmt, READ): the tuples generated by
// one statement, placeable just before it.
func (a *analysis) readsStmt(s simple.Stmt) Set {
	switch st := s.(type) {
	case *simple.Basic:
		return a.readsBasic(st)
	case *simple.Seq:
		return a.readsSeq(st)
	case *simple.If:
		thenSet := a.readsSeq(st.Then)
		elseSet := a.readsSeq(st.Else)
		tf, ef := a.branchFactors(st)
		return union(thenSet.scaled(tf), elseSet.scaled(ef))
	case *simple.Switch:
		var out Set
		if len(st.Cases) == 0 {
			return out
		}
		factors := a.switchFactors(st)
		for i, cc := range st.Cases {
			out = union(out, a.readsSeq(cc.Body).scaled(factors[i]))
		}
		return out
	case *simple.While:
		// One iteration is eval;body: the set at the top of an iteration.
		return a.hoistLoop(s, a.readsSeqInto(st.Eval, a.readsSeq(st.Body)), st.Body, st.Eval)
	case *simple.Do:
		// One iteration is body;eval. Do-loops use the same conservative
		// rule as top-tested ones.
		return a.hoistLoop(s, a.readsSeqInto(st.Body, a.readsSeq(st.Eval)), st.Body, st.Eval)
	case *simple.Forall:
		return a.readsForall(st)
	case *simple.Par:
		// Arms execute concurrently and must not interfere on ordinary
		// variables; a tuple moves above the Par if no *sibling* arm kills
		// it (its own arm's kills were already applied inside readsSeq).
		armSets := make([]Set, len(st.Arms))
		a.conc++
		for i, arm := range st.Arms {
			armSets[i] = a.readsSeq(arm)
		}
		a.conc--
		return a.parSurvivors(st, armSets, a.killsRead)
	}
	return Set{}
}

// parSurvivors merges, in arm order, the tuples of each Par arm that no
// sibling arm kills.
func (a *analysis) parSurvivors(st *simple.Par, armSets []Set, kills func(*Tuple, simple.Stmt) bool) Set {
	var out Set
	for i, as := range armSets {
		var keep []*Tuple
		for _, t := range as.ts {
			killed := false
			for j, sib := range st.Arms {
				if j != i && kills(t, sib) {
					killed = true
					break
				}
			}
			if !killed {
				keep = append(keep, t)
			}
		}
		out = union(out, Set{ts: keep})
	}
	return out
}

// hoistLoop implements collectCommSetLoop for reads: it propagates a
// loop-top set out of the loop. Tuples the loop can kill stay inside, the
// rest exit with their frequency scaled by the expected iteration count. A
// hoisted tuple's fill sits above the loop while any direct stores to the
// same location execute every iteration — a loop-carried crossing — so
// those store labels are recorded in CrossedW (iteration k's read must
// observe iteration k-1's store through the shared local copy). For a
// while or do loop (body non-nil), a killed tuple the loop carries (see
// Carry) also exits, unscaled: it is read once, for the first iteration.
func (a *analysis) hoistLoop(loop simple.Stmt, top Set, body, eval *simple.Seq) Set {
	if top.Len() == 0 {
		return top
	}
	var carried []*Tuple
	if body != nil && a.conc == 0 {
		carried = a.carries(loop, body, eval, top)
	}
	factor := a.loopFactor(loop)
	out := make([]*Tuple, 0, top.Len())
	recs := make([]Tuple, 0, top.Len())
	for _, t := range top.ts {
		if a.killsRead(t, loop) {
			if len(carried) > 0 && carried[0] == t {
				carried = carried[1:]
				out = append(out, t)
			}
			continue
		}
		recs = append(recs, *t)
		nt := &recs[len(recs)-1]
		nt.Freq *= factor
		nt.CrossedW = nt.CrossedW.union(a.directAccessLabels(loop, t, true))
		out = append(out, nt)
	}
	return Set{ts: out}
}

// readsForall handles parallel loops. The body is a separate parallel
// activation with a copied frame: a value filled inside the body cannot
// flow to the (sequential) eval/step induction code or to other iterations,
// so the body is analyzed in isolation. Body tuples may still hoist out of
// the whole construct (the fill then happens once, before any spawn, and is
// copied into every iteration frame). Step tuples float across the spawned
// body only if the body cannot kill them: those form the forall's
// ForallHeads set.
func (a *analysis) readsForall(st *simple.Forall) Set {
	a.conc++
	bodyTop := a.readsSeq(st.Body)
	a.conc--
	stepTop := a.readsSeq(st.Step)

	// Step tuples cross the concurrent body: body kills apply, and so
	// does a store through the tuple's own pointer, which updates no
	// shadow of the spawner's (the body's frame is its own).
	var crossed []*Tuple
	for _, t := range stepTop.ts {
		if !a.killsRead(t, st.Body) && len(a.directAccessLabels(st.Body, t, true)) == 0 {
			crossed = append(crossed, t)
		}
	}
	if len(crossed) > 0 {
		a.res.ForallHeads[st] = Set{ts: crossed}
	}
	evalTop := a.readsSeqInto(st.Eval, Set{ts: crossed})
	return a.hoistLoop(st, union(evalTop, bodyTop), nil, nil)
}

// ------------------------------------------------------- writes (downward) ---

// writesSeq implements collectCommWritesSeq (Figure 5): forward propagation
// through a statement sequence, recording RemoteWrites(S) for every element.
// Returns the set valid just after the last statement.
func (a *analysis) writesSeq(seq *simple.Seq) Set {
	var cur Set
	for _, s := range seq.Stmts {
		cur = union(a.writesStmt(s), a.cross(cur, s, false))
		if cur.Len() > 0 {
			a.res.Writes[s] = cur
		}
	}
	return cur
}

// writesStmt implements collectCommSet(stmt, WRITE).
func (a *analysis) writesStmt(s simple.Stmt) Set {
	switch st := s.(type) {
	case *simple.Basic:
		return a.writesBasic(st)
	case *simple.Seq:
		return a.writesSeq(st)
	case *simple.If:
		// Conservative: only tuples written on *all* alternatives may move
		// below the conditional (no spurious writes).
		thenSet := a.writesSeq(st.Then)
		elseSet := a.writesSeq(st.Else)
		tf, ef := a.branchFactors(st)
		return meet(thenSet.scaled(tf), elseSet.scaled(ef))
	case *simple.Switch:
		var out Set
		n := len(st.Cases)
		if n == 0 {
			return out
		}
		hasDefault := false
		caseSets := make([]Set, n)
		for i, cc := range st.Cases {
			caseSets[i] = a.writesSeq(cc.Body)
			if cc.Vals == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			// Some execution may take no case; nothing may move below.
			return out
		}
		factors := a.switchFactors(st)
		out = caseSets[0].scaled(factors[0])
		for i, cs := range caseSets[1:] {
			out = meet(out, cs.scaled(factors[i+1]))
		}
		return out
	case *simple.While:
		// The paper only moves writes out of loops known to execute exactly
		// once (executesOnce); we cannot prove that for general loops, so
		// nothing propagates out. Still analyze the body for inner
		// placement opportunities.
		a.writesSeq(st.Eval)
		a.writesSeq(st.Body)
		return Set{}
	case *simple.Forall:
		a.writesSeq(st.Eval)
		a.writesSeq(st.Body)
		a.writesSeq(st.Step)
		return Set{}
	case *simple.Do:
		// A do loop executes at least once but possibly more; a write from
		// the body may not move below unless the loop executes exactly
		// once, which we cannot prove. Analyze inner parts only.
		a.writesSeq(st.Body)
		a.writesSeq(st.Eval)
		return Set{}
	case *simple.Par:
		armSets := make([]Set, len(st.Arms))
		for i, arm := range st.Arms {
			armSets[i] = a.writesSeq(arm)
		}
		return a.parSurvivors(st, armSets, a.killsWrite)
	}
	return Set{}
}

// ------------------------------------------------------------------ basics ---

// generated is the set holding the one tuple (p->field, 1, {label}) a basic
// statement generates. The tuple, its Dlist and the set's slice share one
// allocation.
func generated(p *simple.Var, field string, off, loc, label int) Set {
	g := &struct {
		t  Tuple
		d  [1]int
		ts [1]*Tuple
	}{}
	g.d[0] = label
	g.t = Tuple{P: p, Field: field, Off: off, Loc: loc, Freq: 1, D: g.d[:]}
	g.ts[0] = &g.t
	return Set{ts: g.ts[:]}
}

// readsBasic generates the tuple for a basic statement's remote read, if
// any (collectCommSetBasic with accessType READ).
func (a *analysis) readsBasic(b *simple.Basic) Set {
	if b.Kind != simple.KAssign {
		return Set{}
	}
	ld, ok := b.Rhs.(simple.LoadRV)
	if !ok {
		return Set{}
	}
	id, ok := a.remoteLoc(ld.P, ld.Off)
	if !ok {
		return Set{}
	}
	a.res.CandidateReads++
	return generated(ld.P, ld.Field, ld.Off, id, b.Label)
}

// writesBasic generates the tuple for a basic statement's remote write, if
// any.
func (a *analysis) writesBasic(b *simple.Basic) Set {
	if b.Kind != simple.KAssign {
		return Set{}
	}
	stv, ok := b.Lhs.(simple.StoreLV)
	if !ok {
		return Set{}
	}
	id, ok := a.remoteLoc(stv.P, stv.Off)
	if !ok {
		return Set{}
	}
	a.res.CandidateWrites++
	return generated(stv.P, stv.Field, stv.Off, id, b.Label)
}
