package placement

import (
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
// Implementations must be safe for concurrent read-only use: the pipeline
// queries one provider from several per-function analysis goroutines.
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
type Result struct {
	// Reads maps each statement S to RemoteReads(S): tuples placeable just
	// before S.
	Reads map[simple.Stmt]*Set
	// Writes maps each statement S to RemoteWrites(S): tuples placeable
	// just after S.
	Writes map[simple.Stmt]*Set
	// EntryReads is the set propagated to each function's entry.
	EntryReads map[*simple.Func]*Set
	// ExitWrites is the set propagated to each function's exit.
	ExitWrites map[*simple.Func]*Set
}

// AnalyzeProfiledP runs possible-placement analysis over every function.
// Wherever fp answers for a site, its measured frequency factor replaces the
// static constant; everywhere else (fp nil, site unassigned, or no data) the
// static heuristics apply unchanged. Per-function analyses are fanned across
// pool (nil pool runs inline). Functions are independent — each gets its own
// analysis state — and per-function results are merged in function order, so
// the result is identical regardless of pool width.
func AnalyzeProfiledP(prog *simple.Program, rw *rwsets.Result, loc *locality.Result, fp FreqProvider, pool *par.Pool) *Result {
	res := &Result{
		Reads:      make(map[simple.Stmt]*Set),
		Writes:     make(map[simple.Stmt]*Set),
		EntryReads: make(map[*simple.Func]*Set),
		ExitWrites: make(map[*simple.Func]*Set),
	}
	n := len(prog.Funcs)
	as := make([]*analysis, n)
	pool.ForEach(n, func(i int) {
		f := prog.Funcs[i]
		a := &analysis{rw: rw, loc: loc, fp: fp, fn: f,
			reads:  make(map[simple.Stmt]*Set),
			writes: make(map[simple.Stmt]*Set),
		}
		a.entry = a.readsSeq(f.Body)
		a.exit = a.writesSeq(f.Body)
		as[i] = a
	})
	for i, a := range as {
		f := prog.Funcs[i]
		res.EntryReads[f] = a.entry
		res.ExitWrites[f] = a.exit
		for s, set := range a.reads {
			res.Reads[s] = set
		}
		for s, set := range a.writes {
			res.Writes[s] = set
		}
	}
	return res
}

type analysis struct {
	rw  *rwsets.Result
	loc *locality.Result
	fp  FreqProvider // nil: static heuristics only
	fn  *simple.Func // function under analysis (for site keys)

	// Per-function outputs, merged into the shared Result afterwards.
	reads  map[simple.Stmt]*Set
	writes map[simple.Stmt]*Set
	entry  *Set
	exit   *Set

	retMemo map[simple.Stmt]bool
	// daMemo caches, per statement, the labels of direct loads/stores in
	// its subtree grouped by (pointer, offset): the propagation loops query
	// directAccessLabels once per surviving tuple per statement, and the
	// uncached walk dominated the whole analysis.
	daMemo map[simple.Stmt]*daInfo
}

type daInfo struct {
	w map[Key][]int // (p, off) -> labels of direct stores, in walk order
	r map[Key][]int // (p, off) -> labels of direct loads, in walk order
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

// containsReturn reports whether the statement subtree can return from the
// function. A delayed remote write must never float past a possible return
// (the store would be skipped on that path), so returns kill write tuples.
func (a *analysis) containsReturn(s simple.Stmt) bool {
	if a.retMemo == nil {
		a.retMemo = make(map[simple.Stmt]bool)
	}
	if v, ok := a.retMemo[s]; ok {
		return v
	}
	found := false
	simple.WalkBasics(s, func(b *simple.Basic) {
		if b.Kind == simple.KReturn {
			found = true
		}
	})
	a.retMemo[s] = found
	return found
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
// expects the new value through another name).
func (a *analysis) killsWrite(t *Tuple, s simple.Stmt) bool {
	return a.containsReturn(s) ||
		a.rw.VarWritten(t.P, s) ||
		a.rw.AccessedViaAlias(t.P, t.Off, s, true) ||
		a.rw.AccessedViaAlias(t.P, t.Off, s, false)
}

// --------------------------------------------------------- reads (upward) ---

// readsSeq implements collectCommReadsSeq (Figure 5): backward propagation
// through a statement sequence, recording RemoteReads(S) for every element.
// Returns the set valid just before the first statement.
func (a *analysis) readsSeq(seq *simple.Seq) *Set {
	return a.readsSeqInto(seq, NewSet())
}

// readsSeqInto is readsSeq with an initial set valid just after the
// sequence's last statement (used to chain regions, e.g. forall step code
// into the induction evaluation).
func (a *analysis) readsSeqInto(seq *simple.Seq, below *Set) *Set {
	cur := below
	for i := len(seq.Stmts) - 1; i >= 0; i-- {
		s := seq.Stmts[i]
		gen := a.readsStmt(s)
		// Propagate surviving tuples from below across s.
		for _, t := range cur.Tuples() {
			if a.killsRead(t, s) {
				continue
			}
			// Record any direct stores to the same location the tuple is
			// floating across; the selection phase must redirect them to
			// the tuple's local copy.
			nt := t.clone()
			for _, w := range a.directAccessLabels(s, t.P, t.Off, true) {
				nt.CrossedW.Add(w)
			}
			gen.Add(nt)
		}
		cur = gen
		a.reads[s] = cur.Clone()
	}
	return cur
}

// directAccessLabels returns the labels of basic statements in s's subtree
// that directly access (p, off) through p itself: stores when write is true,
// loads otherwise. The per-statement walk result is memoized.
func (a *analysis) directAccessLabels(s simple.Stmt, p *simple.Var, off int, write bool) []int {
	info, ok := a.daMemo[s]
	if !ok {
		info = &daInfo{}
		simple.WalkBasics(s, func(b *simple.Basic) {
			if b.Kind != simple.KAssign {
				return
			}
			if stv, okw := b.Lhs.(simple.StoreLV); okw {
				if info.w == nil {
					info.w = make(map[Key][]int)
				}
				k := Key{P: stv.P, Off: stv.Off}
				info.w[k] = append(info.w[k], b.Label)
			}
			if ld, okr := b.Rhs.(simple.LoadRV); okr {
				if info.r == nil {
					info.r = make(map[Key][]int)
				}
				k := Key{P: ld.P, Off: ld.Off}
				info.r[k] = append(info.r[k], b.Label)
			}
		})
		if a.daMemo == nil {
			a.daMemo = make(map[simple.Stmt]*daInfo)
		}
		a.daMemo[s] = info
	}
	if write {
		return info.w[Key{P: p, Off: off}]
	}
	return info.r[Key{P: p, Off: off}]
}

// readsStmt implements collectCommSet(stmt, READ): the tuples generated by
// one statement, placeable just before it.
func (a *analysis) readsStmt(s simple.Stmt) *Set {
	switch st := s.(type) {
	case *simple.Basic:
		return a.readsBasic(st)
	case *simple.Seq:
		return a.readsSeq(st)
	case *simple.If:
		thenSet := a.readsSeq(st.Then)
		elseSet := a.readsSeq(st.Else)
		out := NewSet()
		tf, ef := a.branchFactors(st)
		thenSet.scale(tf)
		elseSet.scale(ef)
		out.AddAll(thenSet)
		out.AddAll(elseSet)
		return out
	case *simple.Switch:
		out := NewSet()
		if len(st.Cases) == 0 {
			return out
		}
		factors := a.switchFactors(st)
		for i, cc := range st.Cases {
			cs := a.readsSeq(cc.Body)
			cs.scale(factors[i])
			out.AddAll(cs)
		}
		return out
	case *simple.While:
		return a.readsLoop(s, st.Eval, st.Body, false)
	case *simple.Do:
		return a.readsLoop(s, st.Eval, st.Body, true)
	case *simple.Forall:
		return a.readsForall(st)
	case *simple.Par:
		// Arms execute concurrently and must not interfere on ordinary
		// variables; a tuple moves above the Par if no *sibling* arm kills
		// it (its own arm's kills were already applied inside readsSeq).
		out := NewSet()
		armSets := make([]*Set, len(st.Arms))
		for i, arm := range st.Arms {
			armSets[i] = a.readsSeq(arm)
		}
		for i, as := range armSets {
			for _, t := range as.Tuples() {
				killed := false
				for j, sib := range st.Arms {
					if j != i && a.killsRead(t, sib) {
						killed = true
						break
					}
				}
				if !killed {
					out.Add(t)
				}
			}
		}
		return out
	}
	return NewSet()
}

// readsLoop implements collectCommSetLoop for reads: analyze the loop body
// (condition evaluation included), then propagate out every tuple the loop
// as a whole cannot kill, with frequency scaled by the expected iteration
// count. Do-loops use the same conservative rule.
func (a *analysis) readsLoop(loop simple.Stmt, eval, body *simple.Seq, isDo bool) *Set {
	// Analyze in per-iteration execution order. For top-tested loops one
	// iteration is eval;body — for analysis purposes the concatenation
	// gives the set valid at the top of an iteration. Record per-statement
	// sets by analyzing the parts separately but chaining the propagation.
	combined := &simple.Seq{}
	if isDo {
		combined.Stmts = append(combined.Stmts, body.Stmts...)
		combined.Stmts = append(combined.Stmts, eval.Stmts...)
	} else {
		combined.Stmts = append(combined.Stmts, eval.Stmts...)
		combined.Stmts = append(combined.Stmts, body.Stmts...)
	}
	top := a.readsSeq(combined)
	return a.hoistLoop(loop, top)
}

// hoistLoop propagates a loop-top set out of the loop: tuples the loop can
// kill stay inside, the rest exit with their frequency scaled by the
// expected iteration count. A hoisted tuple's fill sits above the loop while
// any direct stores to the same location execute every iteration — a
// loop-carried crossing — so those store labels are recorded in CrossedW
// (iteration k's read must observe iteration k-1's store through the shared
// local copy).
func (a *analysis) hoistLoop(loop simple.Stmt, top *Set) *Set {
	out := NewSet()
	for _, t := range top.Tuples() {
		if a.killsRead(t, loop) {
			continue
		}
		nt := t.clone()
		nt.Freq *= a.loopFactor(loop)
		for _, w := range a.directAccessLabels(loop, t.P, t.Off, true) {
			nt.CrossedW.Add(w)
		}
		out.Add(nt)
	}
	return out
}

// readsForall handles parallel loops. The body is a separate parallel
// activation with a copied frame: a value filled inside the body cannot
// flow to the (sequential) eval/step induction code or to other iterations,
// so the body is analyzed in isolation. Body tuples may still hoist out of
// the whole construct (the fill then happens once, before any spawn, and is
// copied into every iteration frame). Step tuples float across the spawned
// body only if the body cannot kill them.
func (a *analysis) readsForall(st *simple.Forall) *Set {
	bodyTop := a.readsSeq(st.Body)
	stepTop := a.readsSeq(st.Step)

	// Step tuples cross the concurrent body: body kills apply.
	crossed := NewSet()
	for _, t := range stepTop.Tuples() {
		if a.killsRead(t, st.Body) {
			continue
		}
		crossed.Add(t)
	}
	evalTop := a.readsSeqInto(st.Eval, crossed)

	top := evalTop.Clone()
	top.AddAll(bodyTop)
	return a.hoistLoop(st, top)
}

// ------------------------------------------------------- writes (downward) ---

// writesSeq implements collectCommWritesSeq (Figure 5): forward propagation
// through a statement sequence, recording RemoteWrites(S) for every element.
// Returns the set valid just after the last statement.
func (a *analysis) writesSeq(seq *simple.Seq) *Set {
	cur := NewSet()
	for _, s := range seq.Stmts {
		gen := a.writesStmt(s)
		for _, t := range cur.Tuples() {
			if a.killsWrite(t, s) {
				continue
			}
			nt := t.clone()
			for _, rl := range a.directAccessLabels(s, t.P, t.Off, false) {
				nt.CrossedR.Add(rl)
			}
			gen.Add(nt)
		}
		cur = gen
		a.writes[s] = cur.Clone()
	}
	return cur
}

// writesStmt implements collectCommSet(stmt, WRITE).
func (a *analysis) writesStmt(s simple.Stmt) *Set {
	switch st := s.(type) {
	case *simple.Basic:
		return a.writesBasic(st)
	case *simple.Seq:
		return a.writesSeq(st)
	case *simple.If:
		thenSet := a.writesSeq(st.Then)
		elseSet := a.writesSeq(st.Else)
		out := NewSet()
		tf, ef := a.branchFactors(st)
		// Conservative: only tuples written on *all* alternatives may move
		// below the conditional (no spurious writes).
		for _, t := range thenSet.Tuples() {
			if other := elseSet.Get(t.Key()); other != nil {
				a1 := t.clone()
				a1.Freq *= tf
				out.Add(a1)
				a2 := other.clone()
				a2.Freq *= ef
				out.Add(a2)
			}
		}
		return out
	case *simple.Switch:
		n := len(st.Cases)
		out := NewSet()
		if n == 0 {
			return out
		}
		hasDefault := false
		caseSets := make([]*Set, n)
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
		for _, t := range caseSets[0].Tuples() {
			inAll := true
			for _, cs := range caseSets[1:] {
				if cs.Get(t.Key()) == nil {
					inAll = false
					break
				}
			}
			if !inAll {
				continue
			}
			for i, cs := range caseSets {
				ct := cs.Get(t.Key()).clone()
				ct.Freq *= factors[i]
				out.Add(ct)
			}
		}
		return out
	case *simple.While, *simple.Forall:
		// The paper only moves writes out of loops known to execute exactly
		// once (executesOnce); we cannot prove that for general loops, so
		// nothing propagates out. Still analyze the body for inner
		// placement opportunities.
		for _, sub := range simple.Subseqs(st) {
			a.writesSeq(sub)
		}
		return NewSet()
	case *simple.Do:
		// A do loop executes at least once but possibly more; a write from
		// the body may not move below unless the loop executes exactly
		// once, which we cannot prove. Analyze inner parts only.
		a.writesSeq(st.Body)
		a.writesSeq(st.Eval)
		return NewSet()
	case *simple.Par:
		out := NewSet()
		armSets := make([]*Set, len(st.Arms))
		for i, arm := range st.Arms {
			armSets[i] = a.writesSeq(arm)
		}
		for i, as := range armSets {
			for _, t := range as.Tuples() {
				killed := false
				for j, sib := range st.Arms {
					if j != i && a.killsWrite(t, sib) {
						killed = true
						break
					}
				}
				if !killed {
					out.Add(t)
				}
			}
		}
		return out
	}
	return NewSet()
}

// ------------------------------------------------------------------ basics ---

// readsBasic generates the tuple for a basic statement's remote read, if
// any (collectCommSetBasic with accessType READ).
func (a *analysis) readsBasic(b *simple.Basic) *Set {
	out := NewSet()
	if b.Kind != simple.KAssign {
		return out
	}
	ld, ok := b.Rhs.(simple.LoadRV)
	if !ok || !a.loc.RemoteLoad(ld.P) {
		return out
	}
	out.Add(&Tuple{P: ld.P, Field: ld.Field, Off: ld.Off, Freq: 1,
		D: LabelSet{b.Label}})
	return out
}

// writesBasic generates the tuple for a basic statement's remote write, if
// any.
func (a *analysis) writesBasic(b *simple.Basic) *Set {
	out := NewSet()
	if b.Kind != simple.KAssign {
		return out
	}
	stv, ok := b.Lhs.(simple.StoreLV)
	if !ok || !a.loc.RemoteLoad(stv.P) {
		return out
	}
	out.Add(&Tuple{P: stv.P, Field: stv.Field, Off: stv.Off, Freq: 1,
		D: LabelSet{b.Label}})
	return out
}
