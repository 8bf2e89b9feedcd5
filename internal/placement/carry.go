package placement

import (
	"slices"

	"repro/internal/rwsets"
	"repro/internal/simple"
)

// Loop-carried reads (beyond the paper). The paper's placement stops at a
// loop's back edge, so a walk "d = dist(p, p->next); p = p->next" fetches
// each element twice: through q = p->next in one iteration, then again
// through p in the next. A loop-top read tuple (p, f) that the loop kills
// only by its latch, the one statement that rebinds p to a value a body
// pointer q already holds ("p = q", or "p = p->g" after "q = p->g"), is
// carried around the back edge instead: renamed to (q, f) it joins q's
// group at q's fill, and it is placed once before the loop for the first
// iteration. Selection (internal/commsel) then keeps one local copy of
// p->f for the loop head, filled before the loop and refilled at the latch
// from q's fill. The rule holds only where
//
//   - the loop is a while or do loop outside every forall body and {^ ^}
//     arm, and the latch is a top-level statement of its body and the only
//     statement of the loop that may write p;
//   - q is assigned by a top-level body statement before the latch (for
//     "p = p->g", that statement is "q = p->g" and nothing between it and
//     the latch may write q or p->g), and every path from there to the
//     latch dereferences q before q can change, so q is not NULL and a
//     wider fill of q touches no new object;
//   - per field f: nothing in the loop may write p->f through an alias
//     (rwsets and callee summaries) or store to it directly. Since p takes
//     q's value, a store through q, or any write that may reach q->f, is
//     such an alias write, so the renamed tuple (q, f) survives from q's
//     fill to the latch.
//
// Whether the fill and the entry placement then pay off is selection's
// decision: a rule placement admits may still not fire there.

// Carry is one loop whose head reads through P are carried around its back
// edge through Q.
type Carry struct {
	Loop  simple.Stmt   // the *simple.Do or *simple.While
	Latch *simple.Basic // "P = Q" or "P = P->g": the loop's only write of P
	P, Q  *simple.Var
	// Fill is the body statement just after Q's assignment: the highest
	// point of the iteration where Q's group can be selected, and the one
	// the renamed tuples reach.
	Fill simple.Stmt
	// Heads are the carried loop-top tuples (P, f) in location order; each
	// is also in the loop's own RemoteReads set, placed once.
	Heads []*Tuple
}

// carries finds loop's carries, one per pointer a top-level body
// assignment rebinds and a loop-top tuple of top reads through, records
// them in the Result, and returns their tuples in location order.
func (a *analysis) carries(loop simple.Stmt, body, eval *simple.Seq, top Set) []*Tuple {
	var heads []*Tuple
	for i, s := range body.Stmts {
		b, ok := s.(*simple.Basic)
		if !ok || b.Kind != simple.KAssign {
			continue
		}
		lv, ok := b.Lhs.(simple.VarLV)
		if !ok || !slices.ContainsFunc(top.ts, func(t *Tuple) bool { return t.P == lv.V }) {
			continue
		}
		if c := a.carry(loop, body, eval, i, top); c != nil {
			if a.res.Carries == nil {
				a.res.Carries = make(map[*simple.Func][]*Carry)
			}
			a.res.Carries[a.fn] = append(a.res.Carries[a.fn], c)
			heads = append(heads, c.Heads...)
		}
	}
	if len(heads) < 2 {
		return heads
	}
	out := make([]*Tuple, 0, len(heads))
	for _, t := range top.ts {
		if slices.Contains(heads, t) {
			out = append(out, t)
		}
	}
	return out
}

// carry returns the carry of loop whose latch is body.Stmts[latch], an
// assignment to a pointer that loop-top tuples of top read through, or
// nil when the rule does not hold. Every statement of the loop is in body
// or eval.
func (a *analysis) carry(loop simple.Stmt, body, eval *simple.Seq, latch int, top Set) *Carry {
	lb := body.Stmts[latch].(*simple.Basic)
	p := lb.Lhs.(simple.VarLV).V
	if p.Shared || p.Kind == simple.VarGlobal {
		return nil
	}
	for _, seq := range [2]*simple.Seq{body, eval} {
		for _, s := range seq.Stmts {
			if s != simple.Stmt(lb) && a.rw.VarWritten(p, s) {
				return nil
			}
		}
	}
	// def is the top-level statement that assigns q last before the latch.
	var q *simple.Var
	def := -1
	switch rv := lb.Rhs.(type) {
	case simple.AtomRV:
		q = simple.AtomVar(rv.A)
		if q == nil || q == p {
			return nil
		}
		for i := latch - 1; i >= 0; i-- {
			if a.rw.VarWritten(q, body.Stmts[i]) {
				if _, ok := body.Stmts[i].(*simple.Basic); ok {
					def = i
				}
				break
			}
		}
	case simple.LoadRV:
		if rv.P != p {
			return nil
		}
		for i := latch - 1; i >= 0 && def < 0; i-- {
			s := body.Stmts[i]
			if b, ok := s.(*simple.Basic); ok && b.Kind == simple.KAssign {
				lv, okl := b.Lhs.(simple.VarLV)
				ld, okr := b.Rhs.(simple.LoadRV)
				if okl && okr && ld.P == p && ld.Off == rv.Off && lv.V != p {
					q, def = lv.V, i
					break
				}
			}
			if a.rw.AccessedViaAlias(p, rv.Off, s, true) || storesTo(s, p, rv.Off) {
				return nil
			}
		}
		if def >= 0 {
			for _, s := range body.Stmts[def+1 : latch] {
				if a.rw.VarWritten(q, s) {
					return nil
				}
			}
		}
	}
	if def < 0 || def+1 == latch || !q.IsPtr() || q.Shared || q.Kind == simple.VarGlobal ||
		!a.loc.RemoteLoad(q) {
		return nil
	}
	if DerefScan(a.rw, body.Stmts[def+1:latch], q) != ScanFound {
		return nil
	}
	c := &Carry{Loop: loop, Latch: lb, P: p, Q: q, Fill: body.Stmts[def+1]}
	for _, t := range top.ts {
		if t.P == p && !a.rw.AccessedViaAlias(p, t.Off, loop, true) && !storesTo(loop, p, t.Off) {
			c.Heads = append(c.Heads, t)
		}
	}
	if len(c.Heads) == 0 {
		return nil
	}
	return c
}

// storesTo reports whether s's subtree stores to p->off directly.
func storesTo(s simple.Stmt, p *simple.Var, off int) bool {
	found := false
	simple.WalkBasics(s, func(b *simple.Basic) {
		if stv, ok := b.Lhs.(simple.StoreLV); ok && b.Kind == simple.KAssign && stv.P == p && stv.Off == off {
			found = true
		}
	})
	return found
}

// ------------------------------------------------------- dereference scan ---

// Scan is the outcome of DerefScan.
type Scan int

const (
	ScanFall   Scan = iota // no dereference yet, p unchanged: keep scanning
	ScanFound              // p dereferenced on every path
	ScanKilled             // p may change (or the path ends) first
)

// DerefScan reports whether running stmts dereferences p on every path
// before p can change (footnote 2 of the paper: such a dereference licenses
// inserting an earlier one). Loads, stores and the communication statements
// selection inserts all count.
func DerefScan(rw *rwsets.Result, stmts []simple.Stmt, p *simple.Var) Scan {
	for _, s := range stmts {
		switch r := derefStmt(rw, s, p); r {
		case ScanFound, ScanKilled:
			return r
		}
	}
	return ScanFall
}

func derefStmt(rw *rwsets.Result, st simple.Stmt, p *simple.Var) Scan {
	switch c := st.(type) {
	case *simple.Basic:
		if basicDerefs(c, p) {
			return ScanFound
		}
		if c.Kind == simple.KReturn || rw.VarWritten(p, c) {
			return ScanKilled
		}
		return ScanFall
	case *simple.Seq:
		return DerefScan(rw, c.Stmts, p)
	case *simple.If:
		t := DerefScan(rw, c.Then.Stmts, p)
		e := DerefScan(rw, c.Else.Stmts, p)
		if t == ScanKilled || e == ScanKilled {
			return ScanKilled
		}
		if t == ScanFound && e == ScanFound {
			return ScanFound
		}
		return ScanFall
	case *simple.Switch:
		all := ScanFound
		hasDefault := false
		for _, cc := range c.Cases {
			if cc.Vals == nil {
				hasDefault = true
			}
			switch DerefScan(rw, cc.Body.Stmts, p) {
			case ScanKilled:
				return ScanKilled
			case ScanFall:
				all = ScanFall
			}
		}
		if !hasDefault {
			all = ScanFall
		}
		return all
	case *simple.While, *simple.Forall:
		// The body may execute zero times; only the kill side matters.
		if rw.VarWritten(p, st) {
			return ScanKilled
		}
		return ScanFall
	case *simple.Do:
		// Executes at least once.
		if r := DerefScan(rw, c.Body.Stmts, p); r != ScanFall {
			return r
		}
		if rw.VarWritten(p, st) {
			return ScanKilled
		}
		return ScanFall
	case *simple.Par:
		for _, arm := range c.Arms {
			switch DerefScan(rw, arm.Stmts, p) {
			case ScanFound:
				return ScanFound
			case ScanKilled:
				return ScanKilled
			}
		}
		return ScanFall
	}
	return ScanFall
}

// basicDerefs reports whether the basic statement dereferences p.
func basicDerefs(b *simple.Basic, p *simple.Var) bool {
	switch b.Kind {
	case simple.KAssign:
		if ld, ok := b.Rhs.(simple.LoadRV); ok && ld.P == p {
			return true
		}
		if stv, ok := b.Lhs.(simple.StoreLV); ok && stv.P == p {
			return true
		}
	case simple.KBlkCopy:
		return b.P == p || b.P2 == p
	case simple.KGetF, simple.KPutF, simple.KBlkRead, simple.KBlkWrite:
		return b.P == p
	}
	return false
}
