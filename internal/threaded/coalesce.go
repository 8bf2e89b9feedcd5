package threaded

import (
	"slices"

	"repro/internal/simple"
)

// Comm-temp coalescing. Communication selection turns a remote read
// "x = p->f" into a split-phase get into a fresh temp plus a copy,
// "c = p->f; /* get_sync */ ... x = c" (the paper's Figure 4, S4 and S2).
// The paper's Threaded-C went through gcc, whose register allocator merges
// such a copy wherever the two live ranges do not overlap; so does this code
// generator. When c's only reader is that one copy, c takes x's frame slot:
// the get then fills x directly and the copy emits nothing (rvalueInto skips
// a move onto its own slot). The slot's presence bit makes the first read of
// x wait for the fill, and every later write of x waits for it too (the
// simulator checks each instruction's destination, and a remote call's
// result is a fill that waits for the one in flight), so the merge is exact
// provided nothing mentions x between the get and the copy, and x's old
// value is dead wherever the fill happens. The rule, checked on the SIMPLE
// tree:
//
//   - c is written once, by a get, and read once, by "x = c";
//   - x is a scalar local of the function: not a parameter, not shared,
//     never address-taken (&x);
//   - the copy follows the get in the get's own statement sequence, not
//     inside a branch, loop or parallel construct of it, so every path from
//     the get that does not return reaches the copy; a get hoisted above a
//     loop or an if is therefore never merged with a copy inside it;
//   - x is not mentioned from the get up to the copy (the interference
//     test), including by the get itself;
//   - x is mentioned in no {^ ^} arm or forall body other than the one
//     holding the get and the copy (or one enclosing it).

// commVar is what coalescing records for one of a function's variables,
// indexed by Var.ID.
type commVar struct {
	// fillSeq and fillIdx place a comm temp's get; copied records its
	// "x = c" reader. bad marks a comm temp filled or copied twice or
	// mentioned any other way, and an address-taken local.
	fillSeq *simple.Seq
	fillIdx int32
	// region is the deepest parallel region (see coalescer.parent) that
	// mentions the variable, 0 until one does; forked is set once two
	// regions that do not nest both mention it.
	region              int32
	copied, bad, forked bool
}

// coalescer holds coalescing's scratch state, reused across functions.
type coalescer struct {
	vars []commVar
	// parent holds each parallel region's enclosing region: region 0 is
	// the function body outside every arm and forall body.
	parent []int32
	// copies lists every "x = c" with c a comm temp, in source order.
	copies []commCopyAt
	// pairs lists the merged (comm temp, variable) pairs in copy order.
	pairs [][2]*simple.Var
}

// commCopyAt is the copy "x = c", the idx'th statement of seq.
type commCopyAt struct {
	seq  *simple.Seq
	idx  int
	x, c *simple.Var
}

// run finds the comm temps of f that take another variable's slot and
// leaves them in c.pairs.
func (c *coalescer) run(f *simple.Func) {
	c.pairs = c.pairs[:0]
	if !slices.ContainsFunc(f.Locals, func(v *simple.Var) bool { return v.Kind == simple.VarComm }) {
		return
	}
	n := f.NumVars()
	if cap(c.vars) < n {
		c.vars = make([]commVar, n)
	} else {
		c.vars = c.vars[:n]
		clear(c.vars)
	}
	c.parent = append(c.parent[:0], -1)
	c.copies = c.copies[:0]
	c.scan(f.Body, 0)
	for _, cp := range c.copies {
		if c.mergeable(cp) {
			c.pairs = append(c.pairs, [2]*simple.Var{cp.c, cp.x})
		}
	}
}

// local returns v's record when v is one of the function's own variables
// (a function body mentions no other function's).
func (c *coalescer) local(v *simple.Var) *commVar {
	if v == nil || v.Kind == simple.VarGlobal {
		return nil
	}
	return &c.vars[v.ID]
}

// within reports whether region r is a or lies inside it.
func (c *coalescer) within(r, a int32) bool {
	for ; r > a; r = c.parent[r] {
	}
	return r == a
}

// mention notes that region r mentions v. Region 0 encloses every other,
// so a mention there changes nothing.
func (c *coalescer) mention(v *simple.Var, r int32) {
	cv := c.local(v)
	if r == 0 || cv == nil {
		return
	}
	switch {
	case c.within(r, cv.region):
		cv.region = r
	case !c.within(cv.region, r):
		cv.forked = true
	}
}

// region opens a new parallel region inside r.
func (c *coalescer) region(r int32) int32 {
	c.parent = append(c.parent, r)
	return int32(len(c.parent) - 1)
}

// scan records every variable mention of s in region r: the fills and
// copies of comm temps, address-taken locals and each variable's regions.
func (c *coalescer) scan(s *simple.Seq, r int32) {
	for i, st := range s.Stmts {
		switch x := st.(type) {
		case *simple.Basic:
			c.basic(x, s, i, r)
		case *simple.Forall:
			c.cond(x.Cond, r)
			c.scan(x.Eval, r)
			c.scan(x.Head, r)
			c.scan(x.Body, c.region(r))
			c.scan(x.Step, r)
		case *simple.Par:
			for _, arm := range x.Arms {
				c.scan(arm, c.region(r))
			}
		case *simple.If:
			c.cond(x.Cond, r)
			c.scan(x.Then, r)
			c.scan(x.Else, r)
		case *simple.Switch:
			c.mention(simple.AtomVar(x.Tag), r)
			for _, cc := range x.Cases {
				c.scan(cc.Body, r)
			}
		case *simple.While:
			c.cond(x.Cond, r)
			c.scan(x.Eval, r)
			c.scan(x.Body, r)
		case *simple.Do:
			c.cond(x.Cond, r)
			c.scan(x.Body, r)
			c.scan(x.Eval, r)
		case *simple.Seq:
			c.scan(x, r)
		}
	}
}

func (c *coalescer) cond(k simple.Cond, r int32) {
	c.mention(simple.AtomVar(k.X), r)
	if k.Op != simple.TruthTest {
		c.mention(simple.AtomVar(k.Y), r)
	}
}

// basic records b, the idx'th statement of s.
func (c *coalescer) basic(b *simple.Basic, s *simple.Seq, idx int, r int32) {
	if b.Kind == simple.KGetF {
		if cv := c.local(b.Dst); cv != nil && b.Dst.Kind == simple.VarComm {
			cv.bad = cv.bad || cv.fillSeq != nil
			cv.fillSeq, cv.fillIdx = s, int32(idx)
			c.mention(b.Dst, r)
			c.other(b.P, false, r)
			return
		}
	}
	if x, v, ok := commCopy(b); ok {
		if cv := c.local(v); cv != nil {
			cv.bad = cv.bad || cv.copied
			cv.copied = true
			c.copies = append(c.copies, commCopyAt{s, idx, x, v})
			c.mention(v, r)
			c.other(x, false, r)
			return
		}
	}
	simple.EachVar(b, func(v *simple.Var, addr bool) { c.other(v, addr, r) })
}

// other notes a mention of v in region r that is neither a comm temp's get
// nor its copy: it disqualifies a comm temp, and an address-taken local.
func (c *coalescer) other(v *simple.Var, addr bool, r int32) {
	if addr || v.Kind == simple.VarComm {
		if cv := c.local(v); cv != nil {
			cv.bad = true
		}
	}
	c.mention(v, r)
}

// commCopy reports whether b is "x = c" with c a comm temp.
func commCopy(b *simple.Basic) (x, c *simple.Var, ok bool) {
	if b.Kind != simple.KAssign {
		return nil, nil, false
	}
	lhs, ok1 := b.Lhs.(simple.VarLV)
	rhs, ok2 := b.Rhs.(simple.AtomRV)
	if !ok1 || !ok2 {
		return nil, nil, false
	}
	c = simple.AtomVar(rhs.A)
	if c == nil || c.Kind != simple.VarComm || c == lhs.V {
		return nil, nil, false
	}
	return lhs.V, c, true
}

// mergeable applies the rule to one copy. The get must be in the copy's
// sequence, so the comm temp's region is the copy's.
func (c *coalescer) mergeable(cp commCopyAt) bool {
	x, s, idx := cp.x, cp.seq, cp.idx
	rec, xr := &c.vars[cp.c.ID], c.local(x)
	if xr == nil || rec.bad || rec.fillSeq != s || int(rec.fillIdx) > idx {
		return false
	}
	if x.Kind != simple.VarLocal && x.Kind != simple.VarTemp || x.Shared || x.Size > 1 ||
		xr.bad || xr.forked || xr.region != rec.region {
		return false
	}
	// Interference: nothing from the get up to the copy mentions x.
	for _, st := range s.Stmts[rec.fillIdx:idx] {
		if simple.Mentions(st, x) {
			return false
		}
	}
	return true
}
