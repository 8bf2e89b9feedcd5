package threaded

import (
	"slices"

	"repro/internal/simple"
)

// Forall live-ins. An iteration is invoked the way a Threaded-C INVOKE
// passes its arguments: the spawn copies into the new frame only the words
// the body may read before writing them, and every other word of the
// iteration's frame is written by the body before it is read. A variable is
// a live-in when
//
//   - some path through the body reads it before writing it (liveness over
//     the SIMPLE tree; a nested forall's spawn reads that body's live-ins,
//     and a partial write of a struct local — a field store or a block
//     fill — writes no whole variable);
//   - it is a shared local the body mentions: its slot holds the address
//     of the one shared cell; or
//   - its address is taken anywhere in the function and the body mentions
//     it, since the body may read it through a pointer.
//
// The spawn's Args list the live-ins' frame slots, ascending; a variable
// that shares another's slot (a coalesced comm temp) is that slot.

// varSet is a set of a function's variables by Var.ID.
type varSet []uint64

func newVarSet(n int) varSet { return make(varSet, (n+63)/64) }

func (s varSet) add(v *simple.Var) { s[v.ID/64] |= 1 << (v.ID % 64) }
func (s varSet) del(v *simple.Var) { s[v.ID/64] &^= 1 << (v.ID % 64) }
func (s varSet) has(id int) bool   { return s[id/64]&(1<<(id%64)) != 0 }

func (s varSet) union(t varSet) varSet {
	for i := range s {
		s[i] |= t[i]
	}
	return s
}

// liveness computes the live-ins of one function's forall bodies.
type liveness struct {
	fn *simple.Func
	// addr marks the function's address-taken variables.
	addr varSet
	// bodies memoizes each forall body's live-in set.
	bodies map[*simple.Seq]varSet
}

func newLiveness(fn *simple.Func) *liveness {
	l := &liveness{fn: fn, addr: newVarSet(fn.NumVars()), bodies: make(map[*simple.Seq]varSet)}
	simple.WalkBasics(fn.Body, func(b *simple.Basic) {
		simple.EachVar(b, func(v *simple.Var, addr bool) {
			if addr && l.own(v) {
				l.addr.add(v)
			}
		})
	})
	return l
}

// own reports whether v is one of the function's frame variables.
func (l *liveness) own(v *simple.Var) bool { return v != nil && l.fn.VarByID(v.ID) == v }

func (l *liveness) empty() varSet { return newVarSet(l.fn.NumVars()) }

func (l *liveness) clone(s varSet) varSet { return slices.Clone(s) }

// bodyIn returns the live-in set of a forall body.
func (l *liveness) bodyIn(body *simple.Seq) varSet {
	if in, ok := l.bodies[body]; ok {
		return in
	}
	in := l.seq(body, l.empty())
	simple.WalkStmts(body, func(st simple.Stmt) {
		l.mentions(st, func(v *simple.Var) {
			if v.Shared || l.addr.has(v.ID) {
				in.add(v)
			}
		})
	})
	l.bodies[body] = in
	return in
}

// mentions calls fn for each frame variable st itself mentions: a basic
// statement's variables, or a compound statement's condition or tag.
func (l *liveness) mentions(st simple.Stmt, fn func(*simple.Var)) {
	visit := func(v *simple.Var) {
		if l.own(v) {
			fn(v)
		}
	}
	switch x := st.(type) {
	case *simple.Basic:
		simple.EachVar(x, func(v *simple.Var, _ bool) { visit(v) })
	case *simple.If:
		l.condVars(x.Cond, visit)
	case *simple.While:
		l.condVars(x.Cond, visit)
	case *simple.Do:
		l.condVars(x.Cond, visit)
	case *simple.Forall:
		l.condVars(x.Cond, visit)
	case *simple.Switch:
		visit(simple.AtomVar(x.Tag))
	}
}

func (l *liveness) condVars(c simple.Cond, fn func(*simple.Var)) {
	for _, a := range c.Atoms() {
		if v := simple.AtomVar(a); v != nil {
			fn(v)
		}
	}
}

// seq returns the variables live before s given those live after it; out
// is consumed.
func (l *liveness) seq(s *simple.Seq, out varSet) varSet {
	for i := len(s.Stmts) - 1; i >= 0; i-- {
		out = l.stmt(s.Stmts[i], out)
	}
	return out
}

// cond adds a condition's variables to live.
func (l *liveness) cond(c simple.Cond, live varSet) varSet {
	l.condVars(c, func(v *simple.Var) {
		if l.own(v) {
			live.add(v)
		}
	})
	return live
}

// loop iterates a loop's transfer function from the empty set at its top
// to the fixed point.
func (l *liveness) loop(top func(varSet) varSet) varSet {
	x := l.empty()
	for {
		nx := top(x)
		if slices.Equal(nx, x) {
			return x
		}
		x = nx
	}
}

// stmt returns the variables live before st given those live after it; out
// is consumed.
func (l *liveness) stmt(st simple.Stmt, out varSet) varSet {
	switch x := st.(type) {
	case *simple.Basic:
		return l.basic(x, out)
	case *simple.Seq:
		return l.seq(x, out)
	case *simple.If:
		live := l.seq(x.Then, l.clone(out)).union(l.seq(x.Else, l.clone(out)))
		return l.cond(x.Cond, live)
	case *simple.Switch:
		live := l.empty()
		exhaustive := false
		for _, cc := range x.Cases {
			live.union(l.seq(cc.Body, l.clone(out)))
			exhaustive = exhaustive || cc.Vals == nil
		}
		if !exhaustive {
			live.union(out)
		}
		if v := simple.AtomVar(x.Tag); l.own(v) {
			live.add(v)
		}
		return live
	case *simple.While:
		return l.loop(func(top varSet) varSet {
			exit := l.cond(x.Cond, l.clone(out))
			return l.seq(x.Eval, exit.union(l.seq(x.Body, l.clone(top))))
		})
	case *simple.Do:
		return l.loop(func(top varSet) varSet {
			latch := l.cond(x.Cond, l.clone(out)).union(top)
			return l.seq(x.Body, l.seq(x.Eval, latch))
		})
	case *simple.Forall:
		// test; Head; spawn (reads the body's live-ins); Step; back to the
		// test. The body's own writes stay in its frame.
		inner := l.bodyIn(x.Body)
		return l.loop(func(top varSet) varSet {
			spawn := l.seq(x.Step, l.clone(top)).union(inner)
			exit := l.cond(x.Cond, l.clone(out))
			return l.seq(x.Eval, exit.union(l.seq(x.Head, spawn)))
		})
	case *simple.Par:
		live := l.empty()
		for _, arm := range x.Arms {
			live.union(l.seq(arm, l.clone(out)))
		}
		return live
	}
	return out
}

// basic applies one basic statement: its whole-variable write kills, then
// every other variable it mentions is read.
func (l *liveness) basic(b *simple.Basic, live varSet) varSet {
	d := wholeDef(b)
	if l.own(d) {
		live.del(d)
	}
	skipped := false
	simple.EachVar(b, func(v *simple.Var, _ bool) {
		if v == d && !skipped {
			skipped = true // the written mention
			return
		}
		if l.own(v) {
			live.add(v)
		}
	})
	return live
}

// wholeDef returns the scalar variable b overwrites entirely, or nil: a
// one-word variable it defines (a write of a one-word struct's only field
// writes all of it).
func wholeDef(b *simple.Basic) *simple.Var {
	if d := def(b); d != nil && !d.Shared && d.Size <= 1 {
		return d
	}
	return nil
}

// bodyWrites returns the frame variables a forall body may write, wholly or
// in part: every variable some basic statement of the body defines, and
// every address-taken variable it mentions, since it may write that one
// through a pointer. A shared local is none of them: its slot holds the
// address of the one shared cell.
func (l *liveness) bodyWrites(body *simple.Seq) varSet {
	w := l.empty()
	simple.WalkBasics(body, func(b *simple.Basic) {
		simple.EachVar(b, func(v *simple.Var, _ bool) {
			if l.own(v) && !v.Shared && (v == def(b) || l.addr.has(v.ID)) {
				w.add(v)
			}
		})
	})
	return w
}

// def returns the frame variable b writes, wholly or in part, or nil.
func def(b *simple.Basic) *simple.Var {
	switch b.Kind {
	case simple.KAssign:
		switch lv := b.Lhs.(type) {
		case simple.VarLV:
			return lv.V
		case simple.LocalStoreLV:
			return lv.Base
		}
	case simple.KCall, simple.KBuiltin, simple.KAlloc, simple.KGetF, simple.KBlkCopy:
		return b.Dst
	case simple.KBlkRead:
		return b.Local
	}
	return nil
}

// liveInSlots returns the frame slots of a forall body's live-ins,
// ascending.
func (g *gen) liveInSlots(body *simple.Seq) []int {
	if g.live == nil {
		g.live = newLiveness(g.fn)
	}
	in := g.live.bodyIn(body)
	var slots []int
	for id := range g.fn.NumVars() {
		if !in.has(id) {
			continue
		}
		v := g.fn.VarByID(id)
		s, n := g.slots[id], max(1, v.Size)
		if v.Shared {
			n = 1
		}
		for w := range n {
			slots = append(slots, s+w)
		}
	}
	slices.Sort(slots)
	return slices.Compact(slots)
}
