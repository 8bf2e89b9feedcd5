package commsel

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/earthc"
	"repro/internal/placement"
	"repro/internal/simple"
)

// wfloat is a remote write "in flight": a group of direct stores to the same
// (pointer, field) whose remote write-back is being delayed downwards in
// search of a blocking opportunity (the paper's latest-placement policy for
// writes).
type wfloat struct {
	key    placement.Key
	p      *simple.Var
	off    int
	field  string
	labels map[int]bool // store labels merged into this float
	sh     shadow       // local copy the stores update; may be invalid
	moved  bool         // float advanced past at least one statement
}

// writesSeq walks a sequence in execution order, floating remote writes
// downward. Returns the floats still alive at the end of the sequence
// (the caller decides whether they may escape the enclosing construct).
// s.clean follows the walk: on entry it holds the buffers valid on every
// path to the sequence, on return those valid on every path through it.
func (s *sel) writesSeq(seq *simple.Seq) map[placement.Key]*wfloat {
	active := make(map[placement.Key]*wfloat)
	for i := 0; i < len(seq.Stmts); i++ {
		st := seq.Stmts[i]
		// 1. Stop floats the next statement kills. None may float past a
		// possible return: its store would be skipped on that path.
		ret := len(active) > 0 && simple.HasReturn(st)
		var stopped []*wfloat
		for key, f := range active {
			if ret || s.killsFloat(f, st) {
				stopped = append(stopped, f)
				delete(active, key)
			}
		}
		if len(stopped) > 0 {
			n := s.materialize(stopped, seq, i)
			i += n
			st = seq.Stmts[i]
		}
		// 2. Surviving floats have now moved.
		for _, f := range active {
			f.moved = true
		}
		// 3. Process the statement itself.
		switch c := st.(type) {
		case *simple.Basic:
			if s.opt.NoWriteMotion {
				// No motion, but shadow updates mandated by the read pass
				// (reads hoisted across this store) must still happen: the
				// store updates the shadow and a put issues in place.
				i += s.pinWrite(c, seq, i)
			} else if f := s.genFloat(c); f != nil {
				s.mergeFloat(active, f)
			}
			// A fill makes its buffer valid; any other statement may
			// make buffers stale.
			s.invalidate(c)
			if c.Kind == simple.KBlkRead {
				s.clean[s.fillOf(c.Local)] = true
			}
		case *simple.Seq:
			inner := s.writesSeq(c)
			for _, f := range inner {
				s.mergeFloat(active, f)
			}
		case *simple.If:
			s.alternatives([]*simple.Seq{c.Then, c.Else}, true, active)
		case *simple.Switch:
			arms := make([]*simple.Seq, len(c.Cases))
			exhaustive := false
			for i, cc := range c.Cases {
				arms[i] = cc.Body
				exhaustive = exhaustive || cc.Vals == nil
			}
			s.alternatives(arms, exhaustive, active)
		case *simple.While, *simple.Do, *simple.Forall:
			// Any iteration may follow any other, so the head drops every
			// buffer the loop can invalidate, and the exit may follow no
			// iteration at all.
			s.invalidate(c)
			head := slices.Clone(s.clean)
			simple.EachSubseq(c, s.flushSub)
			meet(s.clean, head)
		case *simple.Par:
			// Each arm starts from the state before the construct, but
			// runs beside its siblings, which may write any word of a
			// buffer between its fill and a write-back: inside an arm no
			// write-back blocks.
			pre := slices.Clone(s.clean)
			out := slices.Clone(s.clean)
			s.inPar++
			for _, arm := range c.Arms {
				copy(s.clean, pre)
				s.flushSub(arm)
				meet(out, s.clean)
			}
			s.inPar--
			copy(s.clean, out)
		}
	}
	return active
}

// flushSub processes a child sequence whose writes may not escape (loop
// bodies, parallel arms): floats alive at its end are materialized there.
func (s *sel) flushSub(seq *simple.Seq) {
	esc := s.writesSeq(seq)
	s.materialize(mapVals(esc), seq, len(seq.Stmts))
}

// alternatives applies the paper's intersection rule to the arms of an if
// or a switch, of which at most one runs (exactly one when exhaustive).
// Each arm is walked from the validity state before the construct. A float
// alive at the end of every arm of an exhaustive construct, with one
// shadow, moves below it; every other float is written back at the end of
// its arm, in that arm's state. Afterwards a buffer is clean only if it is
// clean on every path.
func (s *sel) alternatives(arms []*simple.Seq, exhaustive bool, active map[placement.Key]*wfloat) {
	n := len(s.clean)
	pre := slices.Clone(s.clean)
	// Each arm's floats and end state; an if's fit on the stack.
	var fbuf [2]map[placement.Key]*wfloat
	var ebuf [32]bool
	floats, ends := fbuf[:0], ebuf[:0]
	for _, arm := range arms {
		copy(s.clean, pre)
		floats = append(floats, s.writesSeq(arm))
		ends = append(ends, s.clean...)
	}
	out := pre // a construct that is not exhaustive may run no arm
	if exhaustive {
		for i := range out {
			out[i] = true
		}
	next:
		for key, f0 := range floats[0] {
			for _, fl := range floats[1:] {
				if f, ok := fl[key]; !ok || !shadowsCompatible(f0.sh, f.sh) {
					continue next
				}
			}
			for _, fl := range floats[1:] {
				mergeTwo(f0, fl[key])
			}
			f0.moved = true
			for _, fl := range floats {
				delete(fl, key)
			}
			s.mergeFloat(active, f0)
		}
	}
	for i, arm := range arms {
		copy(s.clean, ends[i*n:(i+1)*n])
		s.materialize(mapVals(floats[i]), arm, len(arm.Stmts))
		meet(out, s.clean)
	}
	copy(s.clean, out)
}

// meet clears in dst every buffer not clean in src.
func meet(dst, src []bool) {
	for i := range dst {
		dst[i] = dst[i] && src[i]
	}
}

func mapVals(m map[placement.Key]*wfloat) []*wfloat {
	out := make([]*wfloat, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	return out
}

func shadowsCompatible(a, b shadow) bool {
	if !a.valid() || !b.valid() {
		return !a.valid() && !b.valid()
	}
	return a.v == b.v && a.off == b.off
}

func mergeTwo(a, b *wfloat) *wfloat {
	for l := range b.labels {
		a.labels[l] = true
	}
	if !a.sh.valid() {
		a.sh = b.sh
	}
	a.moved = a.moved || b.moved
	return a
}

func (s *sel) mergeFloat(active map[placement.Key]*wfloat, f *wfloat) {
	if have, ok := active[f.key]; ok {
		mergeTwo(have, f)
		return
	}
	active[f.key] = f
}

// genFloat creates a float for a basic statement's remote store.
func (s *sel) genFloat(b *simple.Basic) *wfloat {
	if s.opt.NoWriteMotion || b.Kind != simple.KAssign {
		return nil
	}
	stv, ok := b.Lhs.(simple.StoreLV)
	if !ok || !s.loc.RemoteLoad(stv.P) {
		return nil
	}
	sh := s.storeShadow[b.Label]
	if !sh.valid() {
		// No read float crossed this store, but if a clean bcomm buffer
		// already mirrors the pointed-to struct, update it instead of a
		// fresh scalar: that is what lets the write-back be blocked (the
		// paper's RemoteFill condition — every field locally valid). When
		// several buffers qualify, take the lowest-named one so the choice
		// does not depend on map iteration order.
		var best *simple.Var
		for i, fi := range s.fills {
			if s.clean[i] && fi.p == stv.P && stv.Off >= fi.off && stv.Off < fi.off+fi.size {
				if best == nil || fi.buf.Name < best.Name {
					best = fi.buf
				}
			}
		}
		if best != nil {
			sh = shadow{v: best, off: stv.Off, field: stv.Field, blk: true}
			s.storeShadow[b.Label] = sh
		}
	}
	return &wfloat{
		key:    placement.Key{P: stv.P, Off: stv.Off},
		p:      stv.P,
		off:    stv.Off,
		field:  stv.Field,
		labels: map[int]bool{b.Label: true},
		sh:     sh,
	}
}

// pinWrite handles a remote store under NoWriteMotion: when the read pass
// mandated a shadow for it, the store is rewritten to the shadow and a put
// of the stored value issues immediately after it. Returns the number of
// statements inserted.
func (s *sel) pinWrite(b *simple.Basic, seq *simple.Seq, i int) int {
	if b.Kind != simple.KAssign {
		return 0
	}
	stv, ok := b.Lhs.(simple.StoreLV)
	if !ok {
		return 0
	}
	sh := s.storeShadow[b.Label]
	if !sh.valid() {
		return 0
	}
	b.Lhs = sh.storeLV()
	s.fr.WritesRewritten++
	s.rw.Register(b)
	put := s.fn.NewBasic(simple.KPutF)
	put.P = stv.P
	put.Field = stv.Field
	put.Off = stv.Off
	if sh.blk {
		put.Local = sh.v
		put.Off2 = sh.off
	} else {
		put.Val = simple.VarAtom{V: sh.v}
	}
	s.rw.Register(put)
	insertStmts(seq, i+1, []simple.Stmt{put})
	s.fr.PipelinedWrites++
	return 1
}

// bcommFill is one bcomm buffer's block read: the buffer, and the span of *p
// it was filled from.
type bcommFill struct {
	buf  *simple.Var
	p    *simple.Var
	off  int
	size int
}

// fillOf returns the index in s.fills of buffer bc's fill.
func (s *sel) fillOf(bc *simple.Var) int {
	for i, fi := range s.fills {
		if fi.buf == bc {
			return i
		}
	}
	panic("commsel: no fill for " + bc.Name)
}

// invalidate clears every buffer that executing st may leave out of step
// with the remote words it was filled from, so that a blocked write-back
// of it would send a stale word (the paper's RemoteFill condition fails):
// st may rebind the fill's pointer, write a word of the span through an
// alias, or store through the pointer into a shadow other than the buffer.
// A store that no shadow has claimed yet does not count: genFloat binds it
// to the buffer whenever the buffer is clean there. Applied to a loop, the
// rwsets effects of the compound cover every iteration.
func (s *sel) invalidate(st simple.Stmt) {
	for i, fi := range s.fills {
		if s.clean[i] && s.invalidates(fi, st) {
			s.clean[i] = false
		}
	}
}

func (s *sel) invalidates(fi bcommFill, st simple.Stmt) bool {
	if s.rw.VarWritten(fi.p, st) {
		return true
	}
	if s.rw.SpanAccessedViaAlias(fi.p, fi.off, fi.size, st, true) {
		return true
	}
	stale := false
	simple.WalkBasics(st, func(b *simple.Basic) {
		if stv, ok := b.Lhs.(simple.StoreLV); ok && b.Kind == simple.KAssign && stv.P == fi.p {
			sh := s.storeShadow[b.Label]
			stale = stale || sh.valid() && !(sh.blk && sh.v == fi.buf)
		}
	})
	return stale
}

// killsFloat reports whether the float must be materialized before st.
func (s *sel) killsFloat(f *wfloat, st simple.Stmt) bool {
	if s.rw.VarWritten(f.p, st) {
		return true
	}
	if s.rw.AccessedViaAlias(f.p, f.off, st, true) ||
		s.rw.AccessedViaAlias(f.p, f.off, st, false) {
		return true
	}
	// Direct reads of the same location must consume our shadow; anything
	// else (a foreign shadow, an inserted get/fill, a block copy) would
	// observe the stale remote value.
	return s.foreignAccess(f, st)
}

// foreignAccess scans st's current subtree (including statements inserted by
// the read pass) for accesses to the float's location that are not
// redirected to the float's shadow.
func (s *sel) foreignAccess(f *wfloat, st simple.Stmt) bool {
	_, isBasic := st.(*simple.Basic)
	found := false
	simple.WalkBasics(st, func(b *simple.Basic) {
		if found {
			return
		}
		switch b.Kind {
		case simple.KAssign:
			// A direct store to the same location nested inside a compound
			// would execute after this float's write-back if we floated
			// past — a write-after-write inversion. (A store at the same
			// sequence level instead merges into the float via genFloat.)
			if !isBasic {
				if stv, ok := b.Lhs.(simple.StoreLV); ok && stv.P == f.p && stv.Off == f.off {
					found = true
					return
				}
			}
			// Direct load of the same location: after the read pass these
			// have been redirected; compare shadows. (LoadRV means the read
			// pass did not touch it — always foreign.)
			if ld, ok := b.Rhs.(simple.LoadRV); ok && ld.P == f.p && ld.Off == f.off {
				found = true
				return
			}
			if lrv, ok := b.Rhs.(simple.LocalLoadRV); ok {
				sh := f.sh
				if sh.valid() && sh.blk && lrv.Base == sh.v && lrv.Off == sh.off {
					return // reading our shadow: consistent
				}
				// Reading some other local: irrelevant.
				return
			}
			if arv, ok := b.Rhs.(simple.AtomRV); ok {
				if v := simple.AtomVar(arv.A); v != nil && f.sh.valid() && !f.sh.blk && v == f.sh.v {
					return // reading our comm shadow: consistent
				}
			}
			// A direct store to the same location with a different shadow
			// would split the region; stores were checked for shadow
			// compatibility at merge time, so nothing to do here.
		case simple.KGetF:
			if b.P == f.p && b.Off == f.off {
				found = true
			}
		case simple.KBlkRead, simple.KBlkWrite:
			if b.P == f.p && f.off >= b.Off && f.off < b.Off+b.Size {
				// A fill or write-back of an overlapping region that is not
				// ours.
				if !(f.sh.valid() && f.sh.blk && b.Local == f.sh.v) {
					found = true
				}
			}
		case simple.KBlkCopy:
			if b.P == f.p && f.off >= b.Off && f.off < b.Off+b.Size {
				found = true
			}
			if b.P2 == f.p && f.off >= b.Off2 && f.off < b.Off2+b.Size {
				found = true
			}
		}
	})
	return found
}

// materialize emits the remote write-backs for the stopped floats just
// before index idx of seq, rewriting their stores to shadow updates.
// Returns the number of statements inserted.
func (s *sel) materialize(floats []*wfloat, seq *simple.Seq, idx int) int {
	if len(floats) == 0 {
		return 0
	}
	sort.Slice(floats, func(i, j int) bool {
		if floats[i].p.Name != floats[j].p.Name {
			return floats[i].p.Name < floats[j].p.Name
		}
		return floats[i].off < floats[j].off
	})

	var ins []simple.Stmt

	// Identify blocked groups: floats sharing one clean bcomm shadow.
	byBComm := make(map[*simple.Var][]*wfloat)
	var rest []*wfloat
	for _, f := range floats {
		if !f.sh.valid() && !f.moved && len(f.labels) == 1 {
			// Never moved and no shadow mandated: leave the original
			// remote store in place.
			continue
		}
		if !f.sh.valid() {
			// Needs a fresh comm shadow.
			f.sh = shadow{v: s.newCommForStore(f), field: f.field}
		}
		s.rewriteStores(f)
		if f.sh.blk && s.clean[s.fillOf(f.sh.v)] {
			byBComm[f.sh.v] = append(byBComm[f.sh.v], f)
		} else {
			rest = append(rest, f)
		}
	}

	var bcs []*simple.Var
	for bc := range byBComm {
		bcs = append(bcs, bc)
	}
	sort.Slice(bcs, func(i, j int) bool { return bcs[i].Name < bcs[j].Name })
	for _, bc := range bcs {
		group := byBComm[bc]
		// The blocked write-back covers the contiguous span of the written
		// fields; every word in it is fresh (filled, then updated by the
		// redirected stores, and invalidated on no path since: clean).
		wmin, wmax := group[0].off, group[0].off
		for _, f := range group {
			if f.off < wmin {
				wmin = f.off
			}
			if f.off > wmax {
				wmax = f.off
			}
		}
		fi := s.fills[s.fillOf(bc)]
		spanOK := wmin >= fi.off && wmax < fi.off+fi.size
		if spanOK && len(group) >= s.opt.BlockThreshold && !s.opt.NoBlocking && s.inPar == 0 {
			blk := s.fn.NewBasic(simple.KBlkWrite)
			blk.P = group[0].p
			blk.Local = bc
			blk.Off = wmin
			blk.Size = wmax + 1 - wmin
			s.rw.Register(blk)
			ins = append(ins, blk)
			s.fr.BlockedWrites++
		} else {
			rest = append(rest, group...)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].p.Name != rest[j].p.Name {
			return rest[i].p.Name < rest[j].p.Name
		}
		return rest[i].off < rest[j].off
	})
	for _, f := range rest {
		put := s.fn.NewBasic(simple.KPutF)
		put.P = f.p
		put.Field = f.field
		put.Off = f.off
		if f.sh.blk {
			put.Local = f.sh.v
			put.Off2 = f.sh.off
		} else {
			put.Val = simple.VarAtom{V: f.sh.v}
		}
		s.rw.Register(put)
		ins = append(ins, put)
		s.fr.PipelinedWrites++
	}
	insertStmts(seq, idx, ins)
	return len(ins)
}

// newCommForStore creates a scalar shadow typed like the stored value.
func (s *sel) newCommForStore(f *wfloat) *simple.Var {
	var t earthc.Type = &earthc.PrimType{Kind: earthc.Int}
	for l := range f.labels {
		b := s.fn.Basics[l]
		if b.Kind != simple.KAssign {
			continue
		}
		if arv, ok := b.Rhs.(simple.AtomRV); ok {
			switch a := arv.A.(type) {
			case simple.VarAtom:
				t = a.V.Type
			case simple.FloatAtom:
				t = &earthc.PrimType{Kind: earthc.Double}
			case simple.NullAtom:
				t = &earthc.PtrType{Elem: &earthc.PrimType{Kind: earthc.Void}}
			}
		}
		break
	}
	s.ncomm++
	v := &simple.Var{Name: fmt.Sprintf("comm%d", s.ncomm), Type: t,
		Kind: simple.VarComm, Size: 1}
	return s.fn.AddLocal(v)
}

// rewriteStores redirects every store of the float to the shadow.
func (s *sel) rewriteStores(f *wfloat) {
	for l := range f.labels {
		b := s.fn.Basics[l]
		if b.Kind != simple.KAssign {
			continue
		}
		if _, ok := b.Lhs.(simple.StoreLV); !ok {
			continue // already rewritten (shared labels across merges)
		}
		b.Lhs = f.sh.storeLV()
		s.fr.WritesRewritten++
		s.rw.Register(b)
	}
}
