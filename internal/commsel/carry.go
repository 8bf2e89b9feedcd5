package commsel

import (
	"slices"

	"repro/internal/placement"
	"repro/internal/simple"
)

// Loop-carried reads (see placement.Carry). Placement puts a carried
// loop-top tuple (p, f) once before the loop; the loads it covers then
// consume the shadow its selection fills there, the head shadow. At q's
// fill the iteration fetches q->f along with q's other fields, and right
// after the latch a copy "head = q's shadow" refills the head shadow for the
// next iteration, so each element is fetched once. The copies write frame
// words only; the forwarding walk and the write walk see them as they see
// any local assignment (rwsets kills), and neither forwards nor blocks
// through a comm temp a copy reads or writes.
//
// A carry fires where q's group at the fill has a candidate of its own
// (frequency at least 1; placement has already shown q dereferenced on
// every path from there), so the fill happens anyway and only widens.
// Where it does not fire, the head loads are held back until selection
// enters the loop, and the loop is selected as without the rule. A field
// whose head loads no selection above the loop took (its entry read was
// not deref-safe there, as in a while loop that may run zero times) is not
// carried either: its loads are selected inside the loop as before.

// carryState is selection's view of one carry in the current function.
type carryState struct {
	c     *placement.Carry
	fires bool
	// armed is set when selection enters the loop and some head load was
	// redirected above it; heads holds, per carried tuple, the shadows its
	// loads were redirected to (none: that field is not carried), and fill
	// the shadow of q->f the fill made.
	armed bool
	heads [][]shadow
	fill  []shadow
}

// planCarries decides, before selection, which of the function's carries
// fire, and holds back the head loads of the others.
func (s *sel) planCarries() {
	for _, c := range s.pl.Carries[s.fn] {
		cs := &carryState{c: c, fires: s.carryFires(c)}
		s.carries = append(s.carries, cs)
		if cs.fires {
			continue
		}
		if s.held == nil {
			s.held = make(map[int]bool)
		}
		for _, h := range c.Heads {
			for _, l := range h.D {
				s.held[l] = true
			}
		}
	}
}

// carryFires reports whether q's group at the fill has a candidate besides
// the carried fields.
func (s *sel) carryFires(c *placement.Carry) bool {
	return slices.ContainsFunc(s.pl.Reads[c.Fill].Tuples(), func(t *placement.Tuple) bool {
		return t.P == c.Q && t.Freq >= 1
	})
}

// enterLoop releases the held head loads of loop and arms each firing
// carry whose head loads were redirected above it.
func (s *sel) enterLoop(loop simple.Stmt) {
	for _, cs := range s.carries {
		if cs.c.Loop != loop {
			continue
		}
		if !cs.fires {
			for _, h := range cs.c.Heads {
				for _, l := range h.D {
					delete(s.held, l)
				}
			}
			continue
		}
		cs.heads = make([][]shadow, len(cs.c.Heads))
		cs.fill = make([]shadow, len(cs.c.Heads))
		for i, h := range cs.c.Heads {
			for _, l := range h.D {
				if sh, ok := s.readShadow[l]; ok && !slices.Contains(cs.heads[i], sh) {
					cs.heads[i] = append(cs.heads[i], sh)
					cs.armed = true
				}
			}
		}
	}
}

// carriedAt returns the fields q's group must fetch at st for the armed
// carries filled there: a tuple per field, with no loads of its own.
func (s *sel) carriedAt(st simple.Stmt) (q *simple.Var, out []*placement.Tuple) {
	for _, cs := range s.carries {
		if !cs.armed || cs.c.Fill != st {
			continue
		}
		q = cs.c.Q
		for i, h := range cs.c.Heads {
			if len(cs.heads[i]) > 0 {
				out = append(out, &placement.Tuple{P: q, Field: h.Field, Off: h.Off, Freq: 1})
			}
		}
	}
	return q, out
}

// filled records that the fill at st put q->off in sh.
func (s *sel) filled(st simple.Stmt, q *simple.Var, off int, sh shadow) {
	for _, cs := range s.carries {
		if !cs.armed || cs.c.Fill != st || cs.c.Q != q {
			continue
		}
		for i, h := range cs.c.Heads {
			if h.Off == off && len(cs.heads[i]) > 0 {
				cs.fill[i] = sh
			}
		}
	}
}

// exitLoop adds, right after each armed carry's latch in body, the copies
// that refill the head shadows from the fill's.
func (s *sel) exitLoop(loop simple.Stmt, body *simple.Seq) {
	for _, cs := range s.carries {
		if !cs.armed || cs.c.Loop != loop {
			continue
		}
		var copies []simple.Stmt
		for i := range cs.c.Heads {
			for _, head := range cs.heads[i] {
				src := cs.fill[i]
				if !src.valid() {
					panic("commsel: carried field not fetched at its fill in " + s.fn.Name)
				}
				cp := s.fn.NewBasic(simple.KAssign)
				cp.Lhs = head.storeLV()
				cp.Rhs = src.loadRV()
				s.rw.Register(cp)
				copies = append(copies, cp)
				for _, sh := range []shadow{head, src} {
					if !sh.blk {
						s.pinned = append(s.pinned, sh.v)
					}
				}
			}
			if len(cs.heads[i]) > 0 {
				s.fr.CarriedReads++
			}
		}
		insertStmts(body, slices.Index(body.Stmts, simple.Stmt(cs.c.Latch))+1, copies)
	}
}
