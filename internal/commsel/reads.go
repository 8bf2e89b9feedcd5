package commsel

import (
	"slices"
	"sort"

	"repro/internal/earthc"
	"repro/internal/placement"
	"repro/internal/simple"
)

func structRefType(name string) earthc.Type {
	return &earthc.StructRef{Name: name}
}

// pointeeLayout returns the struct layout behind pointer variable p, or nil.
func (s *sel) pointeeLayout(p *simple.Var) *simple.StructLayout {
	pt, ok := p.Type.(*earthc.PtrType)
	if !ok {
		return nil
	}
	sr, ok := pt.Elem.(*earthc.StructRef)
	if !ok {
		return nil
	}
	return s.prog.Structs[sr.Name]
}

// frame is one level of the placement stack used by the dereference-safety
// scan: the statement sequence and the index of the statement before which
// the communication would be inserted.
type frame struct {
	seq *simple.Seq
	idx int
}

// readsSeq performs top-down earliest-placement selection over a sequence
// (the driving traversal of §4.2). s.stack holds the frames of the enclosing
// constructs; each level pushes its own frame and pops it on return.
func (s *sel) readsSeq(seq *simple.Seq) {
	for i := 0; i < len(seq.Stmts); i++ {
		st := seq.Stmts[i]
		if set := s.pl.Reads[st]; set.Len() > 0 {
			s.stack = append(s.stack, frame{seq, i})
			ins := s.selectReadsAt(set, st)
			s.stack = s.stack[:len(s.stack)-1]
			if len(ins) > 0 {
				insertStmts(seq, i, ins)
				i += len(ins)
				st = seq.Stmts[i]
			}
		}
		s.descendReads(st, seq, i)
	}
}

func (s *sel) descendReads(st simple.Stmt, seq *simple.Seq, i int) {
	switch c := st.(type) {
	case *simple.Basic:
		return // nothing below
	case *simple.Seq:
		s.readsSeq(c)
		return
	}
	s.stack = append(s.stack, frame{seq, i + 1})
	switch c := st.(type) {
	case *simple.If:
		s.readsSeq(c.Then)
		s.readsSeq(c.Else)
	case *simple.Switch:
		for _, cc := range c.Cases {
			s.readsSeq(cc.Body)
		}
	case *simple.While:
		s.enterLoop(c)
		s.readsSeq(c.Eval)
		s.readsSeq(c.Body)
		s.exitLoop(c, c.Body)
	case *simple.Do:
		s.enterLoop(c)
		s.readsSeq(c.Body)
		s.readsSeq(c.Eval)
		s.exitLoop(c, c.Body)
	case *simple.Forall:
		s.readsSeq(c.Eval)
		s.readsHead(c)
		s.readsSeq(c.Body)
		s.readsSeq(c.Step)
	case *simple.Par:
		for _, arm := range c.Arms {
			s.readsSeq(arm)
		}
	}
	s.stack = s.stack[:len(s.stack)-1]
}

// readsHead selects, into the forall's Head, the step reads no body can
// kill: the get then leaves before the iteration is spawned, and the step
// copies its value. The step runs after every Head on every path, so its
// dereferences are what license the early one.
func (s *sel) readsHead(c *simple.Forall) {
	set := s.pl.ForallHeads[c]
	if set.Len() == 0 {
		return
	}
	s.stack = append(s.stack, frame{c.Step, 0}, frame{c.Head, 0})
	c.Head.Stmts = append(c.Head.Stmts, s.selectReadsAt(set, c.Head)...)
	s.stack = s.stack[:len(s.stack)-2]
}

// selectReadsAt implements the per-point candidate selection: take the
// RemoteReads set valid just before st, drop already-handled accesses,
// apply the frequency and dereference-safety criteria, then group by
// pointer and choose pipelined gets or a blocked fill.
func (s *sel) selectReadsAt(set placement.Set, st simple.Stmt) []simple.Stmt {
	type cand struct {
		t      *placement.Tuple
		labels []int
	}
	byPtr := make(map[*simple.Var][]cand)
	extraByPtr := make(map[*simple.Var][]cand) // sub-threshold-frequency tuples
	var ptrs []*simple.Var
	for _, t := range set.Tuples() {
		var labels []int
		for _, l := range t.Labels() {
			if !s.handledR[t.Loc][l] && !s.held[l] {
				labels = append(labels, l)
			}
		}
		if len(labels) == 0 {
			continue
		}
		if s.opt.NoReadMotion {
			// Only select the access belonging to st itself.
			if b, ok := st.(*simple.Basic); !ok || !containsLabel(labels, b.Label) {
				continue
			} else {
				labels = []int{b.Label}
			}
		}
		if t.Freq < 1 {
			// Not worth a pipelined get of its own, but if a block fill of
			// the same pointer fires anyway, this access rides along for
			// free (the paper: reading spurious fields is safe, and their
			// redirection costs nothing).
			if !s.opt.NoReadMotion {
				extraByPtr[t.P] = append(extraByPtr[t.P], cand{t: t, labels: labels})
			}
			continue
		}
		if !s.derefSafe(t.P) {
			continue
		}
		if byPtr[t.P] == nil {
			ptrs = append(ptrs, t.P)
		}
		byPtr[t.P] = append(byPtr[t.P], cand{t: t, labels: labels})
	}
	// An armed carry filled here adds its fields to q's group; a field q's
	// own reads already fetch, or would fetch only in a block, is promoted.
	if q, cts := s.carriedAt(st); len(cts) > 0 {
	carried:
		for _, ct := range cts {
			for _, c := range byPtr[q] {
				if c.t.Off == ct.Off {
					continue carried
				}
			}
			if i := slices.IndexFunc(extraByPtr[q], func(c cand) bool { return c.t.Off == ct.Off }); i >= 0 {
				byPtr[q] = append(byPtr[q], extraByPtr[q][i])
				extraByPtr[q] = slices.Delete(extraByPtr[q], i, i+1)
				continue
			}
			if byPtr[q] == nil {
				ptrs = append(ptrs, q)
			}
			byPtr[q] = append(byPtr[q], cand{t: ct})
		}
	}
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i].Name < ptrs[j].Name })

	var ins []simple.Stmt
	for _, p := range ptrs {
		group := byPtr[p]
		layout := s.pointeeLayout(p)
		// Total distinct fields reachable through p at this point: full
		// candidates plus low-frequency extras that a block would cover.
		all := append(append([]cand{}, group...), extraByPtr[p]...)
		sort.Slice(all, func(i, j int) bool { return all[i].t.Off < all[j].t.Off })
		needed := len(all)
		// The fill moves only the contiguous span covering the needed
		// fields (reading spurious fields inside the span is safe); field
		// clustering (internal/layout) moves hot fields together to
		// shrink this span — the paper's suggested further work.
		span := 0
		if needed > 0 {
			span = all[needed-1].t.Off + 1 - all[0].t.Off
		}
		// Under profile guidance (placement ran on measured frequencies)
		// the frequency sum of the full candidates is the expected number
		// of pipelined gets a block fill would replace; when that alone
		// reaches the threshold, blocking wins even with fewer distinct
		// fields. The rule is strictly additive: everything that blocks
		// statically still blocks.
		hotFreq := 0.0
		for _, c := range group {
			hotFreq += c.t.Freq
		}
		block := !s.opt.NoBlocking && layout != nil &&
			(needed >= s.opt.BlockThreshold ||
				(s.pl.Profiled && len(group) >= 2 &&
					hotFreq >= float64(s.opt.BlockThreshold))) &&
			span <= maxBlockWaste*needed
		if block {
			group = all
		}
		sort.Slice(group, func(i, j int) bool { return group[i].t.Off < group[j].t.Off })
		if block {
			base := group[0].t.Off
			end := base + span
			// RemoteFill (paper §4.2): extend the filled span over fields
			// the function stores through p, so every word a delayed
			// write-back covers is locally valid and the write can block.
			if sp, ok := s.storedSpans()[p]; ok {
				base = min(base, sp.lo)
				end = max(end, sp.hi)
			}
			span = end - base
			bcomm := s.newBComm(layout.Name, layout.Size)
			fill := s.fn.NewBasic(simple.KBlkRead)
			fill.P = p
			fill.Local = bcomm
			fill.Off = base
			fill.Size = span
			s.rw.Register(fill)
			s.fills = append(s.fills, bcommFill{buf: bcomm, p: p, off: base, size: span})
			ins = append(ins, fill)
			s.fr.BlockedReads++
			for _, c := range group {
				sh := shadow{v: bcomm, off: c.t.Off, field: c.t.Field, blk: true}
				s.commit(c.t, c.labels, sh)
				s.filled(st, p, c.t.Off, sh)
			}
		} else {
			for _, c := range group {
				// The shadow's type is the loaded field's type, taken from
				// any destination of the covered loads, or from the struct
				// for a carried field, which has none.
				var typ earthc.Type
				if dst := s.loadDst(c.labels); dst != nil {
					typ = dst.Type
				} else if len(c.labels) == 0 && layout != nil {
					typ = layout.FieldTypes[c.t.Field]
				}
				if typ == nil {
					continue
				}
				comm := s.newComm(typ)
				get := s.fn.NewBasic(simple.KGetF)
				get.Dst = comm
				get.P = p
				get.Field = c.t.Field
				get.Off = c.t.Off
				s.rw.Register(get)
				ins = append(ins, get)
				s.fr.PipelinedReads++
				sh := shadow{v: comm, field: c.t.Field}
				s.commit(c.t, c.labels, sh)
				s.filled(st, p, c.t.Off, sh)
			}
		}
	}
	return ins
}

// offSpan is a half-open word range [lo, hi).
type offSpan struct{ lo, hi int }

// storedSpans returns, per pointer, the span of offsets the function stores
// through it, computed on first use. Selection inserts no stores while it
// places reads, so one walk serves every fill of the function.
func (s *sel) storedSpans() map[*simple.Var]offSpan {
	if s.stored == nil {
		s.stored = make(map[*simple.Var]offSpan)
		simple.WalkBasics(s.fn.Body, func(b *simple.Basic) {
			if b.Kind != simple.KAssign {
				return
			}
			if stv, ok := b.Lhs.(simple.StoreLV); ok {
				sp, seen := s.stored[stv.P]
				if !seen {
					sp = offSpan{stv.Off, stv.Off + 1}
				}
				s.stored[stv.P] = offSpan{min(sp.lo, stv.Off), max(sp.hi, stv.Off+1)}
			}
		})
	}
	return s.stored
}

func containsLabel(labels []int, l int) bool {
	for _, x := range labels {
		if x == l {
			return true
		}
	}
	return false
}

// loadDst finds the destination variable of one of the covered loads, to
// size/type the comm temporary.
func (s *sel) loadDst(labels []int) *simple.Var {
	for _, l := range labels {
		b := s.fn.Basics[l]
		if b.Kind != simple.KAssign {
			continue
		}
		if lv, ok := b.Lhs.(simple.VarLV); ok {
			return lv.V
		}
	}
	return nil
}

// commit records a selection: hash the covered labels, bind shadows for the
// loads, and mandate shadow updates for stores the tuple floated across.
func (s *sel) commit(t *placement.Tuple, labels []int, sh shadow) {
	hs := s.handledR[t.Loc]
	if hs == nil {
		hs = make(map[int]bool)
		s.handledR[t.Loc] = hs
	}
	for i, l := range labels {
		hs[l] = true
		s.readShadow[l] = sh
		if i > 0 {
			s.fr.ReadsEliminated++
		}
	}
	for _, w := range t.CrossedW {
		s.storeShadow[w] = sh
	}
}

// --------------------------------------------------- dereference safety ---

// derefSafe reports whether, starting at the placement point described by
// s.stack, the original program dereferences p on all forward paths before
// p can change (footnote 2 of the paper: this licenses inserting an early
// dereference).
func (s *sel) derefSafe(p *simple.Var) bool {
	for level := len(s.stack) - 1; level >= 0; level-- {
		f := s.stack[level]
		switch placement.DerefScan(s.rw, f.seq.Stmts[f.idx:], p) {
		case placement.ScanFound:
			return true
		case placement.ScanKilled:
			return false
		}
		// Fell off this sequence: continue after the enclosing construct.
	}
	return false
}
