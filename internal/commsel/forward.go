package commsel

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/earthc"
	"repro/internal/simple"
)

// Forwarding through pointer copies (beyond the paper). The paper's hash
// table removes a read only when an earlier selected read names the same
// pointer and field, so after "q = p" a read of q->f is fetched again even
// where a local word (a comm temp or a bcomm buffer word) already holds
// p->f. forwardReads walks the function forwards after read selection and
// tracks facts "local word w holds (p, off)":
//
//   - a get "commN = p->f" makes commN hold (p, f); a block fill makes each
//     one-word field of the buffer hold (p, field);
//   - at "q = p", each fact (p, off) -> w yields (q, off) -> fwdN, where
//     fwdN is one scalar per (q, off) filled by a copy "fwdN = w" placed
//     right after the assignment (made only for offsets a candidate get
//     reads, and kept only where some forwarded read uses it);
//   - a fact dies when its pointer is rebound, when its word is refilled or
//     written, and when (pointer, off) is written, directly or, per rwsets
//     and callee summaries, through an alias;
//   - "q = NULL" makes the facts of q "hold, or q is NULL"; a q == NULL or
//     q != NULL test makes them "hold" on the non-null arm, and so does a
//     get or a fill through q;
//   - paths meet by intersection; a loop iterates to a fixpoint; no fact is
//     made inside a {^ ^} arm or a forall body, and a fact from before one
//     survives into it and past it only if nothing in the construct kills it.
//
// A get "commN = q->f" whose fact (q, f) -> fwdN holds on every path, with
// q non-null, is deleted, and the loads selection redirected to commN read
// fwdN instead; a temporary or local whose only use follows in the same
// sequence takes fwdN in that use, so no move is added. A comm temp that a
// crossed store must update is never forwarded.

// fkey names a remote word: the pointer and the word offset.
type fkey struct {
	p   *simple.Var
	off int
}

// nullOff is the offset of an entry that records its pointer as NULL.
const nullOff = -1

// fentry is one fact of a path: word w holds (k.p, k.off), only where k.p
// is not NULL when orNull; or, when k.off is nullOff, k.p is NULL.
type fentry struct {
	k      fkey
	w      shadow
	orNull bool
}

// fstate is the walk's state on one path, a short list of facts; dead when
// no execution takes the path (a pointer known NULL tested non-null).
type fstate struct {
	e    []fentry
	dead bool
}

func (st *fstate) find(k fkey) int {
	for i := range st.e {
		if st.e[i].k == k {
			return i
		}
	}
	return -1
}

func (st *fstate) isNull(p *simple.Var) bool { return st.find(fkey{p, nullOff}) >= 0 }

func (st *fstate) set(e fentry) {
	if i := st.find(e.k); i >= 0 {
		st.e[i] = e
	} else {
		st.e = append(st.e, e)
	}
}

// filter keeps the entries keep accepts; keep may update them.
func (st *fstate) filter(keep func(*fentry) bool) {
	out := st.e[:0]
	for i := range st.e {
		if e := st.e[i]; keep(&e) {
			out = append(out, e)
		}
	}
	st.e = out
}

// meet keeps in st what holds on both st's path and o's: a fact on one path
// survives as "holds or NULL" where the other path has the pointer NULL.
func (st *fstate) meet(o *fstate) {
	if o.dead {
		return
	}
	if st.dead {
		st.e, st.dead = append(st.e[:0], o.e...), false
		return
	}
	n := len(st.e)
	for _, b := range o.e {
		if b.k.off != nullOff && st.find(b.k) < 0 && st.isNull(b.k.p) {
			b.orNull = true
			st.e = append(st.e, b)
		}
	}
	i := 0
	st.filter(func(a *fentry) bool {
		if i++; i > n {
			return true
		}
		j := o.find(a.k)
		switch {
		case a.k.off == nullOff:
			return j >= 0
		case j >= 0 && o.e[j].w == a.w:
			a.orNull = a.orNull || o.e[j].orNull
		case j < 0 && o.isNull(a.k.p):
			a.orNull = true
		default:
			return false
		}
		return true
	})
}

func (st *fstate) equal(o *fstate) bool {
	if st.dead != o.dead || len(st.e) != len(o.e) {
		return false
	}
	for _, a := range st.e {
		if j := o.find(a.k); j < 0 || o.e[j] != a {
			return false
		}
	}
	return true
}

// refine applies the knowledge that cond evaluated to taken.
func (st *fstate) refine(c simple.Cond, taken bool) {
	q := simple.AtomVar(c.X)
	if _, isNull := c.Y.(simple.NullAtom); q == nil || !isNull || c.Op != earthc.Eq && c.Op != earthc.Ne {
		return
	}
	if (c.Op == earthc.Eq) == taken {
		st.set(fentry{k: fkey{q, nullOff}})
		return
	}
	if st.isNull(q) {
		st.dead = true
		return
	}
	st.nonNull(q)
}

// nonNull records that q is not NULL.
func (st *fstate) nonNull(q *simple.Var) {
	st.filter(func(e *fentry) bool {
		if e.k.p == q {
			e.orNull = false
		}
		return e.k != fkey{q, nullOff}
	})
}

// forwarder is the forwarding walk, run over one function at a time.
type forwarder struct {
	s *sel
	// loads lists, per comm temp a forwardable get fills, the loads that
	// selection redirected to it; a comm temp missing here is not a
	// candidate.
	loads map[*simple.Var][]*simple.Basic
	// copies holds the scalar per (q, off), created on first use and added
	// to the function only if a forwarded read uses it; isCopy is its
	// inverse.
	copies map[fkey]*simple.Var
	isCopy map[*simple.Var]fkey
	// sites records, per assignment "q = p", the copies it would make: the
	// copy var and its source word, at the walk's last visit.
	sites map[*simple.Basic][]copySite
	// gets maps each get the last visit found forwardable to its copy var.
	gets map[*simple.Basic]*simple.Var
	// offs and ptrs are the offsets and pointers the walk keeps facts
	// about (relevant); fetched and pairs are relevant's scratch.
	offs    []int
	ptrs    []*simple.Var
	fetched []*simple.Var
	pairs   [][2]*simple.Var
	// noGen counts the {^ ^} arms and forall bodies around the walk.
	noGen int
	// free holds released states' buffers for clone to reuse.
	free [][]fentry
}

func newForwarder() *forwarder {
	return &forwarder{
		loads:  make(map[*simple.Var][]*simple.Basic),
		copies: make(map[fkey]*simple.Var),
		isCopy: make(map[*simple.Var]fkey),
		sites:  make(map[*simple.Basic][]copySite),
		gets:   make(map[*simple.Basic]*simple.Var),
	}
}

// clone copies st into a buffer a released state left, if any.
func (f *forwarder) clone(st *fstate) *fstate {
	var buf []fentry
	if n := len(f.free); n > 0 {
		buf, f.free = f.free[n-1], f.free[:n-1]
	}
	return &fstate{e: append(buf, st.e...), dead: st.dead}
}

// release hands back the buffers of states the walk no longer uses.
func (f *forwarder) release(sts ...*fstate) {
	for _, st := range sts {
		f.free = append(f.free, st.e[:0])
	}
}

// copySite is one copy "v = src" after an assignment.
type copySite struct {
	v   *simple.Var
	off int
	src shadow
}

// forwardReads runs the walk over s's function and rewrites what it found.
// The forwarder's tables and buffers are reused from function to function.
func (f *forwarder) forwardReads(s *sel) {
	f.s = s
	clear(f.loads)
	clear(f.copies)
	clear(f.isCopy)
	clear(f.sites)
	clear(f.gets)
	f.offs, f.ptrs, f.pairs = f.offs[:0], f.ptrs[:0], f.pairs[:0]
	for label, sh := range s.readShadow {
		if sh.blk || slices.Contains(s.pinned, sh.v) || f.loads[sh.v] == nil && f.crossed(sh.v) {
			continue
		}
		b := s.fn.Basics[label]
		if rv, ok := b.Rhs.(simple.AtomRV); ok && b.Kind == simple.KAssign && simple.AtomVar(rv.A) == sh.v {
			f.loads[sh.v] = append(f.loads[sh.v], b)
		} else {
			f.loads[sh.v] = append(f.loads[sh.v], nil)
		}
	}
	for v, lds := range f.loads {
		if slices.Contains(lds, nil) {
			delete(f.loads, v)
		}
	}
	if len(f.loads) == 0 || !f.relevant() {
		return
	}
	f.seq(s.fn.Body, &fstate{})
	if len(f.gets) > 0 {
		f.apply()
	}
}

// relevant fills offs with the offsets the candidate gets read, and ptrs
// with their pointers and every pointer copied into one of those, directly
// or through other copies: the walk keeps facts only about these. It
// reports whether a pointer some get or fill reads through is copied into
// one of them; most functions have none, and the walk is skipped.
func (f *forwarder) relevant() bool {
	f.fetched = f.fetched[:0]
	simple.WalkBasics(f.s.fn.Body, func(b *simple.Basic) {
		switch b.Kind {
		case simple.KGetF:
			f.fetched = appendNew(f.fetched, b.P)
			if f.loads[b.Dst] != nil {
				f.ptrs = appendNew(f.ptrs, b.P)
				f.offs = appendNew(f.offs, b.Off)
			}
		case simple.KBlkRead:
			f.fetched = appendNew(f.fetched, b.P)
		case simple.KAssign:
			lv, ok := b.Lhs.(simple.VarLV)
			rv, ok2 := b.Rhs.(simple.AtomRV)
			if p := simple.AtomVar(rv.A); ok && ok2 && p != nil && p != lv.V && lv.V.IsPtr() {
				f.pairs = append(f.pairs, [2]*simple.Var{lv.V, p})
			}
		}
	})
	// Close ptrs backwards and fetched forwards over the copies.
	for grew := true; grew; {
		grew = false
		for _, c := range f.pairs {
			if slices.Contains(f.ptrs, c[0]) && !slices.Contains(f.ptrs, c[1]) {
				f.ptrs = append(f.ptrs, c[1])
				grew = true
			}
			if slices.Contains(f.fetched, c[1]) && !slices.Contains(f.fetched, c[0]) {
				f.fetched = append(f.fetched, c[0])
				grew = true
			}
		}
	}
	for _, c := range f.pairs {
		if slices.Contains(f.ptrs, c[0]) && slices.Contains(f.fetched, c[1]) {
			return true
		}
	}
	return false
}

// appendNew appends x to s unless s holds it.
func appendNew[T comparable](s []T, x T) []T {
	if slices.Contains(s, x) {
		return s
	}
	return append(s, x)
}

// crossed reports whether a store the read was hoisted across must update
// the comm temp v.
func (f *forwarder) crossed(v *simple.Var) bool {
	for _, sh := range f.s.storeShadow {
		if sh.v == v {
			return true
		}
	}
	return false
}

func (f *forwarder) seq(seq *simple.Seq, st *fstate) {
	for _, x := range seq.Stmts {
		f.stmt(x, st)
	}
}

// stmt advances st over x.
func (f *forwarder) stmt(x simple.Stmt, st *fstate) {
	switch c := x.(type) {
	case *simple.Basic:
		f.basic(c, st)
	case *simple.Seq:
		f.seq(c, st)
	case *simple.If:
		t := f.clone(st)
		t.refine(c.Cond, true)
		f.seq(c.Then, t)
		st.refine(c.Cond, false)
		f.seq(c.Else, st)
		st.meet(t)
		f.release(t)
	case *simple.Switch:
		pre := f.clone(st)
		out := &fstate{dead: true}
		exhaustive := false
		for _, cc := range c.Cases {
			exhaustive = exhaustive || cc.Vals == nil
			cs := f.clone(pre)
			f.seq(cc.Body, cs)
			out.meet(cs)
			f.release(cs)
		}
		if !exhaustive {
			out.meet(pre)
		}
		f.release(pre, st)
		*st = *out
	case *simple.While:
		pre, in := f.clone(st), f.clone(st)
		for {
			cur := f.clone(in)
			f.seq(c.Eval, cur)
			body := f.clone(cur)
			body.refine(c.Cond, true)
			f.seq(c.Body, body)
			body.meet(pre)
			done := body.equal(in)
			f.release(in)
			if done {
				cur.refine(c.Cond, false)
				f.release(pre, body, st)
				*st = *cur
				return
			}
			f.release(cur)
			in = body
		}
	case *simple.Do:
		pre, in := f.clone(st), f.clone(st)
		for {
			cur := f.clone(in)
			f.seq(c.Body, cur)
			f.seq(c.Eval, cur)
			back := f.clone(cur)
			back.refine(c.Cond, true)
			back.meet(pre)
			done := back.equal(in)
			f.release(in)
			if done {
				cur.refine(c.Cond, false)
				f.release(pre, back, st)
				*st = *cur
				return
			}
			f.release(cur)
			in = back
		}
	case *simple.Forall, *simple.Par:
		// Iterations and arms run beside each other: inside, only what
		// nothing in the construct kills is known, and nothing is made.
		simple.WalkBasics(x, func(b *simple.Basic) { f.kill(b, st) })
		f.noGen++
		simple.EachSubseq(x, func(sub *simple.Seq) {
			arm := f.clone(st)
			f.seq(sub, arm)
			f.release(arm)
		})
		f.noGen--
	}
}

// basic decides a candidate get, then advances st over b: the facts b
// makes are taken from the state before it, the kills applied, then the
// new facts added.
func (f *forwarder) basic(b *simple.Basic, st *fstate) {
	if b.Kind == simple.KGetF && f.loads[b.Dst] != nil {
		if i := st.find(fkey{b.P, b.Off}); i >= 0 && !st.dead && !st.e[i].orNull && f.copyOf(st.e[i].w.v) {
			f.gets[b] = st.e[i].w.v
		} else {
			delete(f.gets, b)
		}
	}
	delete(f.sites, b)
	var gbuf [8]fentry
	gens := gbuf[:0]
	var nullAfter, nonNull *simple.Var
	if f.noGen == 0 {
		switch b.Kind {
		case simple.KAssign:
			lv, ok := b.Lhs.(simple.VarLV)
			rv, ok2 := b.Rhs.(simple.AtomRV)
			if !ok || !ok2 || !lv.V.IsPtr() || lv.V.Shared || lv.V.Kind == simple.VarGlobal {
				break
			}
			q := lv.V
			if !slices.Contains(f.ptrs, q) {
				break
			}
			if _, isNull := rv.A.(simple.NullAtom); isNull {
				nullAfter = q
				break
			}
			p := simple.AtomVar(rv.A)
			if p == nil || p == q {
				break
			}
			var sites []copySite
			for _, e := range st.e {
				if e.k.p != p {
					continue
				}
				if e.k.off == nullOff {
					nullAfter = q
				} else if t := f.wordType(e.w); t != nil {
					cs := copySite{v: f.copyVar(fkey{q, e.k.off}, t), off: e.k.off, src: e.w}
					sites = append(sites, cs)
					gens = append(gens, fentry{fkey{q, e.k.off}, shadow{v: cs.v}, e.orNull})
				}
			}
			slices.SortFunc(sites, func(a, b copySite) int { return a.off - b.off })
			if len(sites) > 0 {
				f.sites[b] = sites
			}
		case simple.KGetF:
			// A word that already holds (p, off) keeps the fact: a forwarded
			// get is deleted, and its comm temp holds nothing.
			k := fkey{b.P, b.Off}
			if !f.tracked(k) {
				break
			}
			if i := st.find(k); i < 0 || st.e[i].w.v == b.Dst {
				gens = append(gens, fentry{k, shadow{v: b.Dst, field: b.Field}, false})
			}
			nonNull = b.P
		case simple.KBlkRead:
			if l := f.s.pointeeLayout(b.P); l != nil {
				for _, name := range l.Fields {
					k := fkey{b.P, l.Offsets[name]}
					if l.FieldSizes[name] != 1 || k.off < b.Off || k.off >= b.Off+b.Size || !f.tracked(k) {
						continue
					}
					if i := st.find(k); i < 0 || st.e[i].w.v == b.Local {
						gens = append(gens, fentry{k, shadow{v: b.Local, off: k.off, field: name, blk: true}, false})
					}
				}
			}
			nonNull = b.P
		}
	}
	f.kill(b, st)
	for _, g := range gens {
		st.set(g)
	}
	if nullAfter != nil {
		st.set(fentry{k: fkey{nullAfter, nullOff}})
	}
	if nonNull != nil {
		st.nonNull(nonNull)
	}
}

// tracked reports whether the walk keeps facts about k.
func (f *forwarder) tracked(k fkey) bool {
	return slices.Contains(f.ptrs, k.p) && slices.Contains(f.offs, k.off)
}

// kill removes from st every fact b may falsify.
func (f *forwarder) kill(b *simple.Basic, st *fstate) {
	// An assignment to a variable, a get and a block fill write one frame
	// variable and no memory; a return writes nothing.
	var v *simple.Var
	switch lv, ok := b.Lhs.(simple.VarLV); {
	case ok && b.Kind == simple.KAssign:
		v = lv.V
	case b.Kind == simple.KGetF:
		v = b.Dst
	case b.Kind == simple.KBlkRead:
		v = b.Local
	case b.Kind == simple.KReturn:
		return
	}
	if v != nil {
		st.filter(func(e *fentry) bool { return e.k.p != v && e.w.v != v })
		return
	}
	rw := f.s.rw
	st.filter(func(e *fentry) bool {
		if e.k.off == nullOff {
			return !rw.VarWritten(e.k.p, b)
		}
		return !rw.VarWritten(e.k.p, b) && !writesLocal(b, e.w.v) && !directStore(b, e.k) &&
			!rw.AccessedViaAlias(e.k.p, e.k.off, b, true)
	})
}

// directStore reports whether b stores to k's word through k's pointer.
func directStore(b *simple.Basic, k fkey) bool {
	stv, ok := b.Lhs.(simple.StoreLV)
	return ok && b.Kind == simple.KAssign && stv.P == k.p && stv.Off == k.off
}

// writesLocal reports whether b, a statement kill's fast path leaves to
// the full test, writes any word of the frame variable v.
func writesLocal(b *simple.Basic, v *simple.Var) bool {
	if lv, ok := b.Lhs.(simple.LocalStoreLV); ok && b.Kind == simple.KAssign {
		return lv.Base == v
	}
	return b.Dst == v
}

// copyVar returns the scalar that copies (q, off), creating it unnamed.
func (f *forwarder) copyVar(k fkey, t earthc.Type) *simple.Var {
	v := f.copies[k]
	if v == nil {
		v = &simple.Var{Kind: simple.VarTemp, Type: t, Size: 1}
		f.copies[k] = v
		f.isCopy[v] = k
	}
	return v
}

// copyOf reports whether v is one of the walk's copies.
func (f *forwarder) copyOf(v *simple.Var) bool {
	_, ok := f.isCopy[v]
	return ok
}

// apply rewrites the function: the copies the forwarded gets need are
// added after their assignments, the gets deleted, and their loads read
// the copies.
func (f *forwarder) apply() {
	s := f.s
	// The copies to make: those the forwarded gets read, and the copies
	// those are made from.
	used := make(map[*simple.Var]bool)
	for _, v := range f.gets {
		used[v] = true
	}
	for grew := true; grew; {
		grew = false
		for _, sites := range f.sites {
			for _, cs := range sites {
				if used[cs.v] && f.copyOf(cs.src.v) && !used[cs.src.v] {
					used[cs.src.v] = true
					grew = true
				}
			}
		}
	}
	vars := make([]*simple.Var, 0, len(used))
	for v := range used {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool {
		a, b := f.isCopy[vars[i]], f.isCopy[vars[j]]
		if a.p.Name != b.p.Name {
			return a.p.Name < b.p.Name
		}
		return a.off < b.off
	})
	for i, v := range vars {
		v.Name = fmt.Sprintf("fwd%d", i+1)
		s.fn.AddLocal(v)
	}
	assigns := make([]*simple.Basic, 0, len(f.sites))
	for b := range f.sites {
		assigns = append(assigns, b)
	}
	sort.Slice(assigns, func(i, j int) bool { return assigns[i].Label < assigns[j].Label })
	after := make(map[*simple.Basic][]simple.Stmt)
	for _, b := range assigns {
		for _, cs := range f.sites[b] {
			if !used[cs.v] {
				continue
			}
			cp := s.fn.NewBasic(simple.KAssign)
			cp.Lhs = simple.VarLV{V: cs.v}
			cp.Rhs = cs.src.loadRV()
			s.rw.Register(cp)
			after[b] = append(after[b], cp)
		}
	}
	var loads []*simple.Basic
	for get, v := range f.gets {
		for _, ld := range f.loads[get.Dst] {
			ld.Rhs = simple.AtomRV{A: simple.VarAtom{V: v}}
			s.rw.Register(ld)
			loads = append(loads, ld)
		}
		s.fr.PipelinedReads--
		s.fr.ReadsEliminated++
	}
	dropped := make(map[*simple.Basic]bool)
	rewriteSeqs(s.fn.Body, func(seq *simple.Seq) {
		out := seq.Stmts[:0:0]
		for _, x := range seq.Stmts {
			b, _ := x.(*simple.Basic)
			if f.gets[b] != nil {
				continue
			}
			out = append(out, x)
			out = append(out, after[b]...)
		}
		seq.Stmts = out
	})
	sort.Slice(loads, func(i, j int) bool { return loads[i].Label < loads[j].Label })
	for _, ld := range loads {
		if f.substitute(ld) {
			dropped[ld] = true
		}
	}
	if len(dropped) > 0 {
		rewriteSeqs(s.fn.Body, func(seq *simple.Seq) {
			seq.Stmts = slices.DeleteFunc(seq.Stmts, func(x simple.Stmt) bool {
				b, ok := x.(*simple.Basic)
				return ok && dropped[b]
			})
		})
	}
}

// wordType is the type of the value a local word holds.
func (f *forwarder) wordType(w shadow) earthc.Type {
	if !w.blk {
		return w.v.Type
	}
	if sr, ok := w.v.Type.(*earthc.StructRef); ok {
		if l := f.s.prog.Structs[sr.Name]; l != nil {
			return l.FieldTypes[w.field]
		}
	}
	return nil
}

// rewriteSeqs calls fn on every sequence of the subtree, children first.
func rewriteSeqs(seq *simple.Seq, fn func(*simple.Seq)) {
	for _, x := range seq.Stmts {
		simple.EachSubseq(x, func(sub *simple.Seq) { rewriteSeqs(sub, fn) })
	}
	fn(seq)
}

// substitute folds the load "t = fwdN" into the one use of the local t
// when that use is an operand of a later assignment, or the condition of a
// later if, in the same sequence and nothing between them mentions fwdN; it
// reports whether the load can go.
func (f *forwarder) substitute(ld *simple.Basic) bool {
	lv, ok := ld.Lhs.(simple.VarLV)
	if !ok || lv.V.Kind != simple.VarTemp && lv.V.Kind != simple.VarLocal || lv.V.Shared || lv.V.Size > 1 {
		return false
	}
	t, v := lv.V, simple.AtomVar(ld.Rhs.(simple.AtomRV).A)
	// t is mentioned twice: by ld and by its use.
	var seq *simple.Seq
	idx, n := -1, 0
	rewriteSeqs(f.s.fn.Body, func(sq *simple.Seq) {
		for i, x := range sq.Stmts {
			if x == simple.Stmt(ld) {
				seq, idx = sq, i
			}
			if simple.OwnMentions(x, t) {
				n++
			}
		}
	})
	if n != 2 || seq == nil {
		return false
	}
	sub := func(a simple.Atom) simple.Atom {
		if simple.AtomVar(a) == t {
			return simple.VarAtom{V: v}
		}
		return a
	}
	for _, x := range seq.Stmts[idx+1:] {
		switch use := x.(type) {
		case *simple.Basic:
			if !simple.Mentions(use, t) {
				break
			}
			if use.Kind != simple.KAssign {
				return false
			}
			old := use.Rhs
			switch rv := use.Rhs.(type) {
			case simple.AtomRV:
				use.Rhs = simple.AtomRV{A: sub(rv.A)}
			case simple.UnaryRV:
				use.Rhs = simple.UnaryRV{Op: rv.Op, X: sub(rv.X)}
			case simple.BinaryRV:
				use.Rhs = simple.BinaryRV{Op: rv.Op, X: sub(rv.X), Y: sub(rv.Y)}
			}
			if simple.Mentions(use, t) {
				use.Rhs = old
				return false
			}
			f.s.rw.Register(use)
			return true
		case *simple.If:
			if simple.OwnMentions(use, t) {
				use.Cond.X, use.Cond.Y = sub(use.Cond.X), sub(use.Cond.Y)
				return true
			}
		}
		if simple.Mentions(x, t) || simple.Mentions(x, v) {
			return false
		}
	}
	return false
}
