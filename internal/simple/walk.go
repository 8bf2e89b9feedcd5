package simple

// Subseqs returns the direct child sequences of a statement, in execution
// order. Basic statements have none.
func Subseqs(s Stmt) []*Seq {
	switch st := s.(type) {
	case *Seq:
		return []*Seq{st}
	case *If:
		return []*Seq{st.Then, st.Else}
	case *Switch:
		out := make([]*Seq, len(st.Cases))
		for i, cc := range st.Cases {
			out[i] = cc.Body
		}
		return out
	case *While:
		return []*Seq{st.Eval, st.Body}
	case *Do:
		return []*Seq{st.Body, st.Eval}
	case *Forall:
		return []*Seq{st.Eval, st.Body, st.Step}
	case *Par:
		return st.Arms
	}
	return nil
}

// WalkBasics calls fn for every basic statement in the subtree, in source
// order.
func WalkBasics(s Stmt, fn func(*Basic)) {
	if b, ok := s.(*Basic); ok {
		fn(b)
		return
	}
	for _, seq := range Subseqs(s) {
		for _, c := range seq.Stmts {
			WalkBasics(c, fn)
		}
	}
}

// WalkStmts calls fn for every statement (basic and compound) in the
// subtree, parents before children.
func WalkStmts(s Stmt, fn func(Stmt)) {
	fn(s)
	for _, seq := range Subseqs(s) {
		for _, c := range seq.Stmts {
			WalkStmts(c, fn)
		}
	}
}

// CondAtoms returns the atoms read by a condition.
func (c Cond) Atoms() []Atom {
	if c.Op == TruthTest {
		return []Atom{c.X}
	}
	return []Atom{c.X, c.Y}
}
