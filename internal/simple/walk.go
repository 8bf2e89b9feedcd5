package simple

// EachSubseq calls fn on each direct child sequence of a statement, in
// execution order. Basic statements have none.
func EachSubseq(s Stmt, fn func(*Seq)) {
	switch st := s.(type) {
	case *Seq:
		fn(st)
	case *If:
		fn(st.Then)
		fn(st.Else)
	case *Switch:
		for _, cc := range st.Cases {
			fn(cc.Body)
		}
	case *While:
		fn(st.Eval)
		fn(st.Body)
	case *Do:
		fn(st.Body)
		fn(st.Eval)
	case *Forall:
		fn(st.Eval)
		fn(st.Body)
		fn(st.Step)
	case *Par:
		for _, arm := range st.Arms {
			fn(arm)
		}
	}
}

// WalkBasics calls fn for every basic statement in the subtree, in source
// order.
func WalkBasics(s Stmt, fn func(*Basic)) {
	if b, ok := s.(*Basic); ok {
		fn(b)
		return
	}
	EachSubseq(s, func(seq *Seq) {
		for _, c := range seq.Stmts {
			WalkBasics(c, fn)
		}
	})
}

// WalkStmts calls fn for every statement (basic and compound) in the
// subtree, parents before children.
func WalkStmts(s Stmt, fn func(Stmt)) {
	fn(s)
	EachSubseq(s, func(seq *Seq) {
		for _, c := range seq.Stmts {
			WalkStmts(c, fn)
		}
	})
}

// CondAtoms returns the atoms read by a condition.
func (c Cond) Atoms() []Atom {
	if c.Op == TruthTest {
		return []Atom{c.X}
	}
	return []Atom{c.X, c.Y}
}

// HasReturn reports whether the subtree holds a return statement.
func HasReturn(s Stmt) bool {
	if b, ok := s.(*Basic); ok {
		return b.Kind == KReturn
	}
	found := false
	EachSubseq(s, func(seq *Seq) {
		for _, c := range seq.Stmts {
			found = found || HasReturn(c)
		}
	})
	return found
}
