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
		fn(st.Head)
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

// Mentions reports whether any statement of the subtree s mentions v.
func Mentions(s Stmt, v *Var) bool {
	found := OwnMentions(s, v)
	EachSubseq(s, func(sub *Seq) {
		for _, st := range sub.Stmts {
			found = found || Mentions(st, v)
		}
	})
	return found
}

// OwnMentions reports whether s itself, not a statement nested in it,
// mentions v: a basic statement's variables, or a compound statement's
// condition or switch tag.
func OwnMentions(s Stmt, v *Var) bool {
	var c Cond
	switch x := s.(type) {
	case *Basic:
		found := false
		EachVar(x, func(u *Var, _ bool) { found = found || u == v })
		return found
	case *If:
		c = x.Cond
	case *While:
		c = x.Cond
	case *Do:
		c = x.Cond
	case *Forall:
		c = x.Cond
	case *Switch:
		return AtomVar(x.Tag) == v
	default:
		return false
	}
	return AtomVar(c.X) == v || c.Op != TruthTest && AtomVar(c.Y) == v
}

// EachVar calls fn for every variable a basic statement mentions; addr is
// set where the statement takes the variable's address (&v, or a shared
// intrinsic's by-reference argument).
func EachVar(b *Basic, fn func(v *Var, addr bool)) {
	atom := func(a Atom) {
		if v := AtomVar(a); v != nil {
			fn(v, false)
		}
	}
	vr := func(v *Var) {
		if v != nil {
			fn(v, false)
		}
	}
	switch b.Kind {
	case KAssign:
		switch x := b.Rhs.(type) {
		case AtomRV:
			atom(x.A)
		case UnaryRV:
			atom(x.X)
		case BinaryRV:
			atom(x.X)
			atom(x.Y)
		case LoadRV:
			vr(x.P)
		case LocalLoadRV:
			vr(x.Base)
			atom(x.Idx)
		case AddrRV:
			fn(x.X, true)
		case FieldAddrRV:
			vr(x.P)
		}
		switch x := b.Lhs.(type) {
		case VarLV:
			vr(x.V)
		case StoreLV:
			vr(x.P)
		case LocalStoreLV:
			vr(x.Base)
			atom(x.Idx)
		}
	case KCall, KBuiltin:
		for _, a := range b.Args {
			atom(a)
		}
		if b.Place != nil {
			atom(b.Place.Arg)
		}
		for _, v := range b.ArgVars {
			fn(v, true)
		}
		vr(b.Dst)
	case KAlloc:
		atom(b.Node)
		vr(b.Dst)
	case KReturn:
		atom(b.Val)
	default: // block copies, gets, puts and block moves
		vr(b.P)
		vr(b.P2)
		vr(b.Local)
		vr(b.Dst)
		atom(b.Val)
	}
}
