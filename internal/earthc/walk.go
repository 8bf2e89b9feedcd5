package earthc

// The one description of which statements hold which, shared by the
// restructuring passes (inline.go, desugar.go, gotoelim.go). childStmts
// knows the tree's shape; inspect and walkExprs walk a subtree on top of it.
// Passes with real per-kind logic (the inliner's rewriter, the loop cases of
// DesugarLoops, CloneStmt and Print) keep their own switches.

// childStmts calls fn with a pointer to each statement slot directly nested
// in s, in source order: the members of a block or parallel sequence, the
// arms of an if, a loop's init and body, the statements of each switch case
// and a label's statement. An absent else or loop init is skipped. fn may
// replace the statement in its slot.
func childStmts(s Stmt, fn func(*Stmt)) {
	switch st := s.(type) {
	case *Block:
		for i := range st.Stmts {
			fn(&st.Stmts[i])
		}
	case *ParSeq:
		for i := range st.Stmts {
			fn(&st.Stmts[i])
		}
	case *IfStmt:
		fn(&st.Then)
		if st.Else != nil {
			fn(&st.Else)
		}
	case *WhileStmt:
		fn(&st.Body)
	case *DoStmt:
		fn(&st.Body)
	case *ForStmt:
		if st.Init != nil {
			fn(&st.Init)
		}
		fn(&st.Body)
	case *ForallStmt:
		if st.Init != nil {
			fn(&st.Init)
		}
		fn(&st.Body)
	case *SwitchStmt:
		for _, cc := range st.Cases {
			for i := range cc.Body {
				fn(&cc.Body[i])
			}
		}
	case *LabeledStmt:
		fn(&st.Stmt)
	}
}

// inspect calls fn on s and on every statement nested in it, in pre-order.
// When fn returns false, the statement's children are skipped.
func inspect(s Stmt, fn func(Stmt) bool) {
	if fn(s) {
		childStmts(s, func(c *Stmt) { inspect(*c, fn) })
	}
}

// anyStmt reports whether pred holds for s or for a statement nested in it.
func anyStmt(s Stmt, pred func(Stmt) bool) bool {
	found := false
	inspect(s, func(s Stmt) bool {
		found = found || pred(s)
		return !found
	})
	return found
}

// walkExprs calls fn on every expression in the subtree s, each before its
// operands: initializers, conditions, loop posts, switch tags and case
// values, returned values and everything nested in them.
func walkExprs(s Stmt, fn func(Expr)) {
	var expr func(Expr)
	expr = func(e Expr) {
		if e == nil {
			return
		}
		fn(e)
		switch x := e.(type) {
		case *Unary:
			expr(x.X)
		case *Binary:
			expr(x.X)
			expr(x.Y)
		case *Assign:
			expr(x.Lhs)
			expr(x.Rhs)
		case *IncDec:
			expr(x.X)
		case *Call:
			for _, a := range x.Args {
				expr(a)
			}
			if x.Place != nil {
				expr(x.Place.Arg)
			}
		case *Member:
			expr(x.X)
		case *Index:
			expr(x.X)
			expr(x.I)
		case *CondExpr:
			expr(x.C)
			expr(x.T)
			expr(x.F)
		}
	}
	inspect(s, func(s Stmt) bool {
		switch st := s.(type) {
		case *DeclStmt:
			expr(st.Decl.Init)
		case *ExprStmt:
			expr(st.X)
		case *IfStmt:
			expr(st.Cond)
		case *WhileStmt:
			expr(st.Cond)
		case *DoStmt:
			expr(st.Cond)
		case *ForStmt:
			expr(st.Cond)
			expr(st.Post)
		case *ForallStmt:
			expr(st.Cond)
			expr(st.Post)
		case *SwitchStmt:
			expr(st.Tag)
			for _, cc := range st.Cases {
				for _, v := range cc.Vals {
					expr(v)
				}
			}
		case *ReturnStmt:
			expr(st.X)
		}
		return true
	})
}
