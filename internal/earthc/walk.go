package earthc

// The one description of which statements hold which, shared by the
// restructuring passes (inline.go, desugar.go, gotoelim.go). childStmts
// knows the tree's shape; inspect and walkExprs walk a subtree on top of it,
// and walkIdents resolves names within one.
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

// eachExpr calls fn on e and on every expression nested in it, each before
// its operands.
func eachExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		eachExpr(x.X, fn)
	case *Binary:
		eachExpr(x.X, fn)
		eachExpr(x.Y, fn)
	case *Assign:
		eachExpr(x.Lhs, fn)
		eachExpr(x.Rhs, fn)
	case *IncDec:
		eachExpr(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			eachExpr(a, fn)
		}
		if x.Place != nil {
			eachExpr(x.Place.Arg, fn)
		}
	case *Member:
		eachExpr(x.X, fn)
	case *Index:
		eachExpr(x.X, fn)
		eachExpr(x.I, fn)
	case *CondExpr:
		eachExpr(x.C, fn)
		eachExpr(x.T, fn)
		eachExpr(x.F, fn)
	}
}

// walkExprs calls fn on every expression in the subtree s, each before its
// operands: initializers, conditions, loop posts, switch tags and case
// values, returned values and everything nested in them.
func walkExprs(s Stmt, fn func(Expr)) {
	inspect(s, func(s Stmt) bool {
		switch st := s.(type) {
		case *DeclStmt:
			eachExpr(st.Decl.Init, fn)
		case *ExprStmt:
			eachExpr(st.X, fn)
		case *IfStmt:
			eachExpr(st.Cond, fn)
		case *WhileStmt:
			eachExpr(st.Cond, fn)
		case *DoStmt:
			eachExpr(st.Cond, fn)
		case *ForStmt:
			eachExpr(st.Cond, fn)
			eachExpr(st.Post, fn)
		case *ForallStmt:
			eachExpr(st.Cond, fn)
			eachExpr(st.Post, fn)
		case *SwitchStmt:
			eachExpr(st.Tag, fn)
			for _, cc := range st.Cases {
				for _, v := range cc.Vals {
					eachExpr(v, fn)
				}
			}
		case *ReturnStmt:
			eachExpr(st.X, fn)
		}
		return true
	})
}

// walkIdents calls fn on every identifier in the subtree s, in source
// order, with the declaration in s that binds it, or nil when it is free in
// s. Names are scoped as sema scopes them: a declaration binds from itself,
// its initializer included, to the end of the enclosing block, parallel
// sequence, switch case or for statement.
func walkIdents(s Stmt, fn func(*Ident, *VarDecl)) {
	w := identWalker{fn: fn}
	w.stmt(s)
}

type identWalker struct {
	scope []*VarDecl // declarations in scope, innermost last
	fn    func(*Ident, *VarDecl)
}

func (w *identWalker) expr(e Expr) {
	eachExpr(e, func(e Expr) {
		if id, ok := e.(*Ident); ok {
			var d *VarDecl
			for i := len(w.scope) - 1; i >= 0 && d == nil; i-- {
				if w.scope[i].Name == id.Name {
					d = w.scope[i]
				}
			}
			w.fn(id, d)
		}
	})
}

// list walks a statement list that opens a scope.
func (w *identWalker) list(ss []Stmt) {
	mark := len(w.scope)
	for _, c := range ss {
		w.stmt(c)
	}
	w.scope = w.scope[:mark]
}

// loop walks a for or forall statement, whose init opens a scope.
func (w *identWalker) loop(init Stmt, cond, post Expr, body Stmt) {
	mark := len(w.scope)
	w.stmt(init)
	w.expr(cond)
	w.expr(post)
	w.stmt(body)
	w.scope = w.scope[:mark]
}

func (w *identWalker) stmt(s Stmt) {
	switch st := s.(type) {
	case *DeclStmt:
		w.scope = append(w.scope, st.Decl)
		w.expr(st.Decl.Init)
	case *ExprStmt:
		w.expr(st.X)
	case *Block:
		w.list(st.Stmts)
	case *ParSeq:
		w.list(st.Stmts)
	case *IfStmt:
		w.expr(st.Cond)
		w.stmt(st.Then)
		w.stmt(st.Else)
	case *WhileStmt:
		w.expr(st.Cond)
		w.stmt(st.Body)
	case *DoStmt:
		w.stmt(st.Body)
		w.expr(st.Cond)
	case *ForStmt:
		w.loop(st.Init, st.Cond, st.Post, st.Body)
	case *ForallStmt:
		w.loop(st.Init, st.Cond, st.Post, st.Body)
	case *SwitchStmt:
		w.expr(st.Tag)
		for _, cc := range st.Cases {
			for _, v := range cc.Vals {
				w.expr(v)
			}
			w.list(cc.Body)
		}
	case *ReturnStmt:
		w.expr(st.X)
	case *LabeledStmt:
		w.stmt(st.Stmt)
	}
}
