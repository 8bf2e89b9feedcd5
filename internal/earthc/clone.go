package earthc

// Deep cloning of AST subtrees, used by the function inliner.

// CloneStmt deep-copies a statement.
func CloneStmt(s Stmt) Stmt {
	switch st := s.(type) {
	case nil:
		return nil
	case *DeclStmt:
		d := st.Decl
		nd := &VarDecl{Name: d.Name, Type: d.Type,
			Shared: d.Shared, Init: CloneExpr(d.Init), Pos: d.Pos}
		return &DeclStmt{Decl: nd}
	case *ExprStmt:
		return &ExprStmt{X: CloneExpr(st.X), Pos: st.Pos}
	case *Block:
		nb := &Block{Pos: st.Pos}
		for _, c := range st.Stmts {
			nb.Stmts = append(nb.Stmts, CloneStmt(c))
		}
		return nb
	case *ParSeq:
		np := &ParSeq{Pos: st.Pos}
		for _, c := range st.Stmts {
			np.Stmts = append(np.Stmts, CloneStmt(c))
		}
		return np
	case *IfStmt:
		return &IfStmt{Cond: CloneExpr(st.Cond),
			Then: CloneStmt(st.Then), Else: CloneStmt(st.Else), Pos: st.Pos}
	case *WhileStmt:
		return &WhileStmt{Cond: CloneExpr(st.Cond),
			Body: CloneStmt(st.Body), Pos: st.Pos}
	case *DoStmt:
		return &DoStmt{Body: CloneStmt(st.Body),
			Cond: CloneExpr(st.Cond), Pos: st.Pos}
	case *ForStmt:
		return &ForStmt{Init: CloneStmt(st.Init), Cond: CloneExpr(st.Cond),
			Post: CloneExpr(st.Post), Body: CloneStmt(st.Body), Pos: st.Pos}
	case *ForallStmt:
		return &ForallStmt{Init: CloneStmt(st.Init), Cond: CloneExpr(st.Cond),
			Post: CloneExpr(st.Post), Body: CloneStmt(st.Body), Pos: st.Pos}
	case *SwitchStmt:
		ns := &SwitchStmt{Tag: CloneExpr(st.Tag), Pos: st.Pos}
		for _, cc := range st.Cases {
			ncc := &CaseClause{Pos: cc.Pos}
			for _, v := range cc.Vals {
				ncc.Vals = append(ncc.Vals, CloneExpr(v))
			}
			for _, c := range cc.Body {
				ncc.Body = append(ncc.Body, CloneStmt(c))
			}
			ns.Cases = append(ns.Cases, ncc)
		}
		return ns
	case *BreakStmt:
		return &BreakStmt{Pos: st.Pos}
	case *ContinueStmt:
		return &ContinueStmt{Pos: st.Pos}
	case *ReturnStmt:
		return &ReturnStmt{X: CloneExpr(st.X), Pos: st.Pos}
	case *GotoStmt:
		return &GotoStmt{Label: st.Label, Pos: st.Pos}
	case *LabeledStmt:
		return &LabeledStmt{Label: st.Label, Stmt: CloneStmt(st.Stmt), Pos: st.Pos}
	}
	return s
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *IntLit:
		v := *x
		return &v
	case *FloatLit:
		v := *x
		return &v
	case *CharLit:
		v := *x
		return &v
	case *StringLit:
		v := *x
		return &v
	case *NullLit:
		v := *x
		return &v
	case *Ident:
		return &Ident{Name: x.Name, Pos: x.Pos}
	case *Unary:
		return &Unary{Op: x.Op, X: CloneExpr(x.X), Pos: x.Pos}
	case *Binary:
		return &Binary{Op: x.Op, X: CloneExpr(x.X), Y: CloneExpr(x.Y), Pos: x.Pos}
	case *Assign:
		return &Assign{Op: x.Op, Lhs: CloneExpr(x.Lhs), Rhs: CloneExpr(x.Rhs), Pos: x.Pos}
	case *IncDec:
		return &IncDec{X: CloneExpr(x.X), Decr: x.Decr, Prefix: x.Prefix, Pos: x.Pos}
	case *Call:
		nc := &Call{Fun: x.Fun, Pos: x.Pos}
		for _, a := range x.Args {
			nc.Args = append(nc.Args, CloneExpr(a))
		}
		if x.Place != nil {
			nc.Place = &Placement{Kind: x.Place.Kind, Arg: CloneExpr(x.Place.Arg)}
		}
		return nc
	case *Member:
		return &Member{X: CloneExpr(x.X), Name: x.Name, Arrow: x.Arrow, Pos: x.Pos}
	case *Index:
		return &Index{X: CloneExpr(x.X), I: CloneExpr(x.I), Pos: x.Pos}
	case *SizeofExpr:
		return &SizeofExpr{T: x.T, Pos: x.Pos}
	case *CondExpr:
		return &CondExpr{C: CloneExpr(x.C), T: CloneExpr(x.T),
			F: CloneExpr(x.F), Pos: x.Pos}
	}
	return e
}
