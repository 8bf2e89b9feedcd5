package earthc

import "fmt"

// DesugarLoops rewrites break/continue statements and for loops into
// goto/label form, to be consumed by EliminateGotos. After this pass the
// only loop forms are while and do/while, and the only non-structured
// control transfers are gotos.
//
// break binds to the nearest enclosing loop (in this dialect switch cases
// never fall through, so a case-trailing break is dropped by the parser and
// any other break means "leave the loop"). continue binds to the nearest
// enclosing loop and, for a desugared for loop, re-executes the post
// expression. break/continue inside a forall body is rejected: forall
// iterations are independent parallel activations with no shared loop to
// leave.
func DesugarLoops(fn *FuncDef) error {
	d := &desugar{fn: fn}
	body, err := d.stmt(fn.Body, "", "")
	if err != nil {
		return err
	}
	fn.Body = body.(*Block)
	return nil
}

type desugar struct {
	fn *FuncDef
	n  int
}

func (d *desugar) fresh(kind string) string {
	d.n++
	return fmt.Sprintf("__%s%d", kind, d.n)
}

// stmt rewrites s with the current break/continue target labels ("" when
// there is no enclosing loop).
func (d *desugar) stmt(s Stmt, brk, cont string) (Stmt, error) {
	switch st := s.(type) {
	case *WhileStmt:
		return d.loop(st, &st.Body, nil)
	case *DoStmt:
		return d.loop(st, &st.Body, nil)
	case *ForStmt:
		// for (init; cond; post) body
		//   => { init; while (cond') { body; Lcont: ; post; } Lbrk: ; }
		// cond' defaults to 1 when omitted.
		cond := st.Cond
		if cond == nil {
			cond = &IntLit{Val: 1}
		}
		w := &WhileStmt{Cond: cond, Body: st.Body, Pos: st.Pos}
		post := st.Post
		rewritten, err := d.loop(w, &w.Body, post)
		if err != nil {
			return nil, err
		}
		blk := &Block{Pos: st.Pos}
		if st.Init != nil {
			blk.Stmts = append(blk.Stmts, st.Init)
		}
		blk.Stmts = append(blk.Stmts, rewritten)
		return blk, nil
	case *ForallStmt:
		// Loops nested in the body are still rewritten below.
		if usesBreakContinue(st.Body) {
			return nil, fmt.Errorf("%s: break/continue inside forall is not supported", d.fn.Name)
		}
	case *ParSeq:
		// Parallel arms may contain their own loops, but may not break
		// out of an enclosing loop.
		brk, cont = "", ""
	case *BreakStmt:
		if brk == "" {
			return nil, fmt.Errorf("%s: break outside a loop", d.fn.Name)
		}
		return &GotoStmt{Label: brk, Pos: st.Pos}, nil
	case *ContinueStmt:
		if cont == "" {
			return nil, fmt.Errorf("%s: continue outside a loop", d.fn.Name)
		}
		return &GotoStmt{Label: cont, Pos: st.Pos}, nil
	}
	var err error
	childStmts(s, func(p *Stmt) {
		if err == nil {
			*p, err = d.stmt(*p, brk, cont)
		}
	})
	return s, err
}

// loop rewrites a while/do loop body, introducing labels only when needed.
// post, when non-nil (for a desugared for loop), is appended to the body
// after the continue label.
func (d *desugar) loop(loopStmt Stmt, bodyp *Stmt, post Expr) (Stmt, error) {
	needBrk := usesBreak(*bodyp)
	needCont := usesContinue(*bodyp)
	brk, cont := "", ""
	if needBrk {
		brk = d.fresh("brk")
	}
	if needCont || post != nil {
		cont = d.fresh("cont")
	}
	nb, err := d.stmt(*bodyp, brk, cont)
	if err != nil {
		return nil, err
	}
	body := ensureBlock(nb)
	if needCont {
		body.Stmts = append(body.Stmts, &LabeledStmt{Label: cont, Stmt: &Block{}})
	}
	if post != nil {
		body.Stmts = append(body.Stmts, &ExprStmt{X: post})
	}
	*bodyp = body
	if needBrk {
		return &Block{Stmts: []Stmt{
			loopStmt,
			&LabeledStmt{Label: brk, Stmt: &Block{}},
		}}, nil
	}
	return loopStmt, nil
}

// usesBreak reports whether s contains a break binding to the current loop
// (not descending into nested loops or parallel constructs).
func usesBreak(s Stmt) bool    { return scanBC(s, true) }
func usesContinue(s Stmt) bool { return scanBC(s, false) }

func scanBC(s Stmt, wantBreak bool) bool {
	found := false
	inspect(s, func(s Stmt) bool {
		switch s.(type) {
		case *BreakStmt:
			found = found || wantBreak
		case *ContinueStmt:
			found = found || !wantBreak
		case *WhileStmt, *DoStmt, *ForStmt, *ForallStmt, *ParSeq:
			return false
		}
		return !found
	})
	return found
}

// usesBreakContinue reports whether any break/continue occurs anywhere in
// the subtree, including nested loops.
func usesBreakContinue(s Stmt) bool {
	return anyStmt(s, func(s Stmt) bool {
		switch s.(type) {
		case *BreakStmt, *ContinueStmt:
			return true
		}
		return false
	})
}
