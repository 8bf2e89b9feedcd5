package earthc

import "fmt"

// Goto elimination in the style of Erosa & Hendren, "Taming Control Flow"
// (ICCL 1994), specialized to the patterns that occur in practice in C
// benchmarks: a goto may target a label declared in the same statement
// sequence or in any enclosing statement sequence (jumping outward through
// if/while/do/for bodies). The transformation introduces a flag variable per
// goto, converts the goto to a flag assignment, guards the statements it
// must skip, breaks out of intervening loops, and turns backward jumps into
// do/while loops.
//
// Gotos that jump *into* a structure (inward), across parallel constructs,
// or into switch cases are rejected with an error; the Olden benchmarks and
// EARTH-C programs we target never need them.

// EliminateGotos rewrites fn.Body so it contains no GotoStmt or LabeledStmt
// nodes. It returns an error for unsupported goto patterns.
func EliminateGotos(fn *FuncDef) error {
	ge := &gotoElim{fn: fn}
	for {
		g := findGoto(fn.Body)
		if g == nil {
			break
		}
		if err := ge.eliminate(g); err != nil {
			return err
		}
		ge.n++
		if ge.n > 1000 {
			return fmt.Errorf("%s: goto elimination did not converge", fn.Name)
		}
	}
	stripLabels(fn.Body)
	return nil
}

type gotoElim struct {
	fn *FuncDef
	n  int
}

// pathStep records one step of the ownership chain from the function body
// down to a goto: the block and the index of the child statement on the
// chain.
type pathStep struct {
	block *Block
	index int
}

// gotoSite describes a located goto: the chain of blocks containing it and
// the goto node itself.
type gotoSite struct {
	path []pathStep // outermost first; path[len-1].block directly contains the goto-bearing stmt
	g    *GotoStmt
}

// findGoto locates the first goto in the body, returning its block chain.
// Only chains through Block, If, While, Do, For bodies are recorded; a goto
// under ParSeq/Forall/Switch yields a path that eliminate() will reject.
func findGoto(body *Block) *gotoSite {
	// path is the chain down to the statement being visited, one buffer
	// for the whole walk; a found site gets its own copy, which eliminate()
	// then edits.
	path := make([]pathStep, 0, 8)
	var walk func(b *Block) *gotoSite
	var inStmt func(s Stmt) *gotoSite

	inStmt = func(s Stmt) *gotoSite {
		switch st := s.(type) {
		case *GotoStmt:
			return &gotoSite{path: append([]pathStep(nil), path...), g: st}
		case *LabeledStmt:
			return inStmt(st.Stmt)
		case *Block:
			return walk(st)
		case *IfStmt:
			if r := inStmt(st.Then); r != nil {
				return r
			}
			if st.Else != nil {
				return inStmt(st.Else)
			}
		case *WhileStmt:
			return inStmt(st.Body)
		case *DoStmt:
			return inStmt(st.Body)
		case *ForStmt:
			return inStmt(st.Body)
		case *ForallStmt:
			return inStmt(st.Body)
		case *ParSeq:
			for _, c := range st.Stmts {
				if r := inStmt(c); r != nil {
					return r
				}
			}
		case *SwitchStmt:
			for _, cc := range st.Cases {
				for _, c := range cc.Body {
					if r := inStmt(c); r != nil {
						return r
					}
				}
			}
		}
		return nil
	}

	walk = func(b *Block) *gotoSite {
		for i, s := range b.Stmts {
			path = append(path, pathStep{b, i})
			r := inStmt(s)
			path = path[:len(path)-1]
			if r != nil {
				return r
			}
		}
		return nil
	}
	return walk(body)
}

// labelIndex finds a label declared directly in block b (possibly nested
// under further LabeledStmts), returning its index or -1.
func labelIndex(b *Block, label string) int {
	for i, s := range b.Stmts {
		for {
			ls, ok := s.(*LabeledStmt)
			if !ok {
				break
			}
			if ls.Label == label {
				return i
			}
			s = ls.Stmt
		}
	}
	return -1
}

// containsGoto reports whether the subtree still references g.
func containsGoto(s Stmt, g *GotoStmt) bool {
	found := false
	var walk func(Stmt)
	walk = func(s Stmt) {
		if found || s == nil {
			return
		}
		switch st := s.(type) {
		case *GotoStmt:
			if st == g {
				found = true
			}
		case *LabeledStmt:
			walk(st.Stmt)
		case *Block:
			for _, c := range st.Stmts {
				walk(c)
			}
		case *ParSeq:
			for _, c := range st.Stmts {
				walk(c)
			}
		case *IfStmt:
			walk(st.Then)
			walk(st.Else)
		case *WhileStmt:
			walk(st.Body)
		case *DoStmt:
			walk(st.Body)
		case *ForStmt:
			walk(st.Body)
		case *ForallStmt:
			walk(st.Body)
		case *SwitchStmt:
			for _, cc := range st.Cases {
				for _, c := range cc.Body {
					walk(c)
				}
			}
		}
	}
	walk(s)
	return found
}

// replaceGoto substitutes the goto node with a replacement statement,
// in place. Reports whether the substitution happened.
func replaceGoto(s Stmt, g *GotoStmt, repl Stmt) bool {
	switch st := s.(type) {
	case *LabeledStmt:
		if st.Stmt == Stmt(g) {
			st.Stmt = repl
			return true
		}
		return replaceGoto(st.Stmt, g, repl)
	case *Block:
		for i, c := range st.Stmts {
			if c == Stmt(g) {
				st.Stmts[i] = repl
				return true
			}
			if replaceGoto(c, g, repl) {
				return true
			}
		}
	case *ParSeq:
		for i, c := range st.Stmts {
			if c == Stmt(g) {
				st.Stmts[i] = repl
				return true
			}
			if replaceGoto(c, g, repl) {
				return true
			}
		}
	case *IfStmt:
		if st.Then == Stmt(g) {
			st.Then = repl
			return true
		}
		if replaceGoto(st.Then, g, repl) {
			return true
		}
		if st.Else == Stmt(g) {
			st.Else = repl
			return true
		}
		if st.Else != nil {
			return replaceGoto(st.Else, g, repl)
		}
	case *WhileStmt:
		if st.Body == Stmt(g) {
			st.Body = repl
			return true
		}
		return replaceGoto(st.Body, g, repl)
	case *DoStmt:
		if st.Body == Stmt(g) {
			st.Body = repl
			return true
		}
		return replaceGoto(st.Body, g, repl)
	case *ForStmt:
		if st.Body == Stmt(g) {
			st.Body = repl
			return true
		}
		return replaceGoto(st.Body, g, repl)
	case *ForallStmt:
		if st.Body == Stmt(g) {
			st.Body = repl
			return true
		}
		return replaceGoto(st.Body, g, repl)
	case *SwitchStmt:
		for _, cc := range st.Cases {
			for i, c := range cc.Body {
				if c == Stmt(g) {
					cc.Body[i] = repl
					return true
				}
				if replaceGoto(c, g, repl) {
					return true
				}
			}
		}
	}
	return false
}

func flagRef(name string) *Ident { return &Ident{Name: name} }

func setFlag(name string, v int64) Stmt {
	return &ExprStmt{X: &Assign{Op: PlainAssign, Lhs: flagRef(name), Rhs: &IntLit{Val: v}}}
}

func notFlag(name string) Expr {
	return &Binary{Op: Eq, X: flagRef(name), Y: &IntLit{Val: 0}}
}

func flagSet(name string) Expr {
	return &Binary{Op: Ne, X: flagRef(name), Y: &IntLit{Val: 0}}
}

// eliminate removes a single goto. The label must be declared in one of the
// blocks along the goto's ownership chain (outward jump) or in the same
// block (same-level jump).
func (ge *gotoElim) eliminate(site *gotoSite) error {
	label := site.g.Label
	// Locate the target block: the innermost block on the chain declaring
	// the label.
	targetDepth := -1
	targetIdx := -1
	for d := len(site.path) - 1; d >= 0; d-- {
		if i := labelIndex(site.path[d].block, label); i >= 0 {
			targetDepth = d
			targetIdx = i
			break
		}
	}
	if targetDepth == -1 {
		return fmt.Errorf("%s: unsupported goto %s: label not found in an enclosing statement sequence (inward jumps are not supported)", ge.fn.Name, label)
	}
	// Check the chain between goto and target crosses only supported
	// constructs (if/loops/blocks). We detect unsupported crossings by
	// inspecting the actual child statement at each step.
	for d := targetDepth; d < len(site.path); d++ {
		step := site.path[d]
		child := step.block.Stmts[step.index]
		if err := checkCrossable(child, site.g); err != nil {
			return fmt.Errorf("%s: goto %s: %v", ge.fn.Name, label, err)
		}
	}

	flag := fmt.Sprintf("goto_%s_%d", label, ge.n)
	// Declare the flag at the top of the function body.
	decl := &DeclStmt{Decl: &VarDecl{Name: flag, Type: &PrimType{Kind: Int}, Init: &IntLit{Val: 0}}}
	ge.fn.Body.Stmts = append([]Stmt{decl}, ge.fn.Body.Stmts...)
	// The declaration shifts indices in the outermost block if it is on the
	// chain.
	for d := range site.path {
		if site.path[d].block == ge.fn.Body {
			site.path[d].index++
		}
	}
	if targetDepth >= 0 && site.path[targetDepth].block == ge.fn.Body {
		// targetIdx also shifts (labelIndex computed before insert).
		targetIdx++
	}

	// Replace the goto itself with flag = 1.
	if !replaceGoto(ge.fn.Body, site.g, setFlag(flag, 1)) {
		return fmt.Errorf("%s: internal error: goto %s not found for replacement", ge.fn.Name, label)
	}

	// Propagate outward: at each level from innermost containing block up to
	// (but excluding) the target block, guard the trailing statements and
	// break out of loops.
	for d := len(site.path) - 1; d > targetDepth; d-- {
		step := site.path[d]
		guardTail(step.block, step.index, flag)
		// If the child at the next-outer level is a loop, arrange to leave it.
		outer := site.path[d-1]
		child := outer.block.Stmts[outer.index]
		switch child.(type) {
		case *WhileStmt, *DoStmt, *ForStmt, *ForallStmt:
			insertLoopExit(child, flag)
		}
	}

	// Same-level handling in the target block.
	tb := site.path[targetDepth].block
	gi := site.path[targetDepth].index
	if targetIdx > gi {
		// Forward jump: guard statements between the goto carrier and the
		// label, then clear the flag at the label.
		for i := gi + 1; i < targetIdx; i++ {
			tb.Stmts[i] = &IfStmt{Cond: notFlag(flag), Then: ensureBlock(tb.Stmts[i])}
		}
		tb.Stmts = insertStmt(tb.Stmts, targetIdx, setFlag(flag, 0))
	} else {
		// Backward jump: wrap [label .. goto carrier] in do { flag=0; ... }
		// while (flag).
		span := append([]Stmt{setFlag(flag, 0)}, tb.Stmts[targetIdx:gi+1]...)
		loop := &DoStmt{Body: &Block{Stmts: span}, Cond: flagSet(flag)}
		rest := append([]Stmt{}, tb.Stmts[gi+1:]...)
		tb.Stmts = append(tb.Stmts[:targetIdx], append([]Stmt{Stmt(loop)}, rest...)...)
	}
	return nil
}

// checkCrossable verifies the goto does not sit under a construct we cannot
// jump out of (parallel sequence, forall, switch).
func checkCrossable(s Stmt, g *GotoStmt) error {
	switch st := s.(type) {
	case *ParSeq:
		if containsGoto(st, g) {
			return fmt.Errorf("goto crossing a parallel sequence is not supported")
		}
	case *ForallStmt:
		if containsGoto(st.Body, g) {
			return fmt.Errorf("goto leaving a forall loop is not supported")
		}
	case *SwitchStmt:
		if containsGoto(st, g) {
			return fmt.Errorf("goto leaving a switch is not supported")
		}
	}
	return nil
}

// guardTail wraps the statements after index i of block b in if (!flag).
func guardTail(b *Block, i int, flag string) {
	if i+1 >= len(b.Stmts) {
		return
	}
	tail := &Block{Stmts: append([]Stmt{}, b.Stmts[i+1:]...)}
	b.Stmts = append(b.Stmts[:i+1], &IfStmt{Cond: notFlag(flag), Then: tail})
}

// insertLoopExit makes the loop terminate once the flag is set, by
// conjoining "&& flag == 0" into the loop condition. (Break statements have
// already been desugared by the time goto elimination runs, so the loop
// cannot be exited with a break node here.)
func insertLoopExit(loop Stmt, flag string) {
	switch l := loop.(type) {
	case *WhileStmt:
		l.Cond = &Binary{Op: LogAnd, X: l.Cond, Y: notFlag(flag)}
	case *DoStmt:
		l.Cond = &Binary{Op: LogAnd, X: l.Cond, Y: notFlag(flag)}
	case *ForStmt:
		cond := l.Cond
		if cond == nil {
			cond = &IntLit{Val: 1}
		}
		l.Cond = &Binary{Op: LogAnd, X: cond, Y: notFlag(flag)}
	}
}

func ensureBlock(s Stmt) *Block {
	if b, ok := s.(*Block); ok {
		return b
	}
	return &Block{Stmts: []Stmt{s}}
}

func insertStmt(ss []Stmt, i int, s Stmt) []Stmt {
	out := make([]Stmt, 0, len(ss)+1)
	out = append(out, ss[:i]...)
	out = append(out, s)
	out = append(out, ss[i:]...)
	return out
}

// stripLabels removes all remaining LabeledStmt wrappers (their gotos are
// gone).
func stripLabels(s Stmt) {
	switch st := s.(type) {
	case *Block:
		for i, c := range st.Stmts {
			for {
				ls, ok := c.(*LabeledStmt)
				if !ok {
					break
				}
				c = ls.Stmt
				st.Stmts[i] = c
			}
			stripLabels(st.Stmts[i])
		}
	case *ParSeq:
		for i, c := range st.Stmts {
			for {
				ls, ok := c.(*LabeledStmt)
				if !ok {
					break
				}
				c = ls.Stmt
				st.Stmts[i] = c
			}
			stripLabels(st.Stmts[i])
		}
	case *IfStmt:
		if ls, ok := st.Then.(*LabeledStmt); ok {
			st.Then = ls.Stmt
		}
		stripLabels(st.Then)
		if st.Else != nil {
			if ls, ok := st.Else.(*LabeledStmt); ok {
				st.Else = ls.Stmt
			}
			stripLabels(st.Else)
		}
	case *WhileStmt:
		if ls, ok := st.Body.(*LabeledStmt); ok {
			st.Body = ls.Stmt
		}
		stripLabels(st.Body)
	case *DoStmt:
		if ls, ok := st.Body.(*LabeledStmt); ok {
			st.Body = ls.Stmt
		}
		stripLabels(st.Body)
	case *ForStmt:
		if ls, ok := st.Body.(*LabeledStmt); ok {
			st.Body = ls.Stmt
		}
		stripLabels(st.Body)
	case *ForallStmt:
		if ls, ok := st.Body.(*LabeledStmt); ok {
			st.Body = ls.Stmt
		}
		stripLabels(st.Body)
	case *SwitchStmt:
		for _, cc := range st.Cases {
			for i, c := range cc.Body {
				for {
					ls, ok := c.(*LabeledStmt)
					if !ok {
						break
					}
					c = ls.Stmt
					cc.Body[i] = c
				}
				stripLabels(cc.Body[i])
			}
		}
	}
}
