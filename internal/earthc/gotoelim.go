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

// gotoSite describes a located goto: the chain of blocks containing it, the
// goto node itself and the statement slot that holds it.
type gotoSite struct {
	path []pathStep // outermost first; path[len-1].block directly contains the goto-bearing stmt
	g    *GotoStmt
	slot *Stmt
}

// findGoto locates the first goto in the body, returning its block chain.
// Only blocks are recorded on the chain; a goto under ParSeq/Forall/Switch
// yields a path that eliminate() will reject.
func findGoto(body *Block) *gotoSite {
	// path is the chain down to the statement being visited, one buffer
	// for the whole walk; a found site gets its own copy, which eliminate()
	// then edits.
	path := make([]pathStep, 0, 8)
	var walk func(b *Block) *gotoSite
	var inStmt func(p *Stmt) *gotoSite

	inStmt = func(p *Stmt) *gotoSite {
		switch st := (*p).(type) {
		case *GotoStmt:
			return &gotoSite{path: append([]pathStep(nil), path...), g: st, slot: p}
		case *Block:
			return walk(st)
		}
		var r *gotoSite
		childStmts(*p, func(c *Stmt) {
			if r == nil {
				r = inStmt(c)
			}
		})
		return r
	}

	walk = func(b *Block) *gotoSite {
		for i := range b.Stmts {
			path = append(path, pathStep{b, i})
			r := inStmt(&b.Stmts[i])
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
	// constructs (if/loops/blocks): the child statement at each step holds
	// the goto.
	for d := targetDepth; d < len(site.path); d++ {
		step := site.path[d]
		if err := checkCrossable(step.block.Stmts[step.index]); err != nil {
			return fmt.Errorf("%s: goto %s: %v", ge.fn.Name, label, err)
		}
	}

	flag := fmt.Sprintf("goto_%s_%d", label, ge.n)
	// Replace the goto itself with flag = 1, before the flag's declaration
	// below moves the function body's statements to a new slice.
	*site.slot = setFlag(flag, 1)
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
		// Forward jump: guard each statement between the goto carrier and
		// the label, then clear the flag at the label. A declaration stays
		// at this level, in scope of its later uses, and only its
		// initializer is guarded.
		out := make([]Stmt, 0, len(tb.Stmts)+1)
		out = append(out, tb.Stmts[:gi+1]...)
		for _, s := range tb.Stmts[gi+1 : targetIdx] {
			if d, rest := splitDecl(s); d != nil {
				if out = append(out, d); rest == nil {
					continue
				}
				s = rest
			}
			out = append(out, &IfStmt{Cond: notFlag(flag), Then: ensureBlock(s)})
		}
		out = append(out, setFlag(flag, 0))
		tb.Stmts = append(out, tb.Stmts[targetIdx:]...)
	} else {
		// Backward jump: wrap [label .. goto carrier] in do { flag=0; ... }
		// while (flag). A declaration in the span moves just before the
		// loop, still at this level, and its initializer stays in the loop.
		// Moved up, it would capture a use of its name earlier in the span
		// that refers to an outer declaration, so such a declaration is
		// renamed first, together with the uses it binds.
		for k, s := range tb.Stmts[targetIdx : gi+1] {
			if d := declIn(s); d != nil && usesFree(tb.Stmts[targetIdx:targetIdx+k], d.Name) {
				renameDecl(tb.Stmts[targetIdx+k:], d, "__"+d.Name+"_"+flag)
			}
		}
		var decls []Stmt
		span := []Stmt{setFlag(flag, 0)}
		for _, s := range tb.Stmts[targetIdx : gi+1] {
			if d, rest := splitDecl(s); d != nil {
				if decls = append(decls, d); rest == nil {
					continue
				}
				s = rest
			}
			span = append(span, s)
		}
		loop := &DoStmt{Body: &Block{Stmts: span}, Cond: flagSet(flag)}
		rest := append(append(decls, loop), tb.Stmts[gi+1:]...)
		tb.Stmts = append(tb.Stmts[:targetIdx], rest...)
	}
	return nil
}

// splitDecl separates the declaration s makes, directly or under labels,
// from the rest of s, for a caller that moves the rest into a nested block:
// the declaration, without its initializer, stays in scope of its later
// uses, and the rest assigns the initializer. It returns a nil declaration
// when s declares nothing, and a nil rest when nothing is left.
func splitDecl(s Stmt) (*DeclStmt, Stmt) {
	slot := &s
	for ls, ok := (*slot).(*LabeledStmt); ok; ls, ok = (*slot).(*LabeledStmt) {
		slot = &ls.Stmt
	}
	ds, ok := (*slot).(*DeclStmt)
	if !ok {
		return nil, s
	}
	switch d := ds.Decl; {
	case d.Init != nil:
		*slot = &ExprStmt{X: &Assign{Op: PlainAssign, Lhs: &Ident{Name: d.Name, Pos: d.Pos},
			Rhs: d.Init, Pos: d.Pos}, Pos: d.Pos}
		d.Init = nil
	case slot == &s:
		return ds, nil
	default:
		*slot = &Block{}
	}
	return ds, s
}

// declIn returns the declaration s makes, directly or under labels, or nil.
func declIn(s Stmt) *VarDecl {
	for ls, ok := s.(*LabeledStmt); ok; ls, ok = s.(*LabeledStmt) {
		s = ls.Stmt
	}
	if ds, ok := s.(*DeclStmt); ok {
		return ds.Decl
	}
	return nil
}

// usesFree reports whether the statements use name where no declaration
// among them binds it.
func usesFree(ss []Stmt, name string) bool {
	found := false
	walkIdents(&Block{Stmts: ss}, func(id *Ident, d *VarDecl) {
		found = found || d == nil && id.Name == name
	})
	return found
}

// renameDecl renames d, which ss[0] declares, and every use in ss it binds.
func renameDecl(ss []Stmt, d *VarDecl, name string) {
	walkIdents(&Block{Stmts: ss}, func(id *Ident, b *VarDecl) {
		if b == d {
			id.Name = name
		}
	})
	d.Name = name
}

// checkCrossable rejects a statement on a goto's chain that the goto cannot
// jump out of: a parallel sequence, a forall or a switch.
func checkCrossable(s Stmt) error {
	switch s.(type) {
	case *ParSeq:
		return fmt.Errorf("goto crossing a parallel sequence is not supported")
	case *ForallStmt:
		return fmt.Errorf("goto leaving a forall loop is not supported")
	case *SwitchStmt:
		return fmt.Errorf("goto leaving a switch is not supported")
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

// stripLabels removes all remaining LabeledStmt wrappers (their gotos are
// gone).
func stripLabels(s Stmt) {
	childStmts(s, func(p *Stmt) {
		for ls, ok := (*p).(*LabeledStmt); ok; ls, ok = (*p).(*LabeledStmt) {
			*p = ls.Stmt
		}
		stripLabels(*p)
	})
}
