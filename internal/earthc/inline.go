package earthc

import (
	"fmt"
	"slices"
)

// Local function inlining, one of the McCAT Phase I transformations the
// paper's compiler runs before communication analysis. Inlining is what
// exposes cross-call redundancy to the optimizer: the paper notes that
// tsp's invariant pointer arguments to distance() are optimized "via
// function inlining", and Figure 11(b) shows child-selection switches
// inlined into sum_adjacent.
//
// A call is inlined when the callee is small, non-recursive, has no
// placement annotation at the call site (placed calls are migration points
// and must stay calls), its returns can be restructured as forward jumps
// (returns nested inside switch statements or parallel constructs are left
// alone; the goto eliminator cannot lift those), and the caller declares no
// name the callee uses without declaring (the caller's variable would
// capture the callee's use).

// InlineOptions tune the inliner.
type InlineOptions struct {
	MaxStmts  int // max callee size in statement nodes (default 48)
	MaxRounds int // inlining passes (default 2)
}

func (o InlineOptions) withDefaults() InlineOptions {
	if o.MaxStmts == 0 {
		o.MaxStmts = 48
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 2
	}
	return o
}

// InlineFunctions expands eligible calls in every function body, in place.
func InlineFunctions(f *File, opt InlineOptions) {
	opt = opt.withDefaults()
	inl := &inliner{file: f, opt: opt}
	for round := 0; round < opt.MaxRounds; round++ {
		inl.computeEligible()
		changed := false
		for _, fn := range f.Funcs {
			inl.cur = fn
			fn.Body.Stmts = inl.stmts(fn.Body.Stmts)
			changed = changed || inl.changed
			inl.changed = false
		}
		if !changed {
			break
		}
	}
}

type inliner struct {
	file      *File
	opt       InlineOptions
	eligible  map[string]*FuncDef
	addressed []addressedVar // this round's address-taken variables
	cur       *FuncDef
	n         int
	changed   bool
}

// addressedVar records that fn takes the address of its variable name.
type addressedVar struct {
	fn   *FuncDef
	name string
}

func (inl *inliner) fresh(kind string) string {
	inl.n++
	return fmt.Sprintf("__%s%d", kind, inl.n)
}

// computeEligible decides which functions may be inlined this round.
func (inl *inliner) computeEligible() {
	inl.eligible = make(map[string]*FuncDef)
	inl.addressed = inl.addressed[:0]
	// Direct call edges for recursion detection.
	calls := make(map[string]map[string]bool)
	for _, fn := range inl.file.Funcs {
		set := make(map[string]bool)
		walkExprs(fn.Body, func(e Expr) {
			switch x := e.(type) {
			case *Call:
				set[x.Fun] = true
			case *Unary:
				if name := addressedName(x); name != "" {
					inl.addressed = append(inl.addressed, addressedVar{fn, name})
				}
			}
		})
		calls[fn.Name] = set
	}
	reaches := func(from, to string) bool {
		seen := make(map[string]bool)
		var dfs func(string) bool
		dfs = func(n string) bool {
			if n == to {
				return true
			}
			if seen[n] {
				return false
			}
			seen[n] = true
			for m := range calls[n] {
				if dfs(m) {
					return true
				}
			}
			return false
		}
		for m := range calls[from] {
			if dfs(m) {
				return true
			}
		}
		return false
	}
	for _, fn := range inl.file.Funcs {
		if fn.Name == "main" {
			continue
		}
		if stmtCount(fn.Body) > inl.opt.MaxStmts {
			continue
		}
		if reaches(fn.Name, fn.Name) {
			continue // recursive (directly or mutually)
		}
		if hasHardReturns(fn.Body) || hasGotos(fn.Body) {
			continue
		}
		inl.eligible[fn.Name] = fn
	}
}

// stmts rewrites a statement list, extracting and expanding eligible calls.
func (inl *inliner) stmts(list []Stmt) []Stmt {
	var out []Stmt
	for _, s := range list {
		out = append(out, inl.stmt(s)...)
	}
	return out
}

// stmt rewrites one statement into possibly several.
func (inl *inliner) stmt(s Stmt) []Stmt {
	var pre []Stmt
	switch st := s.(type) {
	case *DeclStmt:
		if st.Decl.Init != nil {
			st.Decl.Init = inl.extract(&pre, st.Decl.Init)
			if c, ok := st.Decl.Init.(*Call); ok && inl.inlinableCall(c) {
				st.Decl.Init = nil
				return append(append(pre, s), inl.expand(c, &Ident{Name: st.Decl.Name})...)
			}
		}
	case *ExprStmt:
		switch x := st.X.(type) {
		case *Call:
			for i := range x.Args {
				x.Args[i] = inl.extract(&pre, x.Args[i])
			}
			if inl.inlinableCall(x) {
				return append(pre, inl.expand(x, nil)...)
			}
		case *Assign:
			x.Rhs = inl.extract(&pre, x.Rhs)
			if c, ok := x.Rhs.(*Call); ok && x.Op == PlainAssign && inl.inlinableCall(c) {
				return append(pre, inl.expand(c, x.Lhs)...)
			}
		default:
			st.X = inl.extract(&pre, st.X)
		}
	case *ReturnStmt:
		if st.X != nil {
			st.X = inl.extract(&pre, st.X)
			if c, ok := st.X.(*Call); ok && inl.inlinableCall(c) {
				callee := inl.eligible[c.Fun]
				tmp := inl.fresh("inl")
				pre = append(pre, &DeclStmt{Decl: &VarDecl{Name: tmp, Type: callee.Ret}})
				pre = append(pre, inl.expand(c, &Ident{Name: tmp})...)
				st.X = &Ident{Name: tmp}
			}
		}
	case *Block:
		st.Stmts = inl.stmts(st.Stmts)
	case *SwitchStmt:
		st.Tag = inl.extract(&pre, st.Tag)
		for _, cc := range st.Cases {
			cc.Body = inl.stmts(cc.Body)
		}
	case *ForStmt:
		pre = inl.loopInit(pre, &st.Init)
		inl.wrap(&st.Body)
	case *ForallStmt:
		pre = inl.loopInit(pre, &st.Init)
		inl.wrap(&st.Body)
	case *IfStmt:
		st.Cond = inl.extract(&pre, st.Cond)
		childStmts(st, inl.wrap)
	case *ParSeq, *WhileStmt, *DoStmt, *LabeledStmt:
		// Loop conditions re-evaluate each iteration: no extraction.
		childStmts(st, inl.wrap)
	}
	return append(pre, s)
}

// wrap rewrites the statement in slot p, which must stay one statement (a
// parallel arm, an if arm, a loop body, a labeled statement): a
// multi-statement result is boxed in a block.
func (inl *inliner) wrap(p *Stmt) {
	if r := inl.stmt(*p); len(r) == 1 {
		*p = r[0]
	} else {
		*p = &Block{Stmts: r}
	}
}

// loopInit rewrites a for or forall init, hoisting the statements its
// extraction produces above the loop.
func (inl *inliner) loopInit(pre []Stmt, init *Stmt) []Stmt {
	if *init == nil {
		return pre
	}
	r := inl.stmt(*init)
	*init = r[len(r)-1]
	return append(pre, r[:len(r)-1]...)
}

// extract hoists inlinable calls out of safe subexpression positions into
// temporaries declared in pre, returning the rewritten expression. Calls
// under short-circuit operators or the ternary operator are left in place
// (they must not be evaluated unconditionally).
func (inl *inliner) extract(pre *[]Stmt, e Expr) Expr {
	switch x := e.(type) {
	case *Call:
		for i := range x.Args {
			x.Args[i] = inl.extract(pre, x.Args[i])
		}
		if inl.inlinableCall(x) {
			callee := inl.eligible[x.Fun]
			if isVoidRet(callee.Ret) {
				return e
			}
			tmp := inl.fresh("inl")
			*pre = append(*pre, &DeclStmt{Decl: &VarDecl{Name: tmp, Type: callee.Ret}})
			*pre = append(*pre, inl.expand(x, &Ident{Name: tmp})...)
			return &Ident{Name: tmp}
		}
		return e
	case *Unary:
		x.X = inl.extract(pre, x.X)
	case *Binary:
		if x.Op == LogAnd || x.Op == LogOr {
			// Only the left operand is unconditionally evaluated.
			x.X = inl.extract(pre, x.X)
			return e
		}
		x.X = inl.extract(pre, x.X)
		x.Y = inl.extract(pre, x.Y)
	case *Assign:
		x.Rhs = inl.extract(pre, x.Rhs)
	case *Member:
		x.X = inl.extract(pre, x.X)
	case *Index:
		x.X = inl.extract(pre, x.X)
		x.I = inl.extract(pre, x.I)
	case *CondExpr:
		x.C = inl.extract(pre, x.C)
	}
	return e
}

func isVoidRet(t Type) bool {
	pt, ok := t.(*PrimType)
	return ok && pt.Kind == Void
}

// inlinableCall reports whether this call site can be expanded.
func (inl *inliner) inlinableCall(c *Call) bool {
	if c.Place != nil {
		return false
	}
	callee, ok := inl.eligible[c.Fun]
	if !ok || callee == inl.cur || len(c.Args) != len(callee.Params) {
		return false
	}
	// A caller declaration of a name the callee uses but does not declare
	// would capture the callee's use.
	for _, name := range inl.freeNames(callee) {
		if declares(inl.cur, name) {
			return false
		}
	}
	return true
}

// substitutable reports whether a read-only parameter may be bound to the
// argument variable name itself rather than to a copy: the name must not be
// a file-level global, which the callee may write, nor have its address
// taken by the caller, as the callee may write it through a pointer.
func (inl *inliner) substitutable(name string) bool {
	for _, g := range inl.file.Globals {
		if g.Name == name {
			return false
		}
	}
	for _, a := range inl.addressed {
		if a.fn == inl.cur && a.name == name {
			return false
		}
	}
	return true
}

// expand builds the inline expansion of call c, assigning the return value
// to dst (may be nil for void/dropped results).
func (inl *inliner) expand(c *Call, dst Expr) []Stmt {
	callee := inl.eligible[c.Fun]
	inl.changed = true
	rename := make(map[string]string)
	blk := &Block{}
	// Read-only parameters bound to a caller's local variable are
	// substituted directly (no copy): this keeps the callee's accesses on the caller's
	// pointer, so the communication optimizer sees one base variable and
	// can merge and block them (the paper's Figure 11(b) relies on this).
	for i, p := range callee.Params {
		if id, ok := c.Args[i].(*Ident); ok && inl.substitutable(id.Name) &&
			!paramAssigned(callee.Body, p.Name) {
			rename[p.Name] = id.Name
			continue
		}
		rename[p.Name] = inl.fresh("arg")
		blk.Stmts = append(blk.Stmts, &DeclStmt{Decl: &VarDecl{
			Name: rename[p.Name], Type: p.Type, Init: c.Args[i],
		}})
	}
	collectDecls(callee.Body, func(d *VarDecl) {
		if _, dup := rename[d.Name]; !dup {
			rename[d.Name] = inl.fresh("loc")
		}
	})
	done := inl.fresh("done")

	// A declaration's new name replaces its name where it binds; a
	// parameter's, where no declaration of the callee does. Any other name
	// is the callee's global.
	body := CloneStmt(callee.Body).(*Block)
	walkIdents(body, func(id *Ident, d *VarDecl) {
		if d != nil || isParam(callee, id.Name) {
			id.Name = renamed(id.Name, rename)
		}
	})
	collectDecls(body, func(d *VarDecl) { d.Name = renamed(d.Name, rename) })
	replaceReturns(body, dst, done)
	// A single trailing return needs no jump: strip "goto done" when it is
	// the last statement (the common single-exit case then produces no
	// goto at all, so no flag machinery survives goto elimination).
	stripTrailingGoto(body, done)
	blk.Stmts = append(blk.Stmts, body.Stmts...)
	if usesGoto(body, done) {
		blk.Stmts = append(blk.Stmts, &LabeledStmt{Label: done, Stmt: &Block{}})
	}
	return []Stmt{blk}
}

func renamed(name string, rename map[string]string) string {
	if n, ok := rename[name]; ok {
		return n
	}
	return name
}

// replaceReturns rewrites each return in the inlined body as an assignment
// to dst (when present) followed by a jump to the done label.
func replaceReturns(b *Block, dst Expr, done string) {
	var walk func(*Stmt)
	walk = func(p *Stmt) {
		rs, ok := (*p).(*ReturnStmt)
		if !ok {
			childStmts(*p, walk)
			return
		}
		var out []Stmt
		if rs.X != nil && dst != nil {
			out = append(out, &ExprStmt{X: &Assign{Op: PlainAssign,
				Lhs: CloneExpr(dst), Rhs: rs.X}})
		}
		*p = &Block{Stmts: append(out, &GotoStmt{Label: done})}
	}
	childStmts(b, walk)
}

// stripTrailingGoto removes a goto to the given label when it is the last
// statement executed (directly or at the end of trailing blocks).
func stripTrailingGoto(b *Block, label string) {
	for len(b.Stmts) > 0 {
		last := b.Stmts[len(b.Stmts)-1]
		if g, ok := last.(*GotoStmt); ok && g.Label == label {
			b.Stmts = b.Stmts[:len(b.Stmts)-1]
			return
		}
		if nb, ok := last.(*Block); ok {
			b = nb
			continue
		}
		return
	}
}

// usesGoto reports whether any goto targeting label remains in the subtree.
func usesGoto(s Stmt, label string) bool {
	return anyStmt(s, func(s Stmt) bool {
		g, ok := s.(*GotoStmt)
		return ok && g.Label == label
	})
}

// ------------------------------------------------------------- inspection ---

// stmtCount is a callee's size for InlineOptions.MaxStmts: every statement
// node, loop inits included.
func stmtCount(s Stmt) int {
	n := 0
	inspect(s, func(Stmt) bool { n++; return true })
	return n
}

// hasHardReturns reports returns nested where the goto eliminator cannot
// lift a forward jump out (switch cases, parallel constructs).
func hasHardReturns(s Stmt) bool {
	return anyStmt(s, func(s Stmt) bool {
		switch s.(type) {
		case *ParSeq, *ForallStmt, *SwitchStmt:
			return anyStmt(s, func(s Stmt) bool { _, ok := s.(*ReturnStmt); return ok })
		}
		return false
	})
}

func hasGotos(s Stmt) bool {
	return anyStmt(s, func(s Stmt) bool {
		switch s.(type) {
		case *GotoStmt, *LabeledStmt:
			return true
		}
		return false
	})
}

// collectDecls visits every variable declaration in a subtree.
func collectDecls(s Stmt, fn func(*VarDecl)) {
	inspect(s, func(s Stmt) bool {
		if d, ok := s.(*DeclStmt); ok {
			fn(d.Decl)
		}
		return true
	})
}

// paramAssigned reports whether the callee's body may modify the named
// parameter: direct assignment, increment/decrement, or taking its address.
func paramAssigned(body Stmt, name string) bool {
	found := false
	walkExprs(body, func(e Expr) {
		switch x := e.(type) {
		case *Assign:
			if id, ok := x.Lhs.(*Ident); ok && id.Name == name {
				found = true
			}
		case *IncDec:
			if id, ok := x.X.(*Ident); ok && id.Name == name {
				found = true
			}
		case *Unary:
			if x.Op == Addr {
				if id, ok := x.X.(*Ident); ok && id.Name == name {
					found = true
				}
			}
		}
	})
	return found
}

// freeNames returns the variable names fn uses where neither a parameter
// nor a declaration of fn binds them (globals, or names declared nowhere),
// or nil. A struct name, which only alloc's first argument holds, names a
// type, not a variable.
func (inl *inliner) freeNames(fn *FuncDef) []string {
	var free []string
	walkIdents(fn.Body, func(id *Ident, d *VarDecl) {
		if d == nil && !isParam(fn, id.Name) && !slices.Contains(free, id.Name) &&
			inl.file.StructByName(id.Name) == nil {
			free = append(free, id.Name)
		}
	})
	return free
}

// isParam reports whether fn has a parameter named name.
func isParam(fn *FuncDef, name string) bool {
	return slices.ContainsFunc(fn.Params, func(p *Param) bool { return p.Name == name })
}

// declares reports whether fn has a parameter or a local named name.
func declares(fn *FuncDef, name string) bool {
	return isParam(fn, name) || anyStmt(fn.Body, func(s Stmt) bool {
		d, ok := s.(*DeclStmt)
		return ok && d.Decl.Name == name
	})
}

// addressedName returns the variable whose address u takes, whole or
// through a field or element of it, or "".
func addressedName(u *Unary) string {
	if u.Op != Addr {
		return ""
	}
	x := u.X
	for {
		if m, ok := x.(*Member); ok && !m.Arrow {
			x = m.X
		} else if ix, ok := x.(*Index); ok {
			x = ix.X
		} else {
			break
		}
	}
	if id, ok := x.(*Ident); ok {
		return id.Name
	}
	return ""
}
