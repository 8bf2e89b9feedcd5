// Package sema implements semantic analysis for EARTH-C: symbol resolution,
// type checking, struct layout, and intrinsic binding. Its output (a
// Program) is consumed by the lowering phase that produces SIMPLE IR.
//
// The memory model is word-addressed: every scalar (int, double, char,
// pointer) occupies exactly one 64-bit word, and struct fields are laid out
// at consecutive word offsets. This matches the granularity at which the
// EARTH-MANNA simulator transfers data (the paper's costs are per word).
package sema

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/earthc"
)

// SymKind distinguishes where a symbol lives.
type SymKind int

// Symbol kinds.
const (
	SymGlobal SymKind = iota
	SymParam
	SymLocal
)

// Symbol is a resolved variable.
type Symbol struct {
	Name   string
	Type   earthc.Type
	Kind   SymKind
	Shared bool
	Pos    earthc.Pos
	Func   string // owning function name, "" for globals
}

// IsLocalPtr reports whether the symbol is a pointer declared with the
// EARTH-C local qualifier (its pointee is guaranteed local).
func (s *Symbol) IsLocalPtr() bool {
	pt, ok := s.Type.(*earthc.PtrType)
	return ok && pt.Local
}

// StructInfo is a struct definition plus its computed word layout. Nested
// struct-valued fields are flattened: Offsets records the starting word of
// every top-level field, and leaf scalar positions can be derived by
// chaining.
type StructInfo struct {
	Def     *earthc.StructDef
	Size    int            // total words
	Offsets map[string]int // field name -> starting word offset
}

// FieldType returns the declared type of a field, or nil.
func (si *StructInfo) FieldType(name string) earthc.Type {
	f := si.Def.FieldByName(name)
	if f == nil {
		return nil
	}
	return f.Type
}

// Builtin identifies an intrinsic function.
type Builtin int

// Intrinsics of the dialect.
const (
	NotBuiltin   Builtin = iota
	BAlloc               // alloc(Struct): allocate on the current node
	BAllocOn             // alloc_on(Struct, node): allocate on a given node
	BWriteTo             // writeto(&shared, v): atomic store
	BAddTo               // addto(&shared, v): atomic add
	BValueOf             // valueof(&shared): atomic load
	BOwnerOf             // owner_of(p): node id owning *p
	BMyNode              // my_node(): executing node id
	BNumNodes            // num_nodes(): machine size
	BPrintInt            // print_int(i)
	BPrintDouble         // print_double(d)
	BPrintChar           // print_char(c)
	BPrintStr            // print_str("lit")
	BSqrt                // sqrt(d) double
	BFabs                // fabs(d) double
	BDbl                 // dbl(i) double: int -> double conversion
	BTrunc               // trunc(d) int: double -> int truncation
)

var builtinNames = map[string]Builtin{
	"alloc": BAlloc, "alloc_on": BAllocOn,
	"writeto": BWriteTo, "addto": BAddTo, "valueof": BValueOf,
	"owner_of": BOwnerOf, "my_node": BMyNode, "num_nodes": BNumNodes,
	"print_int": BPrintInt, "print_double": BPrintDouble,
	"print_char": BPrintChar, "print_str": BPrintStr,
	"sqrt": BSqrt, "fabs": BFabs, "dbl": BDbl, "trunc": BTrunc,
}

// BuiltinByName resolves an intrinsic name, returning NotBuiltin when the
// name is not an intrinsic.
func BuiltinByName(name string) Builtin { return builtinNames[name] }

// CallInfo records the resolution of one call site.
type CallInfo struct {
	Builtin Builtin
	Func    *FuncInfo // non-nil for user function calls
}

// FuncInfo is a checked function.
type FuncInfo struct {
	Def    *earthc.FuncDef
	Params []*Symbol
	Locals []*Symbol // every local declaration, in source order
	Ret    earthc.Type
}

// Program is the result of semantic analysis.
type Program struct {
	File         *earthc.File
	Structs      map[string]*StructInfo
	Funcs        map[string]*FuncInfo
	Globals      []*Symbol
	GlobalByName map[string]*Symbol

	// ExprType maps every expression node to its type.
	ExprType map[earthc.Expr]earthc.Type
	// Use maps identifier uses to their symbols.
	Use map[*earthc.Ident]*Symbol
	// DeclSym maps declarations to their symbols.
	DeclSym map[*earthc.VarDecl]*Symbol
	// CallTarget maps call sites to their resolution.
	CallTarget map[*earthc.Call]*CallInfo
}

// TypeOf returns the checked type of e (nil if unknown).
func (p *Program) TypeOf(e earthc.Expr) earthc.Type { return p.ExprType[e] }

// StructOf returns the StructInfo for a type that is struct or
// pointer-to-struct, or nil.
func (p *Program) StructOf(t earthc.Type) *StructInfo {
	switch tt := t.(type) {
	case *earthc.StructRef:
		return p.Structs[tt.Name]
	case *earthc.PtrType:
		return p.StructOf(tt.Elem)
	}
	return nil
}

// SizeOf returns the size of a type in words.
func (p *Program) SizeOf(t earthc.Type) int {
	switch tt := t.(type) {
	case *earthc.PrimType:
		if tt.Kind == earthc.Void {
			return 0
		}
		return 1
	case *earthc.PtrType:
		return 1
	case *earthc.StructRef:
		if si := p.Structs[tt.Name]; si != nil {
			return si.Size
		}
		return 0
	case *earthc.ArrayType:
		return tt.Len * p.SizeOf(tt.Elem)
	}
	return 0
}

type checker struct {
	prog *Program
	errs []error

	curFunc *FuncInfo
	scopes  []map[string]*Symbol
	// inSharedIntrinsic is set while checking &sv arguments of
	// writeto/addto/valueof, where naming a shared variable is legal.
	inSharedIntrinsic bool
}

// Check performs semantic analysis on a parsed file.
func Check(f *earthc.File) (*Program, error) {
	c := &checker{prog: &Program{
		File:         f,
		Structs:      make(map[string]*StructInfo),
		Funcs:        make(map[string]*FuncInfo),
		GlobalByName: make(map[string]*Symbol),
		ExprType:     make(map[earthc.Expr]earthc.Type),
		Use:          make(map[*earthc.Ident]*Symbol),
		DeclSym:      make(map[*earthc.VarDecl]*Symbol),
		CallTarget:   make(map[*earthc.Call]*CallInfo),
	}}
	c.collectStructs()
	c.collectFuncs()
	c.checkGlobals()
	for _, fn := range f.Funcs {
		c.checkFunc(c.prog.Funcs[fn.Name])
	}
	if len(c.errs) > 0 {
		msgs := make([]string, 0, len(c.errs))
		for i, e := range c.errs {
			if i == 15 {
				msgs = append(msgs, fmt.Sprintf("... and %d more errors", len(c.errs)-15))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return c.prog, errors.New(strings.Join(msgs, "\n"))
	}
	return c.prog, nil
}

func (c *checker) errorf(pos earthc.Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// ------------------------------------------------------------ collection ---

func (c *checker) collectStructs() {
	for _, s := range c.prog.File.Structs {
		if _, dup := c.prog.Structs[s.Name]; dup {
			c.errorf(s.Pos, "duplicate struct %s", s.Name)
			continue
		}
		c.prog.Structs[s.Name] = &StructInfo{Def: s, Offsets: make(map[string]int)}
	}
	// Layout with cycle detection (struct-valued fields may nest but not
	// recurse; recursion must go through a pointer).
	state := make(map[string]int) // 0 unvisited, 1 in progress, 2 done
	var layout func(name string) int
	layout = func(name string) int {
		si := c.prog.Structs[name]
		if si == nil {
			return 0
		}
		switch state[name] {
		case 2:
			return si.Size
		case 1:
			c.errorf(si.Def.Pos, "recursive struct value %s (use a pointer)", name)
			state[name] = 2
			return si.Size
		}
		state[name] = 1
		off := 0
		seen := make(map[string]bool)
		for _, f := range si.Def.Fields {
			if seen[f.Name] {
				c.errorf(f.Pos, "duplicate field %s in struct %s", f.Name, name)
			}
			seen[f.Name] = true
			si.Offsets[f.Name] = off
			switch ft := f.Type.(type) {
			case *earthc.StructRef:
				if c.prog.Structs[ft.Name] == nil {
					c.errorf(f.Pos, "unknown struct %s", ft.Name)
					off++
				} else {
					off += layout(ft.Name)
				}
			case *earthc.ArrayType:
				off += c.arraySize(ft, f.Pos, layout)
			default:
				off++
			}
		}
		si.Size = off
		state[name] = 2
		return off
	}
	for name := range c.prog.Structs {
		layout(name)
	}
}

func (c *checker) arraySize(t *earthc.ArrayType, pos earthc.Pos, layout func(string) int) int {
	switch et := t.Elem.(type) {
	case *earthc.StructRef:
		return t.Len * layout(et.Name)
	case *earthc.ArrayType:
		return t.Len * c.arraySize(et, pos, layout)
	default:
		return t.Len
	}
}

func (c *checker) collectFuncs() {
	for _, fn := range c.prog.File.Funcs {
		if _, dup := c.prog.Funcs[fn.Name]; dup {
			c.errorf(fn.Pos, "duplicate function %s", fn.Name)
			continue
		}
		if BuiltinByName(fn.Name) != NotBuiltin {
			c.errorf(fn.Pos, "function %s shadows an intrinsic", fn.Name)
		}
		fi := &FuncInfo{Def: fn, Ret: fn.Ret}
		for _, p := range fn.Params {
			fi.Params = append(fi.Params, &Symbol{
				Name: p.Name, Type: p.Type, Kind: SymParam, Pos: p.Pos, Func: fn.Name,
			})
		}
		c.prog.Funcs[fn.Name] = fi
	}
}

func (c *checker) checkGlobals() {
	for _, g := range c.prog.File.Globals {
		if !c.validVarType(g.Type) {
			c.errorf(g.Pos, "invalid type for global %s", g.Name)
		}
		sym := &Symbol{Name: g.Name, Type: g.Type, Kind: SymGlobal, Shared: g.Shared, Pos: g.Pos}
		if _, dup := c.prog.GlobalByName[g.Name]; dup {
			c.errorf(g.Pos, "duplicate global %s", g.Name)
			continue
		}
		c.prog.Globals = append(c.prog.Globals, sym)
		c.prog.GlobalByName[g.Name] = sym
		c.prog.DeclSym[g] = sym
		if g.Init != nil {
			t := c.checkExpr(g.Init)
			c.requireAssignable(g.Pos, g.Type, t)
		}
	}
}

func (c *checker) validVarType(t earthc.Type) bool {
	switch tt := t.(type) {
	case *earthc.PrimType:
		return tt.Kind != earthc.Void
	case *earthc.PtrType:
		return true
	case *earthc.StructRef:
		return c.prog.Structs[tt.Name] != nil
	case *earthc.ArrayType:
		return c.validVarType(tt.Elem)
	}
	return false
}

// ----------------------------------------------------------------- scopes ---

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*Symbol)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(sym *Symbol) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[sym.Name]; dup {
		c.errorf(sym.Pos, "redeclaration of %s", sym.Name)
	}
	top[sym.Name] = sym
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return c.prog.GlobalByName[name]
}

// -------------------------------------------------------------- functions ---

func (c *checker) checkFunc(fi *FuncInfo) {
	if fi == nil {
		return
	}
	c.curFunc = fi
	c.pushScope()
	for _, p := range fi.Params {
		if !c.validVarType(p.Type) {
			c.errorf(p.Pos, "invalid parameter type for %s", p.Name)
		}
		c.declare(p)
	}
	c.checkStmt(fi.Def.Body)
	c.popScope()
	c.curFunc = nil
}

func (c *checker) checkStmt(s earthc.Stmt) {
	switch st := s.(type) {
	case *earthc.DeclStmt:
		d := st.Decl
		if !c.validVarType(d.Type) {
			c.errorf(d.Pos, "invalid type for %s", d.Name)
		}
		sym := &Symbol{Name: d.Name, Type: d.Type, Kind: SymLocal,
			Shared: d.Shared, Pos: d.Pos, Func: c.curFunc.Def.Name}
		c.declare(sym)
		c.prog.DeclSym[d] = sym
		c.curFunc.Locals = append(c.curFunc.Locals, sym)
		if d.Init != nil {
			if d.Shared {
				c.errorf(d.Pos, "shared variable %s must be initialized via writeto", d.Name)
			}
			t := c.checkExpr(d.Init)
			c.requireAssignable(d.Pos, d.Type, t)
		}
	case *earthc.ExprStmt:
		c.checkExpr(st.X)
	case *earthc.Block:
		c.pushScope()
		for _, x := range st.Stmts {
			c.checkStmt(x)
		}
		c.popScope()
	case *earthc.ParSeq:
		c.pushScope()
		for _, x := range st.Stmts {
			c.checkStmt(x)
		}
		c.popScope()
	case *earthc.IfStmt:
		c.requireScalar(st.Pos, c.checkExpr(st.Cond), "if condition")
		c.checkStmt(st.Then)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}
	case *earthc.WhileStmt:
		c.requireScalar(st.Pos, c.checkExpr(st.Cond), "while condition")
		c.checkStmt(st.Body)
	case *earthc.DoStmt:
		c.checkStmt(st.Body)
		c.requireScalar(st.Pos, c.checkExpr(st.Cond), "do-while condition")
	case *earthc.ForStmt:
		c.pushScope()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			c.requireScalar(st.Pos, c.checkExpr(st.Cond), "for condition")
		}
		if st.Post != nil {
			c.checkExpr(st.Post)
		}
		c.checkStmt(st.Body)
		c.popScope()
	case *earthc.ForallStmt:
		c.pushScope()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			c.requireScalar(st.Pos, c.checkExpr(st.Cond), "forall condition")
		}
		if st.Post != nil {
			c.checkExpr(st.Post)
		}
		c.checkStmt(st.Body)
		c.popScope()
	case *earthc.SwitchStmt:
		t := c.checkExpr(st.Tag)
		c.requireInt(st.Pos, t, "switch tag")
		ndefault := 0
		for _, cc := range st.Cases {
			if cc.Vals == nil {
				ndefault++
				if ndefault > 1 {
					c.errorf(cc.Pos, "multiple default cases")
				}
			}
			for _, v := range cc.Vals {
				vt := c.checkExpr(v)
				c.requireInt(cc.Pos, vt, "case value")
				if !isConst(v) {
					c.errorf(cc.Pos, "case value must be a constant")
				}
			}
			c.pushScope()
			for _, x := range cc.Body {
				c.checkStmt(x)
			}
			c.popScope()
		}
	case *earthc.BreakStmt, *earthc.ContinueStmt:
		// Loop nesting is validated during lowering.
	case *earthc.ReturnStmt:
		want := c.curFunc.Ret
		if st.X == nil {
			if !isVoid(want) {
				c.errorf(st.Pos, "%s must return a value", c.curFunc.Def.Name)
			}
			return
		}
		if isVoid(want) {
			c.errorf(st.Pos, "%s returns void", c.curFunc.Def.Name)
			c.checkExpr(st.X)
			return
		}
		got := c.checkExpr(st.X)
		c.requireAssignable(st.Pos, want, got)
	case *earthc.GotoStmt, *earthc.LabeledStmt:
		c.errorf(posOf(s), "goto must be eliminated before semantic analysis (run earthc.EliminateGotos)")
	}
}

func posOf(s earthc.Stmt) earthc.Pos {
	switch st := s.(type) {
	case *earthc.GotoStmt:
		return st.Pos
	case *earthc.LabeledStmt:
		return st.Pos
	}
	return earthc.Pos{}
}

func isConst(e earthc.Expr) bool {
	switch x := e.(type) {
	case *earthc.IntLit, *earthc.CharLit:
		return true
	case *earthc.Unary:
		return x.Op == earthc.Neg && isConst(x.X)
	}
	return false
}

func isVoid(t earthc.Type) bool {
	pt, ok := t.(*earthc.PrimType)
	return ok && pt.Kind == earthc.Void
}

func isInt(t earthc.Type) bool {
	pt, ok := t.(*earthc.PrimType)
	return ok && (pt.Kind == earthc.Int || pt.Kind == earthc.Char)
}

func isDouble(t earthc.Type) bool {
	pt, ok := t.(*earthc.PrimType)
	return ok && pt.Kind == earthc.Double
}

func isPtr(t earthc.Type) bool {
	_, ok := t.(*earthc.PtrType)
	return ok
}

var (
	tInt    = &earthc.PrimType{Kind: earthc.Int}
	tDouble = &earthc.PrimType{Kind: earthc.Double}
	tVoid   = &earthc.PrimType{Kind: earthc.Void}
)

func (c *checker) requireScalar(pos earthc.Pos, t earthc.Type, what string) {
	if t == nil || isInt(t) || isPtr(t) || isDouble(t) {
		return
	}
	c.errorf(pos, "%s must be scalar, got %s", what, t)
}

func (c *checker) requireInt(pos earthc.Pos, t earthc.Type, what string) {
	if t == nil || isInt(t) {
		return
	}
	c.errorf(pos, "%s must be int, got %s", what, t)
}

// requireAssignable enforces the assignment compatibility rules: identical
// types, char<->int, int promoted to double, and NULL to any pointer.
func (c *checker) requireAssignable(pos earthc.Pos, dst, src earthc.Type) {
	if dst == nil || src == nil {
		return
	}
	if earthc.SameType(dst, src) {
		return
	}
	if isInt(dst) && isInt(src) {
		return
	}
	if isDouble(dst) && isInt(src) {
		return
	}
	if isPtr(dst) && src == nullType {
		return
	}
	if isPtr(dst) && isPtr(src) &&
		earthc.SameType(dst.(*earthc.PtrType).Elem, src.(*earthc.PtrType).Elem) {
		return
	}
	c.errorf(pos, "cannot assign %s to %s", src, dst)
}

// nullType is the sentinel type of the NULL literal; it is assignable to any
// pointer.
var nullType earthc.Type = &earthc.PtrType{Elem: tVoid}

// ------------------------------------------------------------ expressions ---

func (c *checker) checkExpr(e earthc.Expr) earthc.Type {
	t := c.exprType(e)
	if t != nil {
		c.prog.ExprType[e] = t
	}
	return t
}

func (c *checker) exprType(e earthc.Expr) earthc.Type {
	switch x := e.(type) {
	case *earthc.IntLit:
		return tInt
	case *earthc.FloatLit:
		return tDouble
	case *earthc.CharLit:
		return tInt
	case *earthc.StringLit:
		c.errorf(x.Pos, "string literals are only valid as print_str arguments")
		return nil
	case *earthc.NullLit:
		return nullType
	case *earthc.Ident:
		sym := c.lookup(x.Name)
		if sym == nil {
			c.errorf(x.Pos, "undeclared identifier %s", x.Name)
			return nil
		}
		c.prog.Use[x] = sym
		if sym.Shared && !c.inSharedIntrinsic {
			c.errorf(x.Pos, "shared variable %s must be accessed via writeto/addto/valueof", x.Name)
		}
		return sym.Type
	case *earthc.Unary:
		return c.unaryType(x)
	case *earthc.Binary:
		return c.binaryType(x)
	case *earthc.Assign:
		lt := c.checkLvalue(x.Lhs)
		rt := c.checkExpr(x.Rhs)
		if x.Op != earthc.PlainAssign {
			// Compound assignment: operands must be numeric.
			if lt != nil && !isInt(lt) && !isDouble(lt) {
				c.errorf(x.Pos, "compound assignment needs numeric lvalue, got %s", lt)
			}
		}
		c.requireAssignable(x.Pos, lt, rt)
		return lt
	case *earthc.IncDec:
		lt := c.checkLvalue(x.X)
		if lt != nil && !isInt(lt) {
			c.errorf(x.Pos, "++/-- requires int lvalue, got %s", lt)
		}
		return lt
	case *earthc.Call:
		return c.callType(x)
	case *earthc.Member:
		return c.memberType(x)
	case *earthc.Index:
		xt := c.checkExpr(x.X)
		it := c.checkExpr(x.I)
		c.requireInt(x.Pos, it, "array index")
		at, ok := xt.(*earthc.ArrayType)
		if !ok {
			if xt != nil {
				c.errorf(x.Pos, "indexing non-array type %s", xt)
			}
			return nil
		}
		return at.Elem
	case *earthc.SizeofExpr:
		if !c.validVarType(x.T) && !isVoid(x.T) {
			c.errorf(x.Pos, "sizeof of invalid type")
		}
		return tInt
	case *earthc.CondExpr:
		c.requireScalar(x.Pos, c.checkExpr(x.C), "?: condition")
		tt := c.checkExpr(x.T)
		ft := c.checkExpr(x.F)
		if tt != nil && ft != nil {
			if earthc.SameType(tt, ft) {
				return tt
			}
			if isInt(tt) && isInt(ft) {
				return tInt
			}
			if (isDouble(tt) || isDouble(ft)) && (isInt(tt) || isInt(ft) || isDouble(tt) && isDouble(ft)) {
				return tDouble
			}
			if isPtr(tt) && ft == nullType {
				return tt
			}
			if isPtr(ft) && tt == nullType {
				return ft
			}
			c.errorf(x.Pos, "?: branches have mismatched types %s and %s", tt, ft)
		}
		if tt != nil {
			return tt
		}
		return ft
	}
	return nil
}

func (c *checker) unaryType(x *earthc.Unary) earthc.Type {
	xt := c.checkExpr(x.X)
	switch x.Op {
	case earthc.Neg:
		if xt != nil && !isInt(xt) && !isDouble(xt) {
			c.errorf(x.Pos, "unary - requires numeric operand, got %s", xt)
		}
		return xt
	case earthc.LNot:
		c.requireScalar(x.Pos, xt, "! operand")
		return tInt
	case earthc.BNot:
		c.requireInt(x.Pos, xt, "~ operand")
		return tInt
	case earthc.Deref:
		pt, ok := xt.(*earthc.PtrType)
		if !ok {
			if xt != nil {
				c.errorf(x.Pos, "dereference of non-pointer type %s", xt)
			}
			return nil
		}
		return pt.Elem
	case earthc.Addr:
		// Valid on variables and fields; shared variables especially.
		switch inner := x.X.(type) {
		case *earthc.Ident:
			sym := c.prog.Use[inner]
			if sym != nil {
				return &earthc.PtrType{Elem: sym.Type}
			}
			return nil
		case *earthc.Member:
			if xt != nil {
				return &earthc.PtrType{Elem: xt}
			}
			return nil
		case *earthc.Index:
			if xt != nil {
				return &earthc.PtrType{Elem: xt}
			}
			return nil
		case *earthc.Unary:
			if inner.Op == earthc.Deref && xt != nil {
				return &earthc.PtrType{Elem: xt}
			}
		}
		c.errorf(x.Pos, "cannot take address of this expression")
		return nil
	}
	return nil
}

func (c *checker) binaryType(x *earthc.Binary) earthc.Type {
	lt := c.checkExpr(x.X)
	rt := c.checkExpr(x.Y)
	if lt == nil || rt == nil {
		return nil
	}
	switch x.Op {
	case earthc.Add, earthc.Sub, earthc.Mul, earthc.Div:
		if isDouble(lt) || isDouble(rt) {
			if (isDouble(lt) || isInt(lt)) && (isDouble(rt) || isInt(rt)) {
				return tDouble
			}
		}
		if isInt(lt) && isInt(rt) {
			return tInt
		}
		c.errorf(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		return nil
	case earthc.Rem, earthc.And, earthc.Or, earthc.Xor, earthc.Shl, earthc.Shr:
		if isInt(lt) && isInt(rt) {
			return tInt
		}
		c.errorf(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		return nil
	case earthc.Lt, earthc.Gt, earthc.Le, earthc.Ge:
		if (isInt(lt) || isDouble(lt)) && (isInt(rt) || isDouble(rt)) {
			return tInt
		}
		c.errorf(x.Pos, "invalid comparison operands: %s and %s", lt, rt)
		return tInt
	case earthc.Eq, earthc.Ne:
		ok := (isInt(lt) || isDouble(lt)) && (isInt(rt) || isDouble(rt)) ||
			isPtr(lt) && (rt == nullType || isPtr(rt)) ||
			lt == nullType && isPtr(rt)
		if !ok {
			c.errorf(x.Pos, "invalid equality operands: %s and %s", lt, rt)
		}
		return tInt
	case earthc.LogAnd, earthc.LogOr:
		c.requireScalar(x.Pos, lt, "logical operand")
		c.requireScalar(x.Pos, rt, "logical operand")
		return tInt
	}
	return nil
}

func (c *checker) memberType(x *earthc.Member) earthc.Type {
	xt := c.checkExpr(x.X)
	if xt == nil {
		return nil
	}
	var sref *earthc.StructRef
	if x.Arrow {
		pt, ok := xt.(*earthc.PtrType)
		if !ok {
			c.errorf(x.Pos, "-> on non-pointer type %s", xt)
			return nil
		}
		sref, ok = pt.Elem.(*earthc.StructRef)
		if !ok {
			c.errorf(x.Pos, "-> on pointer to non-struct type %s", pt.Elem)
			return nil
		}
	} else {
		var ok bool
		sref, ok = xt.(*earthc.StructRef)
		if !ok {
			c.errorf(x.Pos, ". on non-struct type %s", xt)
			return nil
		}
	}
	si := c.prog.Structs[sref.Name]
	if si == nil {
		c.errorf(x.Pos, "unknown struct %s", sref.Name)
		return nil
	}
	ft := si.FieldType(x.Name)
	if ft == nil {
		c.errorf(x.Pos, "struct %s has no field %s", sref.Name, x.Name)
		return nil
	}
	return ft
}

// checkLvalue checks an expression in assignment-target position.
func (c *checker) checkLvalue(e earthc.Expr) earthc.Type {
	switch x := e.(type) {
	case *earthc.Ident:
		t := c.checkExpr(x)
		sym := c.prog.Use[x]
		if sym != nil && sym.Shared {
			// Error already reported by checkExpr.
			return t
		}
		return t
	case *earthc.Member, *earthc.Index:
		return c.checkExpr(e)
	case *earthc.Unary:
		if x.Op == earthc.Deref {
			return c.checkExpr(e)
		}
	}
	c.errorf(exprPos(e), "invalid assignment target")
	c.checkExpr(e)
	return nil
}

func exprPos(e earthc.Expr) earthc.Pos {
	switch x := e.(type) {
	case *earthc.IntLit:
		return x.Pos
	case *earthc.FloatLit:
		return x.Pos
	case *earthc.CharLit:
		return x.Pos
	case *earthc.StringLit:
		return x.Pos
	case *earthc.NullLit:
		return x.Pos
	case *earthc.Ident:
		return x.Pos
	case *earthc.Unary:
		return x.Pos
	case *earthc.Binary:
		return x.Pos
	case *earthc.Assign:
		return x.Pos
	case *earthc.IncDec:
		return x.Pos
	case *earthc.Call:
		return x.Pos
	case *earthc.Member:
		return x.Pos
	case *earthc.Index:
		return x.Pos
	case *earthc.SizeofExpr:
		return x.Pos
	case *earthc.CondExpr:
		return x.Pos
	}
	return earthc.Pos{}
}
