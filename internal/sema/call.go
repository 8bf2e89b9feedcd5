package sema

import (
	"repro/internal/earthc"
)

// call records a call site's resolution and returns the reference the Call
// node carries.
func (c *checker) call(ci CallInfo) int {
	c.prog.Calls = append(c.prog.Calls, ci)
	return len(c.prog.Calls)
}

// callType resolves and checks a call site: either an intrinsic or a user
// function, possibly with a placement annotation.
func (c *checker) callType(x *earthc.Call) earthc.Type {
	if b := BuiltinByName(x.Fun); b != NotBuiltin {
		x.Target = c.call(CallInfo{Builtin: b})
		if x.Place != nil {
			c.errorf(x.Pos, "placement annotations are not valid on intrinsic %s", x.Fun)
		}
		return c.builtinType(b, x)
	}
	fi := c.prog.Funcs[x.Fun]
	if fi == nil {
		c.errorf(x.Pos, "call to undefined function %s", x.Fun)
		x.Target = 0
		for _, a := range x.Args {
			c.checkExpr(a)
		}
		return nil
	}
	x.Target = c.call(CallInfo{Func: fi})
	if len(x.Args) != len(fi.Params) {
		c.errorf(x.Pos, "%s expects %d arguments, got %d", x.Fun, len(fi.Params), len(x.Args))
	}
	for i, a := range x.Args {
		at := c.checkExpr(a)
		if i < len(fi.Params) {
			c.requireAssignable(x.Pos, fi.Params[i].Type, at)
		}
	}
	if x.Place != nil {
		switch x.Place.Kind {
		case earthc.PlaceOwnerOf:
			at := c.checkExpr(x.Place.Arg)
			if at != nil && !isPtr(at) {
				c.errorf(x.Pos, "@OWNER_OF requires a pointer argument, got %s", at)
			}
		case earthc.PlaceOn:
			at := c.checkExpr(x.Place.Arg)
			c.requireInt(x.Pos, at, "@ON node expression")
		case earthc.PlaceHome:
			// no argument
		}
	}
	return fi.Ret
}

// arity-checked intrinsic signatures.
func (c *checker) builtinType(b Builtin, x *earthc.Call) earthc.Type {
	argn := func(n int) bool {
		if len(x.Args) != n {
			c.errorf(x.Pos, "%s expects %d argument(s), got %d", x.Fun, n, len(x.Args))
			for _, a := range x.Args {
				c.checkExpr(a)
			}
			return false
		}
		return true
	}
	switch b {
	case BAlloc, BAllocOn:
		want := 1
		if b == BAllocOn {
			want = 2
		}
		if !argn(want) {
			return nil
		}
		id, ok := x.Args[0].(*earthc.Ident)
		if !ok || c.prog.Structs[id.Name] == nil {
			c.errorf(x.Pos, "%s: first argument must name a struct type", x.Fun)
			return nil
		}
		// The struct-name argument is not an expression; give it the struct
		// type for the record but do not resolve it as a variable.
		sref := &earthc.StructRef{Name: id.Name}
		id.SetCheckedType(sref)
		id.Sym = 0
		if b == BAllocOn {
			nt := c.checkExpr(x.Args[1])
			c.requireInt(x.Pos, nt, "alloc_on node")
		}
		return &earthc.PtrType{Elem: sref}

	case BWriteTo, BAddTo:
		if !argn(2) {
			return nil
		}
		pt := c.checkSharedPtrArg(x, x.Args[0])
		vt := c.checkExpr(x.Args[1])
		if pt != nil {
			c.requireAssignable(x.Pos, pt, vt)
		}
		if b == BAddTo && pt != nil && !isInt(pt) && !isDouble(pt) {
			c.errorf(x.Pos, "addto requires a numeric shared variable")
		}
		return tVoid

	case BValueOf:
		if !argn(1) {
			return nil
		}
		pt := c.checkSharedPtrArg(x, x.Args[0])
		return pt

	case BOwnerOf:
		if !argn(1) {
			return nil
		}
		at := c.checkExpr(x.Args[0])
		if at != nil && !isPtr(at) {
			c.errorf(x.Pos, "owner_of requires a pointer, got %s", at)
		}
		return tInt

	case BMyNode, BNumNodes:
		argn(0)
		return tInt

	case BPrintInt, BPrintChar:
		if argn(1) {
			c.requireInt(x.Pos, c.checkExpr(x.Args[0]), x.Fun+" argument")
		}
		return tVoid

	case BPrintDouble:
		if argn(1) {
			t := c.checkExpr(x.Args[0])
			if t != nil && !isDouble(t) && !isInt(t) {
				c.errorf(x.Pos, "print_double requires a numeric argument, got %s", t)
			}
		}
		return tVoid

	case BPrintStr:
		if argn(1) {
			if _, ok := x.Args[0].(*earthc.StringLit); !ok {
				c.errorf(x.Pos, "print_str requires a string literal")
			} else {
				x.Args[0].SetCheckedType(tInt) // placeholder; carried as literal
			}
		}
		return tVoid

	case BSqrt, BFabs:
		if argn(1) {
			t := c.checkExpr(x.Args[0])
			if t != nil && !isDouble(t) && !isInt(t) {
				c.errorf(x.Pos, "%s requires a numeric argument, got %s", x.Fun, t)
			}
		}
		return tDouble

	case BDbl:
		if argn(1) {
			c.requireInt(x.Pos, c.checkExpr(x.Args[0]), "dbl argument")
		}
		return tDouble

	case BTrunc:
		if argn(1) {
			t := c.checkExpr(x.Args[0])
			if t != nil && !isDouble(t) {
				c.errorf(x.Pos, "trunc requires a double argument, got %s", t)
			}
		}
		return tInt
	}
	return nil
}

// checkSharedPtrArg checks the &sv argument of a shared-variable intrinsic
// and returns the element type of the shared variable.
func (c *checker) checkSharedPtrArg(call *earthc.Call, a earthc.Expr) earthc.Type {
	un, ok := a.(*earthc.Unary)
	if !ok || un.Op != earthc.Addr {
		c.errorf(call.Pos, "%s requires &sharedVar as its first argument", call.Fun)
		c.checkExpr(a)
		return nil
	}
	id, ok := un.X.(*earthc.Ident)
	if !ok {
		c.errorf(call.Pos, "%s requires the address of a shared variable", call.Fun)
		c.checkExpr(a)
		return nil
	}
	c.inSharedIntrinsic = true
	t := c.checkExpr(a)
	c.inSharedIntrinsic = false
	sym := c.prog.SymOf(id)
	if sym == nil {
		return nil
	}
	if !sym.Shared {
		c.errorf(call.Pos, "%s requires a shared variable, %s is not shared", call.Fun, id.Name)
	}
	if pt, ok := t.(*earthc.PtrType); ok {
		return pt.Elem
	}
	return sym.Type
}
