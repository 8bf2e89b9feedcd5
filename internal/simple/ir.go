// Package simple defines the SIMPLE intermediate representation used by the
// compiler, modeled on the McCAT SIMPLE representation the paper builds on:
// a compositional, structured IR whose basic statements are three-address
// code with *at most one* indirect (possibly remote) memory operation each.
//
// Statements are composed of basic statements and the structured compounds
// seq, if, switch, while, do, forall, and parallel sequences. There is no
// unstructured control flow: goto is eliminated on the AST before lowering.
// Every basic statement carries a unique integer label (the paper's "Si")
// used by the placement analysis' Dlists and by the communication selection
// rewriting.
package simple

import (
	"fmt"

	"repro/internal/earthc"
)

// VarKind says where a Var lives.
type VarKind int

// Variable kinds.
const (
	VarParam VarKind = iota
	VarLocal         // source-level local
	VarTemp          // compiler temporary introduced by simplification
	VarComm          // communication temporary (commN) introduced by selection
	VarBComm         // blocked communication buffer (bcommN)
	VarGlobal
)

// Var is a variable in SIMPLE form. All variables of a function, including
// temporaries, are function-scoped with unique names.
type Var struct {
	Name   string
	Type   earthc.Type
	Kind   VarKind
	Shared bool
	Size   int // words occupied in the frame (or global segment)
	// ID numbers the variable densely: a function's parameters and then
	// its locals are 0..n-1 in the order Func.AddParam and Func.AddLocal
	// registered them, and a global is its index in Program.Globals.
	ID int
}

// IsPtr reports whether the variable has pointer type.
func (v *Var) IsPtr() bool {
	_, ok := v.Type.(*earthc.PtrType)
	return ok
}

// IsLocalPtr reports whether the variable is a pointer declared (or
// inferred) local: its pointee is in the executing node's memory.
func (v *Var) IsLocalPtr() bool {
	pt, ok := v.Type.(*earthc.PtrType)
	return ok && pt.Local
}

func (v *Var) String() string { return v.Name }

// ------------------------------------------------------------------ atoms ---

// Atom is a leaf operand: a variable or a constant.
type Atom interface {
	atom()
	String() string
}

// VarAtom references a variable.
type VarAtom struct{ V *Var }

// IntAtom is an integer constant.
type IntAtom struct{ Val int64 }

// FloatAtom is a floating constant.
type FloatAtom struct{ Val float64 }

// NullAtom is the null pointer constant.
type NullAtom struct{}

func (VarAtom) atom()   {}
func (IntAtom) atom()   {}
func (FloatAtom) atom() {}
func (NullAtom) atom()  {}

func (a VarAtom) String() string   { return a.V.Name }
func (a IntAtom) String() string   { return fmt.Sprintf("%d", a.Val) }
func (a FloatAtom) String() string { return fmt.Sprintf("%g", a.Val) }
func (NullAtom) String() string    { return "NULL" }

// AtomVar returns the variable of a VarAtom, or nil.
func AtomVar(a Atom) *Var {
	if va, ok := a.(VarAtom); ok {
		return va.V
	}
	return nil
}

// ---------------------------------------------------------------- rvalues ---

// Rvalue is the right-hand side of an assignment.
type Rvalue interface {
	rvalue()
	String() string
}

// AtomRV is a bare atom.
type AtomRV struct{ A Atom }

// UnaryRV is a unary operation on an atom.
type UnaryRV struct {
	Op earthc.UnOp
	X  Atom
}

// BinaryRV is a binary operation on atoms.
type BinaryRV struct {
	Op   earthc.BinOp
	X, Y Atom
}

// LoadRV reads through a pointer: p->Field (or *p when Field is ""). This is
// the (potentially) remote read of a basic statement. Off is the word offset
// of the field; Size is the number of words read (1 for scalars; >1 only for
// whole-struct reads, which lowering converts to block copies instead).
type LoadRV struct {
	P     *Var
	Field string
	Off   int
}

// LocalLoadRV reads a field of a struct-valued (or array) frame variable:
// base.Field / base[i]. Always a local memory access.
type LocalLoadRV struct {
	Base  *Var
	Field string // "" for array element access
	Off   int    // field offset; for arrays, the element size multiplier applies to Idx
	Idx   Atom   // nil unless array indexing
	Scale int    // element size in words when Idx != nil
}

// AddrRV takes the address of a frame or global variable, plus an optional
// word offset into it (&v, &v.f). Used for passing local buffers and for
// shared-variable intrinsics.
type AddrRV struct {
	X   *Var
	Off int
}

// FieldAddrRV computes the address of a field reached through a pointer:
// &p->f is p plus the field offset. This is pointer arithmetic, not a
// remote access.
type FieldAddrRV struct {
	P     *Var
	Field string
	Off   int
}

func (AtomRV) rvalue()      {}
func (UnaryRV) rvalue()     {}
func (BinaryRV) rvalue()    {}
func (LoadRV) rvalue()      {}
func (LocalLoadRV) rvalue() {}
func (AddrRV) rvalue()      {}
func (FieldAddrRV) rvalue() {}

func (r AtomRV) String() string  { return r.A.String() }
func (r UnaryRV) String() string { return r.Op.String() + r.X.String() }
func (r BinaryRV) String() string {
	return r.X.String() + " " + r.Op.String() + " " + r.Y.String()
}
func (r LoadRV) String() string {
	if r.Field == "" {
		return "*" + r.P.Name
	}
	return r.P.Name + "->" + r.Field
}
func (r LocalLoadRV) String() string {
	if r.Idx != nil {
		return fmt.Sprintf("%s[%s]", r.Base.Name, r.Idx)
	}
	return r.Base.Name + "." + r.Field
}
func (r AddrRV) String() string {
	if r.Off != 0 {
		return fmt.Sprintf("&%s+%d", r.X.Name, r.Off)
	}
	return "&" + r.X.Name
}
func (r FieldAddrRV) String() string { return "&" + r.P.Name + "->" + r.Field }

// ---------------------------------------------------------------- lvalues ---

// Lvalue is the destination of an assignment.
type Lvalue interface {
	lvalue()
	String() string
}

// VarLV assigns to a scalar variable.
type VarLV struct{ V *Var }

// StoreLV writes through a pointer: p->Field = ... (or *p when Field is "").
// This is the (potentially) remote write of a basic statement.
type StoreLV struct {
	P     *Var
	Field string
	Off   int
}

// LocalStoreLV writes a field/element of a struct- or array-valued frame
// variable. Always local.
type LocalStoreLV struct {
	Base  *Var
	Field string
	Off   int
	Idx   Atom
	Scale int
}

func (VarLV) lvalue()        {}
func (StoreLV) lvalue()      {}
func (LocalStoreLV) lvalue() {}

func (l VarLV) String() string { return l.V.Name }
func (l StoreLV) String() string {
	if l.Field == "" {
		return "*" + l.P.Name
	}
	return l.P.Name + "->" + l.Field
}
func (l LocalStoreLV) String() string {
	if l.Idx != nil {
		return fmt.Sprintf("%s[%s]", l.Base.Name, l.Idx)
	}
	return l.Base.Name + "." + l.Field
}

// ------------------------------------------------------------- statements ---

// Stmt is a SIMPLE statement: a basic statement or a structured compound.
type Stmt interface{ stmt() }

// BasicKind discriminates basic statements.
type BasicKind int

// Basic statement kinds.
const (
	KAssign   BasicKind = iota // Lhs = Rhs (at most one of Lhs/Rhs indirect)
	KCall                      // [Dst =] Fun(Args...) [@placement]
	KBuiltin                   // [Dst =] builtin(Args...)
	KAlloc                     // Dst = alloc(Struct) [on Node]
	KReturn                    // return [Val]
	KBlkCopy                   // block copy between struct storage (see fields)
	KGetF                      // Dst = GET p->Field   (split-phase remote read)
	KPutF                      // PUT p->Field = Val   (split-phase remote write)
	KBlkRead                   // BLKMOV *p -> &Local  (blocked remote read)
	KBlkWrite                  // BLKMOV &Local -> *p  (blocked remote write)
)

// Builtin mirrors sema.Builtin without importing it (avoids a cycle: sema is
// used by lowering, which imports both).
type Builtin int

// Placement mirrors the source-level call placement after lowering.
type Placement struct {
	Kind earthc.PlaceKind
	Arg  Atom // pointer for OwnerOf, node id for On
}

// Basic is a basic statement. Fields are used according to Kind; unused
// fields are nil/zero. Label is the unique statement label (the paper's Si).
type Basic struct {
	Label int
	Kind  BasicKind

	// KAssign
	Lhs Lvalue
	Rhs Rvalue

	// KCall / KBuiltin
	Dst     *Var // optional result
	Fun     string
	BFun    Builtin
	Args    []Atom
	StrArg  string // print_str literal
	Place   *Placement
	ArgVars []*Var // extra: &var arguments passed by reference (shared intrinsics)

	// KAlloc
	StructName string
	AllocSize  int
	Node       Atom // nil = current node

	// KBlkCopy / KBlkRead / KBlkWrite / KGetF / KPutF
	P     *Var   // remote pointer
	P2    *Var   // second pointer for ptr-to-ptr copies
	Local *Var   // struct-valued frame variable
	Field string // field for KGetF / KPutF
	Off   int    // source word offset
	Off2  int    // destination word offset (block copies)
	Size  int    // words moved by block operations
	Val   Atom   // stored value for KPutF
}

// Seq is a statement sequence.
type Seq struct{ Stmts []Stmt }

// Cond is a simplified condition: X Op Y over atoms (Op is a comparison),
// or a bare truth test when Op == -1 (X != 0).
type Cond struct {
	Op   earthc.BinOp // comparison, or TruthTest
	X, Y Atom
}

// TruthTest marks a bare "X is nonzero" condition.
const TruthTest earthc.BinOp = -2

func (c Cond) String() string {
	if c.Op == TruthTest {
		return c.X.String()
	}
	return c.X.String() + " " + c.Op.String() + " " + c.Y.String()
}

// If is a two-way conditional.
type If struct {
	Cond Cond
	Then *Seq
	Else *Seq // may be empty, never nil
	Site int  // stable profiling site ID (see AssignSites); 0 = unassigned
}

// SwitchCase is one alternative of a Switch.
type SwitchCase struct {
	Vals []int64 // nil for default
	Body *Seq
}

// Switch is a multiway conditional on an integer atom. Cases do not fall
// through.
type Switch struct {
	Tag   Atom
	Cases []*SwitchCase
	Site  int // stable profiling site ID
}

// While is a top-tested loop. Eval re-computes the condition's inputs; it is
// executed before each test (including the first). Loops whose condition is
// a simple variable test have an empty Eval.
type While struct {
	Eval *Seq
	Cond Cond
	Body *Seq
	Site int // stable profiling site ID
}

// Do is a bottom-tested loop; Eval recomputes the condition inputs after
// the body, before the test.
type Do struct {
	Body *Seq
	Eval *Seq
	Cond Cond
	Site int // stable profiling site ID
}

// Forall is a parallel loop: Body instances may run concurrently; the
// induction (Eval/Cond/Head/Step) runs sequentially on the spawning node, and
// the construct joins all iterations before completing. Head runs after a
// successful test and before the iteration is spawned: communication
// selection puts there the step reads no body can kill, so their round
// trips cover the spawn. Lowering leaves it empty.
type Forall struct {
	Eval *Seq
	Cond Cond
	Head *Seq
	Body *Seq
	Step *Seq
	Site int // stable profiling site ID
}

// Par is a parallel statement sequence {^ ... ^}: arms run concurrently and
// join at the end.
type Par struct{ Arms []*Seq }

func (*Basic) stmt()  {}
func (*Seq) stmt()    {}
func (*If) stmt()     {}
func (*Switch) stmt() {}
func (*While) stmt()  {}
func (*Do) stmt()     {}
func (*Forall) stmt() {}
func (*Par) stmt()    {}

// ---------------------------------------------------------------- program ---

// Func is a function in SIMPLE form.
type Func struct {
	Name   string
	Ret    earthc.Type
	Params []*Var
	Locals []*Var // all non-param variables, including temporaries
	Body   *Seq
	Basics []*Basic // index = label
}

// VarByName finds a parameter or local by name, or nil.
func (f *Func) VarByName(name string) *Var {
	for _, v := range f.Params {
		if v.Name == name {
			return v
		}
	}
	for _, v := range f.Locals {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// NewBasic creates a labeled basic statement registered with the function.
func (f *Func) NewBasic(k BasicKind) *Basic {
	b := &Basic{Label: len(f.Basics), Kind: k}
	f.Basics = append(f.Basics, b)
	return b
}

// AddParam registers the next parameter and gives it its ID. Every
// parameter is registered before the first local.
func (f *Func) AddParam(v *Var) *Var {
	if len(f.Locals) > 0 {
		panic("simple: AddParam after AddLocal in " + f.Name)
	}
	v.ID = len(f.Params)
	f.Params = append(f.Params, v)
	return v
}

// AddLocal registers a new local/temporary variable and gives it its ID.
func (f *Func) AddLocal(v *Var) *Var {
	v.ID = len(f.Params) + len(f.Locals)
	f.Locals = append(f.Locals, v)
	return v
}

// NumVars is the number of parameters and locals, one more than the
// largest ID among them.
func (f *Func) NumVars() int { return len(f.Params) + len(f.Locals) }

// VarByID returns the parameter or local with the given ID, or nil.
func (f *Func) VarByID(id int) *Var {
	switch {
	case id < 0:
		return nil
	case id < len(f.Params):
		return f.Params[id]
	case id < f.NumVars():
		return f.Locals[id-len(f.Params)]
	}
	return nil
}

// Program is a whole program in SIMPLE form.
type Program struct {
	Funcs   []*Func
	Globals []*Var
	// GlobalInit holds constant initial values (raw 64-bit words) for
	// globals that declare one.
	GlobalInit map[*Var]int64
	// Structs carries word layouts for the interpreter and block sizing:
	// name -> (size, field offsets).
	Structs map[string]*StructLayout
}

// StructLayout is the flattened word layout of a struct.
type StructLayout struct {
	Name    string
	Size    int
	Offsets map[string]int
	// Fields lists the top-level fields in memory order: declaration order
	// unless the struct's fields were clustered (internal/layout).
	Fields []string
	// FieldSizes holds each top-level field's size in words.
	FieldSizes map[string]int
	// FieldTypes holds each top-level field's type.
	FieldTypes map[string]earthc.Type
}

// FuncPanic is a panic raised inside an EachFunc body, re-raised with the
// name of the function being processed so the compiler can report where an
// internal error happened.
type FuncPanic struct {
	Func  string
	Value any
}

// EachFunc calls fn on every function in program order. A panic in fn stops
// the loop and is re-raised as a FuncPanic naming the function.
func (p *Program) EachFunc(fn func(f *Func)) {
	var cur *Func
	defer func() {
		if e := recover(); e != nil {
			panic(FuncPanic{Func: cur.Name, Value: e})
		}
	}()
	for _, cur = range p.Funcs {
		fn(cur)
	}
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}
