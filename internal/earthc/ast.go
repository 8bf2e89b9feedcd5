package earthc

// This file defines the abstract syntax tree for the EARTH-C dialect. The
// tree is deliberately close to C: the interesting extensions are forall
// loops, parallel sequences, shared/local qualifiers, and call placement
// annotations (@OWNER_OF(p), @ON(e), @HOME).

// File is a parsed translation unit.
type File struct {
	Name    string // source name, for diagnostics
	Structs []*StructDef
	Globals []*VarDecl
	Funcs   []*FuncDef
}

// StructByName returns the struct definition with the given name, or nil.
func (f *File) StructByName(name string) *StructDef {
	for _, s := range f.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// FuncByName returns the function definition with the given name, or nil.
func (f *File) FuncByName(name string) *FuncDef {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// ---------------------------------------------------------------- types ---

// Type is the interface implemented by all type nodes.
type Type interface {
	typeNode()
	String() string
}

// Prim is the kind of a primitive type.
type Prim int

// Primitive type kinds.
const (
	Void Prim = iota
	Int
	Double
	Char
)

func (p Prim) String() string {
	switch p {
	case Void:
		return "void"
	case Int:
		return "int"
	case Double:
		return "double"
	case Char:
		return "char"
	}
	return "?prim"
}

// PrimType is a primitive type: void, int, double, or char.
type PrimType struct{ Kind Prim }

func (*PrimType) typeNode()        {}
func (t *PrimType) String() string { return t.Kind.String() }

// StructRef names a struct type. The definition is resolved by sema.
type StructRef struct{ Name string }

func (*StructRef) typeNode()        {}
func (t *StructRef) String() string { return "struct " + t.Name }

// PtrType is a pointer type. Local marks an EARTH-C "local" pointer: the
// compiler may assume the pointee resides in the local memory of the
// executing node, so dereferences are not remote operations.
type PtrType struct {
	Elem  Type
	Local bool
}

func (*PtrType) typeNode() {}
func (t *PtrType) String() string {
	if t.Local {
		return t.Elem.String() + " local *"
	}
	return t.Elem.String() + " *"
}

// ArrayType is a fixed-length array. Arrays are always stack/local storage
// in this dialect; distributed data uses pointer structures.
type ArrayType struct {
	Elem Type
	Len  int
}

func (*ArrayType) typeNode() {}
func (t *ArrayType) String() string {
	return t.Elem.String() + "[]"
}

// SameType reports structural equality of two types, ignoring the Local
// qualifier on pointers.
func SameType(a, b Type) bool {
	switch x := a.(type) {
	case *PrimType:
		y, ok := b.(*PrimType)
		return ok && x.Kind == y.Kind
	case *StructRef:
		y, ok := b.(*StructRef)
		return ok && x.Name == y.Name
	case *PtrType:
		y, ok := b.(*PtrType)
		return ok && SameType(x.Elem, y.Elem)
	case *ArrayType:
		y, ok := b.(*ArrayType)
		return ok && x.Len == y.Len && SameType(x.Elem, y.Elem)
	}
	return false
}

// ----------------------------------------------------------- definitions ---

// Field is a single struct field.
type Field struct {
	Name string
	Type Type
	Pos  Pos
}

// StructDef is a struct type definition. The tag name doubles as a plain
// type name (the parser auto-typedefs struct tags).
type StructDef struct {
	Name   string
	Fields []*Field
	Pos    Pos
}

// FieldByName returns the field with the given name, or nil.
func (s *StructDef) FieldByName(name string) *Field {
	for _, f := range s.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Param is a function parameter.
type Param struct {
	Name string
	Type Type
	Pos  Pos
}

// FuncDef is a function definition.
type FuncDef struct {
	Name   string
	Ret    Type
	Params []*Param
	Body   *Block
	Pos    Pos
}

// VarDecl is a variable declaration, either at file scope or as a statement.
type VarDecl struct {
	Name   string
	Type   Type
	Shared bool // declared with the shared qualifier
	Init   Expr // optional initializer
	Pos    Pos
	// Sym is the declared symbol, set by semantic analysis: a 1-based index
	// into the checking sema.Program's symbol table, 0 when not declared.
	Sym int
}

// ------------------------------------------------------------ statements ---

// Stmt is the interface implemented by all statement nodes.
type Stmt interface{ stmtNode() }

// DeclStmt wraps a variable declaration in statement position.
type DeclStmt struct{ Decl *VarDecl }

// ExprStmt is an expression evaluated for its side effects.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// Block is a brace-delimited statement sequence.
type Block struct {
	Stmts []Stmt
	Pos   Pos
	// decls marks the Block parseDeclStmt makes of a declaration with
	// several declarators (see appendStmt).
	decls bool
}

// ParSeq is an EARTH-C parallel statement sequence {^ s1; s2; ... ^}: the
// component statements may execute concurrently and must not interfere
// except through shared variables.
type ParSeq struct {
	Stmts []Stmt
	Pos   Pos
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Pos  Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// DoStmt is a do/while loop.
type DoStmt struct {
	Body Stmt
	Cond Expr
	Pos  Pos
}

// ForStmt is a C for loop. Init may be a DeclStmt or ExprStmt (or nil).
type ForStmt struct {
	Init Stmt
	Cond Expr // may be nil
	Post Expr // may be nil
	Body Stmt
	Pos  Pos
}

// ForallStmt is an EARTH-C parallel loop: iterations may run concurrently
// and must not carry dependences on ordinary variables.
type ForallStmt struct {
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
	Pos  Pos
}

// CaseClause is one case (or default, when Vals is nil) of a switch.
type CaseClause struct {
	Vals []Expr // nil for default
	Body []Stmt
	Pos  Pos
}

// SwitchStmt is a C switch. Each case body is implicitly terminated (no
// fallthrough in this dialect); break is accepted and ignored at case end.
type SwitchStmt struct {
	Tag   Expr
	Cases []*CaseClause
	Pos   Pos
}

// BreakStmt breaks the innermost loop or switch.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	X   Expr // may be nil
	Pos Pos
}

// GotoStmt transfers control to a label. Goto is eliminated before lowering
// to SIMPLE (see gotoelim.go).
type GotoStmt struct {
	Label string
	Pos   Pos
}

// LabeledStmt attaches a label to a statement.
type LabeledStmt struct {
	Label string
	Stmt  Stmt
	Pos   Pos
}

func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*Block) stmtNode()        {}
func (*ParSeq) stmtNode()       {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*ForallStmt) stmtNode()   {}
func (*SwitchStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}
func (*GotoStmt) stmtNode()     {}
func (*LabeledStmt) stmtNode()  {}

// ----------------------------------------------------------- expressions ---

// Expr is the interface implemented by all expression nodes. Every node
// embeds Typed, which carries the type semantic analysis assigned to it.
type Expr interface {
	exprNode()
	CheckedType() Type
	SetCheckedType(Type)
}

// Typed is embedded in every expression node and holds the type sema.Check
// assigned to the node: nil before checking, or where the node failed to
// check. Check overwrites it on every node it visits, so a File may be
// checked again after a transformation.
type Typed struct{ typ Type }

// CheckedType returns the type recorded on the node.
func (t *Typed) CheckedType() Type { return t.typ }

// SetCheckedType records the node's type. Semantic analysis sets it on the
// nodes it checks, lowering on the nodes it synthesizes.
func (t *Typed) SetCheckedType(ty Type) { t.typ = ty }

// IntLit is an integer literal.
type IntLit struct {
	Typed
	Val int64
	Pos Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Typed
	Val float64
	Pos Pos
}

// CharLit is a character literal (value of the single character).
type CharLit struct {
	Typed
	Val byte
	Pos Pos
}

// StringLit is a string literal; only valid as an argument to print
// intrinsics.
type StringLit struct {
	Typed
	Val string
	Pos Pos
}

// NullLit is the NULL pointer constant.
type NullLit struct {
	Typed
	Pos Pos
}

// Ident is a variable or function reference.
type Ident struct {
	Typed
	Name string
	Pos  Pos
	// Sym is the resolved symbol, set by semantic analysis: a 1-based index
	// into the checking sema.Program's symbol table, 0 when unresolved.
	Sym int
}

// UnOp is a unary operator.
type UnOp int

// Unary operators.
const (
	Neg   UnOp = iota // -x
	LNot              // !x
	BNot              // ~x
	Deref             // *p
	Addr              // &x
)

func (op UnOp) String() string {
	return [...]string{"-", "!", "~", "*", "&"}[op]
}

// Unary is a unary operation.
type Unary struct {
	Typed
	Op  UnOp
	X   Expr
	Pos Pos
}

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Lt
	Gt
	Le
	Ge
	Eq
	Ne
	LogAnd
	LogOr
)

func (op BinOp) String() string {
	return [...]string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"<", ">", "<=", ">=", "==", "!=", "&&", "||"}[op]
}

// Binary is a binary operation.
type Binary struct {
	Typed
	Op   BinOp
	X, Y Expr
	Pos  Pos
}

// Assign is an assignment; Op is the compound operator (Add for +=, etc.)
// or -1 for plain assignment.
type Assign struct {
	Typed
	Op  BinOp // -1 for plain =
	Lhs Expr
	Rhs Expr
	Pos Pos
}

// PlainAssign is the Op value of a simple (non-compound) assignment.
const PlainAssign BinOp = -1

// IncDec is ++ or -- in prefix or postfix position.
type IncDec struct {
	Typed
	X      Expr
	Decr   bool
	Prefix bool
	Pos    Pos
}

// PlaceKind distinguishes EARTH-C call placement annotations.
type PlaceKind int

// Call placement kinds.
const (
	PlaceNone    PlaceKind = iota
	PlaceOwnerOf           // f(...)@OWNER_OF(p): run at the node owning *p
	PlaceOn                // f(...)@ON(e): run at node e
	PlaceHome              // f(...)@HOME: run where the enclosing function began
)

// Placement is a call placement annotation.
type Placement struct {
	Kind PlaceKind
	Arg  Expr // pointer for OwnerOf, node id for On, nil for Home
}

// Call is a function call, possibly with a placement annotation.
type Call struct {
	Typed
	Fun   string
	Args  []Expr
	Place *Placement // nil for ordinary local-node calls
	Pos   Pos
	// Target is the call's resolution, set by semantic analysis: a 1-based
	// index into the checking sema.Program's call table, 0 when unresolved.
	Target int
}

// Member is field access: X.Name or X->Name (Arrow).
type Member struct {
	Typed
	X     Expr
	Name  string
	Arrow bool
	Pos   Pos
}

// Index is array indexing X[I].
type Index struct {
	Typed
	X, I Expr
	Pos  Pos
}

// SizeofExpr is sizeof(type), in words (see sema for layout).
type SizeofExpr struct {
	Typed
	T   Type
	Pos Pos
}

// CondExpr is the ternary operator c ? t : f.
type CondExpr struct {
	Typed
	C, T, F Expr
	Pos     Pos
}

func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*CharLit) exprNode()    {}
func (*StringLit) exprNode()  {}
func (*NullLit) exprNode()    {}
func (*Ident) exprNode()      {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}
func (*Assign) exprNode()     {}
func (*IncDec) exprNode()     {}
func (*Call) exprNode()       {}
func (*Member) exprNode()     {}
func (*Index) exprNode()      {}
func (*SizeofExpr) exprNode() {}
func (*CondExpr) exprNode()   {}
