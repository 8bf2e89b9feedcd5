package earthc

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a File back to EARTH-C-like source. The output is not
// byte-identical to the input but is stable, making it useful for golden
// tests and dumps.
func Print(f *File) string {
	var b strings.Builder
	for _, s := range f.Structs {
		fmt.Fprintf(&b, "struct %s {\n", s.Name)
		for _, fl := range s.Fields {
			fmt.Fprintf(&b, "\t%s;\n", declString(fl.Type, fl.Name))
		}
		b.WriteString("};\n")
	}
	for _, g := range f.Globals {
		if g.Shared {
			b.WriteString("shared ")
		}
		b.WriteString(declString(g.Type, g.Name))
		if g.Init != nil {
			b.WriteString(" = ")
			b.WriteString(ExprString(g.Init))
		}
		b.WriteString(";\n")
	}
	for _, fn := range f.Funcs {
		params := make([]string, len(fn.Params))
		for i, pr := range fn.Params {
			params[i] = declString(pr.Type, pr.Name)
		}
		fmt.Fprintf(&b, "%s %s(%s)\n", fn.Ret, fn.Name, strings.Join(params, ", "))
		printStmt(&b, fn.Body, 0)
	}
	return b.String()
}

// declString renders "type name" in C declarator style.
func declString(t Type, name string) string {
	switch tt := t.(type) {
	case *PtrType:
		q := "*"
		if tt.Local {
			q = "local *"
		}
		return declString(tt.Elem, q+name)
	case *ArrayType:
		return declString(tt.Elem, name+"["+strconv.Itoa(tt.Len)+"]")
	default:
		return t.String() + " " + name
	}
}

func indent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("\t")
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	switch st := s.(type) {
	case *DeclStmt:
		indent(b, depth)
		if st.Decl.Shared {
			b.WriteString("shared ")
		}
		b.WriteString(declString(st.Decl.Type, st.Decl.Name))
		if st.Decl.Init != nil {
			b.WriteString(" = ")
			b.WriteString(ExprString(st.Decl.Init))
		}
		b.WriteString(";\n")
	case *ExprStmt:
		indent(b, depth)
		b.WriteString(ExprString(st.X))
		b.WriteString(";\n")
	case *Block:
		indent(b, depth)
		b.WriteString("{\n")
		for _, c := range st.Stmts {
			printStmt(b, c, depth+1)
		}
		indent(b, depth)
		b.WriteString("}\n")
	case *ParSeq:
		indent(b, depth)
		b.WriteString("{^\n")
		for _, c := range st.Stmts {
			printStmt(b, c, depth+1)
		}
		indent(b, depth)
		b.WriteString("^}\n")
	case *IfStmt:
		indent(b, depth)
		fmt.Fprintf(b, "if (%s)\n", ExprString(st.Cond))
		printStmt(b, st.Then, depth+1)
		if st.Else != nil {
			indent(b, depth)
			b.WriteString("else\n")
			printStmt(b, st.Else, depth+1)
		}
	case *WhileStmt:
		indent(b, depth)
		fmt.Fprintf(b, "while (%s)\n", ExprString(st.Cond))
		printStmt(b, st.Body, depth+1)
	case *DoStmt:
		indent(b, depth)
		b.WriteString("do\n")
		printStmt(b, st.Body, depth+1)
		indent(b, depth)
		fmt.Fprintf(b, "while (%s);\n", ExprString(st.Cond))
	case *ForStmt:
		indent(b, depth)
		fmt.Fprintf(b, "for (%s; %s; %s)\n",
			forInitString(st.Init), optExprString(st.Cond), optExprString(st.Post))
		printStmt(b, st.Body, depth+1)
	case *ForallStmt:
		indent(b, depth)
		fmt.Fprintf(b, "forall (%s; %s; %s)\n",
			forInitString(st.Init), optExprString(st.Cond), optExprString(st.Post))
		printStmt(b, st.Body, depth+1)
	case *SwitchStmt:
		indent(b, depth)
		fmt.Fprintf(b, "switch (%s) {\n", ExprString(st.Tag))
		for _, cc := range st.Cases {
			indent(b, depth)
			if cc.Vals == nil {
				b.WriteString("default:\n")
			} else {
				for _, v := range cc.Vals {
					fmt.Fprintf(b, "case %s:\n", ExprString(v))
				}
			}
			for _, c := range cc.Body {
				printStmt(b, c, depth+1)
			}
		}
		indent(b, depth)
		b.WriteString("}\n")
	case *BreakStmt:
		indent(b, depth)
		b.WriteString("break;\n")
	case *ContinueStmt:
		indent(b, depth)
		b.WriteString("continue;\n")
	case *ReturnStmt:
		indent(b, depth)
		if st.X == nil {
			b.WriteString("return;\n")
		} else {
			fmt.Fprintf(b, "return %s;\n", ExprString(st.X))
		}
	case *GotoStmt:
		indent(b, depth)
		fmt.Fprintf(b, "goto %s;\n", st.Label)
	case *LabeledStmt:
		indent(b, depth)
		fmt.Fprintf(b, "%s:\n", st.Label)
		printStmt(b, st.Stmt, depth)
	default:
		indent(b, depth)
		fmt.Fprintf(b, "/* ?stmt %T */\n", s)
	}
}

func forInitString(s Stmt) string {
	switch st := s.(type) {
	case nil:
		return ""
	case *ExprStmt:
		return ExprString(st.X)
	case *DeclStmt:
		out := declString(st.Decl.Type, st.Decl.Name)
		if st.Decl.Init != nil {
			out += " = " + ExprString(st.Decl.Init)
		}
		return out
	}
	return "?"
}

func optExprString(e Expr) string {
	if e == nil {
		return ""
	}
	return ExprString(e)
}

// ExprString renders an expression with minimal but unambiguous parentheses.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *IntLit:
		return strconv.FormatInt(x.Val, 10)
	case *FloatLit:
		return strconv.FormatFloat(x.Val, 'g', -1, 64)
	case *CharLit:
		return "'" + string(x.Val) + "'"
	case *StringLit:
		return strconv.Quote(x.Val)
	case *NullLit:
		return "NULL"
	case *Ident:
		return x.Name
	case *Unary:
		return x.Op.String() + parenUnless(x.X, isLeaf(x.X))
	case *Binary:
		return parenUnless(x.X, isLeaf(x.X)) + " " + x.Op.String() + " " +
			parenUnless(x.Y, isLeaf(x.Y))
	case *Assign:
		op := "="
		if x.Op != PlainAssign {
			op = x.Op.String() + "="
		}
		return ExprString(x.Lhs) + " " + op + " " + ExprString(x.Rhs)
	case *IncDec:
		op := "++"
		if x.Decr {
			op = "--"
		}
		if x.Prefix {
			return op + ExprString(x.X)
		}
		return ExprString(x.X) + op
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		out := x.Fun + "(" + strings.Join(args, ", ") + ")"
		if x.Place != nil {
			switch x.Place.Kind {
			case PlaceOwnerOf:
				out += "@OWNER_OF(" + ExprString(x.Place.Arg) + ")"
			case PlaceOn:
				out += "@ON(" + ExprString(x.Place.Arg) + ")"
			case PlaceHome:
				out += "@HOME"
			}
		}
		return out
	case *Member:
		sep := "."
		if x.Arrow {
			sep = "->"
		}
		return parenUnless(x.X, isLeaf(x.X)) + sep + x.Name
	case *Index:
		return parenUnless(x.X, isLeaf(x.X)) + "[" + ExprString(x.I) + "]"
	case *SizeofExpr:
		return "sizeof(" + x.T.String() + ")"
	case *CondExpr:
		return parenUnless(x.C, isLeaf(x.C)) + " ? " + ExprString(x.T) + " : " + ExprString(x.F)
	}
	return fmt.Sprintf("?expr(%T)", e)
}

func isLeaf(e Expr) bool {
	switch e.(type) {
	case *IntLit, *FloatLit, *CharLit, *StringLit, *NullLit, *Ident,
		*Call, *Member, *Index, *SizeofExpr, *IncDec:
		return true
	}
	return false
}

func parenUnless(e Expr, leaf bool) string {
	s := ExprString(e)
	if leaf {
		return s
	}
	return "(" + s + ")"
}
