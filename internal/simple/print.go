package simple

import (
	"fmt"
	"strings"

	"repro/internal/earthc"
)

// PrintOptions controls SIMPLE pretty-printing.
type PrintOptions struct {
	Labels bool // prefix basic statements with their Si labels
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(FuncString(f, PrintOptions{}))
	}
	return b.String()
}

// FuncString renders one function.
func FuncString(f *Func, opt PrintOptions) string {
	var b strings.Builder
	params := make([]string, len(f.Params))
	for i, v := range f.Params {
		params[i] = v.Type.String() + " " + v.Name
	}
	fmt.Fprintf(&b, "%s %s(%s)\n{\n", f.Ret, f.Name, strings.Join(params, ", "))
	pr := &printer{opt: opt}
	pr.seq(&b, f.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

type printer struct{ opt PrintOptions }

func (p *printer) indent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("    ")
	}
}

func (p *printer) seq(b *strings.Builder, s *Seq, depth int) {
	for _, st := range s.Stmts {
		p.stmt(b, st, depth)
	}
}

func (p *printer) stmt(b *strings.Builder, s Stmt, depth int) {
	switch st := s.(type) {
	case *Basic:
		p.indent(b, depth)
		if p.opt.Labels {
			fmt.Fprintf(b, "S%d: ", st.Label)
		}
		b.WriteString(BasicText(st))
		b.WriteString("\n")
	case *Seq:
		p.seq(b, st, depth)
	case *If:
		p.indent(b, depth)
		fmt.Fprintf(b, "if (%s) {\n", st.Cond)
		p.seq(b, st.Then, depth+1)
		if st.Else != nil && len(st.Else.Stmts) > 0 {
			p.indent(b, depth)
			b.WriteString("} else {\n")
			p.seq(b, st.Else, depth+1)
		}
		p.indent(b, depth)
		b.WriteString("}\n")
	case *Switch:
		p.indent(b, depth)
		fmt.Fprintf(b, "switch (%s) {\n", st.Tag)
		for _, cc := range st.Cases {
			p.indent(b, depth)
			if cc.Vals == nil {
				b.WriteString("default:\n")
			} else {
				vals := make([]string, len(cc.Vals))
				for i, v := range cc.Vals {
					vals[i] = fmt.Sprintf("%d", v)
				}
				fmt.Fprintf(b, "case %s:\n", strings.Join(vals, ", "))
			}
			p.seq(b, cc.Body, depth+1)
		}
		p.indent(b, depth)
		b.WriteString("}\n")
	case *While:
		if len(st.Eval.Stmts) > 0 {
			p.indent(b, depth)
			b.WriteString("/* cond eval */\n")
			p.seq(b, st.Eval, depth)
		}
		p.indent(b, depth)
		fmt.Fprintf(b, "while (%s) {\n", st.Cond)
		p.seq(b, st.Body, depth+1)
		p.indent(b, depth)
		b.WriteString("}\n")
	case *Do:
		p.indent(b, depth)
		b.WriteString("do {\n")
		p.seq(b, st.Body, depth+1)
		if len(st.Eval.Stmts) > 0 {
			p.seq(b, st.Eval, depth+1)
		}
		p.indent(b, depth)
		fmt.Fprintf(b, "} while (%s);\n", st.Cond)
	case *Forall:
		p.indent(b, depth)
		fmt.Fprintf(b, "forall (%s) {\n", st.Cond)
		p.seq(b, st.Body, depth+1)
		if len(st.Step.Stmts) > 0 {
			p.indent(b, depth)
			b.WriteString("} step {\n")
			p.seq(b, st.Step, depth+1)
		}
		p.indent(b, depth)
		b.WriteString("}\n")
	case *Par:
		p.indent(b, depth)
		b.WriteString("{^\n")
		for i, arm := range st.Arms {
			if i > 0 {
				p.indent(b, depth)
				b.WriteString("//\n")
			}
			p.seq(b, arm, depth+1)
		}
		p.indent(b, depth)
		b.WriteString("^}\n")
	default:
		p.indent(b, depth)
		fmt.Fprintf(b, "/* ?stmt %T */\n", s)
	}
}

// BasicText renders a basic statement without label or indentation.
func BasicText(st *Basic) string {
	switch st.Kind {
	case KAssign:
		return fmt.Sprintf("%s = %s;", st.Lhs, st.Rhs)
	case KCall:
		call := st.Fun + "(" + atomList(st.Args) + ")"
		if st.Place != nil {
			switch st.Place.Kind {
			case earthc.PlaceOwnerOf:
				call += "@OWNER_OF(" + st.Place.Arg.String() + ")"
			case earthc.PlaceOn:
				call += "@ON(" + st.Place.Arg.String() + ")"
			case earthc.PlaceHome:
				call += "@HOME"
			}
		}
		if st.Dst != nil {
			return fmt.Sprintf("%s = %s;", st.Dst, call)
		}
		return call + ";"
	case KBuiltin:
		args := atomList(st.Args)
		if st.StrArg != "" {
			args = fmt.Sprintf("%q", st.StrArg)
		}
		for _, v := range st.ArgVars {
			if args != "" {
				args = "&" + v.Name + ", " + args
			} else {
				args = "&" + v.Name
			}
		}
		call := st.Fun + "(" + args + ")"
		if st.Dst != nil {
			return fmt.Sprintf("%s = %s;", st.Dst, call)
		}
		return call + ";"
	case KAlloc:
		if st.Node != nil {
			return fmt.Sprintf("%s = alloc_on(%s, %s);", st.Dst, st.StructName, st.Node)
		}
		return fmt.Sprintf("%s = alloc(%s);", st.Dst, st.StructName)
	case KReturn:
		if st.Val != nil {
			return fmt.Sprintf("return(%s);", st.Val)
		}
		return "return;"
	case KBlkCopy:
		src := "?"
		dst := "?"
		if st.P != nil {
			src = "*" + st.P.Name
		} else if st.Local != nil {
			src = st.Local.Name
		}
		if st.P2 != nil {
			dst = "*" + st.P2.Name
		} else if st.Dst != nil {
			dst = st.Dst.Name
		}
		return fmt.Sprintf("%s = %s; /* struct copy, %d words */", dst, src, st.Size)
	case KGetF:
		return fmt.Sprintf("%s = %s->%s; /* get_sync */", st.Dst, st.P, st.Field)
	case KPutF:
		if st.Val == nil {
			return fmt.Sprintf("%s->%s = %s.%s; /* put_sync */", st.P, st.Field, st.Local, st.Field)
		}
		return fmt.Sprintf("%s->%s = %s; /* put_sync */", st.P, st.Field, st.Val)
	case KBlkRead:
		return fmt.Sprintf("blkmov(%s, &%s, %d); /* read */", st.P, st.Local, st.Size)
	case KBlkWrite:
		return fmt.Sprintf("blkmov(&%s, %s, %d); /* write */", st.Local, st.P, st.Size)
	}
	return fmt.Sprintf("/* ?basic kind=%d */", st.Kind)
}

func atomList(as []Atom) string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return strings.Join(out, ", ")
}
