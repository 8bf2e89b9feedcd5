package earthc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser for the EARTH-C dialect.
type Parser struct {
	toks    []Token
	pos     int
	depth   int // current statement/expression nesting, bounded by maxParseDepth
	errs    []error
	structs map[string]bool // struct tags seen so far, for decl/expr disambiguation
	file    *File
}

// maxParseDepth bounds statement and expression nesting. Adversarially deep
// input (thousands of '(' or '{') must surface as a syntax error, not a
// goroutine stack overflow — which recover() cannot catch.
const maxParseDepth = 400

// enter charges one level of recursion; callers pair it with `defer p.leave()`.
func (p *Parser) enter() {
	p.depth++
	if p.depth > maxParseDepth {
		p.errorf("nesting exceeds %d levels", maxParseDepth)
		panic(bailout{})
	}
}

func (p *Parser) leave() { p.depth-- }

// bailout is panicked internally to abort parsing of one construct during
// error recovery; it never escapes ParseFile.
type bailout struct{}

// ParseFile parses a complete EARTH-C translation unit. It returns the file
// along with any syntax errors; the file may be partially populated when
// errors are present.
func ParseFile(name, src string) (*File, error) {
	toks, lexErrs := Tokenize(src)
	p := &Parser{
		toks:    toks,
		structs: make(map[string]bool),
		file:    &File{Name: name},
	}
	p.errs = append(p.errs, lexErrs...)
	p.parseFile()
	if len(p.errs) > 0 {
		msgs := make([]string, 0, len(p.errs))
		for i, e := range p.errs {
			if i == 10 {
				msgs = append(msgs, fmt.Sprintf("... and %d more errors", len(p.errs)-10))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return p.file, errors.New(name + ": " + strings.Join(msgs, "\n"+name+": "))
	}
	return p.file, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }
func (p *Parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *Parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	panic(bailout{})
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
}

// sync skips tokens until a likely top-level or statement boundary.
func (p *Parser) sync(stop ...Kind) {
	depth := 0
	for !p.at(EOF) {
		k := p.cur().Kind
		if depth == 0 {
			for _, s := range stop {
				if k == s {
					return
				}
			}
		}
		switch k {
		case LBRACE, LPARSEQ:
			depth++
		case RBRACE, RPARSEQ:
			if depth == 0 {
				return
			}
			depth--
		}
		p.next()
	}
}

// skipIfStuck drops one token when recovery from a construct that began at
// start consumed nothing — it failed on a token sync stops at but its caller
// does not take, such as a stray `^}` in a plain block or a `}` in a parallel
// sequence — so the enclosing loop cannot retry the same token forever.
func (p *Parser) skipIfStuck(start int) {
	if p.pos == start {
		p.next()
	}
}

// ------------------------------------------------------------- top level ---

func (p *Parser) parseFile() {
	for !p.at(EOF) {
		func() {
			start := p.pos
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(bailout); !ok {
						panic(r)
					}
					p.sync(SEMI, RBRACE)
					p.accept(SEMI)
					p.accept(RBRACE)
					p.skipIfStuck(start)
				}
			}()
			p.parseTopDecl()
		}()
	}
}

func (p *Parser) parseTopDecl() {
	if p.at(KwStruct) && p.peek().Kind == IDENT && p.toks[p.pos+2].Kind == LBRACE {
		p.parseStructDef()
		return
	}
	shared := p.accept(KwShared)
	base := p.parseTypeSpec()
	// Distinguish "type name(params) {body}" from "type declarator;"
	save := p.pos
	typ, name, npos := p.parseDeclarator(base)
	if p.at(LPAREN) {
		p.parseFuncDef(typ, name, npos)
		return
	}
	_ = save
	init := Expr(nil)
	if p.accept(ASSIGN) {
		init = p.parseExpr()
	}
	p.expect(SEMI)
	p.file.Globals = append(p.file.Globals, &VarDecl{
		Name: name, Type: typ, Shared: shared, Init: init, Pos: npos,
	})
}

func (p *Parser) parseStructDef() {
	pos := p.expect(KwStruct).Pos
	name := p.expect(IDENT).Text
	p.structs[name] = true
	p.expect(LBRACE)
	def := &StructDef{Name: name, Pos: pos}
	for !p.at(RBRACE) && !p.at(EOF) {
		base := p.parseTypeSpec()
		for {
			ft, fname, fpos := p.parseDeclarator(base)
			def.Fields = append(def.Fields, &Field{Name: fname, Type: ft, Pos: fpos})
			if !p.accept(COMMA) {
				break
			}
		}
		p.expect(SEMI)
	}
	p.expect(RBRACE)
	p.expect(SEMI)
	p.file.Structs = append(p.file.Structs, def)
}

func (p *Parser) parseFuncDef(ret Type, name string, pos Pos) {
	fn := &FuncDef{Name: name, Ret: ret, Pos: pos}
	p.expect(LPAREN)
	if !p.at(RPAREN) {
		if p.at(KwVoid) && p.peek().Kind == RPAREN {
			p.next()
		} else {
			for {
				base := p.parseTypeSpec()
				pt, pname, ppos := p.parseDeclarator(base)
				fn.Params = append(fn.Params, &Param{Name: pname, Type: pt, Pos: ppos})
				if !p.accept(COMMA) {
					break
				}
			}
		}
	}
	p.expect(RPAREN)
	p.accept(SEMI) // tolerate "int f(...);{" style: stray semicolon before body
	fn.Body = p.parseBlock()
	p.file.Funcs = append(p.file.Funcs, fn)
}

// ------------------------------------------------------------------ types ---

// typeSpecStart reports whether the current token can begin a type
// specifier in declaration position.
func (p *Parser) typeSpecStart() bool {
	switch p.cur().Kind {
	case KwInt, KwDouble, KwChar, KwVoid, KwStruct:
		return true
	case IDENT:
		if !p.structs[p.cur().Text] {
			return false
		}
		// "Point * p" is a declaration; "Point * 3" or "p * q" is not
		// (the latter never reaches here since p is not a struct tag).
		switch p.peek().Kind {
		case STAR, IDENT, KwLocal:
			return true
		}
		return false
	}
	return false
}

func (p *Parser) parseTypeSpec() Type {
	switch p.cur().Kind {
	case KwInt:
		p.next()
		return &PrimType{Kind: Int}
	case KwDouble:
		p.next()
		return &PrimType{Kind: Double}
	case KwChar:
		p.next()
		return &PrimType{Kind: Char}
	case KwVoid:
		p.next()
		return &PrimType{Kind: Void}
	case KwStruct:
		p.next()
		name := p.expect(IDENT).Text
		return &StructRef{Name: name}
	case IDENT:
		name := p.cur().Text
		if p.structs[name] {
			p.next()
			return &StructRef{Name: name}
		}
	}
	p.errorf("expected type, found %s", p.cur())
	panic(bailout{})
}

// parseDeclarator parses ('local'? '*')* name ('[' INT ']')? and combines it
// with the base type. The EARTH-C style "node local *p" marks the pointer as
// local (its pointee is in local memory).
func (p *Parser) parseDeclarator(base Type) (Type, string, Pos) {
	t := base
	for {
		local := false
		if p.at(KwLocal) {
			local = true
			p.next()
		}
		if p.at(STAR) {
			p.next()
			t = &PtrType{Elem: t, Local: local}
			continue
		}
		if local {
			p.errorf("'local' must qualify a pointer declarator")
		}
		break
	}
	nameTok := p.expect(IDENT)
	if p.accept(LBRACK) {
		lenTok := p.expect(INT)
		n, err := strconv.Atoi(lenTok.Text)
		if err != nil || n <= 0 {
			p.errorf("bad array length %q", lenTok.Text)
			n = 1
		}
		p.expect(RBRACK)
		t = &ArrayType{Elem: t, Len: n}
	}
	return t, nameTok.Text, nameTok.Pos
}

// ------------------------------------------------------------- statements ---

func (p *Parser) parseBlock() *Block {
	pos := p.expect(LBRACE).Pos
	b := &Block{Pos: pos}
	for !p.at(RBRACE) && !p.at(EOF) {
		b.Stmts = appendStmt(b.Stmts, p.parseStmtRecover())
	}
	p.expect(RBRACE)
	return b
}

// appendStmt appends s to a statement list. The declarations of a
// declaration with several declarators are spliced in, so their names stay
// in scope for the rest of the list.
func appendStmt(list []Stmt, s Stmt) []Stmt {
	if b, ok := s.(*Block); ok && b.decls {
		return append(list, b.Stmts...)
	}
	return append(list, s)
}

func (p *Parser) parseStmtRecover() (s Stmt) {
	start := p.pos
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			p.sync(SEMI, RBRACE)
			p.accept(SEMI)
			p.skipIfStuck(start)
			s = &Block{} // empty placeholder
		}
	}()
	return p.parseStmt()
}

func (p *Parser) parseStmt() Stmt {
	p.enter()
	defer p.leave()
	switch p.cur().Kind {
	case LBRACE:
		return p.parseBlock()
	case LPARSEQ:
		pos := p.next().Pos
		ps := &ParSeq{Pos: pos}
		for !p.at(RPARSEQ) && !p.at(EOF) {
			ps.Stmts = appendStmt(ps.Stmts, p.parseStmtRecover())
		}
		p.expect(RPARSEQ)
		return ps
	case KwIf:
		pos := p.next().Pos
		p.expect(LPAREN)
		cond := p.parseExpr()
		p.expect(RPAREN)
		then := p.parseStmt()
		var els Stmt
		if p.accept(KwElse) {
			els = p.parseStmt()
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Pos: pos}
	case KwWhile:
		pos := p.next().Pos
		p.expect(LPAREN)
		cond := p.parseExpr()
		p.expect(RPAREN)
		body := p.parseStmt()
		return &WhileStmt{Cond: cond, Body: body, Pos: pos}
	case KwDo:
		pos := p.next().Pos
		body := p.parseStmt()
		p.expect(KwWhile)
		p.expect(LPAREN)
		cond := p.parseExpr()
		p.expect(RPAREN)
		p.expect(SEMI)
		return &DoStmt{Body: body, Cond: cond, Pos: pos}
	case KwFor, KwForall:
		isForall := p.cur().Kind == KwForall
		pos := p.next().Pos
		p.expect(LPAREN)
		var init Stmt
		if !p.at(SEMI) {
			if p.typeSpecStart() {
				init = p.parseDeclStmt()
			} else {
				e := p.parseExpr()
				p.expect(SEMI)
				init = &ExprStmt{X: e, Pos: pos}
			}
		} else {
			p.expect(SEMI)
		}
		var cond Expr
		if !p.at(SEMI) {
			cond = p.parseExpr()
		}
		p.expect(SEMI)
		var post Expr
		if !p.at(RPAREN) {
			post = p.parseExpr()
		}
		p.expect(RPAREN)
		body := p.parseStmt()
		if isForall {
			return &ForallStmt{Init: init, Cond: cond, Post: post, Body: body, Pos: pos}
		}
		return &ForStmt{Init: init, Cond: cond, Post: post, Body: body, Pos: pos}
	case KwSwitch:
		return p.parseSwitch()
	case KwBreak:
		pos := p.next().Pos
		p.expect(SEMI)
		return &BreakStmt{Pos: pos}
	case KwContinue:
		pos := p.next().Pos
		p.expect(SEMI)
		return &ContinueStmt{Pos: pos}
	case KwReturn:
		pos := p.next().Pos
		var x Expr
		if !p.at(SEMI) {
			x = p.parseExpr()
		}
		p.expect(SEMI)
		return &ReturnStmt{X: x, Pos: pos}
	case KwGoto:
		pos := p.next().Pos
		lbl := p.expect(IDENT).Text
		p.expect(SEMI)
		return &GotoStmt{Label: lbl, Pos: pos}
	case SEMI:
		pos := p.next().Pos
		return &Block{Pos: pos}
	case KwShared:
		return p.parseDeclStmt()
	case IDENT:
		if p.peek().Kind == COLON {
			pos := p.cur().Pos
			lbl := p.next().Text
			p.next() // colon
			return &LabeledStmt{Label: lbl, Stmt: p.parseStmt(), Pos: pos}
		}
		if p.typeSpecStart() {
			return p.parseDeclStmt()
		}
	case KwInt, KwDouble, KwChar, KwVoid, KwStruct:
		return p.parseDeclStmt()
	}
	pos := p.cur().Pos
	e := p.parseExpr()
	p.expect(SEMI)
	return &ExprStmt{X: e, Pos: pos}
}

// parseDeclStmt parses a declaration statement; multiple declarators are
// split into a Block of DeclStmts, which a statement list splices in.
func (p *Parser) parseDeclStmt() Stmt {
	shared := p.accept(KwShared)
	base := p.parseTypeSpec()
	var decls []Stmt
	for {
		t, name, pos := p.parseDeclarator(base)
		var init Expr
		if p.accept(ASSIGN) {
			init = p.parseExpr()
		}
		decls = append(decls, &DeclStmt{Decl: &VarDecl{
			Name: name, Type: t, Shared: shared, Init: init, Pos: pos,
		}})
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(SEMI)
	if len(decls) == 1 {
		return decls[0]
	}
	return &Block{Stmts: decls, decls: true}
}

func (p *Parser) parseSwitch() Stmt {
	pos := p.expect(KwSwitch).Pos
	p.expect(LPAREN)
	tag := p.parseExpr()
	p.expect(RPAREN)
	p.expect(LBRACE)
	sw := &SwitchStmt{Tag: tag, Pos: pos}
	for !p.at(RBRACE) && !p.at(EOF) {
		cc := &CaseClause{Pos: p.cur().Pos}
		switch {
		case p.accept(KwCase):
			cc.Vals = append(cc.Vals, p.parseExpr())
			p.expect(COLON)
			for p.accept(KwCase) {
				cc.Vals = append(cc.Vals, p.parseExpr())
				p.expect(COLON)
			}
		case p.accept(KwDefault):
			p.expect(COLON)
		default:
			p.errorf("expected case or default, found %s", p.cur())
			panic(bailout{})
		}
		for !p.at(KwCase) && !p.at(KwDefault) && !p.at(RBRACE) && !p.at(EOF) {
			s := p.parseStmtRecover()
			// In this dialect every case implicitly breaks; a trailing
			// break statement is accepted and dropped.
			if _, isBreak := s.(*BreakStmt); isBreak {
				continue
			}
			cc.Body = appendStmt(cc.Body, s)
		}
		sw.Cases = append(sw.Cases, cc)
	}
	p.expect(RBRACE)
	return sw
}

// ------------------------------------------------------------ expressions ---

func (p *Parser) parseExpr() Expr { return p.parseAssign() }

func (p *Parser) parseAssign() Expr {
	p.enter()
	defer p.leave()
	lhs := p.parseTernary()
	switch p.cur().Kind {
	case ASSIGN:
		pos := p.next().Pos
		return &Assign{Op: PlainAssign, Lhs: lhs, Rhs: p.parseAssign(), Pos: pos}
	case ADDEQ:
		pos := p.next().Pos
		return &Assign{Op: Add, Lhs: lhs, Rhs: p.parseAssign(), Pos: pos}
	case SUBEQ:
		pos := p.next().Pos
		return &Assign{Op: Sub, Lhs: lhs, Rhs: p.parseAssign(), Pos: pos}
	case MULEQ:
		pos := p.next().Pos
		return &Assign{Op: Mul, Lhs: lhs, Rhs: p.parseAssign(), Pos: pos}
	case DIVEQ:
		pos := p.next().Pos
		return &Assign{Op: Div, Lhs: lhs, Rhs: p.parseAssign(), Pos: pos}
	}
	return lhs
}

func (p *Parser) parseTernary() Expr {
	p.enter()
	defer p.leave()
	c := p.parseBinary(0)
	if p.at(QUESTION) {
		pos := p.next().Pos
		t := p.parseAssign()
		p.expect(COLON)
		f := p.parseTernary()
		return &CondExpr{C: c, T: t, F: f, Pos: pos}
	}
	return c
}

// binPrec returns the precedence of the binary operator starting at the
// current token, or -1. Higher binds tighter.
func binPrec(k Kind) (BinOp, int) {
	switch k {
	case STAR:
		return Mul, 10
	case SLASH:
		return Div, 10
	case PERCENT:
		return Rem, 10
	case PLUS:
		return Add, 9
	case MINUS:
		return Sub, 9
	case SHL:
		return Shl, 8
	case SHR:
		return Shr, 8
	case LT:
		return Lt, 7
	case GT:
		return Gt, 7
	case LE:
		return Le, 7
	case GE:
		return Ge, 7
	case EQ:
		return Eq, 6
	case NE:
		return Ne, 6
	case AMP:
		return And, 5
	case CARET:
		return Xor, 4
	case PIPE:
		return Or, 3
	case LAND:
		return LogAnd, 2
	case LOR:
		return LogOr, 1
	}
	return 0, -1
}

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		op, prec := binPrec(p.cur().Kind)
		if prec < minPrec || prec == -1 {
			return lhs
		}
		pos := p.next().Pos
		rhs := p.parseBinary(prec + 1)
		lhs = &Binary{Op: op, X: lhs, Y: rhs, Pos: pos}
	}
}

// parseUnary carries the depth guard: every unbounded expression recursion
// (unary chains, parenthesized primaries, call arguments, index expressions)
// passes through here before descending further.
func (p *Parser) parseUnary() Expr {
	p.enter()
	defer p.leave()
	switch p.cur().Kind {
	case MINUS:
		pos := p.next().Pos
		return &Unary{Op: Neg, X: p.parseUnary(), Pos: pos}
	case NOT:
		pos := p.next().Pos
		return &Unary{Op: LNot, X: p.parseUnary(), Pos: pos}
	case TILDE:
		pos := p.next().Pos
		return &Unary{Op: BNot, X: p.parseUnary(), Pos: pos}
	case STAR:
		pos := p.next().Pos
		return &Unary{Op: Deref, X: p.parseUnary(), Pos: pos}
	case AMP:
		pos := p.next().Pos
		return &Unary{Op: Addr, X: p.parseUnary(), Pos: pos}
	case INC, DEC:
		decr := p.cur().Kind == DEC
		pos := p.next().Pos
		return &IncDec{X: p.parseUnary(), Decr: decr, Prefix: true, Pos: pos}
	case KwSizeof:
		pos := p.next().Pos
		p.expect(LPAREN)
		t := p.parseTypeSpec()
		for p.at(STAR) {
			p.next()
			t = &PtrType{Elem: t}
		}
		p.expect(RPAREN)
		return &SizeofExpr{T: t, Pos: pos}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case ARROW:
			pos := p.next().Pos
			name := p.expect(IDENT).Text
			x = &Member{X: x, Name: name, Arrow: true, Pos: pos}
		case DOT:
			pos := p.next().Pos
			name := p.expect(IDENT).Text
			x = &Member{X: x, Name: name, Arrow: false, Pos: pos}
		case LBRACK:
			pos := p.next().Pos
			i := p.parseExpr()
			p.expect(RBRACK)
			x = &Index{X: x, I: i, Pos: pos}
		case INC, DEC:
			decr := p.cur().Kind == DEC
			pos := p.next().Pos
			x = &IncDec{X: x, Decr: decr, Prefix: false, Pos: pos}
		case LPAREN:
			id, ok := x.(*Ident)
			if !ok {
				p.errorf("calls through expressions are not supported")
				panic(bailout{})
			}
			pos := p.next().Pos
			call := &Call{Fun: id.Name, Pos: pos}
			if !p.at(RPAREN) {
				for {
					call.Args = append(call.Args, p.parseAssign())
					if !p.accept(COMMA) {
						break
					}
				}
			}
			p.expect(RPAREN)
			if p.at(AT) {
				call.Place = p.parsePlacement()
			}
			x = call
		default:
			return x
		}
	}
}

func (p *Parser) parsePlacement() *Placement {
	p.expect(AT)
	name := p.expect(IDENT).Text
	switch name {
	case "OWNER_OF":
		p.expect(LPAREN)
		arg := p.parseExpr()
		p.expect(RPAREN)
		return &Placement{Kind: PlaceOwnerOf, Arg: arg}
	case "ON":
		p.expect(LPAREN)
		arg := p.parseExpr()
		p.expect(RPAREN)
		return &Placement{Kind: PlaceOn, Arg: arg}
	case "HOME":
		return &Placement{Kind: PlaceHome}
	}
	p.errorf("unknown placement @%s (want OWNER_OF, ON, or HOME)", name)
	panic(bailout{})
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case INT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.errorf("bad integer literal %q", t.Text)
		}
		return &IntLit{Val: v, Pos: t.Pos}
	case FLOAT:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.errorf("bad float literal %q", t.Text)
		}
		return &FloatLit{Val: v, Pos: t.Pos}
	case CHAR:
		p.next()
		return &CharLit{Val: t.Text[0], Pos: t.Pos}
	case STRING:
		p.next()
		return &StringLit{Val: t.Text, Pos: t.Pos}
	case KwNull:
		p.next()
		return &NullLit{Pos: t.Pos}
	case IDENT:
		p.next()
		return &Ident{Name: t.Text, Pos: t.Pos}
	case LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(RPAREN)
		return e
	}
	p.errorf("expected expression, found %s", t)
	panic(bailout{})
}
