package earthc

import (
	"fmt"
	"strings"
)

// A Lexer turns EARTH-C source text into a stream of tokens. It handles //
// and /* */ comments, the parallel-sequence brackets {^ and ^}, and the usual
// C numeric and character literals.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns any lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(p Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			p := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(p, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns an EOF token, and
// keeps returning it.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	p := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: p}
	}
	c := l.peek()
	switch {
	case isAlpha(c):
		start := l.off
		for l.off < len(l.src) && (isAlpha(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: p}
		}
		return Token{Kind: IDENT, Text: text, Pos: p}
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.number(p)
	case c == '\'':
		return l.charLit(p)
	case c == '"':
		return l.stringLit(p)
	}
	l.advance()
	two := func(nc byte, k2 Kind, k1 Kind) Token {
		if l.peek() == nc {
			l.advance()
			return Token{Kind: k2, Text: string([]byte{c, nc}), Pos: p}
		}
		return Token{Kind: k1, Text: string(c), Pos: p}
	}
	switch c {
	case '+':
		if l.peek() == '+' {
			l.advance()
			return Token{Kind: INC, Text: "++", Pos: p}
		}
		return two('=', ADDEQ, PLUS)
	case '-':
		switch l.peek() {
		case '-':
			l.advance()
			return Token{Kind: DEC, Text: "--", Pos: p}
		case '>':
			l.advance()
			return Token{Kind: ARROW, Text: "->", Pos: p}
		}
		return two('=', SUBEQ, MINUS)
	case '*':
		return two('=', MULEQ, STAR)
	case '/':
		return two('=', DIVEQ, SLASH)
	case '%':
		return Token{Kind: PERCENT, Text: "%", Pos: p}
	case '&':
		return two('&', LAND, AMP)
	case '|':
		return two('|', LOR, PIPE)
	case '^':
		if l.peek() == '}' {
			l.advance()
			return Token{Kind: RPARSEQ, Text: "^}", Pos: p}
		}
		return Token{Kind: CARET, Text: "^", Pos: p}
	case '!':
		return two('=', NE, NOT)
	case '~':
		return Token{Kind: TILDE, Text: "~", Pos: p}
	case '=':
		return two('=', EQ, ASSIGN)
	case '<':
		if l.peek() == '<' {
			l.advance()
			return Token{Kind: SHL, Text: "<<", Pos: p}
		}
		return two('=', LE, LT)
	case '>':
		if l.peek() == '>' {
			l.advance()
			return Token{Kind: SHR, Text: ">>", Pos: p}
		}
		return two('=', GE, GT)
	case '.':
		return Token{Kind: DOT, Text: ".", Pos: p}
	case ',':
		return Token{Kind: COMMA, Text: ",", Pos: p}
	case ';':
		return Token{Kind: SEMI, Text: ";", Pos: p}
	case ':':
		return Token{Kind: COLON, Text: ":", Pos: p}
	case '?':
		return Token{Kind: QUESTION, Text: "?", Pos: p}
	case '@':
		return Token{Kind: AT, Text: "@", Pos: p}
	case '(':
		return Token{Kind: LPAREN, Text: "(", Pos: p}
	case ')':
		return Token{Kind: RPAREN, Text: ")", Pos: p}
	case '{':
		if l.peek() == '^' {
			l.advance()
			return Token{Kind: LPARSEQ, Text: "{^", Pos: p}
		}
		return Token{Kind: LBRACE, Text: "{", Pos: p}
	case '}':
		return Token{Kind: RBRACE, Text: "}", Pos: p}
	case '[':
		return Token{Kind: LBRACK, Text: "[", Pos: p}
	case ']':
		return Token{Kind: RBRACK, Text: "]", Pos: p}
	}
	l.errorf(p, "illegal character %q", string(c))
	return Token{Kind: ILLEGAL, Text: string(c), Pos: p}
}

func (l *Lexer) number(p Pos) Token {
	start := l.off
	isFloat := false
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' && isDigit(l.peek2()) {
		isFloat = true
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	} else if l.peek() == '.' && !isAlpha(l.peek2()) {
		// trailing dot as in "1."
		isFloat = true
		l.advance()
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.off
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			isFloat = true
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		} else {
			// not an exponent; restore (cannot easily un-advance lines,
			// but 'e' is never a newline so col math is safe)
			l.col -= l.off - save
			l.off = save
		}
	}
	text := l.src[start:l.off]
	if isFloat {
		return Token{Kind: FLOAT, Text: text, Pos: p}
	}
	return Token{Kind: INT, Text: text, Pos: p}
}

func (l *Lexer) charLit(p Pos) Token {
	l.advance() // opening quote
	var b strings.Builder
	for l.off < len(l.src) && l.peek() != '\'' {
		c := l.advance()
		if c == '\\' && l.off < len(l.src) {
			e := l.advance()
			switch e {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case '0':
				c = 0
			case '\\', '\'':
				c = e
			default:
				l.errorf(p, "unknown escape \\%c", e)
				c = e
			}
		}
		b.WriteByte(c)
	}
	if l.off >= len(l.src) {
		l.errorf(p, "unterminated character literal")
		return Token{Kind: ILLEGAL, Pos: p}
	}
	l.advance() // closing quote
	if b.Len() != 1 {
		l.errorf(p, "character literal must contain exactly one character")
		return Token{Kind: ILLEGAL, Pos: p}
	}
	return Token{Kind: CHAR, Text: b.String(), Pos: p}
}

func (l *Lexer) stringLit(p Pos) Token {
	l.advance() // opening quote
	var b strings.Builder
	for l.off < len(l.src) && l.peek() != '"' {
		c := l.advance()
		if c == '\\' && l.off < len(l.src) {
			e := l.advance()
			switch e {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case '"', '\\':
				c = e
			default:
				l.errorf(p, "unknown escape \\%c", e)
				c = e
			}
		}
		b.WriteByte(c)
	}
	if l.off >= len(l.src) {
		l.errorf(p, "unterminated string literal")
		return Token{Kind: ILLEGAL, Pos: p}
	}
	l.advance()
	return Token{Kind: STRING, Text: b.String(), Pos: p}
}

// Tokenize lexes the whole input, returning all tokens up to and including
// EOF, plus any lexical errors.
func Tokenize(src string) ([]Token, []error) {
	l := NewLexer(src)
	// EARTH-C source runs 3.3 to 5.2 bytes per token (the Olden programs
	// and testdata/), so a third of the length holds every token of
	// ordinary source in one allocation; denser input grows from there.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	return toks, l.Errors()
}
