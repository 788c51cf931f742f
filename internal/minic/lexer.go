package minic

import (
	"fmt"
	"strings"
	"unicode"
)

// Error is a positioned compilation error for the mini-C language.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

func errf(file string, line, col int, format string, args ...any) *Error {
	return &Error{File: file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// lexer turns mini-C source text into tokens. Comments use // and /* */.
type lexer struct {
	file string
	src  string
	pos  int
	line int
	col  int
}

func newLexer(file, src string) *lexer {
	return &lexer{file: file, src: src, line: 1, col: 1}
}

func (lx *lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(lx.file, startLine, startCol, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// An identifier may start with '$', as GCC allows, and continue with
// ':'. The debugger's expressions are mini-C, and these two spell its
// register meta-variables ($rip) and the runtime's qualified entry
// points (d2x_runtime::command_xbt).
func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || c == ':' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans and returns the next token.
func (lx *lexer) next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return Token{Kind: EOF, Line: line, Col: col}, nil
	}
	c := lx.peek()

	switch {
	case isIdentStart(c):
		start := lx.pos
		lx.advance()
		for lx.pos < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Line: line, Col: col}, nil
		}
		return Token{Kind: IDENT, Text: text, Line: line, Col: col}, nil

	case isDigit(c):
		start := lx.pos
		isFloat := false
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' && isDigit(lx.peek2()) {
			isFloat = true
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			save := lx.pos
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			if isDigit(lx.peek()) {
				isFloat = true
				for lx.pos < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			} else {
				lx.pos = save
			}
		}
		text := lx.src[start:lx.pos]
		kind := INTLIT
		if isFloat {
			kind = FLOATLIT
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil

	case c == '"':
		lx.advance()
		// A literal without escapes, every one a D2X macro passes, is
		// sliced out of the source; only an escape builds a copy.
		start := lx.pos
		escaped := false
		var b strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return Token{}, errf(lx.file, line, col, "unterminated string literal")
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\n' {
				return Token{}, errf(lx.file, line, col, "newline in string literal")
			}
			if ch == '\\' {
				if lx.pos >= len(lx.src) {
					return Token{}, errf(lx.file, line, col, "unterminated escape sequence")
				}
				if !escaped {
					escaped = true
					b.WriteString(lx.src[start : lx.pos-1])
				}
				esc := lx.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case 'r':
					b.WriteByte('\r')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case '0':
					b.WriteByte(0)
				default:
					return Token{}, errf(lx.file, lx.line, lx.col, "unknown escape sequence \\%c", esc)
				}
				continue
			}
			if escaped {
				b.WriteByte(ch)
			}
		}
		text := lx.src[start : lx.pos-1]
		if escaped {
			text = b.String()
		}
		return Token{Kind: STRINGLIT, Text: text, Line: line, Col: col}, nil
	}

	// Operators and punctuation.
	two := func(k Kind) (Token, error) {
		lx.advance()
		lx.advance()
		return Token{Kind: k, Line: line, Col: col}, nil
	}
	one := func(k Kind) (Token, error) {
		lx.advance()
		return Token{Kind: k, Line: line, Col: col}, nil
	}

	switch c {
	case '(':
		return one(LParen)
	case ')':
		return one(RParen)
	case '{':
		return one(LBrace)
	case '}':
		return one(RBrace)
	case '[':
		return one(LBracket)
	case ']':
		return one(RBracket)
	case ',':
		return one(Comma)
	case ';':
		return one(Semi)
	case '.':
		return one(Dot)
	case '+':
		if lx.peek2() == '=' {
			return two(PlusAssign)
		}
		if lx.peek2() == '+' {
			return two(Inc)
		}
		return one(Plus)
	case '-':
		if lx.peek2() == '=' {
			return two(MinusAssign)
		}
		if lx.peek2() == '>' {
			return two(Arrow)
		}
		if lx.peek2() == '-' {
			return two(Dec)
		}
		return one(Minus)
	case '*':
		return one(Star)
	case '/':
		return one(Slash)
	case '%':
		return one(Percent)
	case '&':
		if lx.peek2() == '&' {
			return two(AndAnd)
		}
		return one(Amp)
	case '|':
		if lx.peek2() == '|' {
			return two(OrOr)
		}
		return Token{}, errf(lx.file, line, col, "unexpected character '|'")
	case '!':
		if lx.peek2() == '=' {
			return two(Neq)
		}
		return one(Not)
	case '=':
		if lx.peek2() == '=' {
			return two(Eq)
		}
		return one(Assign)
	case '<':
		if lx.peek2() == '=' {
			return two(Le)
		}
		if lx.peek2() == '<' {
			return two(Shl)
		}
		return one(Lt)
	case '>':
		if lx.peek2() == '=' {
			return two(Ge)
		}
		if lx.peek2() == '>' {
			return two(Shr)
		}
		return one(Gt)
	}
	return Token{}, errf(lx.file, line, col, "unexpected character %q", string(rune(c)))
}

// Lex scans the entire source and appends its tokens, ending in EOF, to
// toks. The parser reads them, and so does the debugger's expression
// evaluator.
func Lex(toks []Token, file, src string) ([]Token, error) {
	lx := newLexer(file, src)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
