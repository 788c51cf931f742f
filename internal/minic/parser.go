package minic

import (
	"strconv"
	"strings"
)

// parser builds the AST from the token stream. It is a conventional
// recursive-descent parser with one token of (occasionally multi-token,
// via raw index scanning) lookahead.
type parser struct {
	file string
	toks []Token
	pos  int
}

// Parse parses mini-C source text into an unchecked File.
func Parse(filename, src string) (*File, error) {
	// Generated code, tables included, runs 2 to 3 bytes a token; sizing
	// for two, plus the EOF, spares the regrowth of a large slice.
	toks, err := Lex(make([]Token, 0, len(src)/2+1), filename, src)
	if err != nil {
		return nil, err
	}
	p := &parser{file: filename, toks: toks}
	return p.parseFile()
}

func (p *parser) cur() Token     { return p.toks[p.pos] }
func (p *parser) at(k Kind) bool { return p.toks[p.pos].Kind == k }
func (p *parser) kindAt(off int) Kind {
	i := p.pos + off
	if i >= len(p.toks) {
		return EOF
	}
	return p.toks[i].Kind
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		t := p.cur()
		return t, errf(p.file, t.Line, t.Col, "expected %s, found %s", k, t)
	}
	return p.advance(), nil
}

// declName reads the name a declaration introduces. The lexer's '$' and
// ':' spell the debugger's registers and qualified names, and the
// debugger could not reach a program symbol spelled so.
func (p *parser) declName() (Token, error) {
	t, err := p.expect(IDENT)
	if err == nil && strings.ContainsAny(t.Text, "$:") {
		return t, errf(p.file, t.Line, t.Col, "identifier %q: '$' and ':' are reserved for the debugger", t.Text)
	}
	return t, err
}

func (p *parser) errHere(format string, args ...any) error {
	t := p.cur()
	return errf(p.file, t.Line, t.Col, format, args...)
}

func (p *parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for !p.at(EOF) {
		switch p.cur().Kind {
		case KwStruct:
			sd, err := p.parseStruct()
			if err != nil {
				return nil, err
			}
			f.Structs = append(f.Structs, sd)
		case KwGlobal:
			gd, err := p.parseGlobal()
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, gd)
		case KwFunc:
			fd, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fd)
		default:
			return nil, p.errHere("expected struct, global, or func declaration, found %s", p.cur())
		}
	}
	return f, nil
}

func (p *parser) parseStruct() (*StructDef, error) {
	kw, _ := p.expect(KwStruct)
	name, err := p.declName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	sd := &StructDef{Name: name.Text, Line: kw.Line}
	for !p.at(RBrace) {
		ft, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn, err := p.declName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		sd.Fields = append(sd.Fields, Field{Name: fn.Text, Type: ft})
	}
	p.advance() // }
	if p.at(Semi) {
		p.advance()
	}
	return sd, nil
}

func (p *parser) parseGlobal() (*GlobalDecl, error) {
	kw, _ := p.expect(KwGlobal)
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.declName()
	if err != nil {
		return nil, err
	}
	g := &GlobalDecl{Name: name.Text, Type: typ, Line: kw.Line}
	if p.at(Assign) {
		p.advance()
		var init Expr
		if p.at(LBrace) {
			init, err = p.parseArrayLit()
		} else {
			init, err = p.parseExpr()
		}
		if err != nil {
			return nil, err
		}
		g.Init = init
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return g, nil
}

// parseArrayLit parses `{}` or `{e0, e1, ...}`, without a trailing comma.
func (p *parser) parseArrayLit() (*ArrayLit, error) {
	lb := p.advance()
	lit := &ArrayLit{exprBase: exprBase{Line: lb.Line}}
	for !p.at(RBrace) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lit.Elems = append(lit.Elems, e)
		if !p.at(Comma) {
			break
		}
		p.advance()
		if p.at(RBrace) { // a trailing comma
			return nil, p.errHere("expected expression, found %s", p.cur())
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	return lit, nil
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	kw, _ := p.expect(KwFunc)
	result, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.declName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fd := &FuncDecl{Name: name.Text, Result: result, Line: kw.Line}
	for !p.at(RParen) {
		pt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pn, err := p.declName()
		if err != nil {
			return nil, err
		}
		fd.Params = append(fd.Params, Param{Name: pn.Text, Type: pt})
		if p.at(Comma) {
			p.advance()
		} else {
			break
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

// typeStart reports whether kind k can begin a type.
func typeStart(k Kind) bool {
	switch k {
	case KwInt, KwFloat, KwBool, KwString, KwVoid:
		return true
	}
	return false
}

func (p *parser) parseType() (*Type, error) {
	var base *Type
	t := p.cur()
	switch t.Kind {
	case KwInt:
		base = IntType
	case KwFloat:
		base = FloatType
	case KwBool:
		base = BoolType
	case KwString:
		base = StringType
	case KwVoid:
		base = VoidType
	case IDENT:
		base = StructType(t.Text)
	default:
		return nil, p.errHere("expected type, found %s", t)
	}
	p.advance()
	for {
		switch {
		case p.at(Star):
			p.advance()
			base = PointerTo(base)
		case p.at(LBracket) && p.kindAt(1) == RBracket:
			p.advance()
			p.advance()
			base = ArrayOf(base)
		default:
			return base, nil
		}
	}
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{stmtBase: stmtBase{Line: lb.Line}}
	for !p.at(RBrace) {
		if p.at(EOF) {
			return nil, p.errHere("unexpected end of file inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance()
	return b, nil
}

// startsVarDecl reports whether the statement starting at the current
// position is a variable declaration. Basic-type keywords always start a
// declaration; an IDENT starts one only when it is followed by type
// suffixes and then another IDENT (e.g. `frontier_t* f = ...`).
func (p *parser) startsVarDecl() bool {
	if typeStart(p.cur().Kind) {
		return true
	}
	if !p.at(IDENT) {
		return false
	}
	j := p.pos + 1
	for {
		switch {
		case p.kindAt(j-p.pos) == Star:
			j++
		case p.kindAt(j-p.pos) == LBracket && p.kindAt(j-p.pos+1) == RBracket:
			j += 2
		default:
			return p.kindAt(j-p.pos) == IDENT &&
				(p.kindAt(j-p.pos+1) == Assign || p.kindAt(j-p.pos+1) == Semi)
		}
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case LBrace:
		return p.parseBlock()
	case KwIf:
		return p.parseIf()
	case KwWhile:
		return p.parseWhile()
	case KwFor:
		return p.parseFor()
	case KwParallelFor:
		return p.parseParallelFor()
	case KwReturn:
		p.advance()
		r := &ReturnStmt{stmtBase: stmtBase{Line: t.Line}}
		if !p.at(Semi) {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return r, nil
	case KwBreak:
		p.advance()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &BreakStmt{stmtBase{Line: t.Line}}, nil
	case KwContinue:
		p.advance()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{stmtBase{Line: t.Line}}, nil
	}
	if p.startsVarDecl() {
		d, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return d, nil
	}
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) parseVarDecl() (*VarDeclStmt, error) {
	line := p.cur().Line
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.declName()
	if err != nil {
		return nil, err
	}
	d := &VarDeclStmt{stmtBase: stmtBase{Line: line}, Name: name.Text, Type: typ}
	if p.at(Assign) {
		p.advance()
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

// parseSimpleStmt parses an expression statement, assignment, or inc/dec,
// without the trailing semicolon.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	line := p.cur().Line
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case Assign, PlusAssign, MinusAssign:
		op := p.advance().Kind
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{stmtBase: stmtBase{Line: line}, Op: op, LHS: lhs, RHS: rhs}, nil
	case Inc, Dec:
		op := p.advance().Kind
		return &IncDecStmt{stmtBase: stmtBase{Line: line}, Op: op, LHS: lhs}, nil
	}
	return &ExprStmt{stmtBase: stmtBase{Line: line}, X: lhs}, nil
}

func (p *parser) parseIf() (*IfStmt, error) {
	kw := p.advance()
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{stmtBase: stmtBase{Line: kw.Line}, Cond: cond, Then: then}
	if p.at(KwElse) {
		p.advance()
		if p.at(KwIf) {
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = els
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
	}
	return s, nil
}

func (p *parser) parseWhile() (*WhileStmt, error) {
	kw := p.advance()
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{stmtBase: stmtBase{Line: kw.Line}, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (*ForStmt, error) {
	kw := p.advance()
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	s := &ForStmt{stmtBase: stmtBase{Line: kw.Line}}
	if !p.at(Semi) {
		if p.startsVarDecl() {
			d, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			s.Init = d
		} else {
			init, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			s.Init = init
		}
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(Semi) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(RParen) {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// parseParallelFor parses the restricted form
// `parallel_for (int i = lo; i < hi; i++) block`.
func (p *parser) parseParallelFor() (*ParallelForStmt, error) {
	kw := p.advance()
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(KwInt); err != nil {
		return nil, err
	}
	name, err := p.declName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Assign); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	cmpName, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if cmpName.Text != name.Text {
		return nil, errf(p.file, cmpName.Line, cmpName.Col,
			"parallel_for condition must test the loop variable %q", name.Text)
	}
	if _, err := p.expect(Lt); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	postName, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if postName.Text != name.Text {
		return nil, errf(p.file, postName.Line, postName.Col,
			"parallel_for post statement must increment the loop variable %q", name.Text)
	}
	if _, err := p.expect(Inc); err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ParallelForStmt{
		stmtBase: stmtBase{Line: kw.Line},
		Var:      name.Text, Lo: lo, Hi: hi, Body: body,
	}, nil
}

// ---- Expressions ----

// BinaryPrec is a binary operator's precedence, higher binding tighter,
// and 0 for any other token. The debugger binds its expressions by it.
func BinaryPrec(k Kind) int {
	switch k {
	case OrOr:
		return 1
	case AndAnd:
		return 2
	case Eq, Neq:
		return 3
	case Lt, Le, Gt, Ge:
		return 4
	case Plus, Minus, Shl, Shr:
		// Shifts share the additive level; generated code parenthesises
		// explicitly, and mini-C documents this deviation from C.
		return 5
	case Star, Slash, Percent:
		return 6
	}
	return 0
}

func (p *parser) parseExpr() (Expr, error) {
	return p.parseBinary(1)
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec := BinaryPrec(op)
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		opTok := p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{
			exprBase: exprBase{Line: opTok.Line},
			Op:       op, X: lhs, Y: rhs,
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case Minus, Not, Amp, Star:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{exprBase: exprBase{Line: t.Line}, Op: t.Kind, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case LBracket:
			lb := p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			x = &IndexExpr{exprBase: exprBase{Line: lb.Line}, X: x, Index: idx}
		case Dot, Arrow:
			opTok := p.advance()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &FieldExpr{
				exprBase: exprBase{Line: opTok.Line},
				X:        x, Name: name.Text, Arrow: opTok.Kind == Arrow,
			}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(p.file, t.Line, t.Col, "bad integer literal %q", t.Text)
		}
		return &IntLit{exprBase: exprBase{Line: t.Line}, Value: v}, nil
	case FLOATLIT:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(p.file, t.Line, t.Col, "bad float literal %q", t.Text)
		}
		return &FloatLit{exprBase: exprBase{Line: t.Line}, Value: v}, nil
	case STRINGLIT:
		p.advance()
		return &StringLit{exprBase: exprBase{Line: t.Line}, Value: t.Text}, nil
	case KwTrue, KwFalse:
		p.advance()
		return &BoolLit{exprBase: exprBase{Line: t.Line}, Value: t.Kind == KwTrue}, nil
	case KwNull:
		p.advance()
		return &NullLit{exprBase: exprBase{Line: t.Line}}, nil
	case KwInt, KwFloat, KwBool, KwString:
		// Cast syntax: int(x), float(x), bool(x), string(x).
		p.advance()
		var target *Type
		switch t.Kind {
		case KwInt:
			target = IntType
		case KwFloat:
			target = FloatType
		case KwBool:
			target = BoolType
		case KwString:
			target = StringType
		}
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &CastExpr{exprBase: exprBase{Line: t.Line}, Target: target, X: x}, nil
	case KwNew:
		p.advance()
		base, err := p.parseBaseTypeForNew()
		if err != nil {
			return nil, err
		}
		n := &NewExpr{exprBase: exprBase{Line: t.Line}, ElemType: base}
		if p.at(LBracket) {
			p.advance()
			cnt, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			n.Count = cnt
		}
		return n, nil
	case LParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	case IDENT:
		p.advance()
		if p.at(LParen) {
			p.advance()
			call := &CallExpr{exprBase: exprBase{Line: t.Line}, Callee: t.Text}
			for !p.at(RParen) {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.at(Comma) {
					p.advance()
				} else {
					break
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{exprBase: exprBase{Line: t.Line}, Name: t.Text}, nil
	}
	return nil, p.errHere("expected expression, found %s", t)
}

// parseBaseTypeForNew parses the type after `new`: a base type plus any `*`
// suffixes, but stops before `[`, which introduces the element count.
func (p *parser) parseBaseTypeForNew() (*Type, error) {
	var base *Type
	t := p.cur()
	switch t.Kind {
	case KwInt:
		base = IntType
	case KwFloat:
		base = FloatType
	case KwBool:
		base = BoolType
	case KwString:
		base = StringType
	case IDENT:
		base = StructType(t.Text)
	default:
		return nil, p.errHere("expected type after new, found %s", t)
	}
	p.advance()
	for p.at(Star) {
		p.advance()
		base = PointerTo(base)
	}
	return base, nil
}
