package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a parsed (not necessarily checked) file back to mini-C
// source. Printing a parse of the output yields an identical tree, a
// property the test suite checks; tools use this for formatting and for
// dumping compiler output.
func Print(f *File) string {
	p := &printer{}
	for i, sd := range f.Structs {
		if i > 0 {
			p.nl()
		}
		p.printStruct(sd)
	}
	if len(f.Structs) > 0 && (len(f.Globals) > 0 || len(f.Funcs) > 0) {
		p.nl()
	}
	for _, g := range f.Globals {
		p.printGlobal(g)
	}
	if len(f.Globals) > 0 && len(f.Funcs) > 0 {
		p.nl()
	}
	for i, fd := range f.Funcs {
		if i > 0 {
			p.nl()
		}
		p.printFunc(fd)
	}
	return p.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) nl() { p.b.WriteByte('\n') }

func (p *printer) line(format string, args ...any) {
	p.b.WriteString(strings.Repeat("\t", p.indent))
	fmt.Fprintf(&p.b, format, args...)
	p.nl()
}

func (p *printer) printStruct(sd *StructDef) {
	p.line("struct %s {", sd.Name)
	p.indent++
	for _, fl := range sd.Fields {
		p.line("%s %s;", fl.Type, fl.Name)
	}
	p.indent--
	p.line("}")
}

func (p *printer) printGlobal(g *GlobalDecl) {
	if g.Init != nil {
		p.line("global %s %s = %s;", g.Type, g.Name, exprString(g.Init))
	} else {
		p.line("global %s %s;", g.Type, g.Name)
	}
}

func (p *printer) printFunc(fd *FuncDecl) {
	params := make([]string, len(fd.Params))
	for i, pr := range fd.Params {
		params[i] = fmt.Sprintf("%s %s", pr.Type, pr.Name)
	}
	p.line("func %s %s(%s) {", fd.Result, fd.Name, strings.Join(params, ", "))
	p.indent++
	for _, s := range fd.Body.Stmts {
		p.printStmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *printer) printStmt(s Stmt) {
	switch st := s.(type) {
	case *BlockStmt:
		p.line("{")
		p.indent++
		for _, inner := range st.Stmts {
			p.printStmt(inner)
		}
		p.indent--
		p.line("}")
	case *VarDeclStmt:
		if st.Init != nil {
			p.line("%s %s = %s;", st.Type, st.Name, exprString(st.Init))
		} else {
			p.line("%s %s;", st.Type, st.Name)
		}
	case *AssignStmt:
		p.line("%s %s %s;", exprString(st.LHS), st.Op, exprString(st.RHS))
	case *IncDecStmt:
		p.line("%s%s;", exprString(st.LHS), st.Op)
	case *ExprStmt:
		p.line("%s;", exprString(st.X))
	case *IfStmt:
		p.printIf(st, "")
	case *WhileStmt:
		p.line("while (%s) {", exprString(st.Cond))
		p.indent++
		for _, inner := range st.Body.Stmts {
			p.printStmt(inner)
		}
		p.indent--
		p.line("}")
	case *ForStmt:
		var init, cond, post string
		if st.Init != nil {
			init = simpleStmtString(st.Init)
		}
		if st.Cond != nil {
			cond = exprString(st.Cond)
		}
		if st.Post != nil {
			post = simpleStmtString(st.Post)
		}
		p.line("for (%s; %s; %s) {", init, cond, post)
		p.indent++
		for _, inner := range st.Body.Stmts {
			p.printStmt(inner)
		}
		p.indent--
		p.line("}")
	case *ParallelForStmt:
		p.line("parallel_for (int %s = %s; %s < %s; %s++) {",
			st.Var, exprString(st.Lo), st.Var, exprString(st.Hi), st.Var)
		p.indent++
		for _, inner := range st.Body.Stmts {
			p.printStmt(inner)
		}
		p.indent--
		p.line("}")
	case *ReturnStmt:
		if st.X != nil {
			p.line("return %s;", exprString(st.X))
		} else {
			p.line("return;")
		}
	case *BreakStmt:
		p.line("break;")
	case *ContinueStmt:
		p.line("continue;")
	}
}

func (p *printer) printIf(st *IfStmt, prefix string) {
	p.line("%sif (%s) {", prefix, exprString(st.Cond))
	p.indent++
	for _, inner := range st.Then.Stmts {
		p.printStmt(inner)
	}
	p.indent--
	switch els := st.Else.(type) {
	case nil:
		p.line("}")
	case *IfStmt:
		p.printIf(els, "} else ")
	case *BlockStmt:
		p.line("} else {")
		p.indent++
		for _, inner := range els.Stmts {
			p.printStmt(inner)
		}
		p.indent--
		p.line("}")
	}
}

func simpleStmtString(s Stmt) string {
	switch st := s.(type) {
	case *VarDeclStmt:
		if st.Init != nil {
			return fmt.Sprintf("%s %s = %s", st.Type, st.Name, exprString(st.Init))
		}
		return fmt.Sprintf("%s %s", st.Type, st.Name)
	case *AssignStmt:
		return fmt.Sprintf("%s %s %s", exprString(st.LHS), st.Op, exprString(st.RHS))
	case *IncDecStmt:
		return fmt.Sprintf("%s%s", exprString(st.LHS), st.Op)
	case *ExprStmt:
		return exprString(st.X)
	}
	return ""
}

// exprString renders an expression with minimal but sufficient parentheses:
// parentheses appear wherever a child binds looser than its context.
func exprString(e Expr) string {
	return exprStringPrec(e, 0)
}

func exprStringPrec(e Expr, min int) string {
	s, prec := exprStringRaw(e)
	if prec < min {
		return "(" + s + ")"
	}
	return s
}

func exprStringRaw(e Expr) (string, int) {
	switch x := e.(type) {
	case *IntLit:
		return strconv.FormatInt(x.Value, 10), 8
	case *FloatLit:
		s := strconv.FormatFloat(x.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s, 8
	case *BoolLit:
		if x.Value {
			return "true", 8
		}
		return "false", 8
	case *StringLit:
		return quoteMiniC(x.Value), 8
	case *NullLit:
		return "null", 8
	case *ArrayLit:
		elems := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			elems[i] = exprString(e)
		}
		return "{" + strings.Join(elems, ", ") + "}", 8
	case *Ident:
		return x.Name, 8
	case *BinaryExpr:
		prec := BinaryPrec(x.Op)
		// Left-associative: the right child needs strictly higher binding.
		return fmt.Sprintf("%s %s %s",
			exprStringPrec(x.X, prec), x.Op, exprStringPrec(x.Y, prec+1)), prec
	case *UnaryExpr:
		op, operand := x.Op.String(), exprStringPrec(x.X, 7)
		// "- -x" and "& &x" must not print as the tokens "--" and "&&".
		if (x.Op == Minus || x.Op == Amp) && strings.HasPrefix(operand, op) {
			operand = "(" + operand + ")"
		}
		return op + operand, 7
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", exprStringPrec(x.X, 8), exprString(x.Index)), 8
	case *FieldExpr:
		op := "."
		if x.Arrow {
			op = "->"
		}
		return fmt.Sprintf("%s%s%s", exprStringPrec(x.X, 8), op, x.Name), 8
	case *CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprString(a)
		}
		return fmt.Sprintf("%s(%s)", x.Callee, strings.Join(args, ", ")), 8
	case *NewExpr:
		if x.Count != nil {
			return fmt.Sprintf("new %s[%s]", x.ElemType, exprString(x.Count)), 8
		}
		return fmt.Sprintf("new %s", x.ElemType), 8
	case *CastExpr:
		return fmt.Sprintf("%s(%s)", x.Target, exprString(x.X)), 8
	}
	return "<?>", 8
}

// Quote renders a string literal with mini-C's escape set. Code
// generators (the D2X table emitter among them) use it to embed arbitrary
// strings in generated source.
func Quote(s string) string { return quoteMiniC(s) }

// quoteMiniC renders a string literal with mini-C's escape set.
func quoteMiniC(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case 0:
			b.WriteString(`\0`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
