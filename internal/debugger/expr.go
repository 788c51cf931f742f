package debugger

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"d2x/internal/minic"
)

// This file implements the debugger's expression language, used by print,
// call, set and eval, and by breakpoint conditions, watchpoints and
// displays. An expression is mini-C: minic.Lex reads its tokens, and
// minic.BinaryPrec and minic.EvalBinary bind and apply its operators, so
// it means what it means in the program. On top of mini-C it reads the
// register meta-variables ($rip, $rsp, $pc) and calls into the debuggee.
// It evaluates as it parses: an AST would cost allocations on every
// command.

// result pairs an evaluated value with, when the expression designates a
// storage location, the cell backing it (for & and set).
type result struct {
	val  minic.Value
	cell *minic.Cell
}

type exprEval struct {
	d    *Debugger
	toks []minic.Token // ends in EOF
	pos  int
	// typ is the declared type of the location the last lvalue evaluated
	// names, or nil where the evaluator does not know it, for set var to
	// store as the program would. It is not part of result, which every
	// level of the descent copies.
	typ *minic.Type
	// skip is set while parsing an operand that the left operand of &&
	// or || already decided: it is parsed but not evaluated, so it calls,
	// dereferences and indexes nothing, as in the program.
	skip bool
}

// EvalExpr evaluates a debugger expression against the selected frame.
func (d *Debugger) EvalExpr(src string) (minic.Value, error) {
	r, err := d.evalResult(src)
	if err != nil {
		return minic.NullVal(), err
	}
	return r.val, nil
}

// exprCacheMax bounds the lexed-token and mangle caches. The working set
// of a command stream is a handful of macro-body expressions; when a
// pathological stream of distinct expressions fills the map, it is
// cleared wholesale rather than evicted piecemeal.
const exprCacheMax = 256

// lexBufMax is the most tokens of lexing scratch a debugger keeps.
const lexBufMax = 256

// lexCached returns the tokens of src, memoised. Token slices are
// read-only after lexing (the evaluator only indexes into them), so
// sharing one slice across evaluations is safe. A miss lexes into the
// debugger's scratch slice and caches an exact copy, one allocation: a
// slice grown by appends would hold up to twice its tokens' memory for
// as long as it stays cached, and a stream of xdel commands caches up
// to exprCacheMax one-off expressions.
func (d *Debugger) lexCached(src string) ([]minic.Token, error) {
	if toks, ok := d.exprCache[src]; ok {
		return toks, nil
	}
	toks, err := minic.Lex(d.lexBuf[:0], "", src)
	if err != nil {
		if e, ok := err.(*minic.Error); ok {
			err = fmt.Errorf("%s in expression", e.Msg)
		}
		return nil, err
	}
	if cap(toks) <= lexBufMax {
		d.lexBuf = toks
	}
	toks = slices.Clone(toks)
	if d.exprCache == nil {
		d.exprCache = make(map[string][]minic.Token)
	} else if len(d.exprCache) >= exprCacheMax {
		clear(d.exprCache)
	}
	d.exprCache[src] = toks
	return toks, nil
}

func (d *Debugger) evalResult(src string) (result, error) {
	toks, err := d.lexCached(src)
	if err != nil {
		return result{}, err
	}
	ev := exprEval{d: d, toks: toks}
	r, err := ev.expr()
	if err == nil {
		err = ev.end()
	}
	return r, err
}

// assign evaluates `lvalue = expr` and stores the value into the
// location (GDB's `set var`). No expression holds an Assign token, so
// the lvalue ends at the first one.
func (d *Debugger) assign(src string) error {
	toks, err := d.lexCached(src)
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(toks, func(t minic.Token) bool { return t.Kind == minic.Assign }) {
		return fmt.Errorf("set requires an assignment")
	}
	ev := exprEval{d: d, toks: toks}
	lhs, err := ev.expr()
	if err == nil {
		err = ev.expect(minic.Assign)
	}
	if err != nil {
		return err
	}
	if lhs.cell == nil {
		return fmt.Errorf("left operand of assignment is not an lvalue")
	}
	lt := ev.typ
	rhs, err := ev.expr()
	if err == nil {
		err = ev.end()
	}
	if err != nil {
		return err
	}
	if lt == nil {
		// A location reached through a pointer of unknown type.
		if misfit(lhs.val.Kind, rhs.val) {
			return fmt.Errorf("cannot assign %s to %s", rhs.val.Kind, lhs.val.Kind)
		}
		lhs.cell.V = rhs.val
		return nil
	}
	v, ok := minic.StoreValue(lt, rhs.val)
	if !ok {
		return fmt.Errorf("cannot assign %s to %s", rhs.val.Kind, lt)
	}
	lhs.cell.V = v
	return nil
}

// evalFormat expands eval's arguments, a format string and then
// comma-separated expressions, through the program's printf.
func (d *Debugger) evalFormat(src string) (string, error) {
	toks, err := d.lexCached(src)
	if err != nil {
		return "", err
	}
	if toks[0].Kind != minic.STRINGLIT {
		return "", fmt.Errorf("eval requires a quoted format string")
	}
	ev := exprEval{d: d, toks: toks, pos: 1}
	vals := d.getArgs()
	defer func() { d.putArgs(vals) }()
	for ev.kind() == minic.Comma {
		ev.pos++
		r, err := ev.expr()
		if err != nil {
			return "", err
		}
		vals = append(vals, r.val)
	}
	if err := ev.end(); err != nil {
		return "", err
	}
	return minic.FormatPrintf(toks[0].Text, vals)
}

func (ev *exprEval) kind() minic.Kind { return ev.toks[ev.pos].Kind }

func (ev *exprEval) next() minic.Token {
	t := ev.toks[ev.pos]
	if t.Kind != minic.EOF {
		ev.pos++
	}
	return t
}

func (ev *exprEval) expect(k minic.Kind) error {
	if ev.kind() != k {
		return fmt.Errorf("expected %q in expression", k)
	}
	ev.pos++
	return nil
}

// end fails unless the expression used up every token.
func (ev *exprEval) end() error {
	if ev.kind() != minic.EOF {
		return fmt.Errorf("junk at end of expression")
	}
	return nil
}

func (ev *exprEval) expr() (result, error) {
	return ev.binary(1)
}

func (ev *exprEval) binary(minPrec int) (result, error) {
	lhs, err := ev.unary()
	if err != nil {
		return result{}, err
	}
	for {
		op := ev.kind()
		prec := minic.BinaryPrec(op)
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		// '*' and '-' and '&' are also unary; as infix operators they
		// only appear here, after a complete operand, so no ambiguity.
		ev.pos++
		decided := !ev.skip && (op == minic.AndAnd && !lhs.val.Bool() || op == minic.OrOr && lhs.val.Bool())
		ev.skip = ev.skip || decided
		rhs, err := ev.binary(prec + 1)
		if decided {
			ev.skip = false
		}
		if err != nil {
			return result{}, err
		}
		switch {
		case ev.skip:
			lhs = result{}
		case decided:
			lhs = result{val: minic.BoolVal(op == minic.OrOr)}
		default:
			v, err := minic.EvalBinary(op, lhs.val, rhs.val)
			if err != nil {
				return result{}, err
			}
			lhs = result{val: v}
		}
	}
}

func (ev *exprEval) unary() (result, error) {
	switch ev.kind() {
	case minic.Star:
		ev.pos++
		r, err := ev.unary()
		if err != nil || ev.skip {
			return result{}, err
		}
		p := r.val.Ptr()
		if p == nil {
			return result{}, fmt.Errorf("attempt to dereference a non-pointer or null value")
		}
		if r.cell != nil && ev.typ != nil && ev.typ.Kind == minic.TPointer {
			ev.typ = ev.typ.Elem
		} else {
			ev.typ = nil
		}
		return result{val: p.V, cell: p}, nil
	case minic.Amp:
		ev.pos++
		r, err := ev.unary()
		if err != nil || ev.skip {
			return result{}, err
		}
		if r.cell == nil {
			return result{}, fmt.Errorf("attempt to take address of a value not in memory")
		}
		return result{val: minic.PtrVal(r.cell)}, nil
	case minic.Minus:
		ev.pos++
		r, err := ev.unary()
		if err != nil || ev.skip {
			return result{}, err
		}
		switch r.val.Kind {
		case minic.VInt:
			return result{val: minic.IntVal(-r.val.I)}, nil
		case minic.VFloat:
			return result{val: minic.FloatVal(-r.val.F())}, nil
		}
		return result{}, fmt.Errorf("unary - applied to non-numeric value")
	case minic.Not:
		ev.pos++
		r, err := ev.unary()
		if err != nil {
			return result{}, err
		}
		return result{val: minic.BoolVal(!r.val.Bool())}, nil
	}
	return ev.postfix()
}

func (ev *exprEval) postfix() (result, error) {
	r, err := ev.primary()
	if err != nil {
		return result{}, err
	}
	for {
		switch ev.kind() {
		case minic.LBracket:
			ev.pos++
			idx, err := ev.expr()
			if err != nil {
				return result{}, err
			}
			if err := ev.expect(minic.RBracket); err != nil {
				return result{}, err
			}
			if ev.skip {
				continue
			}
			arr := r.val.Arr()
			if arr == nil {
				return result{}, fmt.Errorf("cannot subscript a non-array value")
			}
			if idx.val.Kind != minic.VInt {
				return result{}, fmt.Errorf("array index is not an integer")
			}
			i := idx.val.I
			if i < 0 || i >= int64(len(arr.Cells)) {
				return result{}, fmt.Errorf("index %d out of range [0, %d)", i, len(arr.Cells))
			}
			cell := &arr.Cells[i]
			r = result{val: cell.V, cell: cell}
			ev.typ = arr.Elem
		case minic.Dot, minic.Arrow:
			op := ev.next().Kind
			name := ev.next()
			if name.Kind != minic.IDENT {
				return result{}, fmt.Errorf("expected field name after %q", op)
			}
			if ev.skip {
				continue
			}
			obj, err := structOf(r.val, op)
			if err != nil {
				return result{}, err
			}
			fi := obj.Def.FieldIndex(name.Text)
			if fi < 0 {
				return result{}, fmt.Errorf("struct %s has no member named %q", obj.Def.Name, name.Text)
			}
			cell := &obj.Fields[fi]
			r = result{val: cell.V, cell: cell}
			ev.typ = obj.Def.Fields[fi].Type
		default:
			return r, nil
		}
	}
}

func structOf(v minic.Value, op minic.Kind) (*minic.StructObj, error) {
	switch v.Kind {
	case minic.VStruct:
		if v.Struct() == nil {
			return nil, fmt.Errorf("null struct")
		}
		return v.Struct(), nil
	case minic.VPtr:
		p := v.Ptr()
		if p == nil {
			return nil, fmt.Errorf("null pointer")
		}
		if s := p.V.Struct(); s != nil {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%q applied to a non-struct value", op)
}

func (ev *exprEval) primary() (result, error) {
	t := ev.next()
	switch t.Kind {
	case minic.INTLIT:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return result{}, fmt.Errorf("bad integer %q", t.Text)
		}
		return result{val: minic.IntVal(v)}, nil
	case minic.FLOATLIT:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return result{}, fmt.Errorf("bad float %q", t.Text)
		}
		return result{val: minic.FloatVal(v)}, nil
	case minic.STRINGLIT:
		return result{val: minic.StrVal(t.Text)}, nil
	case minic.KwTrue, minic.KwFalse:
		return result{val: minic.BoolVal(t.Kind == minic.KwTrue)}, nil
	case minic.KwNull:
		return result{val: minic.NullVal()}, nil
	case minic.LParen:
		r, err := ev.expr()
		if err != nil {
			return result{}, err
		}
		if err := ev.expect(minic.RParen); err != nil {
			return result{}, err
		}
		return r, nil
	case minic.IDENT:
		if t.Text[0] == '$' {
			if ev.skip {
				return result{}, nil
			}
			return ev.register(t.Text[1:])
		}
		if ev.kind() == minic.LParen {
			return ev.call(t.Text)
		}
		return ev.lookupSymbol(t.Text)
	}
	return result{}, fmt.Errorf("unexpected %q in expression", t.Kind)
}

func (ev *exprEval) register(name string) (result, error) {
	switch name {
	case "rip", "pc":
		v, ok := ev.d.RegisterRIP()
		if !ok {
			return result{}, fmt.Errorf("no frame selected")
		}
		return result{val: minic.IntVal(v)}, nil
	case "rsp", "sp":
		v, ok := ev.d.RegisterRSP()
		if !ok {
			return result{}, fmt.Errorf("no frame selected")
		}
		return result{val: minic.IntVal(v)}, nil
	}
	return result{}, fmt.Errorf("invalid register $%s", name)
}

// call evaluates a call into the debuggee. Names may use the C++-style
// qualified form ns::fn, which maps to ns_fn in the program/native tables
// (a flat namespace, like a linker's).
func (ev *exprEval) call(name string) (result, error) {
	if err := ev.expect(minic.LParen); err != nil {
		return result{}, err
	}
	args := ev.d.getArgs()
	defer func() { ev.d.putArgs(args) }()
	for ev.kind() != minic.RParen {
		a, err := ev.expr()
		if err != nil {
			return result{}, err
		}
		args = append(args, a.val)
		if ev.kind() == minic.Comma {
			ev.pos++
		} else {
			break
		}
	}
	if err := ev.expect(minic.RParen); err != nil || ev.skip {
		return result{}, err
	}
	v, err := ev.d.CallValue(ev.d.mangled(name), args)
	if err != nil {
		return result{}, err
	}
	return result{val: v}, nil
}

// getArgs pops a reusable argument slice off the freelist (length 0,
// capacity retained from earlier calls).
func (d *Debugger) getArgs() []minic.Value {
	if n := len(d.argFree); n > 0 {
		a := d.argFree[n-1]
		d.argFree = d.argFree[:n-1]
		return a
	}
	return make([]minic.Value, 0, 4)
}

// putArgs returns an argument slice to the freelist, zeroing the used
// prefix so recycled slices do not pin debuggee values.
func (d *Debugger) putArgs(a []minic.Value) {
	for i := range a {
		a[i] = minic.Value{}
	}
	d.argFree = append(d.argFree, a[:0])
}

// mangled rewrites ns::fn to ns_fn so transcripts can use the paper's
// d2x_runtime::command_xbt spelling verbatim. Unqualified names pass
// through untouched; qualified rewrites are memoised, since the command
// macros call the same few runtime entry points forever.
func (d *Debugger) mangled(name string) string {
	if !strings.Contains(name, "::") {
		return name
	}
	if m, ok := d.mangleCache[name]; ok {
		return m
	}
	m := strings.ReplaceAll(name, "::", "_")
	if d.mangleCache == nil {
		d.mangleCache = make(map[string]string)
	} else if len(d.mangleCache) >= exprCacheMax {
		clear(d.mangleCache)
	}
	d.mangleCache[name] = m
	return m
}

// lookupSymbol resolves a bare identifier: selected-frame locals through
// the debug info first, then globals.
func (ev *exprEval) lookupSymbol(name string) (result, error) {
	d := ev.d
	f := d.SelectedFrame()
	if f != nil {
		if fi := d.proc.Info.FuncByIndex(f.FuncIndex); fi != nil {
			if v, ok := fi.VarByName(name); ok {
				if cell := f.Slot(v.Slot); cell != nil {
					ev.typ = f.Fn.SlotTypes[v.Slot]
					return result{val: cell.V, cell: cell}, nil
				}
			}
		}
	}
	prog := d.proc.VM.Prog
	if i, ok := prog.GlobalByName[name]; ok {
		cell := &d.proc.VM.Globals[i]
		ev.typ = prog.Globals[i].Type
		return result{val: cell.V, cell: cell}, nil
	}
	return result{}, fmt.Errorf("no symbol %q in current context", name)
}
