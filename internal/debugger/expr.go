package debugger

import (
	"fmt"
	"strconv"
	"strings"

	"d2x/internal/minic"
)

// This file implements the debugger's expression language, used by print,
// call, set, and eval argument lists. It covers what a debugger needs:
// literals, locals/globals, field and index access, dereference and
// address-of, register meta-variables ($rip, $rsp, $pc), and calls into
// the debuggee.

type exprToken struct {
	kind string // "ident", "int", "float", "string", "reg", or punctuation
	text string
}

// punctBytes lists the single-byte tokens; punctKinds holds their
// pre-made kind strings, index-aligned, so lexing punctuation never
// converts (and so never allocates) a one-byte string per token.
const punctBytes = "()[].,*&-!+/%<>"

var punctKinds = [...]string{"(", ")", "[", "]", ".", ",", "*", "&", "-", "!", "+", "/", "%", "<", ">"}

func lexExpr(src string) ([]exprToken, error) {
	// A D2X command expression runs 10-20 tokens; starting at capacity
	// 16 turns the append ladder into one allocation for almost every
	// expression. Misses of the expr cache lex on the command path, so
	// the constant matters there.
	toks := make([]exprToken, 0, 16)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '$':
			j := i + 1
			for j < len(src) && (isWordByte(src[j]) || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("lone $ in expression")
			}
			toks = append(toks, exprToken{kind: "reg", text: src[i+1 : j]})
			i = j
		case isWordByte(c):
			j := i
			for j < len(src) && (isWordByte(src[j]) || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, exprToken{kind: "ident", text: src[i:j]})
			i = j
		case c >= '0' && c <= '9':
			j := i
			isFloat := false
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				if src[j] == '.' {
					isFloat = true
				}
				j++
			}
			kind := "int"
			if isFloat {
				kind = "float"
			}
			toks = append(toks, exprToken{kind: kind, text: src[i:j]})
			i = j
		case c == '"':
			// Escape-free strings — every string a D2X macro passes
			// through — are sliced straight out of src; only an escape
			// forces a rebuilt copy.
			j := i + 1
			hasEscape := false
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					hasEscape = true
					j++
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("unterminated string in expression")
			}
			text := src[i+1 : j]
			if hasEscape {
				var b strings.Builder
				b.Grow(j - i - 1)
				for k := i + 1; k < j; k++ {
					if src[k] == '\\' && k+1 < j {
						k++
						switch src[k] {
						case 'n':
							b.WriteByte('\n')
						case 't':
							b.WriteByte('\t')
						case '"':
							b.WriteByte('"')
						case '\\':
							b.WriteByte('\\')
						default:
							b.WriteByte(src[k])
						}
					} else {
						b.WriteByte(src[k])
					}
				}
				text = b.String()
			}
			toks = append(toks, exprToken{kind: "string", text: text})
			i = j + 1
		case c == '-' && i+1 < len(src) && src[i+1] == '>':
			toks = append(toks, exprToken{kind: "->"})
			i += 2
		case c == '=' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, exprToken{kind: "=="})
			i += 2
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, exprToken{kind: "!="})
			i += 2
		case c == '<' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, exprToken{kind: "<="})
			i += 2
		case c == '>' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, exprToken{kind: ">="})
			i += 2
		case c == '&' && i+1 < len(src) && src[i+1] == '&':
			toks = append(toks, exprToken{kind: "&&"})
			i += 2
		case c == '|' && i+1 < len(src) && src[i+1] == '|':
			toks = append(toks, exprToken{kind: "||"})
			i += 2
		default:
			k := strings.IndexByte(punctBytes, c)
			if k < 0 {
				return nil, fmt.Errorf("unexpected character %q in expression", string(c))
			}
			toks = append(toks, exprToken{kind: punctKinds[k]})
			i++
		}
	}
	return toks, nil
}

func isWordByte(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// result pairs an evaluated value with, when the expression designates a
// storage location, the cell backing it (for & and set).
type result struct {
	val  minic.Value
	cell *minic.Cell
}

type exprEval struct {
	d    *Debugger
	toks []exprToken
	pos  int
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

// lexCached returns the token slice for src, memoised. Token slices are
// read-only after lexing (the evaluator only indexes into them), so
// sharing one slice across evaluations is safe.
func (d *Debugger) lexCached(src string) ([]exprToken, error) {
	if toks, ok := d.exprCache[src]; ok {
		return toks, nil
	}
	toks, err := lexExpr(src)
	if err != nil {
		return nil, err
	}
	if d.exprCache == nil {
		d.exprCache = make(map[string][]exprToken)
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
	ev := &exprEval{d: d, toks: toks}
	r, err := ev.expr()
	if err != nil {
		return result{}, err
	}
	if ev.pos != len(ev.toks) {
		return result{}, fmt.Errorf("junk at end of expression")
	}
	return r, nil
}

// SetVariable evaluates lvalueSrc to a storage location and stores the
// value of rhsSrc into it (GDB's `set var`).
func (d *Debugger) SetVariable(lvalueSrc, rhsSrc string) error {
	lhs, err := d.evalResult(lvalueSrc)
	if err != nil {
		return err
	}
	if lhs.cell == nil {
		return fmt.Errorf("left operand of assignment is not an lvalue")
	}
	rhs, err := d.EvalExpr(rhsSrc)
	if err != nil {
		return err
	}
	if misfit(lhs.val.Kind, rhs) {
		return fmt.Errorf("cannot assign %s to %s", rhs.Kind, lhs.val.Kind)
	}
	lhs.cell.V = rhs
	return nil
}

func (ev *exprEval) peek() exprToken {
	if ev.pos >= len(ev.toks) {
		return exprToken{kind: "eof"}
	}
	return ev.toks[ev.pos]
}

func (ev *exprEval) next() exprToken {
	t := ev.peek()
	if t.kind != "eof" {
		ev.pos++
	}
	return t
}

func (ev *exprEval) expect(kind string) error {
	if ev.peek().kind != kind {
		return fmt.Errorf("expected %q in expression", kind)
	}
	ev.pos++
	return nil
}

// Binary operator precedence for debugger expressions, matching mini-C.
func exprBinPrec(kind string) int {
	switch kind {
	case "||":
		return 1
	case "&&":
		return 2
	case "==", "!=":
		return 3
	case "<", "<=", ">", ">=":
		return 4
	case "+":
		return 5
	case "-":
		return 5
	case "*", "/", "%":
		return 6
	}
	return 0
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
		op := ev.peek().kind
		prec := exprBinPrec(op)
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		// '*' and '-' and '&' are also unary; as infix operators they
		// only appear here, after a complete operand, so no ambiguity.
		ev.next()
		decided := !ev.skip && (op == "&&" && !lhs.val.Bool() || op == "||" && lhs.val.Bool())
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
			lhs = result{val: minic.BoolVal(op == "||")}
		default:
			v, err := applyBinary(op, lhs.val, rhs.val)
			if err != nil {
				return result{}, err
			}
			lhs = result{val: v}
		}
	}
}

// applyBinary evaluates one binary operation on debugger values, with the
// same semantics the VM gives the operator.
func applyBinary(op string, x, y minic.Value) (minic.Value, error) {
	var k minic.Kind
	switch op {
	case "+":
		k = minic.Plus
	case "-":
		k = minic.Minus
	case "*":
		k = minic.Star
	case "/":
		k = minic.Slash
	case "%":
		k = minic.Percent
	case "==":
		k = minic.Eq
	case "!=":
		k = minic.Neq
	case "<":
		k = minic.Lt
	case "<=":
		k = minic.Le
	case ">":
		k = minic.Gt
	case ">=":
		k = minic.Ge
	case "&&":
		k = minic.AndAnd
	case "||":
		k = minic.OrOr
	default:
		return minic.Value{}, fmt.Errorf("unknown operator %q", op)
	}
	return minic.EvalBinary(k, x, y)
}

func (ev *exprEval) unary() (result, error) {
	switch ev.peek().kind {
	case "*":
		ev.next()
		r, err := ev.unary()
		if err != nil || ev.skip {
			return result{}, err
		}
		p := r.val.Ptr()
		if p == nil {
			return result{}, fmt.Errorf("attempt to dereference a non-pointer or null value")
		}
		return result{val: p.V, cell: p}, nil
	case "&":
		ev.next()
		r, err := ev.unary()
		if err != nil || ev.skip {
			return result{}, err
		}
		if r.cell == nil {
			return result{}, fmt.Errorf("attempt to take address of a value not in memory")
		}
		return result{val: minic.PtrVal(r.cell)}, nil
	case "-":
		ev.next()
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
	case "!":
		ev.next()
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
		switch ev.peek().kind {
		case "[":
			ev.next()
			idx, err := ev.expr()
			if err != nil {
				return result{}, err
			}
			if err := ev.expect("]"); err != nil {
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
		case ".", "->":
			op := ev.next().kind
			name := ev.next()
			if name.kind != "ident" {
				return result{}, fmt.Errorf("expected field name after %q", op)
			}
			if ev.skip {
				continue
			}
			obj, err := structOf(r.val, op)
			if err != nil {
				return result{}, err
			}
			fi := obj.Def.FieldIndex(name.text)
			if fi < 0 {
				return result{}, fmt.Errorf("struct %s has no member named %q", obj.Def.Name, name.text)
			}
			cell := &obj.Fields[fi]
			r = result{val: cell.V, cell: cell}
		default:
			return r, nil
		}
	}
}

func structOf(v minic.Value, op string) (*minic.StructObj, error) {
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
	switch t.kind {
	case "int":
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return result{}, fmt.Errorf("bad integer %q", t.text)
		}
		return result{val: minic.IntVal(v)}, nil
	case "float":
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return result{}, fmt.Errorf("bad float %q", t.text)
		}
		return result{val: minic.FloatVal(v)}, nil
	case "string":
		return result{val: minic.StrVal(t.text)}, nil
	case "reg":
		if ev.skip {
			return result{}, nil
		}
		return ev.register(t.text)
	case "(":
		r, err := ev.expr()
		if err != nil {
			return result{}, err
		}
		if err := ev.expect(")"); err != nil {
			return result{}, err
		}
		return r, nil
	case "ident":
		switch t.text {
		case "true":
			return result{val: minic.BoolVal(true)}, nil
		case "false":
			return result{val: minic.BoolVal(false)}, nil
		case "null":
			return result{val: minic.NullVal()}, nil
		}
		if ev.peek().kind == "(" {
			return ev.call(t.text)
		}
		return ev.d.lookupSymbol(t.text)
	}
	return result{}, fmt.Errorf("unexpected %q in expression", t.kind)
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
	if err := ev.expect("("); err != nil {
		return result{}, err
	}
	args := ev.d.getArgs()
	defer func() { ev.d.putArgs(args) }()
	for ev.peek().kind != ")" {
		a, err := ev.expr()
		if err != nil {
			return result{}, err
		}
		args = append(args, a.val)
		if ev.peek().kind == "," {
			ev.next()
		} else {
			break
		}
	}
	if err := ev.expect(")"); err != nil || ev.skip {
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
func (d *Debugger) lookupSymbol(name string) (result, error) {
	f := d.SelectedFrame()
	if f != nil {
		if fi := d.proc.Info.FuncByIndex(f.FuncIndex); fi != nil {
			if v, ok := fi.VarByName(name); ok && v.Slot < len(f.Slots) {
				cell := f.Slots[v.Slot]
				return result{val: cell.V, cell: cell}, nil
			}
		}
	}
	if cell := d.proc.VM.GlobalCell(name); cell != nil {
		return result{val: cell.V, cell: cell}, nil
	}
	return result{}, fmt.Errorf("no symbol %q in current context", name)
}
