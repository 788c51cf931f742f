// Package d2xenc defines the D2X table wire format: how the debug
// information collected by d2xc is serialised *into the generated program*
// (paper §4.1: "converts this information into C++ arrays and structures
// and generates them into the C++ file specified") and how the D2X runtime
// reads it back out of the paused debuggee's memory.
//
// The tables are ordinary globals of the generated program, each column
// one array global initialised with an array literal: data, like the
// paper's C arrays, that the VM lays out when it loads the program, with
// no code to run before main. Nothing about the debugger, the
// debug-info format, or the VM knows they exist; they are data the
// program carries about itself.
package d2xenc

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/srcloc"
)

// Global names of the emitted tables. A string pool keeps the emitted
// tables compact: all string-valued columns store pool indices.
const (
	GStrtab    = "__d2x_strtab"
	GRecLine   = "__d2x_rec_line"
	GRecSrcOff = "__d2x_rec_src_off"
	GRecSrcCnt = "__d2x_rec_src_cnt"
	GRecVarOff = "__d2x_rec_var_off"
	GRecVarCnt = "__d2x_rec_var_cnt"
	GSrcFile   = "__d2x_src_file"
	GSrcLine   = "__d2x_src_line"
	GSrcFunc   = "__d2x_src_func"
	GVarKey    = "__d2x_var_key"
	GVarKind   = "__d2x_var_kind"
	GVarVal    = "__d2x_var_val"
	GRecCount  = "__d2x_rec_count"

	// Effect-summary columns (one row per rtv handler): the link step
	// records what the effects analysis proved about each handler, so the
	// verifier can re-check an already-linked build over the wire path and
	// the runtime can pick a guard without re-running the analysis.
	GFxCount = "__d2x_fx_count"
	GFxName  = "__d2x_fx_name"
	GFxMask  = "__d2x_fx_mask"
	GFxLoop  = "__d2x_fx_loop"
)

// HandlerEffect is one handler's recorded effect summary. Mask is the
// effects.Effect bitmask and Loop the effects.LoopClass ordinal, kept as
// plain integers here so the wire package does not depend on the
// analysis package.
type HandlerEffect struct {
	Handler string // generated handler function name
	Mask    int64
	Loop    int64
}

// EmitTables serialises every closed section of ctx as mini-C source:
// one global per table column, initialised with an array literal.
// Append the output to the generated program before compiling it. This
// is the package-level form of the paper's
// d2x_context::emit_section_info.
func EmitTables(ctx *d2xc.Context, w io.Writer) error {
	return EmitTablesFX(ctx, nil, w)
}

// EmitTablesFX is EmitTables plus the per-handler effect-summary columns
// (fx may be empty; the columns are emitted either way so decoders can
// distinguish "no handlers analysed" from "pre-analysis build").
func EmitTablesFX(ctx *d2xc.Context, fx []HandlerEffect, w io.Writer) error {
	records := ctx.Records()

	pool := newStrPool()
	var recLine, recSrcOff, recSrcCnt, recVarOff, recVarCnt []int64
	var srcFile, srcLine, srcFunc, varKey, varKind, varVal []int64
	for _, r := range records {
		recLine = append(recLine, int64(r.GenLine))
		recSrcOff = append(recSrcOff, int64(len(srcFile)))
		recSrcCnt = append(recSrcCnt, int64(len(r.Stack)))
		recVarOff = append(recVarOff, int64(len(varKey)))
		recVarCnt = append(recVarCnt, int64(len(r.Vars)))
		for _, loc := range r.Stack {
			srcFile = append(srcFile, pool.idx(loc.File))
			srcLine = append(srcLine, int64(loc.Line))
			srcFunc = append(srcFunc, pool.idx(loc.Function))
		}
		for _, v := range r.Vars {
			varKey = append(varKey, pool.idx(v.Key))
			varKind = append(varKind, int64(v.Kind))
			varVal = append(varVal, pool.idx(v.Val))
		}
	}
	fxName := make([]string, len(fx))
	fxMask := make([]int64, len(fx))
	fxLoop := make([]int64, len(fx))
	for i, h := range fx {
		fxName[i], fxMask[i], fxLoop[i] = h.Handler, h.Mask, h.Loop
	}

	b := []byte("// ---- D2X debug tables (generated by d2xenc; read by the D2X runtime) ----\n")
	b = appendStrings(b, GStrtab, pool.list)
	for _, c := range [...]struct {
		name string
		vals []int64
	}{
		{GRecLine, recLine}, {GRecSrcOff, recSrcOff}, {GRecSrcCnt, recSrcCnt},
		{GRecVarOff, recVarOff}, {GRecVarCnt, recVarCnt},
		{GSrcFile, srcFile}, {GSrcLine, srcLine}, {GSrcFunc, srcFunc},
		{GVarKey, varKey}, {GVarKind, varKind}, {GVarVal, varVal},
	} {
		b = appendInts(b, c.name, c.vals)
	}
	b = fmt.Appendf(b, "global int %s = %d;\n", GRecCount, len(records))
	b = appendStrings(b, GFxName, fxName)
	b = appendInts(b, GFxMask, fxMask)
	b = appendInts(b, GFxLoop, fxLoop)
	b = fmt.Appendf(b, "global int %s = %d;\n", GFxCount, len(fx))

	_, err := w.Write(b)
	return err
}

// appendInts appends the declaration of one int column.
func appendInts(b []byte, name string, vals []int64) []byte {
	b = append(b, "global int[] "...)
	b = append(b, name...)
	b = append(b, " = {"...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, "};\n"...)
}

// appendStrings appends the declaration of one string column.
func appendStrings(b []byte, name string, vals []string) []byte {
	b = append(b, "global string[] "...)
	b = append(b, name...)
	b = append(b, " = {"...)
	for i, s := range vals {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, minic.Quote(s)...)
	}
	return append(b, "};\n"...)
}

type strPool struct {
	list []string
	byS  map[string]int
}

func newStrPool() *strPool { return &strPool{byS: map[string]int{}} }

func (p *strPool) idx(s string) int64 {
	if i, ok := p.byS[s]; ok {
		return int64(i)
	}
	i := len(p.list)
	p.list = append(p.list, s)
	p.byS[s] = i
	return int64(i)
}

// Tables is the decoded, queryable form of the D2X tables read back from
// a running program's memory. A Tables is immutable after Decode returns:
// every index is precomputed and every query either returns a fresh slice
// or a pointer into data that must not be written. That contract is what
// lets one decode be shared read-only across concurrent debug sessions
// (see internal/d2x/session).
//
//d2x:immutable
type Tables struct {
	Records []d2xc.Record
	byLine  map[int]int

	// fwd is the (file, line) → records forward index behind
	// AppendGenLinesForDSL, keyed by the full DSL path of each record's
	// stack top. Values are record indices in table order.
	fwd map[fileLine][]int
	// topFiles are the distinct stack-top files (possibly including ""),
	// the candidate set suffix queries resolve against.
	topFiles []string
	// files are the distinct non-empty DSL files across all stack
	// entries, first-appearance order; FirstDSLFile reads the first.
	files []string

	// fx maps handler name → recorded effect summary. nil when the build
	// predates the effect columns; empty when the columns are present but
	// no handlers were analysed.
	fx map[string]HandlerEffect
	// fxNames preserves table order for deterministic iteration.
	fxNames []string
}

// HandlerFX returns the recorded effect summary of one handler.
func (t *Tables) HandlerFX(name string) (HandlerEffect, bool) {
	h, ok := t.fx[name]
	return h, ok
}

// HasFX reports whether the build recorded effect summaries at all
// (distinguishing an old build from one with zero handlers).
func (t *Tables) HasFX() bool { return t.fx != nil }

// HandlerFXNames returns the handler names with recorded summaries, in
// table order. The result is a fresh slice.
func (t *Tables) HandlerFXNames() []string {
	return append([]string(nil), t.fxNames...)
}

type fileLine struct {
	file string
	line int
}

// index builds the query indexes over the decoded records. It runs once,
// at the end of Decode; Tables never changes afterwards.
//
//d2x:ctor Tables
func (t *Tables) index() {
	t.fwd = map[fileLine][]int{}
	seenTop := map[string]bool{}
	seen := map[string]bool{}
	for i := range t.Records {
		r := &t.Records[i]
		if top, ok := r.Stack.Top(); ok {
			k := fileLine{top.File, top.Line}
			t.fwd[k] = append(t.fwd[k], i)
			if !seenTop[top.File] {
				seenTop[top.File] = true
				t.topFiles = append(t.topFiles, top.File)
			}
		}
		for _, loc := range r.Stack {
			if loc.File != "" && !seen[loc.File] {
				seen[loc.File] = true
				t.files = append(t.files, loc.File)
			}
		}
	}
}

// Decode reads the D2X tables out of the debuggee. It fails cleanly when
// the program carries no D2X information.
//
//d2x:ctor Tables
func Decode(vm *minic.VM) (*Tables, error) {
	count, err := readInt(vm, GRecCount)
	if err != nil {
		return nil, fmt.Errorf("d2x: program carries no D2X tables (%w)", err)
	}
	strtab, err := readStrArr(vm, GStrtab)
	if err != nil {
		return nil, err
	}
	// Intern the string table: the emit-side pool guarantees distinct
	// entries within one column, but file names recur across columns
	// (strtab vs FX handler names) and across decodes of related builds.
	// Interning gives every consumer — the fused rip→context index, the
	// render path — canonical string objects to hold and compare.
	tab := make(dwarfish.Interner, len(strtab))
	for i, s := range strtab {
		strtab[i] = tab.Intern(s)
	}
	ints := map[string][]int64{}
	for _, g := range []string{GRecLine, GRecSrcOff, GRecSrcCnt, GRecVarOff, GRecVarCnt, GSrcFile, GSrcLine, GSrcFunc, GVarKey, GVarKind, GVarVal} {
		arr, err := readIntArr(vm, g)
		if err != nil {
			return nil, err
		}
		ints[g] = arr
	}
	str := func(i int64) (string, error) {
		if i < 0 || int(i) >= len(strtab) {
			return "", fmt.Errorf("d2x: corrupt tables: string index %d out of range", i)
		}
		return strtab[i], nil
	}

	// The loop below indexes every column of a group with one index, so
	// each group's columns must all be long enough: records up to count,
	// source entries up to len(src_file), vars up to len(var_key).
	for _, g := range [...]struct {
		n    int64
		cols []string
	}{
		{count, []string{GRecLine, GRecSrcOff, GRecSrcCnt, GRecVarOff, GRecVarCnt}},
		{int64(len(ints[GSrcFile])), []string{GSrcLine, GSrcFunc}},
		{int64(len(ints[GVarKey])), []string{GVarKind, GVarVal}},
	} {
		for _, c := range g.cols {
			if int64(len(ints[c])) < g.n {
				return nil, fmt.Errorf("d2x: corrupt tables: %s has %d entries, want %d", c, len(ints[c]), g.n)
			}
		}
	}

	// Each record's stack and variables are ranges of their columns,
	// which the emitter lays end to end. So the ranges must lie inside
	// the columns and together take no more entries than the columns
	// hold: ranges that overlap could make a decode quadratic in the size
	// of the tables.
	t := &Tables{byLine: map[int]int{}}
	srcLeft, varLeft := int64(len(ints[GSrcFile])), int64(len(ints[GVarKey]))
	for i := int64(0); i < count; i++ {
		rec := d2xc.Record{GenLine: int(ints[GRecLine][i])}
		so, sc := ints[GRecSrcOff][i], ints[GRecSrcCnt][i]
		vo, vc := ints[GRecVarOff][i], ints[GRecVarCnt][i]
		srcLeft, varLeft = srcLeft-sc, varLeft-vc
		if sc < 0 || so < 0 || so > int64(len(ints[GSrcFile]))-sc || srcLeft < 0 ||
			vc < 0 || vo < 0 || vo > int64(len(ints[GVarKey]))-vc || varLeft < 0 {
			return nil, fmt.Errorf("d2x: corrupt tables: record %d's %d source entries from %d or %d vars from %d lie outside their columns or overlap others", i, sc, so, vc, vo)
		}
		for j := so; j < so+sc; j++ {
			file, err := str(ints[GSrcFile][j])
			if err != nil {
				return nil, err
			}
			fn, err := str(ints[GSrcFunc][j])
			if err != nil {
				return nil, err
			}
			rec.Stack = append(rec.Stack, srcloc.Loc{
				File: file, Line: int(ints[GSrcLine][j]), Function: fn,
			})
		}
		for j := vo; j < vo+vc; j++ {
			key, err := str(ints[GVarKey][j])
			if err != nil {
				return nil, err
			}
			val, err := str(ints[GVarVal][j])
			if err != nil {
				return nil, err
			}
			rec.Vars = append(rec.Vars, d2xc.VarEntry{
				Key: key, Kind: d2xc.VarKind(ints[GVarKind][j]), Val: val,
			})
		}
		t.byLine[rec.GenLine] = len(t.Records)
		t.Records = append(t.Records, rec)
	}
	t.index()
	if err := decodeFX(vm, t, tab); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeFX reads the effect-summary columns when present. Builds that
// predate the columns decode cleanly with t.fx left nil.
//
//d2x:ctor Tables
func decodeFX(vm *minic.VM, t *Tables, tab dwarfish.Interner) error {
	count, err := readInt(vm, GFxCount)
	if err != nil {
		return nil // pre-analysis build: no FX columns
	}
	names, err := readStrArr(vm, GFxName)
	if err != nil {
		return err
	}
	for i, s := range names {
		names[i] = tab.Intern(s)
	}
	masks, err := readIntArr(vm, GFxMask)
	if err != nil {
		return err
	}
	loops, err := readIntArr(vm, GFxLoop)
	if err != nil {
		return err
	}
	if int64(len(names)) < count || int64(len(masks)) < count || int64(len(loops)) < count {
		return fmt.Errorf("d2x: corrupt tables: %d handler summaries declared, fewer present", count)
	}
	t.fx = make(map[string]HandlerEffect, count)
	for i := int64(0); i < count; i++ {
		h := HandlerEffect{Handler: names[i], Mask: masks[i], Loop: loops[i]}
		t.fx[h.Handler] = h
		t.fxNames = append(t.fxNames, h.Handler)
	}
	return nil
}

// RecordForLine returns the record of one generated source line, or nil.
//
//d2x:noalloc
func (t *Tables) RecordForLine(line int) *d2xc.Record {
	if i, ok := t.byLine[line]; ok {
		return &t.Records[i]
	}
	return nil
}

// AppendGenLinesForDSL appends every generated line whose extended stack
// *top* is the given DSL location — the xbreak forward map — to dst, in
// table order, and returns the extended slice. File matching is by path
// suffix so users can type short names. It performs no allocation when
// dst has capacity, which is what the xbreak command path wants for its
// per-session scratch slice; pass nil for a fresh, independently owned
// slice.
//
//d2x:noalloc amortized
func (t *Tables) AppendGenLinesForDSL(dst []int, file string, line int) []int {
	base := len(dst)
	for _, full := range t.topFiles {
		if !fileMatches(full, file) {
			continue
		}
		dst = append(dst, t.fwd[fileLine{full, line}]...)
	}
	idxs := dst[base:]
	if len(idxs) == 0 {
		return dst
	}
	// A suffix query can match several files; sorting the record indices
	// restores the table order a full scan would give. (Single-file hits
	// are already sorted, making this near-free.)
	sort.Ints(idxs)
	for i, ri := range idxs {
		idxs[i] = t.Records[ri].GenLine
	}
	return dst
}

// FirstDSLFile returns the first DSL file appearing in the tables (the
// program's primary source when there is only one) without copying the
// file list.
//
//d2x:noalloc
func (t *Tables) FirstDSLFile() (string, bool) {
	if len(t.files) == 0 {
		return "", false
	}
	return t.files[0], true
}

//d2x:noalloc
func fileMatches(full, query string) bool {
	if query == "" || full == query {
		return true
	}
	return strings.HasSuffix(full, query) && full[len(full)-len(query)-1] == '/'
}

func readInt(vm *minic.VM, name string) (int64, error) {
	c := vm.GlobalCell(name)
	if c == nil {
		return 0, fmt.Errorf("no global %s", name)
	}
	if c.V.Kind != minic.VInt {
		return 0, fmt.Errorf("global %s is not an int", name)
	}
	return c.V.I, nil
}

func readIntArr(vm *minic.VM, name string) ([]int64, error) {
	c := vm.GlobalCell(name)
	if c == nil {
		return nil, fmt.Errorf("d2x: no global %s", name)
	}
	arr := c.V.Arr()
	if arr == nil {
		return nil, fmt.Errorf("d2x: global %s is not an initialised array", name)
	}
	out := make([]int64, arr.Len())
	for i := range out {
		v := arr.Cells[i].V
		if v.Kind != minic.VInt {
			return nil, fmt.Errorf("d2x: global %s[%d] is not an int", name, i)
		}
		out[i] = v.I
	}
	return out, nil
}

func readStrArr(vm *minic.VM, name string) ([]string, error) {
	c := vm.GlobalCell(name)
	if c == nil {
		return nil, fmt.Errorf("d2x: no global %s", name)
	}
	arr := c.V.Arr()
	if arr == nil {
		return nil, fmt.Errorf("d2x: global %s is not an initialised array", name)
	}
	out := make([]string, arr.Len())
	for i := range out {
		out[i] = arr.Cells[i].V.S()
	}
	return out, nil
}
