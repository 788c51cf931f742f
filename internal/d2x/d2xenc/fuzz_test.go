package d2xenc_test

import (
	"encoding/binary"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/examplebuilds"
	"d2x/internal/minic"
)

// corruptTablesSrc is a program that declares the table globals as array
// literals: count records declared, the string table one empty string,
// and each int column the elements cols gives it (empty when absent).
func corruptTablesSrc(count int, cols map[string][]int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "global string[] %s = {\"\"};\n", d2xenc.GStrtab)
	for _, c := range []string{d2xenc.GRecLine, d2xenc.GRecSrcOff, d2xenc.GRecSrcCnt, d2xenc.GRecVarOff, d2xenc.GRecVarCnt, d2xenc.GSrcFile, d2xenc.GSrcLine, d2xenc.GSrcFunc, d2xenc.GVarKey, d2xenc.GVarKind, d2xenc.GVarVal} {
		elems := make([]string, len(cols[c]))
		for i, v := range cols[c] {
			elems[i] = fmt.Sprint(v)
		}
		fmt.Fprintf(&b, "global int[] %s = {%s};\n", c, strings.Join(elems, ", "))
	}
	fmt.Fprintf(&b, "global int %s = %d;\n", d2xenc.GRecCount, count)
	b.WriteString("func int main() { return 0; }\n")
	return b.String()
}

// corruptCases each declare count records and override some columns of
// one record with no source or var entries.
var corruptCases = []struct {
	name  string
	count int
	cols  map[string][]int64
}{
	{"source count past the source columns", 1, map[string][]int64{d2xenc.GRecSrcCnt: {99}}},
	{"fewer records than declared", 2, nil},
	{"rec_src_off shorter than count", 1, map[string][]int64{d2xenc.GRecSrcOff: nil}},
	{"rec_var_cnt shorter than count", 1, map[string][]int64{d2xenc.GRecVarCnt: nil}},
	{"src_func shorter than src_file", 1, map[string][]int64{d2xenc.GSrcFile: {0}, d2xenc.GSrcLine: {0}, d2xenc.GRecSrcCnt: {1}}},
	{"var_val shorter than var_key", 1, map[string][]int64{d2xenc.GVarKey: {0}, d2xenc.GVarKind: {0}, d2xenc.GRecVarCnt: {1}}},
	{"string index out of range", 1, map[string][]int64{d2xenc.GSrcFile: {7}, d2xenc.GSrcLine: {0}, d2xenc.GSrcFunc: {0}, d2xenc.GRecSrcCnt: {1}}},
	{"records share a source entry", 2, map[string][]int64{
		d2xenc.GRecLine: {0, 1}, d2xenc.GRecSrcOff: {0, 0}, d2xenc.GRecSrcCnt: {1, 1}, d2xenc.GRecVarOff: {0, 0}, d2xenc.GRecVarCnt: {0, 0},
		d2xenc.GSrcFile: {0}, d2xenc.GSrcLine: {0}, d2xenc.GSrcFunc: {0}}},
}

// corruptProgram compiles one of corruptCases.
func corruptProgram(t testing.TB, count int, cols map[string][]int64) *minic.Program {
	t.Helper()
	oneRecord := map[string][]int64{d2xenc.GRecLine: {0}, d2xenc.GRecSrcOff: {0}, d2xenc.GRecSrcCnt: {0}, d2xenc.GRecVarOff: {0}, d2xenc.GRecVarCnt: {0}}
	maps.Copy(oneRecord, cols)
	prog, err := minic.Compile("corrupt.c", corruptTablesSrc(count, oneRecord), nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestDecodeCorruptTables: tables in inferior memory are untrusted input.
// Inconsistent columns must make the decoder return a "corrupt" error,
// never panic.
func TestDecodeCorruptTables(t *testing.T) {
	for _, tc := range corruptCases {
		t.Run(tc.name, func(t *testing.T) {
			prog := corruptProgram(t, tc.count, tc.cols)
			if _, err := d2xenc.Decode(minic.NewVM(prog, nil)); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Errorf("decode of corrupt tables: %v", err)
			}
		})
	}
}

// TestDecodeBoundsEntriesByColumns: records may not together claim more
// stack entries or variables than their columns hold. Here each of 200
// records claims all 200 of both, so a decode that took them would build
// 40,000 of each from tables of 2,200 ints; the decode fails instead, and
// allocates under 1 MiB on the way.
func TestDecodeBoundsEntriesByColumns(t *testing.T) {
	const n = 200
	cols := map[string][]int64{}
	for i := range n {
		for c, v := range map[string]int64{
			d2xenc.GRecLine: int64(i), d2xenc.GRecSrcOff: 0, d2xenc.GRecSrcCnt: n, d2xenc.GRecVarOff: 0, d2xenc.GRecVarCnt: n,
			d2xenc.GSrcFile: 0, d2xenc.GSrcLine: 1, d2xenc.GSrcFunc: 0, d2xenc.GVarKey: 0, d2xenc.GVarKind: 0, d2xenc.GVarVal: 0,
		} {
			cols[c] = append(cols[c], v)
		}
	}
	vm := minic.NewVM(corruptProgram(t, n, cols), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := d2xenc.Decode(vm)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("decode of overlapping records: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decode of overlapping records allocated %d bytes", grew)
	}
}

// tableGlobals are the globals Decode reads. A fuzz input entry names one
// by its index here.
var tableGlobals = []string{
	d2xenc.GStrtab, d2xenc.GRecLine, d2xenc.GRecSrcOff, d2xenc.GRecSrcCnt, d2xenc.GRecVarOff, d2xenc.GRecVarCnt,
	d2xenc.GSrcFile, d2xenc.GSrcLine, d2xenc.GSrcFunc, d2xenc.GVarKey, d2xenc.GVarKind, d2xenc.GVarVal, d2xenc.GRecCount,
	d2xenc.GFxName, d2xenc.GFxMask, d2xenc.GFxLoop, d2xenc.GFxCount,
}

// The shapes an entry can give a global.
const (
	shapeInts = iota
	shapeStrings
	shapeInt
	shapeString
	nShapes
)

// encodeTables writes the table globals of vm as fuzz input: per global,
// one byte naming it and its shape, then the value. An int array is its
// length and its elements, a string array its length and its strings,
// each an int a varint and each string a uvarint length and its bytes.
func encodeTables(vm *minic.VM) []byte {
	var b []byte
	str := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	for gi, name := range tableGlobals {
		c := vm.GlobalCell(name)
		if c == nil {
			continue
		}
		switch v := c.V; {
		case v.Kind == minic.VInt:
			b = binary.AppendVarint(append(b, byte(gi+shapeInt*len(tableGlobals))), v.I)
		case v.Arr() != nil && v.Arr().Elem.Kind == minic.TString:
			b = binary.AppendUvarint(append(b, byte(gi+shapeStrings*len(tableGlobals))), uint64(v.Arr().Len()))
			for _, e := range v.Arr().Cells {
				str(e.V.S())
			}
		case v.Arr() != nil:
			b = binary.AppendUvarint(append(b, byte(gi+shapeInts*len(tableGlobals))), uint64(v.Arr().Len()))
			for _, e := range v.Arr().Cells {
				b = binary.AppendVarint(b, e.V.I)
			}
		}
	}
	return b
}

// setTables applies the entries of a fuzz input to the table globals of
// vm, in order, until the input runs out or stops parsing. A length
// larger than the bytes left is cut to them, so the input bounds what it
// builds.
func setTables(vm *minic.VM, data []byte) {
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	nextInt := func() (int64, bool) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	nextStr := func() (string, bool) {
		n, ok := next()
		if !ok || n > uint64(len(data)) {
			return "", false
		}
		s := string(data[:n])
		data = data[n:]
		return s, true
	}
	for len(data) > 0 {
		op := int(data[0])
		data = data[1:]
		cell := vm.GlobalCell(tableGlobals[op%len(tableGlobals)])
		switch op / len(tableGlobals) % nShapes {
		case shapeInt:
			v, ok := nextInt()
			if !ok {
				return
			}
			cell.V = minic.IntVal(v)
		case shapeString:
			s, ok := nextStr()
			if !ok {
				return
			}
			cell.V = minic.StrVal(s)
		default:
			n, ok := next()
			if !ok {
				return
			}
			elem := minic.IntType
			if op/len(tableGlobals)%nShapes == shapeStrings {
				elem = minic.StringType
			}
			arr := minic.NewArray(elem, int(min(n, uint64(len(data)))))
			for i := range arr.Cells {
				if elem == minic.IntType {
					v, ok := nextInt()
					if !ok {
						return
					}
					arr.Cells[i].V = minic.IntVal(v)
				} else {
					s, ok := nextStr()
					if !ok {
						return
					}
					arr.Cells[i].V = minic.StrVal(s)
				}
			}
			cell.V = minic.ArrVal(arr)
		}
	}
}

// verifierCorruptions are the contexts internal/d2xverify's corruption
// suite emits: well-formed tables that lie about the program (a record
// on a blank line, records out of order, a frame with no file or line, a
// handler that does not exist).
func verifierCorruptions() []*d2xc.Context {
	blank := d2xc.NewContext()
	blank.BeginSectionAt(7)
	blank.PushSourceLoc("app.dsl", 3, "main")
	blank.EndSection()

	order := d2xc.NewContext()
	order.BeginSectionAt(4)
	order.PushSourceLoc("app.dsl", 1)
	order.EndSection()
	order.BeginSectionAt(2)
	order.PushSourceLoc("app.dsl", 2)
	order.EndSection()

	frame := d2xc.NewContext()
	frame.BeginSectionAt(2)
	frame.PushSourceLoc("", 0)
	frame.EndSection()

	handler := d2xc.NewContext()
	handler.BeginSectionAt(2)
	handler.PushSourceLoc("app.dsl", 1)
	handler.SetVarHandler("frontier", d2xc.RTVHandler{FuncName: "__d2x_rtv_missing"})
	handler.EndSection()
	return []*d2xc.Context{blank, order, frame, handler}
}

// tablesProgram compiles the tables ctx emits, with a stub main.
func tablesProgram(t testing.TB, ctx *d2xc.Context) *minic.Program {
	t.Helper()
	var b strings.Builder
	if err := d2xenc.EmitTablesFX(ctx, []d2xenc.HandlerEffect{{Handler: "__h", Mask: 1, Loop: 0}}, &b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("func int main() { return 0; }\n")
	prog, err := minic.Compile("tables.c", b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// decodeAllocPerByte bounds what Decode may allocate per input byte.
// Every record, stack entry and variable it builds takes a few bytes of
// input; the widest, a record, is 56 bytes, which the record slice's
// growth and the line and forward indexes about double, and a string
// costs its interning on top of its bytes.
const decodeAllocPerByte = 256

// FuzzDecodeTables: Decode reads tables from inferior memory, which is
// untrusted input. Each input sets the table globals of a small program's
// VM (see setTables); Decode must return tables or an error, never panic
// or hang, and allocate at most decodeAllocPerByte per input byte, plus
// 64 KiB for its fixed-size state. Plain `go test` runs only the seeds:
// the examples' tables, the cases of TestDecodeCorruptTables and the
// tables of internal/d2xverify's corruption suite.
func FuzzDecodeTables(f *testing.F) {
	for _, name := range examplebuilds.Names() {
		b, err := examplebuilds.Build(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeTables(minic.NewVM(b.Program, nil)))
	}
	for _, tc := range corruptCases {
		f.Add(encodeTables(minic.NewVM(corruptProgram(f, tc.count, tc.cols), nil)))
	}
	for _, ctx := range verifierCorruptions() {
		f.Add(encodeTables(minic.NewVM(tablesProgram(f, ctx), nil)))
	}
	base := tablesProgram(f, d2xc.NewContext())
	f.Fuzz(func(t *testing.T, data []byte) {
		vm := minic.NewVM(base, nil)
		setTables(vm, data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tables, err := d2xenc.Decode(vm)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(decodeAllocPerByte*len(data)+64<<10); grew > limit {
			t.Fatalf("Decode(%d bytes) allocated %d bytes, limit %d", len(data), grew, limit)
		}
		if (tables == nil) == (err == nil) {
			t.Fatalf("Decode returned tables %v and error %v", tables != nil, err)
		}
	})
}
