package minic

import (
	"strings"
	"testing"
)

func TestFormatValueShapes(t *testing.T) {
	def := &StructDef{Name: "p", Fields: []Field{{Name: "x", Type: IntType}, {Name: "y", Type: StringType}}}
	obj := NewStruct(def)
	obj.Fields[0].V = IntVal(4)
	obj.Fields[1].V = StrVal("s")
	cases := []struct {
		v    Value
		want string
	}{
		{IntVal(-3), "-3"},
		{FloatVal(2.5), "2.5"},
		{BoolVal(true), "true"},
		{StrVal("a\"b"), `"a\"b"`},
		{NullVal(), "null"},
		{PtrVal(nil), "null"},
		{PtrVal(&Cell{V: IntVal(7)}), "&7"},
		{StructVal(obj), `{x = 4, y = "s"}`},
		{ArrVal(nil), "null"},
		{StructVal(nil), "null"},
	}
	for _, tc := range cases {
		if got := FormatValue(tc.v); got != tc.want {
			t.Errorf("FormatValue(%v) = %q, want %q", tc.v.Kind, got, tc.want)
		}
	}

	// Long arrays truncate with a count.
	big := NewArray(IntType, 100)
	got := FormatValue(ArrVal(big))
	if !strings.Contains(got, "... (100 total)") {
		t.Errorf("long array format: %q", got)
	}

	// Cyclic structures terminate via the depth cap.
	cyc := NewStruct(&StructDef{Name: "n", Fields: []Field{{Name: "next", Type: PointerTo(StructType("n"))}}})
	cyc.Fields[0].V = StructVal(cyc)
	if out := FormatValue(StructVal(cyc)); !strings.Contains(out, "{...}") && !strings.Contains(out, "&...") {
		t.Errorf("cyclic format did not cap: %q", out)
	}
}

func TestValuesEqualMatrix(t *testing.T) {
	arr := NewArray(IntType, 1)
	cell := &Cell{}
	cases := []struct {
		a, b Value
		want bool
	}{
		{IntVal(1), IntVal(1), true},
		{IntVal(1), IntVal(2), false},
		{IntVal(1), FloatVal(1), true}, // numeric widening
		{FloatVal(1.5), FloatVal(1.5), true},
		{BoolVal(true), BoolVal(true), true},
		{StrVal("a"), StrVal("a"), true},
		{StrVal("a"), StrVal("b"), false},
		{NullVal(), NullVal(), true},
		{NullVal(), ArrVal(nil), true}, // typed nil == null
		{NullVal(), ArrVal(arr), false},
		{ArrVal(arr), ArrVal(arr), true},
		{PtrVal(cell), PtrVal(cell), true},
		{PtrVal(cell), PtrVal(&Cell{}), false},
		{IntVal(1), StrVal("1"), false},
	}
	for i, tc := range cases {
		if got := ValuesEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: ValuesEqual = %v, want %v", i, got, tc.want)
		}
	}
}

func TestNativesRegistry(t *testing.T) {
	n := NewNatives()
	if n.Len() == 0 {
		t.Fatal("no core builtins")
	}
	names := n.Names()
	found := false
	for _, name := range names {
		if name == "printf" {
			found = true
		}
	}
	if !found {
		t.Error("printf missing from Names()")
	}
	if _, _, ok := n.Lookup("printf"); !ok {
		t.Error("printf not found")
	}
	if _, _, ok := n.Lookup("nope"); ok {
		t.Error("phantom native found")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	n.Register(&Native{Name: "printf"})
}

func TestFormatPrintfErrors(t *testing.T) {
	cases := []struct {
		format string
		args   []Value
	}{
		{"%d", nil},                  // too few args
		{"%q", []Value{IntVal(1)}},   // unknown verb
		{"trailing %", nil},          // dangling percent
		{"none", []Value{IntVal(1)}}, // extra args
	}
	for _, tc := range cases {
		if _, err := FormatPrintf(tc.format, tc.args); err == nil {
			t.Errorf("format %q accepted", tc.format)
		}
	}
	out, err := FormatPrintf("100%% %d %s %b %f %v", []Value{
		IntVal(1), StrVal("x"), BoolVal(false), FloatVal(0.5), IntVal(9),
	})
	if err != nil || out != "100% 1 x false 0.5 9" {
		t.Errorf("out = %q err = %v", out, err)
	}
}

func TestProgramHelpers(t *testing.T) {
	prog, err := Compile("p.c", `
func void __init_a() { }
func void helper() { }
func void __init_b() { }
func int main() { return 0; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prog.FuncIndex("helper") < 0 || prog.FuncIndex("ghost") != -1 {
		t.Error("FuncIndex broken")
	}
	if prog.SourceLine(0) != "" || prog.SourceLine(10000) != "" {
		t.Error("out-of-range SourceLine not empty")
	}
	if !strings.Contains(prog.SourceLine(2), "__init_a") {
		t.Errorf("SourceLine(2) = %q", prog.SourceLine(2))
	}
	// SourceLine agrees with splitting the whole text, at both ends too.
	for _, text := range []string{"", "\n", "a", "a\n", "a\nb", "\n\nc\n", prog.SourceText} {
		p := &Program{SourceText: text}
		lines := p.SourceLines()
		for n := -1; n <= len(lines)+1; n++ {
			want := ""
			if n >= 1 && n <= len(lines) {
				want = lines[n-1]
			}
			if got := p.SourceLine(n); got != want {
				t.Errorf("SourceLine(%d) of %q = %q, want %q", n, text, got, want)
			}
		}
	}
}

func TestTypeStringsAndPredicates(t *testing.T) {
	cases := []struct {
		t    *Type
		want string
	}{
		{IntType, "int"},
		{FloatType, "float"},
		{BoolType, "bool"},
		{StringType, "string"},
		{VoidType, "void"},
		{AnyType, "any"},
		{PointerTo(IntType), "int*"},
		{ArrayOf(FloatType), "float[]"},
		{PointerTo(ArrayOf(IntType)), "int[]*"},
		{StructType("frontier_t"), "frontier_t"},
	}
	for _, tc := range cases {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("%v.String() = %q, want %q", tc.t.Kind, got, tc.want)
		}
	}
	if !IntType.IsNumeric() || !FloatType.IsNumeric() || BoolType.IsNumeric() {
		t.Error("IsNumeric wrong")
	}
	if !PointerTo(IntType).IsReference() || !ArrayOf(IntType).IsReference() || IntType.IsReference() {
		t.Error("IsReference wrong")
	}
	if !ArrayOf(IntType).Equal(ArrayOf(IntType)) || ArrayOf(IntType).Equal(ArrayOf(FloatType)) {
		t.Error("Equal wrong for arrays")
	}
	var nilT *Type
	if got := nilT.String(); got != "<nil-type>" {
		t.Errorf("nil type string = %q", got)
	}
}

func TestThreadAndStateStrings(t *testing.T) {
	for st, want := range map[ThreadState]string{
		ThreadReady: "ready", ThreadWaiting: "waiting", ThreadDone: "done", ThreadFaulted: "faulted",
	} {
		if st.String() != want {
			t.Errorf("%v", st)
		}
	}
	if !strings.Contains(Token{Kind: IDENT, Text: "abc"}.String(), "abc") {
		t.Error("token string")
	}
	if OpConst.String() != "const" {
		t.Error("opcode string")
	}
	in := Instr{Op: OpConst, A: 1, StmtStart: true, Line: 4}
	if !strings.Contains(in.String(), "stmt") || !strings.Contains(in.String(), "@4") {
		t.Errorf("instr string: %q", in.String())
	}
}

func TestDeepRecursionOverflows(t *testing.T) {
	_, _, err := tryRunProgram(`
func int down(int n) {
	return down(n + 1);
}
func int main() {
	return down(0);
}`)
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("unbounded recursion: %v", err)
	}
}

func TestVMRequiresMain(t *testing.T) {
	prog, err := Compile("p.c", "func void f() { }", nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	if err := vm.Run(); err == nil || !strings.Contains(err.Error(), "no main") {
		t.Errorf("missing main: %v", err)
	}
	prog2, _ := Compile("p.c", "func int main() { return 0; }", nil)
	vm2 := NewVM(prog2, nil)
	if err := vm2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := vm2.Start(); err == nil {
		t.Error("double Start accepted")
	}
}
