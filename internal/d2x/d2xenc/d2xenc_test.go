package d2xenc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/minic"
)

// roundTrip emits tables, compiles them with a stub main, and decodes
// them back out of a fresh VM: the tables are data, so no code runs
// first.
func roundTrip(t testing.TB, ctx *d2xc.Context) *Tables {
	t.Helper()
	var b strings.Builder
	if err := EmitTables(ctx, &b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("func int main() { return 0; }\n")
	prog, err := minic.Compile("tables.c", b.String(), nil)
	if err != nil {
		t.Fatalf("emitted tables do not compile: %v\n%s", err, b.String())
	}
	tables, err := Decode(minic.NewVM(prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func TestEmitDecodeRoundTrip(t *testing.T) {
	ctx := d2xc.NewContext()
	if err := ctx.BeginSectionAt(5); err != nil {
		t.Fatal(err)
	}
	ctx.PushSourceLoc("a.dsl", 1, "f")
	ctx.PushSourceLoc("a.dsl", 9, "main")
	ctx.SetVar("sched", "push")
	ctx.Nextl() // line 5
	ctx.Nextl() // line 6, empty
	ctx.PushSourceLoc("a.dsl", 2, "f")
	ctx.SetVarHandler("fr", d2xc.RTVHandler{FuncName: "__h"})
	ctx.Nextl() // line 7
	if err := ctx.EndSection(); err != nil {
		t.Fatal(err)
	}

	tables := roundTrip(t, ctx)
	if len(tables.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(tables.Records))
	}
	r5 := tables.RecordForLine(5)
	if r5 == nil || len(r5.Stack) != 2 || r5.Stack[0].Function != "f" || r5.Stack[1].Line != 9 {
		t.Errorf("record 5 = %+v", r5)
	}
	if len(r5.Vars) != 1 || r5.Vars[0].Val != "push" {
		t.Errorf("record 5 vars = %+v", r5.Vars)
	}
	r7 := tables.RecordForLine(7)
	if r7 == nil || r7.Vars[0].Kind != d2xc.VarHandler || r7.Vars[0].Val != "__h" {
		t.Errorf("record 7 = %+v", r7)
	}
	if tables.RecordForLine(6) != nil {
		t.Error("empty line has a record")
	}
	if got := tables.AppendGenLinesForDSL(nil, "a.dsl", 2); len(got) != 1 || got[0] != 7 {
		t.Errorf("AppendGenLinesForDSL = %v", got)
	}
	if file, ok := tables.FirstDSLFile(); !ok || file != "a.dsl" {
		t.Errorf("FirstDSLFile = %q, %v", file, ok)
	}
}

// TestRoundTripProperty: random record sets survive the emit -> compile ->
// run -> decode pipeline exactly.
func TestRoundTripProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(12) + 1
		ctx := d2xc.NewContext()
		if err := ctx.BeginSectionAt(1); err != nil {
			t.Fatal(err)
		}
		type lineSpec struct {
			locs int
			vars int
		}
		var specs []lineSpec
		for i := 0; i < n; i++ {
			sp := lineSpec{locs: r.Intn(4), vars: r.Intn(3)}
			specs = append(specs, sp)
			for j := 0; j < sp.locs; j++ {
				ctx.PushSourceLoc(fmt.Sprintf("f%d.dsl", r.Intn(3)), r.Intn(100)+1, fmt.Sprintf("fn%d", r.Intn(4)))
			}
			for j := 0; j < sp.vars; j++ {
				// Include awkward characters to stress string quoting.
				ctx.SetVar(fmt.Sprintf("k%d", j), fmt.Sprintf("v\"%d\n\t%d\\", r.Intn(10), r.Intn(10)))
			}
			ctx.Nextl()
		}
		if err := ctx.EndSection(); err != nil {
			t.Fatal(err)
		}
		want := ctx.Records()
		tables := roundTrip(t, ctx)
		if len(tables.Records) != len(want) {
			t.Logf("seed %d: record counts differ: %d vs %d", seed, len(tables.Records), len(want))
			return false
		}
		for i := range want {
			a, b := want[i], tables.Records[i]
			if a.GenLine != b.GenLine || len(a.Stack) != len(b.Stack) || len(a.Vars) != len(b.Vars) {
				t.Logf("seed %d: record %d shape differs", seed, i)
				return false
			}
			for j := range a.Stack {
				if a.Stack[j] != b.Stack[j] {
					t.Logf("seed %d: stack entry %d/%d differs: %+v vs %+v", seed, i, j, a.Stack[j], b.Stack[j])
					return false
				}
			}
			for j := range a.Vars {
				if a.Vars[j] != b.Vars[j] {
					t.Logf("seed %d: var %d/%d differs: %+v vs %+v", seed, i, j, a.Vars[j], b.Vars[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDecodeWithoutTables(t *testing.T) {
	prog, err := minic.Compile("p.c", "func int main() { return 0; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if _, err := Decode(vm); err == nil || !strings.Contains(err.Error(), "no D2X tables") {
		t.Errorf("decode of table-less program: %v", err)
	}
}

func TestFileMatching(t *testing.T) {
	cases := []struct {
		full, query string
		want        bool
	}{
		{"a/b/c.dsl", "c.dsl", true},
		{"a/b/c.dsl", "b/c.dsl", true},
		{"a/b/c.dsl", "a/b/c.dsl", true},
		{"a/b/xc.dsl", "c.dsl", false},
		{"c.dsl", "c.dsl", true},
		{"c.dsl", "d.dsl", false},
		// A basename query must only match at a path boundary: "a.gt" is
		// a suffix of "extra.gt" but names a different file.
		{"extra.gt", "a.gt", false},
		{"dir/extra.gt", "a.gt", false},
		{"dir/a.gt", "a.gt", true},
		// Empty query matches everything (the "any file" wildcard).
		{"a/b/c.dsl", "", true},
		{"", "", true},
		// Exact path, including one without any separator.
		{"a.gt", "a.gt", true},
		{"a.gt", "r/a.gt", false},
	}
	for _, tc := range cases {
		if got := fileMatches(tc.full, tc.query); got != tc.want {
			t.Errorf("fileMatches(%q, %q) = %v, want %v", tc.full, tc.query, got, tc.want)
		}
	}
}

func TestEmptyContextEmits(t *testing.T) {
	ctx := d2xc.NewContext()
	tables := roundTrip(t, ctx)
	if len(tables.Records) != 0 {
		t.Errorf("records = %d, want 0", len(tables.Records))
	}
}

// TestLargeTablesRoundTrip: 700 records emit as one array-literal global
// per column and no code, and decode back.
func TestLargeTablesRoundTrip(t *testing.T) {
	ctx := d2xc.NewContext()
	if err := ctx.BeginSectionAt(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		ctx.PushSourceLoc(fmt.Sprintf("file%d.dsl", i%5), i+1, "fn")
		ctx.SetVar("k", fmt.Sprintf("v%d", i))
		ctx.Nextl()
	}
	if err := ctx.EndSection(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := EmitTables(ctx, &b); err != nil {
		t.Fatal(err)
	}
	src := b.String()
	if strings.Contains("\n"+src, "\nfunc ") {
		t.Errorf("emitted tables contain code:\n%.400s", src)
	}
	for _, g := range []string{GStrtab, GFxName} {
		if n := strings.Count(src, "global string[] "+g+" = {"); n != 1 {
			t.Errorf("%d array-literal declarations of %s, want 1", n, g)
		}
	}
	for _, g := range []string{GRecLine, GRecSrcOff, GRecSrcCnt, GRecVarOff, GRecVarCnt, GSrcFile, GSrcLine, GSrcFunc, GVarKey, GVarKind, GVarVal, GFxMask, GFxLoop} {
		if n := strings.Count(src, "global int[] "+g+" = {"); n != 1 {
			t.Errorf("%d array-literal declarations of %s, want 1", n, g)
		}
	}
	tables := roundTrip(t, ctx)
	if len(tables.Records) != 700 {
		t.Fatalf("records = %d, want 700", len(tables.Records))
	}
	if r := tables.RecordForLine(700); r == nil || r.Stack[0].File != "file4.dsl" || r.Vars[0].Val != "v699" {
		t.Errorf("record 700 = %+v", r)
	}
}

// multiFileTables builds tables spanning several DSL files whose names
// share suffixes, to exercise the forward index's file resolution.
// Generated lines start at 1; each context line i has stack top
// (files[i%len], dslLine) per the schedule below.
func multiFileTables(t *testing.T) *Tables {
	t.Helper()
	ctx := d2xc.NewContext()
	if err := ctx.BeginSectionAt(1); err != nil {
		t.Fatal(err)
	}
	// (file, dslLine) per generated line, in table order.
	schedule := []struct {
		file string
		line int
	}{
		{"dsl/a.gt", 3},
		{"extra.gt", 3},
		{"a.gt", 3},
		{"other/a.gt", 3},
		{"dsl/a.gt", 3}, // second generated line for the same DSL location
		{"dsl/a.gt", 7},
	}
	for _, s := range schedule {
		ctx.PushSourceLoc(s.file, s.line, "fn")
		ctx.Nextl()
	}
	if err := ctx.EndSection(); err != nil {
		t.Fatal(err)
	}
	return roundTrip(t, ctx)
}

// genLinesLinear is the pre-index reference implementation: scan every
// record, match its stack top. The forward index must agree with it.
func genLinesLinear(tb *Tables, file string, line int) []int {
	var out []int
	for _, r := range tb.Records {
		top, ok := r.Stack.Top()
		if !ok {
			continue
		}
		if top.Line == line && fileMatches(top.File, file) {
			out = append(out, r.GenLine)
		}
	}
	return out
}

func TestForwardIndexMatchesLinearScan(t *testing.T) {
	tables := multiFileTables(t)
	queries := []struct {
		file string
		line int
	}{
		{"a.gt", 3},       // suffix: hits dsl/a.gt, a.gt, other/a.gt — not extra.gt
		{"extra.gt", 3},   // exact basename
		{"dsl/a.gt", 3},   // exact path, two generated lines
		{"dsl/a.gt", 7},   //
		{"", 3},           // wildcard file: every file at line 3
		{"a.gt", 99},      // no such line
		{"missing.gt", 3}, // no such file
	}
	for _, q := range queries {
		got := tables.AppendGenLinesForDSL(nil, q.file, q.line)
		want := genLinesLinear(tables, q.file, q.line)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("AppendGenLinesForDSL(nil, %q, %d) = %v, linear scan = %v", q.file, q.line, got, want)
		}
	}
	// The suffix query must have merged records from three files back
	// into table order.
	if got := tables.AppendGenLinesForDSL(nil, "a.gt", 3); fmt.Sprint(got) != "[1 3 4 5]" {
		t.Errorf("suffix query order = %v, want [1 3 4 5]", got)
	}
}

// TestQueryResultsAreFresh: mutating what a query returned must not
// change what the next identical query sees — the immutability contract
// concurrent sessions rely on.
func TestQueryResultsAreFresh(t *testing.T) {
	tables := multiFileTables(t)
	lines := tables.AppendGenLinesForDSL(nil, "dsl/a.gt", 3)
	if len(lines) != 2 {
		t.Fatalf("AppendGenLinesForDSL = %v, want 2 entries", lines)
	}
	before := fmt.Sprint(lines)
	for i := range lines {
		lines[i] = -1
	}
	trimmed := lines[:0] // the old xbreak filter pattern
	_ = append(trimmed, -2)
	if again := tables.AppendGenLinesForDSL(nil, "dsl/a.gt", 3); fmt.Sprint(again) != before {
		t.Errorf("query after caller mutation = %v, want %v", again, before)
	}
}

// roundTripFX is roundTrip with explicit effect-summary rows.
func roundTripFX(t *testing.T, ctx *d2xc.Context, fx []HandlerEffect) *Tables {
	t.Helper()
	var b strings.Builder
	if err := EmitTablesFX(ctx, fx, &b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("func int main() { return 0; }\n")
	prog, err := minic.Compile("tables.c", b.String(), nil)
	if err != nil {
		t.Fatalf("emitted tables do not compile: %v\n%s", err, b.String())
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	tables, err := Decode(vm)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func fxContext(t *testing.T) *d2xc.Context {
	t.Helper()
	ctx := d2xc.NewContext()
	if err := ctx.BeginSectionAt(1); err != nil {
		t.Fatal(err)
	}
	ctx.PushSourceLoc("a.dsl", 1, "f")
	ctx.SetVarHandler("fr", d2xc.RTVHandler{FuncName: "__h"})
	ctx.Nextl()
	if err := ctx.EndSection(); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestFXRoundTrip: effect summaries survive the emit → compile → run →
// decode wire path, including a quoted handler name.
func TestFXRoundTrip(t *testing.T) {
	fx := []HandlerEffect{
		{Handler: "__h", Mask: 3, Loop: 1},
		{Handler: `odd"name`, Mask: 0, Loop: 0},
	}
	tables := roundTripFX(t, fxContext(t), fx)
	if !tables.HasFX() {
		t.Fatal("HasFX = false after FX emit")
	}
	if got := tables.HandlerFXNames(); len(got) != 2 || got[0] != "__h" || got[1] != `odd"name` {
		t.Fatalf("HandlerFXNames = %q", got)
	}
	h, ok := tables.HandlerFX("__h")
	if !ok || h.Mask != 3 || h.Loop != 1 {
		t.Errorf("HandlerFX(__h) = %+v ok=%v, want mask=3 loop=1", h, ok)
	}
	if _, ok := tables.HandlerFX("missing"); ok {
		t.Error("HandlerFX(missing) = ok")
	}
}

// TestFXEmptyVsAbsent distinguishes a post-analysis build with zero
// handlers (columns present, empty) from a pre-analysis build (columns
// absent): HasFX is true for the former, false for the latter.
func TestFXEmptyVsAbsent(t *testing.T) {
	tables := roundTripFX(t, fxContext(t), nil)
	if !tables.HasFX() {
		t.Error("HasFX = false for empty-FX build; columns should still be emitted")
	}
	if n := tables.HandlerFXNames(); len(n) != 0 {
		t.Errorf("HandlerFXNames = %q, want empty", n)
	}

	// Simulate a pre-analysis build by stripping every __d2x_fx line
	// from the emitted source.
	var b strings.Builder
	if err := EmitTablesFX(fxContext(t), nil, &b); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "__d2x_fx") {
			continue
		}
		kept = append(kept, line)
	}
	src := strings.Join(kept, "\n") + "func int main() { return 0; }\n"
	prog, err := minic.Compile("tables.c", src, nil)
	if err != nil {
		t.Fatalf("stripped tables do not compile: %v\n%s", err, src)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	old, err := Decode(vm)
	if err != nil {
		t.Fatalf("pre-analysis build must decode cleanly: %v", err)
	}
	if old.HasFX() {
		t.Error("HasFX = true for build without FX columns")
	}
}
