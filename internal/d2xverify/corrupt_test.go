package d2xverify_test

// The corrupted-artifact suite: every check must actually fire, with a
// precise srcloc anchor, when fed a deliberately broken artifact. Each
// test corrupts exactly one layer and asserts on that check's findings
// only (a corrupt artifact legitimately trips neighbouring checks too).

import (
	"strings"
	"testing"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/d2xverify"
	"d2x/internal/dwarfish"
	"d2x/internal/minic"
)

func compileSrc(t *testing.T, name, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Compile(name, src, minic.NewNatives())
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return prog
}

// findings returns the named check's diagnostics and fails the test when
// there are none.
func findings(t *testing.T, rep *d2xverify.Report, check string) []d2xverify.Diagnostic {
	t.Helper()
	got := rep.ByCheck(check)
	if len(got) == 0 {
		t.Fatalf("check %s did not fire; full report:\n%s", check, rep)
	}
	return got
}

func wantAnchor(t *testing.T, d d2xverify.Diagnostic, file string, line int) {
	t.Helper()
	if d.Loc.File != file || d.Loc.Line != line {
		t.Fatalf("finding anchored at %s:%d, want %s:%d (%s)",
			d.Loc.File, d.Loc.Line, file, line, d)
	}
}

// simpleSrc is a healthy five-line program used as the base artifact for
// debug-info corruption.
const simpleSrc = `func int main() {
	int a = 1;
	int b = a + 2;
	printf("%d\n", b);
	return 0;
}
`

// withTables compiles src with a D2X table section emitted from ctx
// appended, the way d2x.Link assembles a build.
func withTables(t *testing.T, name, src string, ctx *d2xc.Context) *minic.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString(src)
	if err := d2xenc.EmitTables(ctx, &b); err != nil {
		t.Fatal(err)
	}
	return compileSrc(t, name, b.String())
}

// ---- debug/line-table ----

func TestLineTableOutOfRangeLineFires(t *testing.T) {
	prog := compileSrc(t, "gen.c", simpleSrc)
	info := dwarfish.Build(prog)
	info.Funcs[0].Lines[0].Line = 9999
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, DebugBlob: info.Encode()})
	d := findings(t, rep, "debug/line-table")[0]
	wantAnchor(t, d, "gen.c", 9999)
	if !strings.Contains(d.Message, "outside") {
		t.Fatalf("unexpected message: %s", d)
	}
}

func TestLineTableBlankLineFires(t *testing.T) {
	// Line 7 of simpleSrc (after the closing brace) is the trailing empty
	// line — no statement can live there.
	prog := compileSrc(t, "gen.c", simpleSrc+"\n")
	info := dwarfish.Build(prog)
	info.Funcs[0].Lines[0].Line = 7
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, DebugBlob: info.Encode()})
	d := findings(t, rep, "debug/line-table")[0]
	wantAnchor(t, d, "gen.c", 7)
}

func TestLineTableNonMonotonicPCFires(t *testing.T) {
	prog := compileSrc(t, "gen.c", simpleSrc)
	info := dwarfish.Build(prog)
	lines := info.Funcs[0].Lines
	if len(lines) < 2 {
		t.Fatal("need at least two line entries")
	}
	lines[0], lines[1] = lines[1], lines[0]
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, DebugBlob: info.Encode()})
	d := findings(t, rep, "debug/line-table")[0]
	if !strings.Contains(d.Message, "not increasing") {
		t.Fatalf("unexpected message: %s", d)
	}
}

func TestLineTableGhostFunctionFires(t *testing.T) {
	prog := compileSrc(t, "gen.c", simpleSrc)
	info := dwarfish.Build(prog)
	info.Funcs[0].Name = "ghost"
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, DebugBlob: info.Encode()})
	d := findings(t, rep, "debug/line-table")[0]
	if !strings.Contains(d.Message, "ghost") {
		t.Fatalf("unexpected message: %s", d)
	}
}

// ---- debug/frame-vars ----

func TestFrameVarsCorruptionFires(t *testing.T) {
	prog := compileSrc(t, "gen.c", simpleSrc)

	info := dwarfish.Build(prog)
	info.Funcs[0].Vars[0].Slot = 99
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, DebugBlob: info.Encode()})
	d := findings(t, rep, "debug/frame-vars")[0]
	wantAnchor(t, d, "gen.c", 1)
	if !strings.Contains(d.Message, "slot 99") {
		t.Fatalf("unexpected message: %s", d)
	}

	info = dwarfish.Build(prog)
	info.Funcs[0].Vars[0].Name = "phantom"
	rep = d2xverify.Verify(&d2xverify.Input{Program: prog, DebugBlob: info.Encode()})
	findings(t, rep, "debug/frame-vars")

	info = dwarfish.Build(prog)
	info.Funcs[0].Vars[0].Type = "float[]"
	rep = d2xverify.Verify(&d2xverify.Input{Program: prog, DebugBlob: info.Encode()})
	findings(t, rep, "debug/frame-vars")

	info = dwarfish.Build(prog)
	info.Funcs[0].Vars[0].Param = true
	rep = d2xverify.Verify(&d2xverify.Input{Program: prog, DebugBlob: info.Encode()})
	findings(t, rep, "debug/frame-vars")
}

// ---- d2x/records ----

func TestRecordOnBlankLineFires(t *testing.T) {
	// simpleSrc+"\n" leaves line 7 blank; anchor a record there.
	ctx := d2xc.NewContext()
	if err := ctx.BeginSectionAt(7); err != nil {
		t.Fatal(err)
	}
	ctx.PushSourceLoc("app.dsl", 3, "main")
	if err := ctx.EndSection(); err != nil {
		t.Fatal(err)
	}
	prog := withTables(t, "gen.c", simpleSrc+"\n", ctx)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "d2x/records")[0]
	wantAnchor(t, d, "gen.c", 7)
	if !strings.Contains(d.Message, "no generated statement") {
		t.Fatalf("unexpected message: %s", d)
	}
}

func TestRecordsOutOfOrderFires(t *testing.T) {
	ctx := d2xc.NewContext()
	ctx.BeginSectionAt(4)
	ctx.PushSourceLoc("app.dsl", 1)
	ctx.EndSection()
	ctx.BeginSectionAt(2)
	ctx.PushSourceLoc("app.dsl", 2)
	ctx.EndSection()
	prog := withTables(t, "gen.c", simpleSrc, ctx)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "d2x/records")[0]
	wantAnchor(t, d, "gen.c", 2)
	if !strings.Contains(d.Message, "out of order") {
		t.Fatalf("unexpected message: %s", d)
	}
}

func TestMalformedStackFrameFires(t *testing.T) {
	ctx := d2xc.NewContext()
	ctx.BeginSectionAt(2)
	ctx.PushSourceLoc("", 0) // no file, line 0: an unusable frame
	ctx.EndSection()
	prog := withTables(t, "gen.c", simpleSrc, ctx)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "d2x/records")[0]
	wantAnchor(t, d, "gen.c", 2)
	if !strings.Contains(d.Message, "malformed") {
		t.Fatalf("unexpected message: %s", d)
	}
}

// ---- d2x/handlers ----

func TestDanglingHandlerFires(t *testing.T) {
	ctx := d2xc.NewContext()
	ctx.BeginSectionAt(2)
	ctx.PushSourceLoc("app.dsl", 1)
	ctx.SetVarHandler("frontier", d2xc.RTVHandler{FuncName: "__d2x_rtv_missing"})
	ctx.EndSection()
	prog := withTables(t, "gen.c", simpleSrc, ctx)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "d2x/handlers")[0]
	wantAnchor(t, d, "gen.c", 2)
	if !strings.Contains(d.Message, "__d2x_rtv_missing") || d.Hint == "" {
		t.Fatalf("unexpected finding: %s", d)
	}
}

func TestWrongHandlerSignatureFires(t *testing.T) {
	src := `func int bad_handler(int x) {
	return x;
}
func int main() {
	int a = bad_handler(1);
	printf("%d\n", a);
	return 0;
}
`
	ctx := d2xc.NewContext()
	ctx.BeginSectionAt(5)
	ctx.PushSourceLoc("app.dsl", 1)
	ctx.SetVarHandler("v", d2xc.RTVHandler{FuncName: "bad_handler"})
	ctx.EndSection()
	prog := withTables(t, "gen.c", src, ctx)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "d2x/handlers")[0]
	wantAnchor(t, d, "gen.c", 5)
	if !strings.Contains(d.Message, "(int) int") {
		t.Fatalf("unexpected message: %s", d)
	}
}

// ---- d2x/runtime-link ----

func TestMissingRuntimeNativesFire(t *testing.T) {
	// A program carrying tables but compiled without d2xr registration:
	// every command macro would die at debug time.
	ctx := d2xc.NewContext()
	ctx.BeginSectionAt(2)
	ctx.PushSourceLoc("app.dsl", 1)
	ctx.EndSection()
	prog := withTables(t, "gen.c", simpleSrc, ctx)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	got := findings(t, rep, "d2x/runtime-link")
	if len(got) < 7 {
		t.Fatalf("expected all 7 runtime natives reported missing, got %d:\n%s", len(got), rep)
	}
}

func TestUnresolvedMacroTargetFires(t *testing.T) {
	prog := compileSrc(t, "gen.c", simpleSrc)
	macros := "define xghost\n  call dsl_runtime::no_such_command($rip)\nend\n"
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, Macros: macros})
	d := findings(t, rep, "d2x/runtime-link")[0]
	wantAnchor(t, d, "<macros>", 2)
	if !strings.Contains(d.Message, "dsl_runtime::no_such_command") {
		t.Fatalf("unexpected message: %s", d)
	}
}

// ---- d2x/roundtrip ----

func TestRoundtripMismatchFires(t *testing.T) {
	emitted := d2xc.NewContext()
	emitted.BeginSectionAt(2)
	emitted.PushSourceLoc("app.dsl", 1, "main")
	emitted.EndSection()

	// The claimed compile-time context disagrees on the DSL line.
	claimed := d2xc.NewContext()
	claimed.BeginSectionAt(2)
	claimed.PushSourceLoc("app.dsl", 42, "main")
	claimed.EndSection()

	prog := withTables(t, "gen.c", simpleSrc, emitted)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, Ctx: claimed})
	d := findings(t, rep, "d2x/roundtrip")[0]
	wantAnchor(t, d, "gen.c", 2)
	if !strings.Contains(d.Message, "did not round-trip") {
		t.Fatalf("unexpected message: %s", d)
	}
}

// ---- d2x/scopes ----

func TestScopeLeakAtEndSectionFires(t *testing.T) {
	ctx := d2xc.NewContext()
	ctx.BeginSectionAt(2)
	ctx.PushScope()
	ctx.PushSourceLoc("app.dsl", 1)
	ctx.EndSection() // scope never popped
	prog := compileSrc(t, "gen.c", simpleSrc)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, Ctx: ctx})
	d := findings(t, rep, "d2x/scopes")[0]
	wantAnchor(t, d, "gen.c", 2)
	if !strings.Contains(d.Message, "still open") {
		t.Fatalf("unexpected message: %s", d)
	}
}

func TestCreateVarOutsideSectionFires(t *testing.T) {
	ctx := d2xc.NewContext()
	ctx.CreateVar("orphan") // before any section: never visible
	ctx.BeginSectionAt(2)
	ctx.EndSection()
	if err := ctx.DeleteVar("orphan"); err != nil {
		t.Fatal(err)
	}
	prog := compileSrc(t, "gen.c", simpleSrc)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, Ctx: ctx})
	d := findings(t, rep, "d2x/scopes")[0]
	if d.Severity != d2xverify.SevWarning || !strings.Contains(d.Message, "orphan") {
		t.Fatalf("unexpected finding: %s", d)
	}
}

func TestUndeletedVarFires(t *testing.T) {
	ctx := d2xc.NewContext()
	ctx.BeginSectionAt(2)
	ctx.CreateVar("leak")
	ctx.EndSection()
	prog := compileSrc(t, "gen.c", simpleSrc)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog, Ctx: ctx})
	d := findings(t, rep, "d2x/scopes")[0]
	wantAnchor(t, d, "gen.c", 2)
	if !strings.Contains(d.Message, "never deleted") {
		t.Fatalf("unexpected message: %s", d)
	}
}

func TestLiveRangeEscapingFunctionFires(t *testing.T) {
	// Two functions; a variable created inside helper's section survives
	// into main's lines.
	src := `func int helper(int x) {
	int h = x + 1;
	return h;
}
func int main() {
	int a = helper(1);
	printf("%d\n", a);
	return 0;
}
`
	prog := compileSrc(t, "gen.c", src)
	ctx := d2xc.NewContext()
	ctx.BeginSectionAt(2)
	ctx.PushScope()
	ctx.CreateVar("escapee")
	ctx.PushSourceLoc("app.dsl", 1)
	ctx.Nextl()
	ctx.Nextl()
	ctx.Nextl()
	ctx.Nextl() // curLine now 6: inside main
	ctx.PopScope()
	ctx.EndSection()
	rep := d2xverify.Verify(&d2xverify.Input{
		Program: prog, DebugBlob: dwarfish.Build(prog).Encode(), Ctx: ctx,
	})
	d := findings(t, rep, "d2x/scopes")[0]
	wantAnchor(t, d, "gen.c", 2)
	if !strings.Contains(d.Message, "escaping") {
		t.Fatalf("unexpected message: %s", d)
	}
}

// ---- minic dataflow lints ----

func TestUseBeforeInitFires(t *testing.T) {
	src := `func int main() {
	int x;
	int y = x + 1;
	printf("%d\n", y);
	return 0;
}
`
	prog := compileSrc(t, "gen.c", src)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "minic/use-before-init")[0]
	wantAnchor(t, d, "gen.c", 3)
	if !strings.Contains(d.Message, `"x"`) {
		t.Fatalf("unexpected message: %s", d)
	}
}

func TestUseBeforeInitBranchJoinFires(t *testing.T) {
	// Initialised on only one arm: still a use-before-init after the if.
	src := `func int main() {
	int x;
	int c = 1;
	if (c > 0) {
		x = 1;
	}
	printf("%d\n", x);
	return 0;
}
`
	prog := compileSrc(t, "gen.c", src)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "minic/use-before-init")[0]
	wantAnchor(t, d, "gen.c", 7)
}

func TestUnreachableStatementFires(t *testing.T) {
	src := `func int main() {
	printf("hi\n");
	return 0;
	printf("never\n");
}
`
	prog := compileSrc(t, "gen.c", src)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "minic/unreachable")[0]
	wantAnchor(t, d, "gen.c", 4)
}

func TestUnusedSlotFires(t *testing.T) {
	src := `func int main() {
	int unused = 3;
	printf("hi\n");
	return 0;
}
`
	prog := compileSrc(t, "gen.c", src)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "minic/unused-slot")[0]
	wantAnchor(t, d, "gen.c", 2)
	if d.Severity != d2xverify.SevWarning || !strings.Contains(d.Message, `"unused"`) {
		t.Fatalf("unexpected finding: %s", d)
	}
}

func TestDeadStoreFires(t *testing.T) {
	src := `func int main() {
	int x = 1;
	x = 2;
	printf("%d\n", x);
	return 0;
}
`
	prog := compileSrc(t, "gen.c", src)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	d := findings(t, rep, "minic/dead-store")[0]
	wantAnchor(t, d, "gen.c", 2)
	if !strings.Contains(d.Message, "immediately overwritten at line 3") {
		t.Fatalf("unexpected message: %s", d)
	}
}

// TestDeadStoreRespectsAddressTaken: a store observed through &x must
// not be flagged even when the next statement overwrites the variable.
func TestDeadStoreRespectsAddressTaken(t *testing.T) {
	src := `func void touch(int* p) {
	printf("%d\n", *p);
}
func int main() {
	int x = 1;
	x = 2;
	touch(&x);
	return 0;
}
`
	prog := compileSrc(t, "gen.c", src)
	rep := d2xverify.Verify(&d2xverify.Input{Program: prog})
	if got := rep.ByCheck("minic/dead-store"); len(got) != 0 {
		t.Fatalf("dead-store fired on an address-taken local:\n%s", rep)
	}
}
