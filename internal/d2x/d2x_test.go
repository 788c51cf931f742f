package d2x

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/d2x/d2xr"
	"d2x/internal/debugger"
	"d2x/internal/minic"
)

// The DSL input the fake compiler below pretends to have compiled: a
// power-by-repeated-squaring function, the paper's running example for
// BuildIt (Figure 8). Served through an in-memory file resolver.
const powerDSL = `func power(base, exponent)
  res = 1
  x = base
  while exponent > 0
    if exponent % 2 == 1
      res = res * x
    x = x * x
    exponent = exponent / 2
  return res
`

// buildPower plays the role of a DSL compiler using the D2X-C API: it
// emits the specialised power_15 and records, for every generated line,
// the DSL source stack and the (erased) first-stage value of `exponent`.
func buildPower(t *testing.T, withD2X bool) *Build {
	t.Helper()
	var ctx *d2xc.Context
	if withD2X {
		ctx = d2xc.NewContext()
	}
	e := d2xc.NewEmitter(ctx)

	caller := func(line int) {
		if ctx == nil {
			return
		}
		// Innermost frame: the DSL line. Outer frame: the host main that
		// invoked the staged function, as BuildIt's static tags record.
		ctx.PushSourceLoc("power.dsl", line, "power")
		ctx.PushSourceLoc("host.go", 100, "main")
	}
	setExp := func(v int) {
		if ctx != nil {
			if err := ctx.UpdateVar("exponent", fmt.Sprint(v)); err != nil {
				t.Fatal(err)
			}
		}
	}

	e.Emitln("func int power_15(int arg0) {")
	if err := e.BeginSection(); err != nil {
		t.Fatal(err)
	}
	if ctx != nil {
		ctx.PushScope()
		ctx.CreateVar("exponent")
		ctx.CreateVar("res_view")
		if err := ctx.UpdateVarHandler("res_view", d2xc.RTVHandler{FuncName: "__d2x_rtv_res"}); err != nil {
			t.Fatal(err)
		}
	}
	setExp(15)
	caller(2)
	e.Emitln("\tint res_1 = 1;")
	caller(3)
	e.Emitln("\tint x_2 = arg0;")
	exp := 15
	for exp > 0 {
		if exp%2 == 1 {
			caller(6)
			e.Emitln("\tres_1 = res_1 * x_2;")
		}
		exp /= 2
		if exp > 0 {
			caller(7)
			e.Emitln("\tx_2 = x_2 * x_2;")
			setExp(exp)
			caller(8)
			e.Emitln("\tint t_%d = 0;", exp) // stands in for the erased exponent update
		}
	}
	setExp(0)
	caller(9)
	e.Emitln("\treturn res_1;")
	if ctx != nil {
		if err := ctx.PopScope(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.EndSection(); err != nil {
		t.Fatal(err)
	}
	e.Emitln("}")
	if withD2X {
		// The rtv_handler: generated code that runs only at debug time,
		// reaching the paused frame through the D2X runtime API.
		e.Emitln("func string __d2x_rtv_res(string key) {")
		e.Emitln("\tint* addr = d2x_find_stack_var(\"res_1\");")
		e.Emitln("\treturn \"res_1=\" + to_str(*addr);")
		e.Emitln("}")
	}
	e.Emitln("func int main() {")
	e.Emitln("\tint r = power_15(3);")
	e.Emitln("\tprintf(\"%%d\\n\", r);")
	e.Emitln("\treturn 0;")
	e.Emitln("}")

	files := map[string]string{"power.dsl": powerDSL}
	build, err := Link("power_gen.c", e.String(), ctx, LinkOptions{
		FileResolver: func(path string) (string, error) {
			if s, ok := files[path]; ok {
				return s, nil
			}
			return "", fmt.Errorf("no file %s", path)
		},
	})
	if err != nil {
		t.Fatalf("link failed: %v\nsource:\n%s", err, e.String())
	}
	return build
}

func session(t *testing.T, b *Build) (*debugger.Debugger, *strings.Builder) {
	t.Helper()
	var out strings.Builder
	d, err := b.NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	return d, &out
}

func exec(t *testing.T, d *debugger.Debugger, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := d.Execute(l); err != nil {
			t.Fatalf("command %q: %v", l, err)
		}
	}
}

func TestProgramRunsCorrectlyWithTables(t *testing.T) {
	for _, withD2X := range []bool{true, false} {
		b := buildPower(t, withD2X)
		out, _, err := b.Run()
		if err != nil {
			t.Fatalf("withD2X=%v: %v", withD2X, err)
		}
		if !strings.Contains(out, "14348907") {
			t.Errorf("withD2X=%v: output %q, want 3^15", withD2X, out)
		}
	}
}

// TestXBT reproduces the xbt flow of Figure 9: the extended stack shows
// the first-stage (DSL) location that produced the paused generated line.
func TestXBT(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	// Generated line 5 is the first `x_2 = x_2 * x_2;` (DSL line 7).
	exec(t, d, "break power_gen.c:5", "run")
	out.Reset()
	exec(t, d, "xbt")
	tr := out.String()
	if !strings.Contains(tr, "#0 in power at power.dsl:7") {
		t.Errorf("xbt missing DSL frame:\n%s", tr)
	}
	if !strings.Contains(tr, "#1 in main at host.go:100") {
		t.Errorf("xbt missing host frame:\n%s", tr)
	}
}

func TestXBTviaRawCall(t *testing.T) {
	// The macro is sugar; the raw call of Figure 5 works identically.
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:5", "run")
	out.Reset()
	exec(t, d, "call d2x_runtime::command_xbt($rip, $rsp)")
	if !strings.Contains(out.String(), "#0 in power at power.dsl:7") {
		t.Errorf("raw call transcript:\n%s", out.String())
	}
}

func TestXList(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:5", "run")
	out.Reset()
	exec(t, d, "xlist")
	tr := out.String()
	if !strings.Contains(tr, ">7") || !strings.Contains(tr, "x = x * x") {
		t.Errorf("xlist should mark DSL line 7:\n%s", tr)
	}
	if !strings.Contains(tr, "res = res * x") {
		t.Errorf("xlist should show surrounding DSL lines:\n%s", tr)
	}
}

func TestXFrameNavigation(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:5", "run")

	out.Reset()
	exec(t, d, "xframe")
	if !strings.Contains(out.String(), "#0 in power at power.dsl:7") {
		t.Errorf("xframe default:\n%s", out.String())
	}

	out.Reset()
	exec(t, d, "xframe 1")
	tr := out.String()
	if !strings.Contains(tr, "#1 in main at host.go:100") {
		t.Errorf("xframe 1:\n%s", tr)
	}
	// xlist fails cleanly for host.go, which the resolver cannot provide:
	// the command reports an error rather than fabricating output.
	if err := d.Execute("xlist"); err == nil {
		t.Error("xlist for unresolvable file succeeded")
	}

	// Selecting an out-of-range extended frame errors.
	if err := d.Execute("xframe 9"); err == nil {
		t.Error("xframe 9 accepted")
	}
}

func TestXFrameResetsOnNewStop(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:5", "break power_gen.c:7", "run", "xframe 1", "continue")
	out.Reset()
	exec(t, d, "xframe")
	// After moving to a new rip, the selected extended frame resets to 0.
	if !strings.Contains(out.String(), "#0 in power") {
		t.Errorf("xframe after new stop:\n%s", out.String())
	}
}

// TestXVars reproduces the xvars flow of Figure 9: the erased first-stage
// variable `exponent` is visible with the value it had when this line was
// generated, and the handler-backed variable evaluates live state.
func TestXVars(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:4", "run") // first res_1 multiply: exponent 15
	out.Reset()
	exec(t, d, "xvars")
	tr := out.String()
	if !strings.Contains(tr, "1. exponent") || !strings.Contains(tr, "2. res_view") {
		t.Fatalf("xvars listing:\n%s", tr)
	}
	out.Reset()
	exec(t, d, "xvars exponent")
	if !strings.Contains(out.String(), "exponent = 15") {
		t.Errorf("xvars exponent:\n%s", out.String())
	}

	// After two squarings the static exponent is 3 (15 -> 7 -> 3).
	exec(t, d, "break power_gen.c:8", "continue")
	out.Reset()
	exec(t, d, "xvars exponent")
	if !strings.Contains(out.String(), "exponent = 7") {
		t.Errorf("xvars exponent at line 8:\n%s", out.String())
	}

	if err := d.Execute("xvars nosuch"); err == nil {
		t.Error("xvars with unknown key accepted")
	}
}

// TestRTVHandler: the handler is generated code evaluated at debug time;
// it uses find_stack_var to read the paused frame (Figure 7 mechanism).
func TestRTVHandler(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:5", "run") // res_1 == 3 here
	out.Reset()
	exec(t, d, "xvars res_view")
	if !strings.Contains(out.String(), "res_view = res_1=3") {
		t.Errorf("rtv_handler output:\n%s", out.String())
	}
	// The handler sees updated state as execution advances: just before
	// the third multiply, res_1 holds 3 * 9 = 27.
	exec(t, d, "break power_gen.c:10", "continue")
	out.Reset()
	exec(t, d, "xvars res_view")
	if !strings.Contains(out.String(), "res_view = res_1=27") {
		t.Errorf("rtv_handler after continue:\n%s", out.String())
	}
}

// TestXBreak reproduces Figure 9's xbreak: one DSL-level breakpoint
// expands to breakpoints at every generated line whose extended stack top
// matches, inserted through the eval mechanism.
func TestXBreak(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:2", "run")
	out.Reset()
	// DSL line 6 (`res = res * x`) was generated 4 times (15,7,3,1 all odd).
	exec(t, d, "xbreak power.dsl:6")
	tr := out.String()
	if !strings.Contains(tr, "Inserting 4 breakpoints with ID: #1") {
		t.Fatalf("xbreak banner:\n%s", tr)
	}
	if strings.Count(tr, "Breakpoint ") != 4 {
		t.Errorf("expected 4 debugger breakpoint banners:\n%s", tr)
	}
	if got := len(d.Breakpoints()); got != 5 { // 1 manual + 4 from xbreak
		t.Errorf("debugger has %d breakpoints, want 5", got)
	}
	if got := len(b.Runtime.BreakpointsFor(d.Process().VM)); got != 1 {
		t.Errorf("session has %d DSL breakpoints, want 1", got)
	}

	// Each continue lands on a res_1 multiply.
	for i := 0; i < 4; i++ {
		exec(t, d, "continue")
		if d.LastStop().Reason != debugger.StopBreakpoint {
			t.Fatalf("continue %d: stop = %v", i, d.LastStop().Reason)
		}
	}
	exec(t, d, "continue")
	if d.LastStop().Reason != debugger.StopExited {
		t.Errorf("final stop = %v, want exited", d.LastStop().Reason)
	}
}

func TestXBreakBareLineAndListing(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:2", "run")
	out.Reset()
	// A bare line number resolves against the current DSL file.
	exec(t, d, "xbreak 7")
	if !strings.Contains(out.String(), "Inserting 3 breakpoints with ID: #1") {
		t.Fatalf("bare-line xbreak:\n%s", out.String())
	}
	out.Reset()
	exec(t, d, "xbreak") // listing mode
	if !strings.Contains(out.String(), "#1  power.dsl:7  (3 generated locations)") {
		t.Errorf("xbreak listing:\n%s", out.String())
	}
	out.Reset()
	exec(t, d, "xbreak power.dsl:999")
	if !strings.Contains(out.String(), "No generated code for power.dsl:999") {
		t.Errorf("xbreak on empty line:\n%s", out.String())
	}
}

func TestXDel(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:2", "run", "xbreak power.dsl:6")
	before := len(d.Breakpoints())
	out.Reset()
	exec(t, d, "xdel 1")
	tr := out.String()
	if !strings.Contains(tr, "Deleted DSL breakpoint #1") {
		t.Fatalf("xdel banner:\n%s", tr)
	}
	if got := len(d.Breakpoints()); got != before-4 {
		t.Errorf("breakpoints after xdel = %d, want %d", got, before-4)
	}
	if len(b.Runtime.BreakpointsFor(d.Process().VM)) != 0 {
		t.Error("session still tracks the deleted DSL breakpoint")
	}
	// Program now runs to completion.
	exec(t, d, "continue")
	if d.LastStop().Reason != debugger.StopExited {
		t.Errorf("stop = %v, want exited", d.LastStop().Reason)
	}
	if err := d.Execute("xdel 7"); err == nil {
		t.Error("xdel of unknown id accepted")
	}
}

func TestNoD2XContextMessage(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	// main() is outside any D2X section.
	exec(t, d, "break main", "run")
	out.Reset()
	exec(t, d, "xbt")
	if !strings.Contains(out.String(), "No D2X context for generated line") {
		t.Errorf("xbt outside section:\n%s", out.String())
	}
	out.Reset()
	exec(t, d, "xvars")
	if !strings.Contains(out.String(), "No D2X variables for generated line") {
		t.Errorf("xvars outside section:\n%s", out.String())
	}
}

// TestDebuggerHasNoD2XKnowledge is the runtime half of the architecture
// test: the paper's central claim is that the debugger needs zero
// modification, so a D2X-less session must still support every debugger
// command, with the macros simply absent. The import half, that the
// debugger package imports no d2x package, is d2xvet's arch/import-graph
// pass, which TestRepoArchitectureVerifies runs over the real tree.
func TestDebuggerHasNoD2XKnowledge(t *testing.T) {
	b := buildPower(t, false)
	var out strings.Builder
	d, err := b.NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	exec(t, d, "break power_gen.c:5", "run", "bt", "info locals", "continue")
	if !strings.Contains(out.String(), "14348907") {
		t.Errorf("plain session broken:\n%s", out.String())
	}
	// And the D2X macros are simply absent.
	if err := d.Execute("xbt"); err == nil {
		t.Error("xbt available without the D2X runtime linked")
	}
}

func TestTablesSurviveSourceRoundTrip(t *testing.T) {
	// The emitted tables are genuine generated source, array-literal
	// data: recompiling the source text from scratch decodes to the same
	// records.
	b := buildPower(t, true)
	for _, decl := range []string{"global string[] __d2x_strtab = {", "global int[] __d2x_rec_line = {"} {
		if !strings.Contains(b.Source, decl) {
			t.Fatalf("emitted source lacks %q", decl)
		}
	}
	if strings.Contains(b.Source, "__init") {
		t.Fatal("emitted source has table constructors")
	}
	nats := minic.NewNatives()
	d2xr.New().Register(nats)
	prog, err := minic.Compile(b.Program.SourceName, b.Source, nats)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2xenc.Decode(minic.NewVM(prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := d2xenc.Decode(minic.NewVM(b.Program, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) == 0 || !reflect.DeepEqual(got.Records, want.Records) {
		t.Errorf("recompiled tables decode to %+v, want %+v", got.Records, want.Records)
	}
}
