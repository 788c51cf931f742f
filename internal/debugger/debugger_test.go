package debugger

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/obs"
)

// The power-by-squaring program, the generated-code shape from the paper's
// Figure 8, with line numbers that the tests below assert against.
const powerSrc = `func int power_15(int arg0) {
	int res_1 = 1;
	int x_2 = arg0;
	res_1 = res_1 * x_2;
	x_2 = x_2 * x_2;
	res_1 = res_1 * x_2;
	x_2 = x_2 * x_2;
	res_1 = res_1 * x_2;
	x_2 = x_2 * x_2;
	res_1 = res_1 * x_2;
	return res_1;
}
func int main() {
	int r = power_15(3);
	printf("%d\n", r);
	return 0;
}
`

// attach compiles src, builds debug info, and attaches a debugger. The
// shared output buffer captures both the program's stdout and the
// debugger transcript, interleaved as in a real terminal session.
func attach(t *testing.T, src string) (*Debugger, *strings.Builder) {
	t.Helper()
	prog, err := minic.Compile("gen.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	blob := dwarfish.Build(prog).Encode()
	proc, err := NewProcess(prog, blob, &out)
	if err != nil {
		t.Fatal(err)
	}
	return New(proc, &out), &out
}

func mustExec(t *testing.T, d *Debugger, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := d.Execute(l); err != nil {
			t.Fatalf("command %q: %v", l, err)
		}
	}
}

func TestBreakpointByLine(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "run")
	if d.LastStop().Reason != StopBreakpoint {
		t.Fatalf("stop = %v, want breakpoint", d.LastStop().Reason)
	}
	if !strings.Contains(out.String(), "Breakpoint 1, power_15 (arg0=3) at gen.c:5") {
		t.Errorf("unexpected transcript:\n%s", out.String())
	}
	// res_1 has been multiplied once: 3.
	v, err := d.EvalExpr("res_1")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 3 {
		t.Errorf("res_1 = %d, want 3", v.I)
	}
}

func TestBreakpointByFunction(t *testing.T) {
	d, _ := attach(t, powerSrc)
	mustExec(t, d, "break power_15", "run")
	stop := d.LastStop()
	if stop.Reason != StopBreakpoint {
		t.Fatalf("stop = %v", stop.Reason)
	}
	if _, line, _ := d.lineAt(0); line != 2 {
		t.Errorf("stopped at line %d, want 2 (first statement)", line)
	}
}

func TestContinueAndExit(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "run", "continue")
	if d.LastStop().Reason != StopExited {
		t.Fatalf("stop = %v, want exited", d.LastStop().Reason)
	}
	if !strings.Contains(out.String(), "14348907") {
		t.Errorf("program output missing from transcript:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "[Program exited]") {
		t.Errorf("missing exit banner:\n%s", out.String())
	}
}

func TestStepInto(t *testing.T) {
	d, _ := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:14", "run") // int r = power_15(3);
	mustExec(t, d, "step")
	// Stepping into the call lands on power_15's first line.
	if f := d.SelectedFrame(); f == nil || f.Fn.Name != "power_15" {
		t.Fatalf("after step, frame = %v", f)
	}
	if _, line, _ := d.lineAt(0); line != 2 {
		t.Errorf("after step, line = %d, want 2", line)
	}
}

func TestStepOverAndFinish(t *testing.T) {
	d, _ := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:14", "run", "next")
	// next steps over the call: still in main, on line 15.
	if f := d.SelectedFrame(); f.Fn.Name != "main" {
		t.Fatalf("after next, in %s, want main", f.Fn.Name)
	}
	if _, line, _ := d.lineAt(0); line != 15 {
		t.Errorf("after next, line = %d, want 15", line)
	}
	// r is now assigned.
	if v, err := d.EvalExpr("r"); err != nil || v.I != 14348907 {
		t.Errorf("r = %v err=%v, want 14348907", v, err)
	}

	// Fresh session: step in then finish.
	d2, _ := attach(t, powerSrc)
	mustExec(t, d2, "break power_15", "run", "finish")
	if f := d2.SelectedFrame(); f.Fn.Name != "main" {
		t.Errorf("after finish, in %s, want main", f.Fn.Name)
	}
}

func TestBacktraceAndFrames(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "run")
	out.Reset()
	mustExec(t, d, "bt")
	tr := out.String()
	if !strings.Contains(tr, "#0  power_15 (arg0=3) at gen.c:5") {
		t.Errorf("bt missing frame 0:\n%s", tr)
	}
	if !strings.Contains(tr, "in main () at gen.c:14") {
		t.Errorf("bt missing caller frame:\n%s", tr)
	}

	out.Reset()
	mustExec(t, d, "frame 1")
	if !strings.Contains(out.String(), "#1") || !strings.Contains(out.String(), "main") {
		t.Errorf("frame 1 output:\n%s", out.String())
	}
	// In frame 1, main's local r is visible (still 0, the call has not
	// returned).
	if v, err := d.EvalExpr("r"); err != nil || v.I != 0 {
		t.Errorf("r in frame 1 = %v err=%v", v, err)
	}
	// And power_15's local is not.
	if _, err := d.EvalExpr("res_1"); err == nil {
		t.Error("res_1 visible from frame 1")
	}
	mustExec(t, d, "down")
	if v, err := d.EvalExpr("res_1"); err != nil || v.I != 3 {
		t.Errorf("res_1 after down = %v err=%v", v, err)
	}
}

func TestPrintExpressions(t *testing.T) {
	src := `struct pair {
	int a;
	int b;
}
global int g = 7;
func int main() {
	pair* p = new pair;
	p->a = 10;
	p->b = 20;
	int[] arr = new int[4];
	arr[2] = 42;
	int x = 5;
	int* px = &x;
	printf("done\n");
	return 0;
}
`
	d, out := attach(t, src)
	mustExec(t, d, "break gen.c:14", "run")
	out.Reset()
	mustExec(t, d,
		"print g",
		"print p->a",
		"print arr[2]",
		"print *px",
		"print &x",
		"print x",
		"print -x",
	)
	tr := out.String()
	for _, want := range []string{"$1 = 7", "$2 = 10", "$3 = 42", "$4 = 5", "$5 = &5", "$6 = 5", "$7 = -5"} {
		if !strings.Contains(tr, want) {
			t.Errorf("print transcript missing %q:\n%s", want, tr)
		}
	}
	// Struct formatting via the pointer.
	out.Reset()
	mustExec(t, d, "print p")
	if !strings.Contains(out.String(), "a = 10, b = 20") {
		t.Errorf("struct print:\n%s", out.String())
	}
}

func TestSetVariable(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "run", "set var res_1 = 100", "continue")
	// res_1 was forced to 100 right after the first multiply; remaining
	// multiplies are by x^2=9, x^4=81, x^8=6561: 100*9*81*6561.
	if !strings.Contains(out.String(), "478296900") {
		t.Errorf("set var did not take effect:\n%s", out.String())
	}
}

func TestCallIntoInferior(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "run")
	out.Reset()
	mustExec(t, d, "call power_15(2)")
	if !strings.Contains(out.String(), "= 32768") { // 2^15
		t.Errorf("call result:\n%s", out.String())
	}
	// The inferior's state is untouched by the synthetic call.
	if v, _ := d.EvalExpr("res_1"); v.I != 3 {
		t.Errorf("res_1 disturbed by call: %d", v.I)
	}
}

func TestRegistersAndInfo(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "run")
	rip, ok := d.RegisterRIP()
	if !ok {
		t.Fatal("no rip")
	}
	addr := dwarfish.DecodeAddr(rip)
	if file, line, ok := d.Process().Info.LineFor(addr); !ok || line != 5 || file != "gen.c" {
		t.Errorf("rip decodes to %s:%d ok=%v, want gen.c:5", file, line, ok)
	}
	if _, ok := d.RegisterRSP(); !ok {
		t.Fatal("no rsp")
	}
	out.Reset()
	mustExec(t, d, "info registers", "info locals", "info args", "info breakpoints")
	tr := out.String()
	for _, want := range []string{"rip  0x", "res_1 = 3", "arg0 = 3", "power_15 at gen.c:5"} {
		if !strings.Contains(tr, want) {
			t.Errorf("info transcript missing %q:\n%s", want, tr)
		}
	}
}

func TestListCommand(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "run")
	out.Reset()
	mustExec(t, d, "list")
	tr := out.String()
	if !strings.Contains(tr, ">5") || !strings.Contains(tr, "x_2 = x_2 * x_2;") {
		t.Errorf("list output:\n%s", tr)
	}
}

func TestDeleteBreakpoint(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "break gen.c:7", "delete 1", "run")
	if _, line, _ := d.lineAt(0); line != 7 {
		t.Errorf("stopped at %d, want 7 (bp 1 deleted)", line)
	}
	out.Reset()
	mustExec(t, d, "delete")
	mustExec(t, d, "continue")
	if d.LastStop().Reason != StopExited {
		t.Errorf("after deleting all bps, stop = %v", d.LastStop().Reason)
	}
}

func TestBreakpointHitCount(t *testing.T) {
	src := `func int main() {
	int total = 0;
	for (int i = 0; i < 5; i++) {
		total += i;
	}
	return total;
}
`
	d, _ := attach(t, src)
	mustExec(t, d, "break gen.c:4", "run")
	for i := 0; i < 4; i++ {
		mustExec(t, d, "continue")
	}
	bp := d.Breakpoints()[0]
	if bp.Hits != 5 {
		t.Errorf("hits = %d, want 5", bp.Hits)
	}
	mustExec(t, d, "continue")
	if d.LastStop().Reason != StopExited {
		t.Errorf("stop = %v, want exited", d.LastStop().Reason)
	}
}

// TestBreakpointConditionShortCircuits checks that a condition whose
// left operand decides skips its right one: a null p passes the site
// silently instead of failing to dereference it and stopping.
func TestBreakpointConditionShortCircuits(t *testing.T) {
	d, out := attach(t, `func int main() {
	int x = 5;
	int* p = null;
	for (int i = 0; i < 3; i++) {
		x = x + i;
		if (i == 1) {
			p = &x;
		}
	}
	printf("x=%d\n", x);
	return 0;
}
`)
	mustExec(t, d, "break gen.c:5 if p != null && *p > 3", "run")
	if st := d.LastStop(); st.Reason != StopBreakpoint {
		t.Fatalf("stop = %v, want the breakpoint", st.Reason)
	}
	if v, _ := d.EvalExpr("i"); v.I != 2 {
		t.Errorf("stopped at i = %d, want 2, the first pass with p set", v.I)
	}
	if strings.Contains(out.String(), "Error in breakpoint condition") {
		t.Errorf("the condition failed on a null p:\n%s", out.String())
	}
	mustExec(t, d, "continue")
	if !strings.Contains(out.String(), "x=8\n") || d.LastStop().Reason != StopExited {
		t.Errorf("the program did not run to exit:\n%s", out.String())
	}
}

// TestFaultInspection stops at a fault and inspects it post mortem. The
// error, the fault banner and bt all name the faulting line, not the
// line of the statement after it.
func TestFaultInspection(t *testing.T) {
	for _, c := range []struct {
		name  string
		src   string
		fault string // in the fault banner
		fn    string // the faulting frame's function
		line  int    // the faulting line
		local string // a local of the faulting frame ...
		value int64  // ... and its value at the fault
	}{
		{"index out of range", `func int crash(int[] a, int i) {
	return a[i];
}
func int main() {
	int[] arr = new int[2];
	return crash(arr, 10);
}
`, "out of range", "crash", 2, "i", 10},
		{"failed assert", `func int main() {
int x = 0;
assert(x > 0, "x positive");
x = 5;
return x;
}
`, "assert: assertion failed: x positive", "main", 3, "x", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, out := attach(t, c.src)
			mustExec(t, d, "run")
			stop := d.LastStop()
			if stop.Reason != StopFault {
				t.Fatalf("stop = %v, want fault", stop.Reason)
			}
			banner := out.String()
			if !strings.Contains(banner, c.fault) {
				t.Errorf("fault banner:\n%s", banner)
			}
			at := fmt.Sprintf("gen.c:%d", c.line)
			if !strings.Contains(stop.Fault.Error(), at+": in "+c.fn+": ") {
				t.Errorf("fault %q does not name %s", stop.Fault, at)
			}
			if !strings.Contains(banner, "#0  "+c.fn+" (") || !strings.Contains(banner, " at "+at+"\n") {
				t.Errorf("fault banner does not show frame #0 in %s at %s:\n%s", c.fn, at, banner)
			}
			out.Reset()
			mustExec(t, d, "bt")
			if bt := out.String(); !strings.HasPrefix(bt, "#0  "+c.fn+" (") || !strings.Contains(strings.SplitN(bt, "\n", 2)[0], " at "+at) {
				t.Errorf("bt does not start in %s at %s:\n%s", c.fn, at, bt)
			}
			// Post-mortem: frame and variables are inspectable.
			if f := d.SelectedFrame(); f == nil || f.Fn.Name != c.fn {
				t.Fatalf("fault frame = %v", f)
			}
			if v, err := d.EvalExpr(c.local); err != nil || v.I != c.value {
				t.Errorf("%s at fault = %v err=%v", c.local, v, err)
			}
		})
	}
}

func TestThreadsCommand(t *testing.T) {
	src := `global int total = 0;
func int main() {
	parallel_for (int i = 0; i < 100; i++) {
		atomic_add(&total, i);
		atomic_add(&total, 0);
	}
	return total;
}
`
	d, out := attach(t, src)
	mustExec(t, d, "break gen.c:5", "run")
	stop := d.LastStop()
	if stop.Reason != StopBreakpoint {
		t.Fatalf("stop = %v", stop.Reason)
	}
	// The hit is on a worker thread, not the main thread.
	if stop.Thread.ID == 0 {
		t.Errorf("breakpoint hit on main thread; expected a worker")
	}
	out.Reset()
	mustExec(t, d, "info threads")
	tr := out.String()
	if !strings.Contains(tr, "waiting") {
		t.Errorf("info threads should show the waiting spawner:\n%s", tr)
	}
	// The loop variable of the worker is visible.
	if v, err := d.EvalExpr("i"); err != nil || v.Kind != minic.VInt {
		t.Errorf("i on worker = %v err=%v", v, err)
	}
	// Switch focus to the main (waiting) thread.
	out.Reset()
	mustExec(t, d, "thread 0")
	if !strings.Contains(out.String(), "[Switching to thread 0]") {
		t.Errorf("thread switch transcript:\n%s", out.String())
	}
}

func TestEvalGeneratesCommands(t *testing.T) {
	d, _ := attach(t, powerSrc)
	// eval formats a string and executes it as a command; the argument is
	// itself a call into the inferior (str_len("hello") = 5), the exact
	// mechanism D2X's xbreak uses to let the debuggee drive the debugger.
	mustExec(t, d, `eval "break gen.c:%d", str_len("hello")`)
	bps := d.Breakpoints()
	if len(bps) != 1 || bps[0].Sites[0].Line != 5 {
		t.Fatalf("eval-installed breakpoints = %+v, want one at line 5", bps)
	}
	mustExec(t, d, "run")
	if _, line, _ := d.lineAt(0); line != 5 {
		t.Errorf("stopped at %d, want 5", line)
	}
}

func TestEvalBreakInsertion(t *testing.T) {
	d, out := attach(t, powerSrc)
	mustExec(t, d, `eval "break gen.c:5\nbreak gen.c:7"`)
	if n := len(d.Breakpoints()); n != 2 {
		t.Fatalf("eval created %d breakpoints, want 2", n)
	}
	out.Reset()
	mustExec(t, d, "run", "continue")
	if _, line, _ := d.lineAt(0); line != 7 {
		t.Errorf("second stop at %d, want 7", line)
	}
}

func TestMacros(t *testing.T) {
	d, out := attach(t, powerSrc)
	err := d.LoadMacros(`
# D2X-style helper macros
define pres
  print res_1
end
define pplus
  print $arg0
  print $arg1
end
`)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, d, "break gen.c:5", "run")
	out.Reset()
	mustExec(t, d, "pres", "pplus arg0 res_1")
	tr := out.String()
	if !strings.Contains(tr, "= 3") {
		t.Errorf("macro output:\n%s", tr)
	}
	// Macro errors are reported.
	if err := d.LoadMacros("define broken\n"); err == nil {
		t.Error("unterminated define accepted")
	}
	if err := d.LoadMacros("stray command\n"); err == nil {
		t.Error("stray command accepted")
	}
	if err := d.Execute("nosuchcmd"); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestMangledCallNames(t *testing.T) {
	d, _ := attach(t, powerSrc)
	mustExec(t, d, "break gen.c:5", "run")
	// C++-style qualified names map onto the flat namespace.
	v, err := d.EvalExpr("power_15(2)")
	if err != nil || v.I != 32768 {
		t.Fatalf("direct call: %v err=%v", v, err)
	}
	if _, err := d.EvalExpr("no::such(2)"); err == nil {
		t.Error("bogus qualified name resolved")
	}
}

func TestErrors(t *testing.T) {
	d, _ := attach(t, powerSrc)
	for _, cmd := range []string{
		"continue",        // not running
		"break gen.c:999", // no code there
		"break nofunc",    // no such function
		"frame 5",         // no stack yet -> handled below after run
	} {
		if err := d.Execute(cmd); err == nil {
			t.Errorf("command %q succeeded, expected error", cmd)
		}
	}
	mustExec(t, d, "break gen.c:5", "run")
	for _, cmd := range []string{
		"frame 99",
		"print nosuchvar",
		"print arr[",
		"thread 42",
		"delete 9",
		"info nothing",
		"set var 3 = 4",
	} {
		if err := d.Execute(cmd); err == nil {
			t.Errorf("command %q succeeded, expected error", cmd)
		}
	}
	// Running `run` twice is an error.
	if err := d.Execute("run"); err == nil {
		t.Error("second run accepted")
	}
}

func TestUDFMultiSiteBreakpoint(t *testing.T) {
	// Two specialisations of the same logical UDF live at different
	// lines; a single source line can also expand to multiple sites when
	// the same line holds several statements. Here we check the
	// [N locations] annotation path with a line that appears once, then
	// verify two separate breakpoints both trigger.
	src := `func void updateEdge_1(int s, int d) {
	atomic_add(&s, d);
}
func void updateEdge_2(int s, int d) {
	s += d;
}
func int main() {
	updateEdge_1(1, 2);
	updateEdge_2(3, 4);
	return 0;
}
`
	d, _ := attach(t, src)
	mustExec(t, d, "break updateEdge_1", "break updateEdge_2", "run")
	if f := d.SelectedFrame(); f.Fn.Name != "updateEdge_1" {
		t.Errorf("first stop in %s", f.Fn.Name)
	}
	mustExec(t, d, "continue")
	if f := d.SelectedFrame(); f.Fn.Name != "updateEdge_2" {
		t.Errorf("second stop in %s", f.Fn.Name)
	}
}

// TestStatsAndTraceCommands: the observability commands print the metric
// snapshot as JSON and the event trace as JSONL on the transcript, and
// reflect the commands dispatched before them.
func TestStatsAndTraceCommands(t *testing.T) {
	d, out := attach(t, powerSrc)
	before := obs.GetCounter("debugger.cmd.run").Value()
	mustExec(t, d, "break gen.c:4", "run")
	out.Reset()
	mustExec(t, d, "stats")
	var snap map[string]any
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("stats output is not JSON: %v\n%s", err, out.String())
	}
	counters, _ := snap["counters"].(map[string]any)
	if got, _ := counters["debugger.cmd.run"].(float64); int64(got) != before+1 {
		t.Errorf("debugger.cmd.run = %v, want %d", got, before+1)
	}

	// The plain debugger emits no trace events itself (only the D2X
	// runtime layers do); feed the ring directly so the dump has content
	// even when this test runs alone.
	obs.Emit(obs.Event{Kind: "cmd", Name: "xbt", Session: 1, DurNS: 42})
	obs.Emit(obs.Event{Kind: "session", Name: "create", Session: 2})
	out.Reset()
	mustExec(t, d, "trace 5")
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 || len(lines) > 5 {
		t.Fatalf("trace 5 printed %d lines:\n%s", len(lines), out.String())
	}
	for _, l := range lines {
		var e map[string]any
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Errorf("trace line is not JSON: %v: %q", err, l)
		}
	}
	if err := d.Execute("trace bogus"); err == nil {
		t.Error("trace with junk arg accepted")
	}
}

// TestCommandSpellings pins the command table: each of the 44 accepted
// spellings is a built-in command counted under its canonical name's
// debugger.cmd.* counter, and a dispatch of an alias, a macro and an
// unknown word each moves one counter by one.
func TestCommandSpellings(t *testing.T) {
	canonical := map[string]string{
		"break": "break", "b": "break",
		"delete": "delete", "d": "delete",
		"clear": "clear", "watch": "watch", "unwatch": "unwatch",
		"display": "display", "undisplay": "undisplay",
		"disas": "disas", "disassemble": "disas",
		"run": "run", "r": "run",
		"continue": "continue", "c": "continue",
		"step": "step", "s": "step",
		"next": "next", "n": "next",
		"finish":    "finish",
		"backtrace": "backtrace", "bt": "backtrace",
		"frame": "frame", "f": "frame",
		"up": "up", "down": "down",
		"list": "list", "l": "list",
		"print": "print", "p": "print",
		"call": "call", "set": "set", "eval": "eval",
		"thread": "thread", "t": "thread",
		"info": "info", "echo": "echo",
		"stats": "stats", "trace": "trace",
		"record":       "record",
		"reverse-step": "reverse-step", "rs": "reverse-step",
		"reverse-continue": "reverse-continue", "rc": "reverse-continue",
	}
	if len(commands) != len(canonical) || len(canonical) != 44 {
		t.Fatalf("%d spellings, want %d", len(commands), len(canonical))
	}
	for spelling, name := range canonical {
		c, ok := commands[spelling]
		if !ok {
			t.Errorf("%q is not a command", spelling)
		} else if c.counter != obs.GetCounter("debugger.cmd."+name) {
			t.Errorf("%q is not counted as debugger.cmd.%s", spelling, name)
		}
	}

	d, _ := attach(t, powerSrc)
	if err := d.LoadMacros("define hi\n  echo hi\nend\n"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ line, counter string }{
		{"bt", "debugger.cmd.backtrace"},
		{"hi", "debugger.cmd.macro"},
		{"bogus", "debugger.cmd.unknown"},
	} {
		before := obs.GetCounter(tc.counter).Value()
		d.Execute(tc.line)
		if got := obs.GetCounter(tc.counter).Value(); got != before+1 {
			t.Errorf("%q moved %s by %d, want 1", tc.line, tc.counter, got-before)
		}
	}
}
