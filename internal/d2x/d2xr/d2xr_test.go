package d2xr

import (
	"fmt"
	"strings"
	"testing"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/dwarfish"
	"d2x/internal/minic"
)

// fixture builds a tiny "generated program" with D2X tables by hand and
// returns the runtime, the VM (paused conceptually at main's first line),
// and the rip/rsp values for that point — testing D2X-R below the
// debugger, at its raw function interface (paper Figure 5).
type fixture struct {
	rt   *Runtime
	vm   *minic.VM
	out  *strings.Builder
	rip  int64
	rsp  int64
	prog *minic.Program
}

const fixtureGen = `func string __h(string key) {
	int* p = d2x_find_stack_var("v");
	return key + "=" + to_str(*p);
}
func int main() {
	int v = 41;
	v = v + 1;
	printf("%d\n", v);
	return v;
}
`

func newFixture(t *testing.T) *fixture {
	t.Helper()
	// Generated lines 6..9 are main's body (1-based in fixtureGen).
	return newFixtureFor(t, fixtureGen, 6)
}

// newFixtureFor builds the fixture from gen, whose two generated lines
// from first on get D2X entries, and pauses it where a thread is about
// to run line first+1.
func newFixtureFor(t *testing.T, gen string, first int) *fixture {
	t.Helper()
	ctx := d2xc.NewContext()
	if err := ctx.BeginSectionAt(first); err != nil {
		t.Fatal(err)
	}
	ctx.PushSourceLoc("prog.dsl", 2, "main")
	ctx.SetVar("note", "decl")
	ctx.SetVarHandler("vh", d2xc.RTVHandler{FuncName: "__h"})
	ctx.Nextl() // fixtureGen's line 6: int v = 41;
	ctx.PushSourceLoc("prog.dsl", 3, "main")
	ctx.SetVar("note", "decl")
	ctx.SetVarHandler("vh", d2xc.RTVHandler{FuncName: "__h"})
	ctx.Nextl() // fixtureGen's line 7: v = v + 1;
	if err := ctx.EndSection(); err != nil {
		t.Fatal(err)
	}

	var src strings.Builder
	src.WriteString(gen)
	if err := d2xenc.EmitTables(ctx, &src); err != nil {
		t.Fatal(err)
	}

	nats := minic.NewNatives()
	rt := New()
	rt.Register(nats)
	rt.SetFileResolver(func(path string) (string, error) {
		if path == "prog.dsl" {
			return "line one\nv := 41\nv += 1\nprint v\n", nil
		}
		return "", fmt.Errorf("no file %q", path)
	})
	prog, err := minic.Compile("gen.c", src.String(), nats)
	if err != nil {
		t.Fatalf("%v\n%s", err, src.String())
	}
	blob := dwarfish.Build(prog).Encode()
	if err := rt.AttachDebugInfo(blob); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	vm := minic.NewVM(prog, &out)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	// Step until the statement on line first+1 is about to execute: in
	// fixtureGen main's second, so v is live with value 41.
	for {
		th := vm.NextThread()
		if th == nil {
			t.Fatalf("program finished before reaching line %d", first+1)
		}
		top := th.Top()
		in := top.Code.Instrs[top.PC]
		if in.StmtStart && in.Line == first+1 {
			f := &fixture{rt: rt, vm: vm, out: &out, prog: prog}
			f.rip = dwarfish.EncodeAddr(dwarfish.Addr{FuncIndex: top.FuncIndex, PC: top.PC})
			f.rsp = int64(top.ID)
			return f
		}
		vm.StepInstr()
	}
}

// callCmd invokes a registered D2X-R native the way the debugger's call
// command would.
func (f *fixture) callCmd(t *testing.T, name string, args ...minic.Value) minic.Value {
	t.Helper()
	nat, _, ok := f.prog.Natives.Lookup(name)
	if !ok {
		t.Fatalf("native %s not registered", name)
	}
	v, err := nat.Handler(&minic.NativeCall{VM: f.vm, Thread: f.vm.Threads()[0], Args: args})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestTable2CommandSet(t *testing.T) {
	f := newFixture(t)
	// All six Table 2 entry points exist under their documented names.
	for _, name := range []string{
		"d2x_runtime_command_xbt", "d2x_runtime_command_xframe",
		"d2x_runtime_command_xlist", "d2x_runtime_command_xvars",
		"d2x_runtime_command_xbreak", "d2x_runtime_command_xdel",
	} {
		if _, _, ok := f.prog.Natives.Lookup(name); !ok {
			t.Errorf("missing Table 2 command %s", name)
		}
	}
}

func TestXBTRaw(t *testing.T) {
	f := newFixture(t)
	f.callCmd(t, "d2x_runtime_command_xbt", minic.IntVal(f.rip), minic.IntVal(f.rsp))
	if !strings.Contains(f.out.String(), "#0 in main at prog.dsl:3") {
		t.Errorf("xbt output:\n%s", f.out.String())
	}
}

func TestXListRaw(t *testing.T) {
	f := newFixture(t)
	f.callCmd(t, "d2x_runtime_command_xlist", minic.IntVal(f.rip), minic.IntVal(f.rsp))
	if !strings.Contains(f.out.String(), ">3    v += 1") {
		t.Errorf("xlist output:\n%s", f.out.String())
	}
}

func TestXVarsAndHandler(t *testing.T) {
	f := newFixture(t)
	f.callCmd(t, "d2x_runtime_command_xvars", minic.IntVal(f.rip), minic.IntVal(f.rsp), minic.StrVal(""))
	tr := f.out.String()
	if !strings.Contains(tr, "1. note") || !strings.Contains(tr, "2. vh") {
		t.Fatalf("xvars listing:\n%s", tr)
	}
	f.out.Reset()
	f.callCmd(t, "d2x_runtime_command_xvars", minic.IntVal(f.rip), minic.IntVal(f.rsp), minic.StrVal("note"))
	if !strings.Contains(f.out.String(), "note = decl") {
		t.Errorf("constant var:\n%s", f.out.String())
	}
	f.out.Reset()
	// The handler reads v from the frame rsp identifies: 41.
	f.callCmd(t, "d2x_runtime_command_xvars", minic.IntVal(f.rip), minic.IntVal(f.rsp), minic.StrVal("vh"))
	if !strings.Contains(f.out.String(), "vh = vh=41") {
		t.Errorf("handler var:\n%s", f.out.String())
	}
}

// TestFindStackVarCaptured checks d2x_find_stack_var on a variable a
// parallel_for helper captured from its spawner: the handler runs on
// the worker's helper frame, and the pointer it gets is the spawner's
// cell, not a slot of the helper frame's own.
func TestFindStackVarCaptured(t *testing.T) {
	f := newFixtureFor(t, `func string __h(string key) {
	int* p = d2x_find_stack_var("v");
	return key + "=" + to_str(*p);
}
func int main() {
	int v = 41;
	parallel_for (int i = 0; i < 1; i++) {
		v = v + 1;
		printf("%d\n", v);
	}
	return v;
}
`, 7)
	helper := f.vm.FrameByID(int(f.rsp))
	if helper == nil || helper.Fn.Name != "main$par0" {
		t.Fatalf("paused in %v, want the parallel_for helper", helper)
	}
	for _, want := range []int64{41, 77} {
		f.vm.Threads()[0].Top().SlotByName("v").V = minic.IntVal(want)
		f.out.Reset()
		f.callCmd(t, "d2x_runtime_command_xvars", minic.IntVal(f.rip), minic.IntVal(f.rsp), minic.StrVal("vh"))
		if !strings.Contains(f.out.String(), fmt.Sprintf("vh = vh=%d", want)) {
			t.Errorf("handler var with main's v = %d:\n%s", want, f.out.String())
		}
	}
}

func TestXBreakReturnsCommands(t *testing.T) {
	f := newFixture(t)
	v := f.callCmd(t, "d2x_runtime_command_xbreak", minic.IntVal(f.rip), minic.StrVal("prog.dsl:2"))
	if !strings.Contains(f.out.String(), "Inserting 1 breakpoints with ID: #1") {
		t.Fatalf("xbreak banner:\n%s", f.out.String())
	}
	if v.S() != "break gen.c:6" {
		t.Errorf("returned commands = %q", v.S())
	}
	// Deleting returns matching clear commands.
	f.out.Reset()
	v = f.callCmd(t, "d2x_runtime_command_xdel", minic.StrVal("#1"))
	if v.S() != "clear gen.c:6" {
		t.Errorf("xdel commands = %q", v.S())
	}
	if !strings.Contains(f.out.String(), "Deleted DSL breakpoint #1") {
		t.Errorf("xdel banner:\n%s", f.out.String())
	}
}

func TestXBreakListingAndMisses(t *testing.T) {
	f := newFixture(t)
	v := f.callCmd(t, "d2x_runtime_command_xbreak", minic.IntVal(f.rip), minic.StrVal(""))
	if v.S() != "" || !strings.Contains(f.out.String(), "No DSL breakpoints.") {
		t.Errorf("empty listing: %q / %s", v.S(), f.out.String())
	}
	f.out.Reset()
	v = f.callCmd(t, "d2x_runtime_command_xbreak", minic.IntVal(f.rip), minic.StrVal("prog.dsl:999"))
	if v.S() != "" || !strings.Contains(f.out.String(), "No generated code for prog.dsl:999") {
		t.Errorf("miss: %q / %s", v.S(), f.out.String())
	}
}

func TestFindStackVarOutsideCommand(t *testing.T) {
	f := newFixture(t)
	nat, _, _ := f.prog.Natives.Lookup("d2x_find_stack_var")
	_, err := nat.Handler(&minic.NativeCall{VM: f.vm, Thread: f.vm.Threads()[0],
		Args: []minic.Value{minic.StrVal("v")}})
	if err == nil || !strings.Contains(err.Error(), "outside a D2X command") {
		t.Errorf("err = %v", err)
	}
}

func TestCommandErrors(t *testing.T) {
	f := newFixture(t)
	call := func(name string, args ...minic.Value) error {
		nat, _, _ := f.prog.Natives.Lookup(name)
		_, err := nat.Handler(&minic.NativeCall{VM: f.vm, Thread: f.vm.Threads()[0], Args: args})
		return err
	}
	if err := call("d2x_runtime_command_xvars", minic.IntVal(f.rip), minic.IntVal(f.rsp), minic.StrVal("ghost")); err == nil {
		t.Error("xvars of unknown key accepted")
	}
	if err := call("d2x_runtime_command_xframe", minic.IntVal(f.rip), minic.IntVal(f.rsp), minic.StrVal("7")); err == nil {
		t.Error("xframe out of range accepted")
	}
	if err := call("d2x_runtime_command_xframe", minic.IntVal(f.rip), minic.IntVal(f.rsp), minic.StrVal("abc")); err == nil {
		t.Error("xframe with junk arg accepted")
	}
	if err := call("d2x_runtime_command_xbreak", minic.IntVal(f.rip), minic.StrVal("what")); err == nil {
		t.Error("xbreak with junk location accepted")
	}
	if err := call("d2x_runtime_command_xdel", minic.StrVal("zzz")); err == nil {
		t.Error("xdel with junk id accepted")
	}
	if err := call("d2x_runtime_command_xdel", minic.StrVal("42")); err == nil {
		t.Error("xdel of unknown id accepted")
	}
	// The debugger's call command does not check a native's arity.
	if err := call("d2x_runtime_command_xframe", minic.IntVal(f.rip), minic.IntVal(f.rsp)); err == nil || !strings.Contains(err.Error(), "takes 3 arguments, got 2") {
		t.Errorf("xframe with a missing argument: %v", err)
	}
}

func TestNoDebugInfoAttached(t *testing.T) {
	rt := New()
	nats := minic.NewNatives()
	rt.Register(nats)
	prog, err := minic.Compile("p.c", "func int main() { return 0; }", nats)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	nat, _, _ := nats.Lookup("d2x_runtime_command_xbt")
	if _, err := nat.Handler(&minic.NativeCall{VM: vm, Args: []minic.Value{minic.IntVal(0), minic.IntVal(0)}}); err == nil {
		t.Error("xbt without debug info accepted")
	}
	if err := rt.AttachDebugInfo([]byte("junk")); err == nil {
		t.Error("junk debug blob accepted")
	}
}

func TestStaleFrameRejected(t *testing.T) {
	f := newFixture(t)
	// A frame ID that never existed.
	st := f.rt.svc.State(f.vm)
	st.CmdActive = true
	st.CurRSP = 999999
	if _, err := f.rt.findStackVar(f.vm, "v"); err == nil || !strings.Contains(err.Error(), "no longer live") {
		t.Errorf("stale frame: %v", err)
	}
}

func TestHandlerFaultSurfacesAsError(t *testing.T) {
	// A buggy rtv_handler (null deref) must produce a clean error from
	// xvars, not a crash.
	ctx := d2xc.NewContext()
	if err := ctx.BeginSectionAt(6); err != nil {
		t.Fatal(err)
	}
	ctx.SetVarHandler("bad", d2xc.RTVHandler{FuncName: "__boom"})
	ctx.PushSourceLoc("p.dsl", 1)
	ctx.Nextl()
	if err := ctx.EndSection(); err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	src.WriteString(`func string __boom(string key) {
	int* p = null;
	return to_str(*p);
}
func int main() {
	int v = 0;
	return v;
}
`)
	if err := d2xenc.EmitTables(ctx, &src); err != nil {
		t.Fatal(err)
	}
	nats := minic.NewNatives()
	rt := New()
	rt.Register(nats)
	prog, err := minic.Compile("gen.c", src.String(), nats)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachDebugInfo(dwarfish.Build(prog).Encode()); err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	top := vm.Threads()[0].Top()
	rip := dwarfish.EncodeAddr(dwarfish.Addr{FuncIndex: top.FuncIndex, PC: top.PC})
	nat, _, _ := nats.Lookup("d2x_runtime_command_xvars")
	_, err = nat.Handler(&minic.NativeCall{VM: vm, Thread: vm.Threads()[0],
		Args: []minic.Value{minic.IntVal(rip), minic.IntVal(int64(top.ID)), minic.StrVal("bad")}})
	if err == nil || !strings.Contains(err.Error(), "rtv_handler __boom failed") {
		t.Errorf("handler fault: %v", err)
	}
}

// TestFindStackVarInFrameZero is the regression test for the frame-0 bug:
// the runtime used to track the active command frame with the sentinel
// "curRSP == 0", but minic assigns the very first frame it creates ID 0.
// In a program with no constructors that is main's frame, so an
// rtv_handler evaluated while paused in main was wrongly rejected with
// "called outside a D2X command".
func TestFindStackVarInFrameZero(t *testing.T) {
	nats := minic.NewNatives()
	rt := New()
	rt.Register(nats)
	// No D2X tables appended: table constructors would run before main and
	// consume frame ID 0. findStackVar only needs debug info and the
	// command state, not the tables.
	prog, err := minic.Compile("gen.c", fixtureGen, nats)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachDebugInfo(dwarfish.Build(prog).Encode()); err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	// Step until main's second statement (line 7), where v is live at 41.
	var frameID int
	for {
		th := vm.NextThread()
		if th == nil {
			t.Fatal("program finished before reaching line 7")
		}
		top := th.Top()
		in := top.Code.Instrs[top.PC]
		if in.StmtStart && in.Line == 7 {
			frameID = top.ID
			break
		}
		vm.StepInstr()
	}
	if frameID != 0 {
		t.Fatalf("expected main to be frame 0 in a constructor-free program, got %d", frameID)
	}
	// Mark a D2X command active on frame 0, exactly as the command executor
	// does when the debugger passes $rsp = 0.
	st := rt.svc.State(vm)
	st.CmdActive = true
	st.CurRSP = 0
	defer func() { st.CmdActive = false }()
	res, err := vm.CallFunction("__h", []minic.Value{minic.StrVal("vh")})
	if err != nil {
		t.Fatalf("rtv_handler paused in frame 0: %v", err)
	}
	if res.S() != "vh=41" {
		t.Errorf("rtv_handler in frame 0 = %q, want %q", res.S(), "vh=41")
	}
}

// TestXBreakRepeatedExpansionStable is the regression test for the slice
// aliasing bug: xbreak used to filter the GenLinesForDSL result with
// genLines[:0], mutating the slice in place. With the results now served
// from the shared table index, that write would corrupt the tables and a
// second identical xbreak would see a different expansion.
func TestXBreakRepeatedExpansionStable(t *testing.T) {
	f := newFixture(t)
	first := f.callCmd(t, "d2x_runtime_command_xbreak",
		minic.IntVal(f.rip), minic.StrVal("prog.dsl:2")).S()
	second := f.callCmd(t, "d2x_runtime_command_xbreak",
		minic.IntVal(f.rip), minic.StrVal("prog.dsl:2")).S()
	if first == "" {
		t.Fatal("xbreak produced no breakpoint commands")
	}
	if first != second {
		t.Errorf("identical xbreak calls expanded differently:\n1st: %q\n2nd: %q", first, second)
	}
	bps := f.rt.BreakpointsFor(f.vm)
	if len(bps) != 2 {
		t.Fatalf("expected 2 breakpoints, got %d", len(bps))
	}
	if fmt.Sprint(bps[0].GenLines) != fmt.Sprint(bps[1].GenLines) {
		t.Errorf("stored expansions differ: %v vs %v", bps[0].GenLines, bps[1].GenLines)
	}
}

// TestSessionStateEviction covers the unbounded-growth bug: per-VM state
// used to live in a map that never deleted keys. Release must evict it.
func TestSessionStateEviction(t *testing.T) {
	f := newFixture(t)
	f.callCmd(t, "d2x_runtime_command_xbt", minic.IntVal(f.rip), minic.IntVal(f.rsp))
	if n := f.rt.LiveSessions(); n != 1 {
		t.Fatalf("live sessions after a command = %d, want 1", n)
	}
	f.rt.Release(f.vm)
	if n := f.rt.LiveSessions(); n != 0 {
		t.Errorf("live sessions after Release = %d, want 0", n)
	}
	f.rt.Release(f.vm) // idempotent
	if n := f.rt.LiveSessions(); n != 0 {
		t.Errorf("live sessions after double Release = %d, want 0", n)
	}
}

// TestSharedTablesSingleDecode: N sessions over one runtime share one
// table decode.
func TestSharedTablesSingleDecode(t *testing.T) {
	f := newFixture(t)
	if n := f.rt.TableDecodes(); n != 0 {
		t.Fatalf("decodes before any command = %d, want 0", n)
	}
	f.callCmd(t, "d2x_runtime_command_xbt", minic.IntVal(f.rip), minic.IntVal(f.rsp))

	// A second debuggee VM of the same program, served by the same runtime.
	vm2 := minic.NewVM(f.prog, nil)
	if err := vm2.Start(); err != nil {
		t.Fatal(err)
	}
	nat, _, _ := f.prog.Natives.Lookup("d2x_runtime_command_xbt")
	top := vm2.Threads()[0].Top()
	rip2 := dwarfish.EncodeAddr(dwarfish.Addr{FuncIndex: top.FuncIndex, PC: top.PC})
	if _, err := nat.Handler(&minic.NativeCall{VM: vm2, Thread: vm2.Threads()[0],
		Args: []minic.Value{minic.IntVal(rip2), minic.IntVal(int64(top.ID))}}); err != nil {
		t.Fatal(err)
	}
	if n := f.rt.TableDecodes(); n != 1 {
		t.Errorf("decodes after two sessions = %d, want 1", n)
	}
	if n := f.rt.LiveSessions(); n != 2 {
		t.Errorf("live sessions = %d, want 2", n)
	}
}

// TestSourceFileCacheBoundedAndReset is the regression test for the
// unbounded xlist source cache: insertion past the cap must evict the
// oldest entries, hits must not re-read, and swapping the resolver must
// drop everything cached under the old one.
func TestSourceFileCacheBoundedAndReset(t *testing.T) {
	rt := New()
	reads := map[string]int{}
	rt.SetFileResolver(func(path string) (string, error) {
		reads[path]++
		return "old\n", nil
	})
	const overflow = 8
	for i := 0; i < maxFileCacheEntries+overflow; i++ {
		if _, err := rt.sourceFile(fmt.Sprintf("f%03d.dsl", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(rt.fileCache); n != maxFileCacheEntries {
		t.Errorf("cache size after overflow = %d, want %d", n, maxFileCacheEntries)
	}
	if n := len(rt.fileOrder); n != maxFileCacheEntries {
		t.Errorf("eviction order length = %d, want %d", n, maxFileCacheEntries)
	}
	// A surviving entry is a hit: no second read through the resolver.
	if _, err := rt.sourceFile(fmt.Sprintf("f%03d.dsl", overflow)); err != nil {
		t.Fatal(err)
	}
	if got := reads[fmt.Sprintf("f%03d.dsl", overflow)]; got != 1 {
		t.Errorf("cached file read %d times, want 1", got)
	}
	// The oldest entries were evicted (FIFO): asking again re-reads.
	if _, err := rt.sourceFile("f000.dsl"); err != nil {
		t.Fatal(err)
	}
	if got := reads["f000.dsl"]; got != 2 {
		t.Errorf("evicted file read %d times, want 2", got)
	}
	// Replacing the resolver must drop the whole cache: content cached
	// under the old resolver must not be served for the new one.
	rt.SetFileResolver(func(path string) (string, error) {
		return "new\n", nil
	})
	lines, err := rt.sourceFile("f050.dsl")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 || lines[0] != "new" {
		t.Errorf("stale cache served across resolver change: %q", lines)
	}
}

// TestXBreakDedupesDuplicateGenLines is the regression test for the
// duplicate-emission bug: when a DSL line reaches one generated line
// through several D2X records (two sections covering the same generated
// line, as a macro expanded twice at one site produces), xbreak used to
// emit the same `break` command once per record, stacking duplicate
// breakpoints in the debugger that a single xdel could not fully remove.
func TestXBreakDedupesDuplicateGenLines(t *testing.T) {
	ctx := d2xc.NewContext()
	for i := 0; i < 2; i++ {
		if err := ctx.BeginSectionAt(2); err != nil {
			t.Fatal(err)
		}
		ctx.PushSourceLoc("p.dsl", 1)
		ctx.Nextl() // generated line 2: int v = 1;
		if err := ctx.EndSection(); err != nil {
			t.Fatal(err)
		}
	}
	var src strings.Builder
	src.WriteString(`func int main() {
	int v = 1;
	return v;
}
`)
	if err := d2xenc.EmitTables(ctx, &src); err != nil {
		t.Fatal(err)
	}
	nats := minic.NewNatives()
	rt := New()
	rt.Register(nats)
	prog, err := minic.Compile("gen.c", src.String(), nats)
	if err != nil {
		t.Fatalf("%v\n%s", err, src.String())
	}
	if err := rt.AttachDebugInfo(dwarfish.Build(prog).Encode()); err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	top := vm.Threads()[0].Top()
	rip := dwarfish.EncodeAddr(dwarfish.Addr{FuncIndex: top.FuncIndex, PC: top.PC})

	// Both records map p.dsl:1 to generated line 2.
	tables, err := rt.svc.Tables(vm)
	if err != nil {
		t.Fatal(err)
	}
	if gls := tables.AppendGenLinesForDSL(nil, "p.dsl", 1); len(gls) < 2 {
		t.Fatalf("fixture did not reproduce duplicate records: GenLines = %v", gls)
	}

	var out strings.Builder
	vm2 := minic.NewVM(prog, &out)
	if err := vm2.Start(); err != nil {
		t.Fatal(err)
	}
	nat, _, _ := nats.Lookup("d2x_runtime_command_xbreak")
	v, err := nat.Handler(&minic.NativeCall{VM: vm2, Thread: vm2.Threads()[0],
		Args: []minic.Value{minic.IntVal(rip), minic.StrVal("p.dsl:1")}})
	if err != nil {
		t.Fatal(err)
	}
	if v.S() != "break gen.c:2" {
		t.Errorf("xbreak commands = %q, want one deduplicated break", v.S())
	}
	if !strings.Contains(out.String(), "Inserting 1 breakpoints with ID: #1") {
		t.Errorf("xbreak banner:\n%s", out.String())
	}
	out.Reset()
	natDel, _, _ := nats.Lookup("d2x_runtime_command_xdel")
	v, err = natDel.Handler(&minic.NativeCall{VM: vm2, Thread: vm2.Threads()[0],
		Args: []minic.Value{minic.StrVal("#1")}})
	if err != nil {
		t.Fatal(err)
	}
	if v.S() != "clear gen.c:2" {
		t.Errorf("xdel commands = %q, want one deduplicated clear", v.S())
	}
}

// TestSecondAttachRejected: a runtime is linked into one build, so a
// second AttachDebugInfo must fail and leave everything as it was — the
// attached debug info, the session's state and breakpoints, the shared
// decode, and the bytes xbt renders.
func TestSecondAttachRejected(t *testing.T) {
	f := newFixture(t)
	f.callCmd(t, "d2x_runtime_command_xbreak", minic.IntVal(f.rip), minic.StrVal("prog.dsl:2"))
	f.out.Reset()
	f.callCmd(t, "d2x_runtime_command_xbt", minic.IntVal(f.rip), minic.IntVal(f.rsp))
	want := f.out.String()
	if want == "" {
		t.Fatal("xbt produced no output before the second attach")
	}
	info, st, decodes := f.rt.Info(), f.rt.StateFor(f.vm), f.rt.TableDecodes()

	err := f.rt.AttachDebugInfo(dwarfish.Build(f.prog).Encode())
	if err == nil || !strings.Contains(err.Error(), "already attached") {
		t.Fatalf("second AttachDebugInfo: err = %v, want an already-attached error", err)
	}
	if f.rt.Info() != info {
		t.Error("second attach replaced the debug info")
	}
	if f.rt.StateFor(f.vm) != st || len(st.XBPs) != 1 || !st.HaveRIP {
		t.Errorf("second attach disturbed the session state: %+v", st)
	}

	f.out.Reset()
	f.callCmd(t, "d2x_runtime_command_xbt", minic.IntVal(f.rip), minic.IntVal(f.rsp))
	if got := f.out.String(); got != want {
		t.Errorf("xbt after the second attach = %q, want %q", got, want)
	}
	if n := f.rt.TableDecodes(); n != decodes {
		t.Errorf("decodes after the second attach = %d, want %d", n, decodes)
	}
}
