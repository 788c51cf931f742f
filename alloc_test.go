package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"d2x/internal/d2x/wire"
	"d2x/internal/debugger"
	"d2x/internal/graphit"
	"d2x/internal/minic"
	"d2x/internal/minic/journal"
)

// Steady-state allocation budgets for the hot D2X-R command path. These
// are ceilings, not measurements: each budget sits a little above what
// the path allocates today so runtime-internal noise (a map rehash, a
// pool refill after GC) cannot flake the test, while any real regression
// — a fmt call is ≥3 allocations, a dropped pool is dozens — trips it
// immediately. They run beside the paired timing gates in gates_test.go,
// so a change can't trade allocations for latency unnoticed.
const (
	// xbtAllocBudget bounds one `xbt` after warmup. Measured at the
	// time of writing: 0 allocs/op — stage 1+2 resolve through the
	// fused index, the backtrace renders into a pooled []byte, and the
	// debuggee write path reuses the session's output buffer. The
	// slack of 4 is deliberate (ISSUE PR5): it absorbs GC-timing noise
	// without admitting even a single formatted string per frame.
	xbtAllocBudget = 4

	// xframeAllocBudget bounds one `xframe 1` after warmup. Measured:
	// 0 allocs/op — same render path as xbt, one frame instead of all.
	xframeAllocBudget = 4

	// xbreakAllocBudget bounds one xbreak+xdel round trip. Measured:
	// 4 allocs/op (down from 8: the break/clear scripts now come from
	// the session's plan cache instead of being re-rendered, the xdel
	// macro memoises its last substitution so a repeated delete line
	// costs no new string, and the debugger recycles *Breakpoint
	// objects through a freelist instead of allocating per install).
	// The remainder is semantic, not waste: the per-ID command lines
	// the macro substitutions materialise and the expression-cache miss
	// the unique xdel line forces by construction.
	xbreakAllocBudget = 6

	// vmLoopAllocBudget bounds the allocations of one VM instruction in
	// a loop that makes no calls: loads, stores, arithmetic and jumps
	// work on the frame's preallocated operand stack. Measured: 0.
	vmLoopAllocBudget = 0

	// vmNativeCallAllocBudget bounds one OpCallNative to an
	// allocation-free native: the arguments are a window on the
	// caller's operand stack and the NativeCall comes from the VM's
	// freelist. Measured: 0.
	vmNativeCallAllocBudget = 0

	// vmCallAllocBudget bounds one OpCall of a function whose frames
	// the VM recycles: the callee reuses a returned frame, and the
	// arguments are read in place from the caller's stack. Measured: 0.
	vmCallAllocBudget = 0

	// vmAddrCallAllocBudget bounds one OpCall of a function that takes
	// a local's address, whose frames are never recycled: the Frame, its
	// slot cells, one array allocated with the frame, and its operand
	// stack, which is sized once from FuncCode.MaxStack. Measured: 3.
	vmAddrCallAllocBudget = 3

	// parForAllocBudget bounds one call of a function whose parallel_for
	// runs on 4 workers, each of which runs every index of its range in
	// one helper frame. It holds for 64 indices and for 4,096 alike:
	// a parallel_for allocates per worker, not per index. Measured: 18 —
	// the call's root thread and frame stack; the called function's
	// frame, slot cells and operand stack, since it runs a parallel_for;
	// the capture list; and per worker its thread, range and frame
	// stack. The helper frames come from the VM's free list.
	parForAllocBudget = 18

	// sourceLineAllocBudget bounds one Program.SourceLine, which every
	// breakpoint stop calls to print the stop line. Measured: 0.
	sourceLineAllocBudget = 0

	// journalRecordAllocBudget bounds what a journal adds to one
	// recorded VM instruction. A statement record is a slot in a pooled
	// 4096-record chunk, so recording allocates one chunk every few
	// thousand statements and nothing per statement. Measured: 0.
	// TestGateRecording collects before each side, so it sees the cost
	// of an allocation but not the GC cycles its garbage brings on; this
	// budget holds the allocations themselves.
	journalRecordAllocBudget = 0

	// synthCallAllocBudget bounds one CallFunctionGuarded of a small
	// handler, a loop over its locals that reads a global, with no
	// guard, with fuel, and with fuel and the write barrier. Measured:
	// 2 — the synthetic root thread and its frame stack. The handler
	// reuses a returned frame, since its loop counter's ++ loads and
	// stores the local without taking its address, and the call's
	// scheduler comes from the VM's freelist.
	synthCallAllocBudget = 2

	// snapshotShareBudget bounds the bytes a second TakeSnapshot of a
	// paused PageRankDelta allocates, as a share of the first's: nothing
	// ran in between, so the second shares every array with the first
	// and copies only the globals, the threads and their frames.
	// Measured: 0.09 (9,208 of 99,136 bytes).
	snapshotShareBudget = 0.25

	// wireXBTAllocBudget bounds one xbt round trip's codec work: an xbt
	// request and its response encoded through one wire.Encoder and
	// decoded through one wire.Decoder. Measured: 4 — the request's
	// Frame, and the response's Frame, Body and output string; the
	// encoder appends into a buffer it keeps, and the type and command
	// strings decode to the package constants. encoding/json took 21.
	// This budget may only go down.
	wireXBTAllocBudget = 4

	// wireBatchAllocBudget bounds the same for an 8-command batch and its
	// response. Measured: 27 — per frame the Frame, its Args or Body and
	// the four backing arrays a slice of 8 grows through, plus the five
	// sub-commands' Args, their two argument strings longer than one
	// byte, and the eight results' outputs. encoding/json took 66. This
	// budget may only go down.
	wireBatchAllocBudget = 27
)

func measureAllocs(t *testing.T, runs int, f func() error) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector's runtime")
	}
	// Warm pools, caches and the fused index outside the measurement.
	for i := 0; i < 3; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	avg := testing.AllocsPerRun(runs, func() {
		if e := f(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return avg
}

// TestXBTAllocSteadyState holds xbt's budget in a build's only session
// and in the second session of a shared build, which reuses the first
// session's table decode.
func TestXBTAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		session func(t *testing.T) *debugger.Debugger
	}{
		{"fig4", func(t *testing.T) *debugger.Debugger {
			d, _ := pausedPagerankDelta(t, "powerlaw:n=64,m=512,seed=5")
			return d
		}},
		{"second_session", func(t *testing.T) *debugger.Debugger {
			build := pagerankBuild(t)
			mustExec(t, pausedSession(t, build), "xbt") // the shared decode
			return pausedSession(t, build)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.session(t)
			avg := measureAllocs(t, 200, func() error { return d.Execute("xbt") })
			if avg > xbtAllocBudget {
				t.Errorf("xbt steady state = %.1f allocs/op, budget %d", avg, xbtAllocBudget)
			}
		})
	}
}

func TestXFrameAllocSteadyState(t *testing.T) {
	d, _ := pausedPagerankDelta(t, "powerlaw:n=64,m=512,seed=5")
	mustExec(t, d, "xbt") // xframe needs a remembered rip
	avg := measureAllocs(t, 200, func() error { return d.Execute("xframe 1") })
	if avg > xframeAllocBudget {
		t.Errorf("xframe steady state = %.1f allocs/op, budget %d", avg, xframeAllocBudget)
	}
}

func TestXBreakAllocSteadyState(t *testing.T) {
	d, _ := pausedPagerankDelta(t, "powerlaw:n=64,m=512,seed=5")
	dslLine := lineOf(graphit.PageRankDeltaSrc, "new_rank[dst] +=")
	xbreakCmd := fmt.Sprintf("xbreak pagerankdelta.gt:%d", dslLine)
	// Build the per-round xdel command with strconv so the harness adds
	// one string to the op (the unique command line, which is intrinsic)
	// rather than fmt's boxing as well.
	id := 0
	scratch := make([]byte, 0, 16)
	avg := measureAllocs(t, 100, func() error {
		id++
		if err := d.Execute(xbreakCmd); err != nil {
			return err
		}
		scratch = append(scratch[:0], "xdel "...)
		scratch = strconv.AppendInt(scratch, int64(id), 10)
		return d.Execute(string(scratch))
	})
	if avg > xbreakAllocBudget {
		t.Errorf("xbreak+xdel steady state = %.1f allocs/op, budget %d", avg, xbreakAllocBudget)
	}
}

// TestConcurrentSessionsSharedRenderPath runs 8 debug sessions of the
// same build concurrently, each hammering the pooled render buffers, the
// shared table decode and the fused resolution index. Run under -race
// (CI does) this is the data-race check for everything the sessions
// share; run without it, it still exercises the pool round-trip under
// contention.
func TestConcurrentSessionsSharedRenderPath(t *testing.T) {
	build := pagerankBuild(t)
	udfLine := lineOf(build.Source, "atomic_add(&new_rank[dst]")
	dslLine := lineOf(graphit.PageRankDeltaSrc, "new_rank[dst] +=")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sink strings.Builder
			d, err := build.NewSession(&sink)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			cmds := []string{fmt.Sprintf("break pagerankdelta.c:%d", udfLine), "run"}
			for j := 0; j < 25; j++ {
				cmds = append(cmds, "xbt", "xframe 1",
					fmt.Sprintf("xbreak pagerankdelta.gt:%d", dslLine),
					fmt.Sprintf("xdel %d", j+1))
			}
			for _, c := range cmds {
				if err := d.Execute(c); err != nil {
					t.Errorf("session %d: command %q: %v", i, c, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// loopVM starts a VM on a program whose main loop runs body far longer
// than any measurement, and warms it past the first iterations.
func loopVM(t *testing.T, decls, body string) *minic.VM {
	t.Helper()
	prog, err := minic.Compile("loop.c", `
global int acc = 0;
global int calls = 0;
`+decls+`
func int main() {
	for (int i = 0; i < 100000000; i++) {
		`+body+`
	}
	return acc;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		vm.StepInstr()
	}
	return vm
}

// vmAllocsPer runs vm in blocks of 10000 instructions and returns the
// allocations per unit, units being a counter the program advances.
func vmAllocsPer(t *testing.T, vm *minic.VM, units func() int64) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector's runtime")
	}
	const block, runs = 10000, 20
	u0 := units()
	perBlock := testing.AllocsPerRun(runs, func() {
		for i := 0; i < block; i++ {
			vm.StepInstr()
		}
	})
	if vm.Done() {
		t.Fatal("the loop finished during the measurement")
	}
	// AllocsPerRun runs the block once more, unmeasured, to warm up.
	return perBlock / (float64(units()-u0) / (runs + 1))
}

func TestVMLoopAllocs(t *testing.T) {
	vm := loopVM(t, "", "acc = acc + i * 3 - (i / 2);")
	avg := vmAllocsPer(t, vm, func() int64 { return vm.Steps })
	if avg > vmLoopAllocBudget {
		t.Errorf("call-free loop = %.4f allocs/instruction, budget %d", avg, vmLoopAllocBudget)
	}
}

func TestVMNativeCallAllocs(t *testing.T) {
	vm := loopVM(t, "", "acc = acc + min_int(i, 7); calls = calls + 1;")
	calls := vm.GlobalCell("calls")
	avg := vmAllocsPer(t, vm, func() int64 { return calls.V.I })
	if avg > vmNativeCallAllocBudget {
		t.Errorf("OpCallNative = %.2f allocs/call, budget %d", avg, vmNativeCallAllocBudget)
	}
}

func TestVMCallAllocs(t *testing.T) {
	vm := loopVM(t, `
func int scaled(int x, int k) {
	int y = x * k;
	calls = calls + 1;
	return y + 1;
}`, "acc = acc + scaled(i, 3);")
	calls := vm.GlobalCell("calls")
	avg := vmAllocsPer(t, vm, func() int64 { return calls.V.I })
	if avg > vmCallAllocBudget {
		t.Errorf("OpCall = %.2f allocs/call, budget %d (the callee reuses a returned frame)", avg, vmCallAllocBudget)
	}
}

func TestVMAddrCallAllocs(t *testing.T) {
	vm := loopVM(t, `
func int viaPtr(int x) {
	int y = x * 3;
	int* p = &y;
	calls = calls + 1;
	return *p + 1;
}`, "acc = acc + viaPtr(i);")
	calls := vm.GlobalCell("calls")
	avg := vmAllocsPer(t, vm, func() int64 { return calls.V.I })
	if avg > vmAddrCallAllocBudget {
		t.Errorf("OpCall = %.2f allocs/call, budget %d (the callee frame's own objects)", avg, vmAddrCallAllocBudget)
	}
	if avg < 1 {
		t.Errorf("OpCall = %.2f allocs/call: the frames of a callee that takes a local's address must not be recycled", avg)
	}
}

// TestParForAllocs holds parForAllocBudget for a parallel_for over 64
// and over 4,096 indices, and requires both to allocate the same.
func TestParForAllocs(t *testing.T) {
	prog, err := minic.Compile("parfor.c", `
global int total = 0;
func int spread(int n) {
	int sum = 0;
	parallel_for (int i = 0; i < n; i++) {
		int sq = i * i;
		atomic_add(&sum, sq % 7);
	}
	total = total + sum;
	return sum;
}
func int main() { return spread(8); }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	per := map[int64]float64{}
	for _, n := range []int64{64, 4096} {
		args := []minic.Value{minic.IntVal(n)}
		per[n] = measureAllocs(t, 20, func() error {
			_, err := vm.CallFunction("spread", args)
			return err
		})
		if per[n] > parForAllocBudget {
			t.Errorf("parallel_for over %d indices = %.1f allocs/call, budget %d", n, per[n], parForAllocBudget)
		}
	}
	if per[64] != per[4096] {
		t.Errorf("parallel_for = %.1f allocs over 64 indices, %.1f over 4096: it allocates per index", per[64], per[4096])
	}
}

func TestJournalRecordAllocs(t *testing.T) {
	vm := loopVM(t, "", "acc = acc + i * 3 - (i / 2);")
	j, err := journal.Attach(vm, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	avg := vmAllocsPer(t, vm, func() int64 { return vm.Steps })
	if avg > journalRecordAllocBudget {
		t.Errorf("recorded call-free loop = %.4f allocs/instruction, budget %d", avg, journalRecordAllocBudget)
	}
}

func TestSourceLineAllocs(t *testing.T) {
	d, _ := pausedPagerankDelta(t, "powerlaw:n=64,m=512,seed=5")
	prog, line := d.Process().VM.Prog, d.SelectedFrame().Line()
	avg := measureAllocs(t, 200, func() error {
		if !strings.Contains(prog.SourceLine(line), "atomic_add") {
			return fmt.Errorf("SourceLine(%d) = %q, not the stop line", line, prog.SourceLine(line))
		}
		return nil
	})
	if avg > sourceLineAllocBudget {
		t.Errorf("SourceLine = %.1f allocs/op, budget %d", avg, sourceLineAllocBudget)
	}
}

// TestSynthCallAllocs holds a debugger `call`'s allocations: the paused
// debuggee calls a handler synchronously, as D2X-R does for every
// rtv_handler and the debugger for every implicit evaluation.
func TestSynthCallAllocs(t *testing.T) {
	prog, err := minic.Compile("handler.c", `
global int g = 3;
func int handler(int x) {
	int s = 0;
	for (int i = 0; i < 10; i++) {
		s = s + i * x;
	}
	return s + g;
}
func int main() { return 0; }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	args := []minic.Value{minic.IntVal(2)}
	for _, c := range []struct {
		name  string
		guard *minic.Guard
	}{
		{"no guard", nil},
		{"fuel", &minic.Guard{Fuel: 1000}},
		{"fuel and barrier", &minic.Guard{Fuel: 1000, BlockWrites: true}},
	} {
		avg := measureAllocs(t, 200, func() error {
			v, err := vm.CallFunctionGuarded("handler", args, c.guard)
			if err != nil {
				return err
			}
			if v.I != 93 {
				return fmt.Errorf("handler(2) = %d, want 93", v.I)
			}
			return nil
		})
		if avg > synthCallAllocBudget {
			t.Errorf("%s: CallFunctionGuarded = %.2f allocs/call, budget %d", c.name, avg, synthCallAllocBudget)
		}
	}
}

// TestSnapshotSharesUnchangedArraysBytes holds what a snapshot of an
// unchanged debuggee costs once the VM has taken one.
func TestSnapshotSharesUnchangedArraysBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector's runtime")
	}
	d, _ := pausedPagerankDelta(t, "powerlaw:n=64,m=512,seed=5")
	vm := d.Process().VM
	bytesOf := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_ = vm.TakeSnapshot()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	first := bytesOf()
	second := bytesOf()
	t.Logf("first snapshot %d bytes, second %d", first, second)
	if float64(second) > snapshotShareBudget*float64(first) {
		t.Errorf("second snapshot allocated %d bytes, more than %.2f of the first's %d", second, snapshotShareBudget, first)
	}
}

// TestWireCodecAllocs holds the wire codec's allocations per round trip:
// each run encodes a request and its response through one Encoder and
// decodes both through one Decoder, for xbt and for an 8-command batch.
// The outputs are the commands' real transcripts in a paused session.
func TestWireCodecAllocs(t *testing.T) {
	build := pagerankBuild(t)
	var out bytes.Buffer
	d, err := build.NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	udfLine := lineOf(build.Source, "atomic_add(&new_rank[dst]")
	mustExec(t, d, fmt.Sprintf("break pagerankdelta.c:%d", udfLine), "run")
	transcript := func(cmd string) string {
		out.Reset()
		mustExec(t, d, cmd)
		return out.String()
	}
	xbtReq := wire.Request(4, wire.CmdXBT, nil)
	xbtResp := wire.Response(9, xbtReq, &wire.Body{Output: transcript("xbt")})

	dslLine := lineOf(graphit.PageRankDeltaSrc, "new_rank[dst] +=")
	cmds := []struct{ cmd, spec, name string }{
		{cmd: wire.CmdXBT}, {cmd: wire.CmdXFrame, spec: "0"}, {cmd: wire.CmdXFrame, spec: "1"},
		{cmd: wire.CmdXList}, {cmd: wire.CmdXVars}, {cmd: wire.CmdXVars, name: "schedule"},
		{cmd: wire.CmdXBreak, spec: fmt.Sprintf("pagerankdelta.gt:%d", dslLine)}, {cmd: wire.CmdXDel, spec: "1"},
	}
	subs := make([]wire.SubRequest, len(cmds))
	results := make([]wire.SubResult, len(cmds))
	for i, c := range cmds {
		line := strings.TrimSpace(c.cmd + " " + c.spec + c.name)
		subs[i].Command = c.cmd
		if c.spec != "" || c.name != "" {
			subs[i].Arguments = &wire.Args{Spec: c.spec, Name: c.name}
		}
		results[i] = wire.SubResult{Success: true, Output: transcript(line)}
	}
	batchReq := wire.Request(5, wire.CmdBatch, &wire.Args{Batch: subs})
	batchResp := wire.Response(10, batchReq, &wire.Body{Results: results})

	for _, tc := range []struct {
		name      string
		req, resp *wire.Frame
		budget    int
	}{
		{"xbt", xbtReq, xbtResp, wireXBTAllocBudget},
		{"batch8", batchReq, batchResp, wireBatchAllocBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var conn bytes.Buffer
			enc, dec := wire.NewEncoder(&conn), wire.NewDecoder(&conn)
			avg := measureAllocs(t, 200, func() error {
				for _, f := range []*wire.Frame{tc.req, tc.resp} {
					if err := enc.Encode(f); err != nil {
						return err
					}
				}
				for range 2 {
					if _, err := dec.Decode(); err != nil {
						return err
					}
				}
				return nil
			})
			t.Logf("%s round trip: %.1f allocs", tc.name, avg)
			if avg > float64(tc.budget) {
				t.Errorf("%s round trip through the codec = %.1f allocs, budget %d", tc.name, avg, tc.budget)
			}
		})
	}
}
