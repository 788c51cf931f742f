package bench

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

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
	// slot pointers, its slot cells and its operand stack, which is
	// sized once from FuncCode.MaxStack. Measured: 4.
	vmAddrCallAllocBudget = 4

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
