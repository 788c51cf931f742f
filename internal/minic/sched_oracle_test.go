package minic_test

import (
	"testing"

	"d2x/internal/examplebuilds"
	"d2x/internal/minic"
	"d2x/internal/progen"
)

// Scheduler oracle. The run queue must choose exactly the thread the old
// scan over every scheduled thread chose, and leave the same cursor
// behind, at every step. TestSchedulerDeterminism cannot see a
// reordering — it compares two VMs running the same scheduler — so these
// tests compare the scheduler against refSchedule, the old scan, on the
// state the scheduler itself produced.

// refSchedule is the O(threads) round-robin scan the run queue
// replaced: the first ready thread at or after the cursor in program
// order, wrapping around, and the cursor StepInstr leaves behind after
// running it. The thread is nil when nothing is ready.
func refSchedule(vm *minic.VM) (*minic.Thread, int) {
	threads := vm.Threads()
	n := len(threads)
	for off := 0; off < n; off++ {
		idx := (vm.SchedCursor() + off) % n
		if t := threads[idx]; t.State == minic.ThreadReady {
			return t, (idx + 1) % n
		}
	}
	return nil, vm.SchedCursor()
}

// refDone and refFaulted are the scans Done and Faulted replaced.
func refDone(vm *minic.VM) bool {
	for _, t := range vm.Threads() {
		if t.State == minic.ThreadReady || t.State == minic.ThreadWaiting {
			return false
		}
	}
	return true
}

func refFaulted(vm *minic.VM) *minic.Thread {
	for _, t := range vm.Threads() {
		if t.State == minic.ThreadFaulted {
			return t
		}
	}
	return nil
}

// checkedSteps drives vm for up to max steps (0: until nothing is
// runnable), comparing every pick against the reference scan. Even steps
// run through StepInstr. Odd ones run through RunUntil's loop, one
// instruction at a time, unless a thread has faulted, since RunUntil
// stops at a fault; the cursor it leaves names the thread that ran. It
// returns the number of steps run.
func checkedSteps(t *testing.T, vm *minic.VM, max int) int {
	t.Helper()
	for step := 0; max == 0 || step < max; step++ {
		want, wantIdx := refSchedule(vm)
		if got, ref := vm.Done(), refDone(vm); got != ref {
			t.Fatalf("step %d: Done() = %v, reference %v", step, got, ref)
		}
		if got, ref := vm.Faulted(), refFaulted(vm); got != ref {
			t.Fatalf("step %d: Faulted() = %v, reference %v", step, threadID(got), threadID(ref))
		}
		if got := vm.NextThread(); got != want {
			t.Fatalf("step %d: NextThread() = thread %d, reference thread %d", step, threadID(got), threadID(want))
		}
		if step%2 == 1 && vm.Faulted() == nil {
			n := vm.RunUntil(1, nil)
			if want == nil {
				if n != 0 {
					t.Fatalf("step %d: RunUntil ran %d instructions with nothing ready", step, n)
				}
				return step
			}
			if n != 1 {
				t.Fatalf("step %d: RunUntil(1) ran %d instructions, reference thread %d", step, n, want.ID)
			}
		} else {
			ran := vm.StepInstr()
			if ran != want {
				t.Fatalf("step %d: StepInstr ran thread %d, reference thread %d", step, threadID(ran), threadID(want))
			}
			if ran == nil {
				return step
			}
		}
		if got := vm.SchedCursor(); got != wantIdx {
			t.Fatalf("step %d: cursor = %d after thread %d, reference %d", step, got, want.ID, wantIdx)
		}
	}
	return max
}

func threadID(t *minic.Thread) int {
	if t == nil {
		return -1
	}
	return t.ID
}

func startOracleVM(t *testing.T, src string) *minic.VM {
	t.Helper()
	prog, err := minic.Compile("oracle.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	return vm
}

const nestedParFor = `
global int total = 0;
func int main() {
	parallel_for (int i = 0; i < 37; i++) {
		parallel_for (int j = 0; j < 5; j++) {
			atomic_add(&total, i * j);
		}
	}
	parallel_for (int k = 0; k < 3; k++) {
		atomic_add(&total, k);
	}
	printf("%d\n", total);
	return 0;
}`

func TestSchedulerOracleNestedParallelFor(t *testing.T) {
	vm := startOracleVM(t, nestedParFor)
	checkedSteps(t, vm, 0)
	if !vm.Done() || vm.Faulted() != nil {
		t.Fatalf("nested parallel_for did not finish cleanly")
	}
	if got := vm.GlobalCell("total").V.I; got != 666*10+3 {
		t.Fatalf("total = %d, want %d", got, 666*10+3)
	}
}

// TestSchedulerOracleWorkerFault faults two workers of one parallel_for,
// the later-spawned one first, and keeps stepping the survivors: the
// faulted workers leave the run queue, the parent waits forever, and
// Faulted reports the first faulted thread in program order, not the
// first to fault.
func TestSchedulerOracleWorkerFault(t *testing.T) {
	vm := startOracleVM(t, `
global int total = 0;
func int main() {
	parallel_for (int i = 0; i < 20; i++) {
		int d = 1;
		if (i == 9 || i == 10) {
			d = 0;
		}
		atomic_add(&total, 100 / d);
	}
	return total;
}`)
	checkedSteps(t, vm, 0)
	ft := vm.Faulted()
	if ft == nil || vm.Done() {
		t.Fatalf("expected a fault and a blocked parent, got fault %v done %v", threadID(ft), vm.Done())
	}
	var faulted []*minic.Thread
	for _, th := range vm.Threads() {
		if th.State == minic.ThreadFaulted {
			faulted = append(faulted, th)
		}
	}
	if len(faulted) != 2 || ft != faulted[0] {
		t.Fatalf("faulted threads %d, Faulted() = thread %d; want two, the first in program order", len(faulted), threadID(ft))
	}
}

// TestSchedulerOracleSnapshotMidParallelFor restores a snapshot taken
// while the workers of a nested parallel_for are live and checks the
// rebuilt run queue against the reference on the way to the end, twice,
// once right after a NextThread query at a later state.
func TestSchedulerOracleSnapshotMidParallelFor(t *testing.T) {
	total := checkedSteps(t, startOracleVM(t, nestedParFor), 0)
	vm := startOracleVM(t, nestedParFor)
	checkedSteps(t, vm, total/2)
	live := 0
	for _, th := range vm.Threads() {
		if th.State == minic.ThreadReady || th.State == minic.ThreadWaiting {
			live++
		}
	}
	if live < 3 {
		t.Fatalf("%d unfinished threads halfway through; the snapshot should land mid fan-out", live)
	}
	snap := vm.TakeSnapshot()
	for i := 0; i < 2; i++ {
		if err := vm.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		checkedSteps(t, vm, total/4+1)
		// A query before a restore must not leak into the restored state.
		if vm.NextThread() == nil {
			t.Fatal("nothing runnable three quarters of the way through")
		}
		if err := vm.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if rest := checkedSteps(t, vm, 0); rest != total-total/2 {
			t.Fatalf("the run from the snapshot took %d steps, want %d", rest, total-total/2)
		}
	}
}

func TestSchedulerOracleExampleBuilds(t *testing.T) {
	for _, name := range examplebuilds.Names() {
		b, err := examplebuilds.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vm := minic.NewVM(b.Program, nil)
		if err := vm.Start(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkedSteps(t, vm, 0)
		if !vm.Done() || vm.Faulted() != nil {
			t.Fatalf("%s: did not run to completion", name)
		}
	}
}

func TestSchedulerOracleProgenCorpus(t *testing.T) {
	for i := 0; i < 40; i++ {
		spec := progen.Generate(1, i)
		p, err := progen.Render(spec)
		if err != nil {
			t.Fatalf("%s: render: %v", spec.Name(), err)
		}
		b, err := p.Build(false)
		if err != nil {
			t.Fatalf("%s: build: %v", spec.Name(), err)
		}
		vm := minic.NewVM(b.Program, nil)
		if err := vm.Start(); err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		checkedSteps(t, vm, 0)
	}
}

// racyCallee's parallel_for workers race on x, so its result depends on
// the exact interleaving: 92962 with 2 or 3 workers, 563 with 4.
const racyCallee = `
global int x = 1;
func int f() {
	parallel_for (int i = 0; i < 4; i++) {
		if (i == 3) {
			parallel_for (int j = 0; j < 4; j++) { x = x * 3 + j; x = x % 1000003; }
		} else {
			x = x * 5 + i; x = x % 1000003; x = x * 7 + i; x = x % 1000003; x = x * 11 + i; x = x % 1000003;
		}
	}
	return x;
}
func int main() { return f(); }`

// TestCallMatchesRun is the differential oracle for synthetic calls. A
// debugger `call` runs generated code in the paused debuggee, so it must
// interleave its threads exactly as the program's own run does: f called
// on a started VM must return what main's call of f returns and leave
// every global the same, racy parallel_for included.
func TestCallMatchesRun(t *testing.T) {
	for _, c := range []struct {
		name    string
		src     string
		workers []int
		want    map[int]int64 // f's result in the program's run, by workers
	}{
		{"racy nested parallel_for", racyCallee, []int{2, 3, 4}, map[int]int64{2: 92962, 3: 92962, 4: 563}},
		{"atomic nested parallel_for", `
global int total = 0;
global int racy = 0;
func int f() {
	parallel_for (int i = 0; i < 7; i++) {
		parallel_for (int j = 0; j < 3; j++) {
			atomic_add(&total, i * j);
			racy = racy * 3 + i - j;
		}
	}
	return total * 1000 + racy % 1000;
}
func int main() { return f(); }`, []int{1, 2, 3, 4}, nil},
		{"serial calls", `
global int n = 0;
func int sq(int v) { n = n + 1; return v * v; }
func int f() {
	int s = 0;
	for (int i = 0; i < 20; i++) { s = s + sq(i); }
	return s + n;
}
func int main() { return f(); }`, []int{4}, map[int]int64{4: 2490}},
	} {
		prog, err := minic.Compile("call.c", c.src, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range c.workers {
			run := minic.NewVM(prog, nil)
			run.NumWorkers = w
			if err := run.Run(); err != nil {
				t.Fatalf("%s, %d workers: run: %v", c.name, w, err)
			}
			want := run.Threads()[0].Result

			call := minic.NewVM(prog, nil)
			call.NumWorkers = w
			if err := call.Start(); err != nil {
				t.Fatal(err)
			}
			got, err := call.CallFunction("f", nil)
			if err != nil {
				t.Fatalf("%s, %d workers: call: %v", c.name, w, err)
			}
			if !minic.ValuesEqual(got, want) {
				t.Errorf("%s, %d workers: call f() = %s, the program's run returns %s", c.name, w, minic.FormatValue(got), minic.FormatValue(want))
			}
			if v, ok := c.want[w]; ok && want.I != v {
				t.Errorf("%s, %d workers: the program's run returns %d, want %d", c.name, w, want.I, v)
			}
			for i, g := range prog.Globals {
				if a, b := run.Globals[i].V, call.Globals[i].V; !minic.ValuesEqual(a, b) {
					t.Errorf("%s, %d workers: global %s = %s after the call, %s after the run", c.name, w, g.Name, minic.FormatValue(b), minic.FormatValue(a))
				}
			}
		}
	}
}
