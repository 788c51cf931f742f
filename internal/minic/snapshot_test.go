package minic

import (
	"strings"
	"testing"
)

// snapshotProgram exercises every object-graph shape the copier must
// preserve: globals, arrays, structs, pointers into array interiors and
// struct fields, parallel_for captures, and multi-frame call stacks.
const snapshotProgram = `
struct point { int x; int y; }
global int checksum = 0;
func int weigh(int[] data, point* p, int round) {
	int acc = p->x + p->y;
	for (int i = 0; i < len(data); i++) {
		acc += data[i] * round;
	}
	return acc;
}
func int main() {
	int[] data = new int[16];
	point* p = new point;
	int* alias = &data[3];
	parallel_for (int i = 0; i < 16; i++) {
		data[i] = i * 3;
	}
	for (int round = 0; round < 24; round++) {
		p->x = round;
		p->y = *alias;
		*alias = *alias + 1;
		checksum = checksum + weigh(data, p, round);
		printf("round %d: %d\n", round, checksum);
	}
	printf("done %d\n", checksum);
	return 0;
}`

func compileForTest(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Compile("test.c", src, nil)
	if err != nil {
		t.Fatalf("compile failed: %v", err)
	}
	return prog
}

// TestSnapshotRestoreReplaysIdentically pauses a run at several points,
// snapshots, finishes the run, then restores and re-runs — the replayed
// tail of the output and the final state must match the forward run
// byte for byte.
func TestSnapshotRestoreReplaysIdentically(t *testing.T) {
	prog := compileForTest(t, snapshotProgram)
	for _, pause := range []int{0, 1, 7, 50, 333, 1000} {
		var fwd strings.Builder
		vm := NewVM(prog, &fwd)
		if err := vm.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		for i := 0; i < pause; i++ {
			if vm.StepInstr() == nil {
				break
			}
		}
		snap := vm.TakeSnapshot()
		prefixLen := len(fwd.String())
		if err := vm.RunToCompletion(0); err != nil {
			t.Fatalf("forward run (pause %d): %v", pause, err)
		}
		wantTail := fwd.String()[prefixLen:]
		wantSum := vm.GlobalCell("checksum").V.I
		wantSteps := vm.Steps

		var replay strings.Builder
		if err := vm.RestoreSnapshot(snap); err != nil {
			t.Fatalf("restore (pause %d): %v", pause, err)
		}
		vm.Output = &replay
		if err := vm.RunToCompletion(0); err != nil {
			t.Fatalf("replay run (pause %d): %v", pause, err)
		}
		if got := replay.String(); got != wantTail {
			t.Errorf("pause %d: replayed output diverged:\n got %q\nwant %q", pause, got, wantTail)
		}
		if got := vm.GlobalCell("checksum").V.I; got != wantSum {
			t.Errorf("pause %d: checksum = %d after replay, want %d", pause, got, wantSum)
		}
		if vm.Steps != wantSteps {
			t.Errorf("pause %d: Steps = %d after replay, want %d", pause, vm.Steps, wantSteps)
		}
	}
}

// TestSnapshotIsIsolated checks a snapshot is a deep copy: running the VM
// past the snapshot point must not disturb it, and one snapshot restores
// correctly more than once.
func TestSnapshotIsIsolated(t *testing.T) {
	prog := compileForTest(t, snapshotProgram)
	var out strings.Builder
	vm := NewVM(prog, &out)
	if err := vm.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	for i := 0; i < 200; i++ {
		vm.StepInstr()
	}
	snap := vm.TakeSnapshot()
	prefixLen := len(out.String())
	if err := vm.RunToCompletion(0); err != nil {
		t.Fatalf("forward: %v", err)
	}
	wantTail := out.String()[prefixLen:]

	for round := 0; round < 2; round++ {
		var replay strings.Builder
		if err := vm.RestoreSnapshot(snap); err != nil {
			t.Fatalf("restore %d: %v", round, err)
		}
		vm.Output = &replay
		if err := vm.RunToCompletion(0); err != nil {
			t.Fatalf("replay %d: %v", round, err)
		}
		if replay.String() != wantTail {
			t.Errorf("restore %d: output diverged from forward run", round)
		}
	}
}

// TestSnapshotPreservesAliasing restores mid-loop — while `alias` points
// into data[3] and the struct holds values derived through it — and
// checks a write through the restored pointer is visible through the
// restored array, i.e. interior pointers were translated to the copied
// container, not to detached duplicates.
func TestSnapshotPreservesAliasing(t *testing.T) {
	prog := compileForTest(t, snapshotProgram)
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Run until main's alias slot is populated.
	mainT := vm.Threads()[0]
	var aliasCell *Cell
	for i := 0; i < 100000; i++ {
		if c := mainT.Frames[0].SlotByName("alias"); c != nil && c.V.Kind == VPtr && c.V.Ptr() != nil {
			aliasCell = c.V.Ptr()
			break
		}
		vm.StepInstr()
	}
	if aliasCell == nil {
		t.Fatal("never saw alias populated")
	}
	snap := vm.TakeSnapshot()
	if err := vm.RestoreSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rt := vm.Threads()[0]
	alias := rt.Frames[0].SlotByName("alias").V
	data := rt.Frames[0].SlotByName("data").V
	if alias.Kind != VPtr || data.Kind != VArr {
		t.Fatalf("restored slots have kinds %v/%v, want ptr/arr", alias.Kind, data.Kind)
	}
	if alias.Ptr() == aliasCell {
		t.Fatal("restored pointer still targets the pre-restore cell (shallow copy)")
	}
	if alias.Ptr() != &data.Arr().Cells[3] {
		t.Fatal("restored pointer does not alias the restored array interior")
	}
	alias.Ptr().V = IntVal(991)
	if got := data.Arr().Cells[3].V.I; got != 991 {
		t.Errorf("write through restored pointer invisible through array: got %d", got)
	}

	// A snapshot of the state just restored shares the unchanged array,
	// and its pointer into the array points into the shared copy.
	if err := vm.RestoreSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	again := vm.TakeSnapshot()
	shared := snapLocal(again, "data").Arr()
	if shared != snapLocal(snap, "data").Arr() {
		t.Fatal("the second snapshot copied the unchanged array instead of sharing it")
	}
	if snapLocal(again, "alias").Ptr() != &shared.Cells[3] {
		t.Fatal("the second snapshot's pointer does not alias the shared array's interior")
	}
	want := shared.Cells[3].V.I
	if err := vm.RestoreSnapshot(again); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rt = vm.Threads()[0]
	alias = rt.Frames[0].SlotByName("alias").V
	data = rt.Frames[0].SlotByName("data").V
	if data.Arr() == shared || alias.Ptr() != &data.Arr().Cells[3] {
		t.Fatal("a pointer into a shared array does not alias the restored array's interior")
	}
	alias.Ptr().V = IntVal(992)
	if got := data.Arr().Cells[3].V.I; got != 992 {
		t.Errorf("write through restored pointer invisible through array: got %d", got)
	}
	if got := shared.Cells[3].V.I; got != want {
		t.Errorf("a write to the restored VM changed the shared copy: %d, want %d", got, want)
	}
}

// snapLocal returns the value of a local of the snapshot's first
// thread's first frame.
func snapLocal(s *Snapshot, name string) Value {
	return s.threads[0].Frames[0].SlotByName(name).V
}

// snapGlobal returns the value of a global in the snapshot.
func snapGlobal(s *Snapshot, prog *Program, name string) Value {
	return s.globals[prog.GlobalByName[name]].V
}

// sharingProgram keeps one array the run never writes, a global table,
// and one it writes every iteration.
const sharingProgram = `
global int[] table = {4, 5, 6};
func int main() {
	int[] counts = new int[8];
	for (int i = 0; i < 100; i++) {
		counts[i % 8] += table[i % 3];
	}
	return counts[0];
}`

// pausedInLoop starts prog and steps until main's counts array exists
// and the loop has run a while.
func pausedInLoop(t *testing.T, prog *Program) *VM {
	t.Helper()
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		vm.StepInstr()
	}
	if vm.Threads()[0].Frames[0].SlotByName("counts").V.Arr() == nil {
		t.Fatal("counts not allocated after 200 instructions")
	}
	return vm
}

// TestSnapshotSharesUnchangedArrays: a snapshot shares an array with the
// previous snapshot only when no cell of it was written in between.
func TestSnapshotSharesUnchangedArrays(t *testing.T) {
	prog := compileForTest(t, sharingProgram)
	vm := pausedInLoop(t, prog)
	first := vm.TakeSnapshot()
	was := FormatValue(snapLocal(first, "counts"))
	for i := 0; i < 40; i++ {
		vm.StepInstr()
	}
	second := vm.TakeSnapshot()
	if snapGlobal(second, prog, "table").Arr() != snapGlobal(first, prog, "table").Arr() {
		t.Error("the unchanged table was copied again, not shared")
	}
	counts := snapLocal(second, "counts")
	if counts.Arr() == snapLocal(first, "counts").Arr() {
		t.Fatal("the written array is shared with the earlier snapshot")
	}
	live := vm.Threads()[0].Frames[0].SlotByName("counts").V
	if FormatValue(counts) != FormatValue(live) {
		t.Errorf("the new copy holds %s, the VM %s", FormatValue(counts), FormatValue(live))
	}
	if got := FormatValue(snapLocal(first, "counts")); got != was || got == FormatValue(live) {
		t.Errorf("the earlier snapshot's copy holds %s, want %s as taken", got, was)
	}
}

// TestSnapshotCopiesArrayHoldingPointer: an int[] that holds a pointer,
// which the debugger-facing VM does not forbid, is copied afresh each
// time, and its pointer into a shared array is translated into the
// shared copy.
func TestSnapshotCopiesArrayHoldingPointer(t *testing.T) {
	prog := compileForTest(t, sharingProgram)
	vm := pausedInLoop(t, prog)
	table := vm.GlobalCell("table").V.Arr()
	counts := vm.Threads()[0].Frames[0].SlotByName("counts").V.Arr()
	counts.Cells[0].V = PtrVal(&table.Cells[1])
	first := vm.TakeSnapshot()
	second := vm.TakeSnapshot()
	if snapLocal(second, "counts").Arr() == snapLocal(first, "counts").Arr() {
		t.Fatal("an array holding a pointer is shared between snapshots")
	}
	shared := snapGlobal(second, prog, "table").Arr()
	if shared != snapGlobal(first, prog, "table").Arr() {
		t.Fatal("the unchanged table was copied again, not shared")
	}
	if snapLocal(second, "counts").Arr().Cells[0].V.Ptr() != &shared.Cells[1] {
		t.Fatal("the copied pointer does not point into the shared table")
	}
	if err := vm.RestoreSnapshot(second); err != nil {
		t.Fatal(err)
	}
	table = vm.GlobalCell("table").V.Arr()
	counts = vm.Threads()[0].Frames[0].SlotByName("counts").V.Arr()
	if table == shared || counts.Cells[0].V.Ptr() != &table.Cells[1] {
		t.Fatal("after the restore the pointer does not point into the restored table")
	}
}

// TestSnapshotDuringParallelFor snapshots while helper threads are live
// (parent Waiting, captures shared by reference) and checks the replay
// still converges to the right answer.
func TestSnapshotDuringParallelFor(t *testing.T) {
	prog := compileForTest(t, `
global int total = 0;
func int main() {
	int bias = 2;
	parallel_for (int i = 0; i < 100; i++) {
		atomic_add(&total, i + bias);
	}
	printf("%d\n", total);
	return 0;
}`)
	var out strings.Builder
	vm := NewVM(prog, &out)
	if err := vm.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Step until the fan-out happened and some helpers have run.
	for len(vm.Threads()) < 2 {
		if vm.StepInstr() == nil {
			t.Fatal("program finished before parallel_for spawned")
		}
	}
	for i := 0; i < 40; i++ {
		vm.StepInstr()
	}
	snap := vm.TakeSnapshot()
	if err := vm.RunToCompletion(0); err != nil {
		t.Fatalf("forward: %v", err)
	}
	want := out.String()

	var replay strings.Builder
	if err := vm.RestoreSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	vm.Output = &replay
	if err := vm.RunToCompletion(0); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if fwdTail, repl := want, replay.String(); !strings.HasSuffix(fwdTail, repl) || repl == "" {
		t.Errorf("replay output %q is not the tail of forward output %q", repl, fwdTail)
	}
	if got := vm.GlobalCell("total").V.I; got != 5150 {
		t.Errorf("total after replay = %d, want 5150", got)
	}
}

// TestSchedulerDeterminism is the regression test replay correctness
// rests on: two VMs built from the same program must produce identical
// (thread ID, function, pc) step sequences, including across the thread
// appends of spawnParFor and the schedIdx wraparound in StepInstr.
func TestSchedulerDeterminism(t *testing.T) {
	prog := compileForTest(t, `
global int total = 0;
func int main() {
	parallel_for (int i = 0; i < 37; i++) {
		parallel_for (int j = 0; j < 5; j++) {
			atomic_add(&total, i * j);
		}
	}
	printf("%d\n", total);
	return 0;
}`)
	a := NewVM(prog, nil)
	b := NewVM(prog, nil)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	for step := 0; ; step++ {
		ta, tb := a.NextThread(), b.NextThread()
		if (ta == nil) != (tb == nil) {
			t.Fatalf("step %d: one VM finished before the other", step)
		}
		if ta == nil {
			break
		}
		fa, fb := ta.Top(), tb.Top()
		if ta.ID != tb.ID {
			t.Fatalf("step %d: thread %d vs %d", step, ta.ID, tb.ID)
		}
		if fa == nil || fb == nil {
			if fa != fb {
				t.Fatalf("step %d: frame presence diverged", step)
			}
		} else if fa.FuncIndex != fb.FuncIndex || fa.PC != fb.PC {
			t.Fatalf("step %d: (fn %d, pc %d) vs (fn %d, pc %d)",
				step, fa.FuncIndex, fa.PC, fb.FuncIndex, fb.PC)
		}
		a.StepInstr()
		b.StepInstr()
	}
	if !a.Done() || !b.Done() {
		t.Fatal("VMs not both done")
	}
	if x, y := a.GlobalCell("total").V.I, b.GlobalCell("total").V.I; x != y {
		t.Fatalf("totals diverged: %d vs %d", x, y)
	}
}

// TestRunToCompletionBudgetExact pins the step-budget semantics: a
// program that finishes in exactly its budget succeeds, a budget one
// short fails, and the failing run executes exactly the budget's
// instructions — not one more, as the old `steps > budget` check
// allowed.
func TestRunToCompletionBudgetExact(t *testing.T) {
	prog := compileForTest(t, `
func int main() {
	int acc = 0;
	for (int i = 0; i < 50; i++) {
		acc += i;
	}
	return acc;
}`)
	vm := NewVM(prog, nil)
	if err := vm.Run(); err != nil {
		t.Fatalf("unbudgeted run: %v", err)
	}
	total := vm.Steps

	exact := NewVM(prog, nil)
	if err := exact.Start(); err != nil {
		t.Fatal(err)
	}
	if err := exact.RunToCompletion(total); err != nil {
		t.Errorf("budget of exactly %d failed: %v", total, err)
	}

	short := NewVM(prog, nil)
	if err := short.Start(); err != nil {
		t.Fatal(err)
	}
	err := short.RunToCompletion(total - 1)
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("budget %d: err = %v, want step budget error", total-1, err)
	}
	if short.Steps != total-1 {
		t.Errorf("budget %d executed %d instructions, want exactly the budget", total-1, short.Steps)
	}

	one := NewVM(prog, nil)
	if err := one.Start(); err != nil {
		t.Fatal(err)
	}
	if err := one.RunToCompletion(1); err == nil {
		t.Error("budget 1 should fail for a multi-instruction program")
	}
	if one.Steps != 1 {
		t.Errorf("budget 1 executed %d instructions, want 1", one.Steps)
	}
}

// TestRestoreBoundsFrameFreeLists: restoring a snapshot drops the frames
// parked for reuse, so rewinding again and again leaves no more parked
// frames than one run keeps live.
func TestRestoreBoundsFrameFreeLists(t *testing.T) {
	prog := compileForTest(t, `
func int leaf(int x) {
	return x + 1;
}
func int mid(int x) {
	return leaf(x) * 2;
}
func int main() {
	int s = 0;
	for (int i = 0; i < 50; i++) {
		s = s + mid(i);
	}
	return s;
}`)
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	for vm.sched.threads[0].Top().Fn.Name != "leaf" {
		vm.StepInstr()
	}
	snap := vm.TakeSnapshot()
	for r := 0; r < 20; r++ {
		if err := vm.RunToCompletion(0); err != nil {
			t.Fatal(err)
		}
		if got := vm.sched.threads[0].Result.I; got != 2550 {
			t.Fatalf("run %d returned %d, want 2550", r, got)
		}
		if err := vm.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	parked := 0
	for _, free := range vm.frameFree {
		parked += len(free)
	}
	if parked > len(prog.Funcs) {
		t.Errorf("%d frames parked after 20 restores, want at most one per function (%d)", parked, len(prog.Funcs))
	}
}
