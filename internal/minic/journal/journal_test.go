package journal

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"d2x/internal/minic"
)

const testProgram = `
global int checksum = 0;
func int digest(int[] data, int round) {
	int acc = 0;
	for (int i = 0; i < len(data); i++) {
		acc += data[i] * round;
	}
	return acc;
}
func int main() {
	int[] data = new int[8];
	parallel_for (int i = 0; i < 8; i++) {
		data[i] = i + 1;
	}
	for (int round = 0; round < 30; round++) {
		checksum = checksum + digest(data, round);
		printf("round %d: %d\n", round, checksum);
	}
	printf("done %d\n", checksum);
	return 0;
}`

func startVM(t *testing.T, out *strings.Builder) *minic.VM {
	t.Helper()
	prog, err := minic.Compile("test.c", testProgram, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm := minic.NewVM(prog, out)
	if err := vm.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return vm
}

func TestAttachRequiresStartedVM(t *testing.T) {
	prog, err := minic.Compile("test.c", testProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(minic.NewVM(prog, nil), Options{}); err == nil {
		t.Fatal("Attach on an unstarted VM should fail")
	}
}

// TestRestoreToReplaysByteIdentically records a full run, then rewinds to
// many points (crossing checkpoint boundaries both ways) and re-runs;
// the regenerated output tail must be byte-identical to the forward run.
func TestRestoreToReplaysByteIdentically(t *testing.T) {
	var out strings.Builder
	vm := startVM(t, &out)
	j, err := Attach(vm, Options{SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Record the output length at each step so we can compare tails.
	offsets := []int{len(out.String())}
	for vm.StepInstr() != nil {
		offsets = append(offsets, len(out.String()))
	}
	forward := out.String()
	total := j.Step()
	if total != int64(len(offsets)-1) {
		t.Fatalf("journal recorded %d steps, scheduler ran %d", total, len(offsets)-1)
	}
	if j.Stats().Snapshots < 2 {
		t.Fatalf("expected cadence snapshots, got %d", j.Stats().Snapshots)
	}

	for _, target := range []int64{0, 1, 63, 64, 65, total / 2, total - 1, total} {
		preLen := len(out.String())
		if err := j.RestoreTo(target); err != nil {
			t.Fatalf("RestoreTo(%d): %v", target, err)
		}
		if got := len(out.String()); got != preLen {
			t.Fatalf("RestoreTo(%d) leaked %d bytes of replay output", target, got-preLen)
		}
		if j.Step() != target {
			t.Fatalf("after RestoreTo(%d), Step() = %d", target, j.Step())
		}
		var tail strings.Builder
		vm.Output = &tail
		for vm.StepInstr() != nil {
		}
		vm.Output = &out
		want := forward[offsets[target]:]
		if tail.String() != want {
			t.Fatalf("RestoreTo(%d): resumed output diverged\n got %q\nwant %q", target, tail.String(), want)
		}
		if j.Step() != total {
			t.Fatalf("re-run from %d recorded %d steps, want %d", target, j.Step(), total)
		}
	}
}

// allRecords lists the statement log oldest first, read through
// SeekBack the way the debugger reads it.
func allRecords(j *Journal) []Rec {
	var out []Rec
	for from := j.Step(); ; {
		r, ok := j.SeekBack(from, func(Rec) bool { return true })
		if !ok {
			break
		}
		out = append(out, r)
		from = r.Step
	}
	slices.Reverse(out)
	return out
}

// TestRecordsMatchExecution checks the statement log against the
// scheduler: there is exactly one record per scheduled statement-start
// instruction, at its position, and its (thread, func, pc, depth) equal
// what NextThread showed just before that step ran.
func TestRecordsMatchExecution(t *testing.T) {
	vm := startVM(t, &strings.Builder{})
	j, err := Attach(vm, Options{SnapshotEvery: 97})
	if err != nil {
		t.Fatal(err)
	}
	var want []Rec
	var steps int64
	for {
		nt := vm.NextThread()
		if nt == nil {
			break
		}
		if f := nt.Top(); f != nil && f.Code.Instrs[f.PC].StmtStart {
			want = append(want, Rec{Step: steps, Thread: nt.ID, FuncIndex: f.FuncIndex, PC: f.PC, Depth: len(nt.Frames)})
		}
		vm.StepInstr()
		steps++
	}
	if j.Step() != steps {
		t.Fatalf("journal position %d, scheduler ran %d", j.Step(), steps)
	}
	if len(want) == 0 || int64(len(want)) >= steps {
		t.Fatalf("%d statement boundaries in %d steps: the log should be a strict, non-empty subset", len(want), steps)
	}
	got := allRecords(j)
	if len(got) != len(want) {
		t.Fatalf("logged %d statement boundaries, executed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if r, ok := j.SeekBack(0, func(Rec) bool { return true }); ok {
		t.Fatalf("SeekBack(0) found %+v before the first position", r)
	}
}

func TestSeekBack(t *testing.T) {
	vm := startVM(t, &strings.Builder{})
	j, err := Attach(vm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for vm.StepInstr() != nil {
	}
	total := j.Step()

	// The most recent main-thread boundary is findable, and it is a
	// statement start...
	main := func(r Rec) bool { return r.Thread == 0 }
	r, ok := j.SeekBack(total, main)
	if !ok {
		t.Fatal("no main-thread record found")
	}
	if r.Thread != 0 || r.Step >= total {
		t.Fatalf("SeekBack landed on %+v", r)
	}
	if !vm.Prog.Code[r.FuncIndex].Instrs[r.PC].StmtStart {
		t.Fatalf("record %+v is not a statement start", r)
	}
	// ...a from beyond history is clamped to it...
	if r2, ok := j.SeekBack(total+1000, main); !ok || r2 != r {
		t.Fatalf("SeekBack(beyond history) = %+v, %v; want %+v", r2, ok, r)
	}
	// ...the scan is bounded by from, which is exclusive...
	if r2, ok := j.SeekBack(r.Step, main); !ok || r2.Step >= r.Step {
		t.Fatalf("SeekBack(from=%d) = %+v, %v; want an earlier hit", r.Step, r2, ok)
	}
	if r2, ok := j.SeekBack(r.Step+1, main); !ok || r2 != r {
		t.Fatalf("SeekBack(from=%d) = %+v, %v; want %+v", r.Step+1, r2, ok, r)
	}
	// ...and an impossible predicate reports no hit.
	if _, ok := j.SeekBack(total, func(Rec) bool { return false }); ok {
		t.Fatal("impossible predicate reported a hit")
	}
}

// TestMutationThenCheckpoint pins the `set var` fidelity story: a
// debugger-applied mutation at a stop is not part of the instruction
// history, so a replay to that stop loses it — unless a checkpoint is
// forced there, after which replays land on the mutated state exactly.
func TestMutationThenCheckpoint(t *testing.T) {
	var out strings.Builder
	vm := startVM(t, &out)
	j, err := Attach(vm, Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		vm.StepInstr()
	}
	mark := j.Step()
	before := vm.GlobalCell("checksum").V.I

	// Mutate the debuggee the way `set var checksum = 1000000` would,
	// without a checkpoint: rewinding to the same spot replays from the
	// base snapshot and the mutation is gone.
	vm.GlobalCell("checksum").V = minic.IntVal(1_000_000)
	if err := j.RestoreTo(mark); err != nil {
		t.Fatal(err)
	}
	if got := vm.GlobalCell("checksum").V.I; got != before {
		t.Errorf("replay without checkpoint: checksum = %d, want pre-mutation %d", got, before)
	}

	// Mutate again, this time with a forced checkpoint: the rewind must
	// land on the mutated state, and the resumed run must reproduce the
	// forward run that followed the mutation.
	vm.GlobalCell("checksum").V = minic.IntVal(1_000_000)
	j.Checkpoint()
	for vm.StepInstr() != nil {
	}
	want := vm.GlobalCell("checksum").V.I
	if err := j.RestoreTo(mark); err != nil {
		t.Fatal(err)
	}
	if got := vm.GlobalCell("checksum").V.I; got != 1_000_000 {
		t.Errorf("restore to the checkpoint lost the mutation: checksum = %d", got)
	}
	for vm.StepInstr() != nil {
	}
	if got := vm.GlobalCell("checksum").V.I; got != want {
		t.Errorf("replay across the mutation diverged: %d, want %d", got, want)
	}
}

func TestStopDetaches(t *testing.T) {
	vm := startVM(t, &strings.Builder{})
	j, err := Attach(vm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		vm.StepInstr()
	}
	if j.Step() != 10 {
		t.Fatalf("Step() = %d, want 10", j.Step())
	}
	j.Stop()
	if j.Active() {
		t.Fatal("journal still active after Stop")
	}
	for i := 0; i < 10; i++ {
		vm.StepInstr()
	}
	if j.Step() != 10 {
		t.Fatal("journal kept recording after Stop")
	}
	if err := j.RestoreTo(5); err == nil {
		t.Fatal("RestoreTo after Stop should fail")
	}
}

func TestRestoreToBounds(t *testing.T) {
	vm := startVM(t, &strings.Builder{})
	j, err := Attach(vm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		vm.StepInstr()
	}
	if err := j.RestoreTo(-1); err == nil {
		t.Fatal("RestoreTo(-1) should fail")
	}
	if err := j.RestoreTo(11); err == nil {
		t.Fatal("RestoreTo beyond history should fail")
	}
	if err := j.RestoreTo(10); err != nil {
		t.Fatalf("RestoreTo(extent) is a no-op rewind, got %v", err)
	}
}

// TestChunkRecycling rewinds across chunk boundaries and checks that
// truncated chunks come back from the free pool instead of growing the
// footprint, and that the re-recorded log matches the first recording.
func TestChunkRecycling(t *testing.T) {
	prog, err := minic.Compile("test.c", `
global int n = 0;
func int main() {
	for (int i = 0; i < 40000; i++) {
		n = n + 1;
	}
	return 0;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	j, err := Attach(vm, Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for j.records() < 3*chunkSize {
		if vm.StepInstr() == nil {
			t.Fatal("program too short for the test")
		}
	}
	total := j.Step()
	first := allRecords(j)
	bytesBefore := j.Stats().RecordBytes
	if bytesBefore != 3*int64(unsafe.Sizeof(chunk{})) {
		t.Fatalf("%d records held in %d bytes, want exactly three chunks", len(first), bytesBefore)
	}
	if err := j.RestoreTo(10); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().RecordBytes; got >= bytesBefore {
		t.Errorf("rewind to 10 kept %d of %d record bytes", got, bytesBefore)
	}
	for j.Step() < total {
		vm.StepInstr()
	}
	if got := j.Stats().RecordBytes; got != bytesBefore {
		t.Errorf("record footprint changed across rewind+rerun: %d -> %d bytes", bytesBefore, got)
	}
	if again := allRecords(j); !slices.Equal(again, first) {
		t.Fatalf("re-recorded log differs: %d records, first recording %d", len(again), len(first))
	}
}
