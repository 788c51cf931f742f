package debugger

import (
	"strings"
	"testing"

	"d2x/internal/minic/journal"
)

// recLoopSrc prints each iteration, so forward/replay transcripts can be
// compared byte for byte. Line numbers are asserted below.
const recLoopSrc = `func int square(int x) {
	int y = x * x;
	return y;
}
func int main() {
	int total = 0;
	for (int i = 0; i < 6; i++) {
		total = total + square(i);
		printf("i=%d total=%d\n", i, total);
	}
	printf("final %d\n", total);
	return 0;
}
`

func TestRecordLifecycle(t *testing.T) {
	d, out := attach(t, recLoopSrc)
	if err := d.Execute("record"); err == nil {
		t.Fatal("record before run should fail")
	}
	mustExec(t, d, "break main", "run", "record", "info record")
	if !strings.Contains(out.String(), "Process record is started.") {
		t.Fatalf("transcript missing start banner:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Active record target: execution journal") {
		t.Fatalf("info record missing:\n%s", out.String())
	}
	if err := d.Execute("record"); err == nil {
		t.Fatal("double record should fail")
	}
	mustExec(t, d, "record stop")
	if !strings.Contains(out.String(), "Process record is stopped") {
		t.Fatalf("transcript missing stop banner:\n%s", out.String())
	}
	if err := d.Execute("reverse-step"); err == nil {
		t.Fatal("reverse-step without recording should fail")
	}
	mustExec(t, d, "info record")
	if !strings.Contains(out.String(), "No recording is currently active.") {
		t.Fatalf("info record after stop:\n%s", out.String())
	}
}

func TestReverseStepReturnsToPreviousLine(t *testing.T) {
	d, out := attach(t, recLoopSrc)
	mustExec(t, d, "break main", "run", "record", "next", "next")
	// After two `next` from the stop at line 6 the thread sits at line 8.
	if _, line, _ := d.lineAt(0); line != 8 {
		t.Fatalf("setup: at line %d, want 8", line)
	}
	mustExec(t, d, "reverse-step")
	if _, line, _ := d.lineAt(0); line != 7 {
		t.Fatalf("after reverse-step: line %d, want 7\n%s", line, out.String())
	}
	mustExec(t, d, "reverse-step")
	if _, line, _ := d.lineAt(0); line != 6 {
		t.Fatalf("after second reverse-step: line %d, want 6", line)
	}
	// Forward again: the debuggee replays deterministically.
	mustExec(t, d, "next")
	if _, line, _ := d.lineAt(0); line != 7 {
		t.Fatalf("after re-next: line %d, want 7", line)
	}
}

func TestReverseStepAtHistoryStart(t *testing.T) {
	d, out := attach(t, recLoopSrc)
	mustExec(t, d, "break main", "run", "record", "reverse-step")
	if !strings.Contains(out.String(), "No more reverse-execution history.") {
		t.Fatalf("expected history-start banner:\n%s", out.String())
	}
	// Still at the recording start and able to run forward.
	mustExec(t, d, "next")
	if d.LastStop().Reason != StopStep {
		t.Fatalf("forward step after failed reverse: %v", d.LastStop().Reason)
	}
}

func TestReverseContinueHitsPreviousBreakpoint(t *testing.T) {
	d, out := attach(t, recLoopSrc)
	mustExec(t, d, "break main", "run", "record", "break gen.c:9", "continue", "continue", "continue")
	v, err := d.EvalExpr("i")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2 {
		t.Fatalf("setup: i = %d, want 2", v.I)
	}
	mustExec(t, d, "reverse-continue")
	if d.LastStop().Reason != StopBreakpoint {
		t.Fatalf("reverse-continue stop = %v, want breakpoint", d.LastStop().Reason)
	}
	if v, _ := d.EvalExpr("i"); v.I != 1 {
		t.Fatalf("after reverse-continue: i = %d, want 1\n%s", v.I, out.String())
	}
	mustExec(t, d, "reverse-continue")
	if v, _ := d.EvalExpr("i"); v.I != 0 {
		t.Fatalf("after second reverse-continue: i = %d, want 0", v.I)
	}
	// Hit counting mirrors the forward run.
	if !strings.Contains(out.String(), "Breakpoint 2, main () at gen.c:9") {
		t.Fatalf("reverse stop banner missing:\n%s", out.String())
	}
}

func TestReverseContinueHonoursConditions(t *testing.T) {
	d, _ := attach(t, recLoopSrc)
	mustExec(t, d, "break main", "run", "record", "break gen.c:9 if i == 1", "continue")
	if v, _ := d.EvalExpr("i"); v.I != 1 {
		t.Fatal("setup: conditional breakpoint should stop at i==1")
	}
	mustExec(t, d, "delete 1", "delete 2", "break gen.c:8 if i == 3", "continue")
	if v, _ := d.EvalExpr("i"); v.I != 3 {
		t.Fatal("setup: should stop at i==3")
	}
	// Backwards: the i==3 site recurs at i==2,1,0 but the condition
	// filters every one of them, so the scan falls back to history start.
	mustExec(t, d, "reverse-continue")
	if d.LastStop().Reason == StopBreakpoint {
		t.Fatal("reverse-continue must not stop on a false condition")
	}
}

func TestRecordGotoAndByteIdenticalReplay(t *testing.T) {
	d, out := attach(t, recLoopSrc)
	mustExec(t, d, "break gen.c:9", "run", "record")
	mark := d.ActiveRecorder().Step()
	preLen := len(out.String())
	mustExec(t, d, "continue", "continue", "continue", "continue", "continue", "continue")
	if d.LastStop().Reason != StopExited {
		t.Fatalf("program should have exited, got %v", d.LastStop().Reason)
	}
	forward := out.String()[preLen:]

	// Rewind out of the exit to the recording start, then drive the same
	// commands: transcript (program output, stop banners) must be
	// byte-identical to the forward leg.
	mustExec(t, d, "record goto "+itoa(mark))
	replayStart := len(out.String())
	mustExec(t, d, "continue", "continue", "continue", "continue", "continue", "continue")
	replay := out.String()[replayStart:]
	if replay != forward {
		t.Fatalf("replay transcript diverged:\n--- forward ---\n%s\n--- replay ---\n%s", forward, replay)
	}
}

func TestSetVariableForcesCheckpoint(t *testing.T) {
	d, _ := attach(t, recLoopSrc)
	mustExec(t, d, "break gen.c:9", "run", "record", "continue", "continue")
	if v, _ := d.EvalExpr("i"); v.I != 2 {
		t.Fatal("setup: want stop at i==2")
	}
	mark := d.ActiveRecorder().Step()
	mustExec(t, d, "set var total = 500")
	mustExec(t, d, "continue", "continue", "continue", "continue")
	if d.LastStop().Reason != StopExited {
		t.Fatalf("want exit, got %v", d.LastStop().Reason)
	}
	want, _ := d.EvalExpr("0 + 0") // no-op to keep evaluator exercised
	_ = want
	mustExec(t, d, "record goto "+itoa(mark))
	v, err := d.EvalExpr("total")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 500 {
		t.Fatalf("replay to mutated stop: total = %d, want 500 (checkpoint lost)", v.I)
	}
}

func itoa(n int64) string {
	var b [20]byte
	i := len(b)
	if n == 0 {
		return "0"
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// recSpacedSrc stops at line 13 once per outer iteration, each stop
// over a hundred thousand instructions after the last, so every stop is
// far enough past the latest snapshot to be checkpointed; `next` in
// work's loop stops every few instructions.
const recSpacedSrc = `func int work(int n) {
	int s = 0;
	for (int k = 0; k < n; k++) {
		int r = k % 7;
		s = s + r;
	}
	return s;
}
func int main() {
	int total = 0;
	for (int i = 0; i < 6; i++) {
		total = total + work(8000 + i);
		printf("i=%d total=%d\n", i, total);
	}
	printf("final %d\n", total);
	return 0;
}
`

// stopView is what the debugger shows at a stop: the backtrace, the
// locals, the registers and the threads.
func stopView(t *testing.T, d *Debugger, out *strings.Builder) string {
	t.Helper()
	n := out.Len()
	mustExec(t, d, "bt", "info locals", "info registers", "info threads")
	return out.String()[n:]
}

// TestReverseOpsRestoreRecordedStops: a reverse-continue or record goto
// that lands on a recorded breakpoint stop restores the snapshot taken
// there and replays nothing, and the stop shows what it showed forward.
func TestReverseOpsRestoreRecordedStops(t *testing.T) {
	d, out := attach(t, recSpacedSrc)
	mustExec(t, d, "break gen.c:13", "run", "record")
	rec := d.ActiveRecorder()
	var pos []int64
	var banners, views []string
	for k := 0; k < 3; k++ {
		n := out.Len()
		mustExec(t, d, "continue")
		banners = append(banners, out.String()[n:])
		pos = append(pos, rec.Step())
		views = append(views, stopView(t, d, out))
	}
	if gap := pos[1] - pos[0]; gap < journal.StopCheckpointGap {
		t.Fatalf("setup: stops %d instructions apart, want at least %d", gap, journal.StopCheckpointGap)
	}

	replayed := rec.Stats().ReplaySteps
	n := out.Len()
	mustExec(t, d, "reverse-continue")
	got := out.String()[n:]
	if rec.Step() != pos[1] {
		t.Fatalf("reverse-continue landed at %d, want the second stop at %d", rec.Step(), pos[1])
	}
	if !strings.Contains(got, "Breakpoint 1,") || !strings.HasSuffix(banners[1], got) {
		t.Errorf("reverse-continue printed %q, want the forward stop's %q", got, banners[1])
	}
	if v := stopView(t, d, out); v != views[1] {
		t.Errorf("after reverse-continue:\n%s\nforward:\n%s", v, views[1])
	}
	if r := rec.Stats().ReplaySteps - replayed; r != 0 {
		t.Errorf("reverse-continue replayed %d instructions, want 0", r)
	}

	replayed = rec.Stats().ReplaySteps
	mustExec(t, d, "record goto "+itoa(pos[0]))
	if v := stopView(t, d, out); v != views[0] {
		t.Errorf("after record goto:\n%s\nforward:\n%s", v, views[0])
	}
	if r := rec.Stats().ReplaySteps - replayed; r != 0 {
		t.Errorf("record goto replayed %d instructions, want 0", r)
	}
}

// TestSteppingBoundsStopCheckpoints: stepping stops every few
// instructions, and the journal snapshots at most one of those stops per
// StopCheckpointGap instructions of history.
func TestSteppingBoundsStopCheckpoints(t *testing.T) {
	d, _ := attach(t, recSpacedSrc)
	mustExec(t, d, "break gen.c:4", "run", "delete 1", "record")
	rec := d.ActiveRecorder()
	for k := 0; k < 8000; k++ {
		mustExec(t, d, "next")
	}
	st := rec.Stats()
	if st.Snapshots < 3 {
		t.Fatalf("%d snapshots over %d instructions: the stops were never checkpointed", st.Snapshots, st.Steps)
	}
	if most := 1 + st.Steps/journal.StopCheckpointGap; int64(st.Snapshots) > most {
		t.Errorf("%d snapshots over %d instructions, want at most %d", st.Snapshots, st.Steps, most)
	}
}

// TestSetVariableReplacesCheckpoint: a set var at a stop that already
// has a snapshot, a second set var at one stop, and a set var where the
// recording starts all survive a rewind to that stop.
func TestSetVariableReplacesCheckpoint(t *testing.T) {
	d, _ := attach(t, recSpacedSrc)
	mustExec(t, d, "break gen.c:13", "run", "record", "set var total = 7", "continue", "continue")
	rec := d.ActiveRecorder()
	mark := rec.Step()
	before := rec.Stats().Snapshots
	mustExec(t, d, "set var total = 500", "set var total = 600")
	if got := rec.Stats().Snapshots; got != before {
		t.Fatalf("set var at a checkpointed stop left %d snapshots, want %d", got, before)
	}
	mustExec(t, d, "continue", "continue", "record goto "+itoa(mark))
	if v, _ := d.EvalExpr("total"); v.I != 600 {
		t.Errorf("rewound to the mutated stop: total = %d, want 600", v.I)
	}
	mustExec(t, d, "record goto 0")
	if v, _ := d.EvalExpr("total"); v.I != 7 {
		t.Errorf("rewound to the recording's start: total = %d, want 7", v.I)
	}
}
