package d2x

import (
	"strings"
	"testing"

	"d2x/internal/minic/journal"
)

// TestReverseXBT is the DSL-level time-travel composition: reverse-step
// back one generated line, then answer xbt there. The extended backtrace
// after the rewind must be byte-identical to the one the forward run
// produced at the same stop — replay goes through the same fused index.
func TestReverseXBT(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:4", "run", "record")
	out.Reset()
	exec(t, d, "xbt")
	forward := out.String()
	if !strings.Contains(forward, "#0 in power at power.dsl:6") {
		t.Fatalf("setup: xbt at the recording start:\n%s", forward)
	}

	exec(t, d, "next") // forward one generated line, onto power_gen.c:5
	out.Reset()
	exec(t, d, "reverse-xbt")
	tr := out.String()
	if !strings.HasSuffix(tr, forward) {
		t.Errorf("reverse-xbt backtrace diverged from the forward one\n--- forward ---\n%s\n--- reverse ---\n%s", forward, tr)
	}
}

// TestXVarsByteIdenticalAfterReplay rewinds a recording to its start and
// re-asks xvars: erased first-stage variables and handler-backed views
// must come back byte-identical, including the rtv handler re-reading
// the restored stack.
func TestXVarsByteIdenticalAfterReplay(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:4", "run", "record")
	out.Reset()
	exec(t, d, "xvars")
	forward := out.String()
	if !strings.Contains(forward, "exponent") {
		t.Fatalf("setup: xvars at the recording start:\n%s", forward)
	}

	exec(t, d, "next", "next", "record goto 0")
	out.Reset()
	exec(t, d, "xvars")
	if got := out.String(); got != forward {
		t.Errorf("xvars after replay diverged\n--- forward ---\n%s\n--- replay ---\n%s", forward, got)
	}
}

// TestRecordingParksOnSessionState: in a D2X session `record` publishes
// its journal on the per-VM session state, and that is the very journal
// the debugger records with.
func TestRecordingParksOnSessionState(t *testing.T) {
	b := buildPower(t, true)
	d, _ := session(t, b)
	exec(t, d, "break power_gen.c:4", "run", "record")

	st := b.Runtime.StateFor(d.Process().VM)
	j, ok := st.Journal.(*journal.Journal)
	if !ok || !j.Active() {
		t.Fatalf("session state holds %T, want an active journal", st.Journal)
	}
	if rec := d.ActiveRecorder(); rec != j {
		t.Fatalf("debugger records with %p, session state holds %p", rec, j)
	}
	exec(t, d, "next")
	if j.Step() == 0 {
		t.Fatal("the published journal recorded nothing")
	}

	exec(t, d, "record stop")
	if j.Active() {
		t.Fatal("record stop left the published journal recording")
	}
	if d.ActiveRecorder() != nil {
		t.Fatal("debugger still reports a recorder after record stop")
	}
}

// TestCloseStopsRecording: a session that closes mid-recording, without
// `record stop` (a wire client that disconnects), ends its recording
// with it. Nothing keeps the journal — and through it the VM — alive
// after the session is gone.
func TestCloseStopsRecording(t *testing.T) {
	b := buildPower(t, true)
	d, _ := session(t, b)
	exec(t, d, "break power_gen.c:4", "run", "record", "next")
	j, ok := b.Runtime.StateFor(d.Process().VM).Journal.(*journal.Journal)
	if !ok || !j.Active() {
		t.Fatalf("no active journal on the session state after record")
	}

	d.Close()
	if j.Active() {
		t.Error("Close left the session's journal recording")
	}
	if d.ActiveRecorder() != nil {
		t.Error("closed debugger still reports a recorder")
	}
	if n := b.LiveSessions(); n != 0 {
		t.Errorf("LiveSessions = %d after Close, want 0", n)
	}
}

// TestSessionStateSurvivesRewind: a session's D2X state lives on its
// debuggee VM but is not execution state, so rewinding the debuggee
// leaves it alone. After record, xbreak and xframe 1, a reverse-step
// and a journal RestoreTo keep the session's DSL breakpoints, selected
// extended frame, fuel budget and journal handle; Close then drops the
// state from the VM.
func TestSessionStateSurvivesRewind(t *testing.T) {
	b := buildPower(t, true)
	other, _ := session(t, b)
	exec(t, other, "break power_gen.c:4", "run", "xbt")
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:4", "run", "record", "next", "xbreak power.dsl:6", "xframe 1", "next")
	vm := d.Process().VM
	st := b.Runtime.StateFor(vm)
	st.FuelBudget = 123456
	j, ok := st.Journal.(*journal.Journal)
	if !ok || !j.Active() {
		t.Fatalf("session state holds %T, want an active journal", st.Journal)
	}
	check := func(after string) {
		t.Helper()
		if got := b.Runtime.StateFor(vm); got != st {
			t.Fatalf("after %s the VM holds another state", after)
		}
		if bps := b.Runtime.BreakpointsFor(vm); len(bps) != 1 || bps[0].ID != 1 || bps[0].File != "power.dsl" || bps[0].Line != 6 {
			t.Errorf("DSL breakpoints after %s = %+v, want #1 at power.dsl:6", after, bps)
		}
		if st.SelXFrame != 1 {
			t.Errorf("selected extended frame after %s = %d, want 1", after, st.SelXFrame)
		}
		if st.FuelBudget != 123456 {
			t.Errorf("fuel budget after %s = %d, want 123456", after, st.FuelBudget)
		}
		if st.Journal != j || !j.Active() {
			t.Errorf("journal handle after %s = %v, want the active journal %p", after, st.Journal, j)
		}
	}

	exec(t, d, "reverse-step")
	check("reverse-step")
	// Back on the line where xframe 1 ran: the selection still applies.
	out.Reset()
	exec(t, d, "xframe")
	if !strings.Contains(out.String(), "#1 in main at host.go:100") {
		t.Errorf("xframe after reverse-step:\n%s", out.String())
	}
	if err := j.RestoreTo(0); err != nil {
		t.Fatal(err)
	}
	check("RestoreTo(0)")

	live := b.LiveSessions()
	d.Close()
	if vm.Native != nil || b.Runtime.BreakpointsFor(vm) != nil {
		t.Errorf("after Close the VM holds %T", vm.Native)
	}
	if n := b.LiveSessions(); n != live-1 {
		t.Errorf("LiveSessions after Close = %d, want %d", n, live-1)
	}
}
