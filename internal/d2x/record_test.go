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
