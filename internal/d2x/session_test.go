package d2x

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"d2x/internal/obs"
)

// TestSessionCloseEvictsState: closing a session evicts its per-session
// D2X state from the build's runtime (the fix for the map that grew
// without bound), without touching other sessions or the shared tables.
func TestSessionCloseEvictsState(t *testing.T) {
	b := buildPower(t, true)
	d1, _ := session(t, b)
	d2, out2 := session(t, b)
	exec(t, d1, "break power_gen.c:5", "run", "xbt", "xbreak power.dsl:6")
	exec(t, d2, "break power_gen.c:5", "run", "xbt")
	if n := b.LiveSessions(); n != 2 {
		t.Fatalf("live sessions = %d, want 2", n)
	}
	if n := len(b.Runtime.Breakpoints()); n != 1 {
		t.Fatalf("runtime breakpoints = %d, want 1", n)
	}

	d1.Close()
	if n := b.LiveSessions(); n != 1 {
		t.Errorf("live sessions after first Close = %d, want 1", n)
	}
	// The closed session's breakpoints went with its state.
	if n := len(b.Runtime.Breakpoints()); n != 0 {
		t.Errorf("runtime breakpoints after Close = %d, want 0", n)
	}
	if err := d1.Execute("xbt"); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Execute on closed session: %v", err)
	}

	// The surviving session still works over the shared tables.
	out2.Reset()
	exec(t, d2, "xbt")
	if !strings.Contains(out2.String(), "#0 in power at power.dsl:7") {
		t.Errorf("second session after first Close:\n%s", out2.String())
	}

	d2.Close()
	d2.Close() // idempotent
	if n := b.LiveSessions(); n != 0 {
		t.Errorf("live sessions after all Closes = %d, want 0", n)
	}
	if n := b.Runtime.TableDecodes(); n != 1 {
		t.Errorf("table decodes across both sessions = %d, want 1", n)
	}
}

// TestConcurrentSessionsShareTables runs N full debug sessions over one
// Build in parallel — break, run, xbt, rtv_handler evaluation, xbreak,
// continue — and checks that they share a single table decode and leave
// no state behind. Run under -race this also proves the shared decode,
// debug info, and DSL source cache are safe for concurrent sessions.
func TestConcurrentSessionsShareTables(t *testing.T) {
	b := buildPower(t, true)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out strings.Builder
			d, err := b.NewSession(&out)
			if err != nil {
				errs <- err
				return
			}
			defer d.Close()
			cmds := []string{
				"break power_gen.c:5", "run",
				"xbt", "xlist", "xvars res_view",
				"xbreak power.dsl:6", "continue",
			}
			for _, cmd := range cmds {
				if err := d.Execute(cmd); err != nil {
					errs <- fmt.Errorf("session %d: %q: %w", i, cmd, err)
					return
				}
			}
			tr := out.String()
			for _, want := range []string{
				"#0 in power at power.dsl:7",
				"res_view = res_1=3",
				"Inserting 4 breakpoints with ID: #1",
			} {
				if !strings.Contains(tr, want) {
					errs <- fmt.Errorf("session %d transcript missing %q:\n%s", i, want, tr)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := b.Runtime.TableDecodes(); got != 1 {
		t.Errorf("table decodes across %d sessions = %d, want 1", n, got)
	}
	if got := b.LiveSessions(); got != 0 {
		t.Errorf("live sessions after all Closes = %d, want 0", got)
	}
}

// TestObsMetricsUnderConcurrentSessions is the observability counterpart
// of the concurrency test above: N sessions hammer one build in parallel
// while the obs layer records them. Counters must sum exactly (no lost
// updates), the live-session gauge must drain back to its starting
// level, and every event readable from the trace ring must be fully
// formed — under -race this doubles as the no-torn-reads proof for the
// ring's atomic-pointer slots.
func TestObsMetricsUnderConcurrentSessions(t *testing.T) {
	b := buildPower(t, true)
	// The command call/error counters are sharded across cache-line-padded
	// cells (sessions hash to cells by ID); Value() sums the cells, and the
	// sums must stay exact under concurrency.
	xbtCalls := obs.GetShardedCounter("d2xr.cmd.xbt.calls")
	xbreakCalls := obs.GetShardedCounter("d2xr.cmd.xbreak.calls")
	creates := obs.GetCounter("session.state.creates")
	evicts := obs.GetCounter("session.state.evicts")
	live := obs.GetGauge("session.live")
	xbtLat := obs.GetHistogram("d2xr.cmd.xbt")
	c0 := []int64{xbtCalls.Value(), xbreakCalls.Value(), creates.Value(), evicts.Value(), live.Value(), xbtLat.Count()}

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out strings.Builder
			d, err := b.NewSession(&out)
			if err != nil {
				errs <- err
				return
			}
			defer d.Close()
			for _, cmd := range []string{
				"break power_gen.c:5", "run", "xbt",
				"xbreak power.dsl:6", "continue",
			} {
				if err := d.Execute(cmd); err != nil {
					errs <- fmt.Errorf("session %d: %q: %w", i, cmd, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if d := xbtCalls.Value() - c0[0]; d != n {
		t.Errorf("xbt calls delta = %d, want %d", d, n)
	}
	if d := xbreakCalls.Value() - c0[1]; d != n {
		t.Errorf("xbreak calls delta = %d, want %d", d, n)
	}
	if d := creates.Value() - c0[2]; d != n {
		t.Errorf("state creates delta = %d, want %d", d, n)
	}
	if d := evicts.Value() - c0[3]; d != n {
		t.Errorf("state evicts delta = %d, want %d", d, n)
	}
	if d := live.Value() - c0[4]; d != 0 {
		t.Errorf("live gauge did not drain: delta = %d", d)
	}
	// The native entry point times every call (only the resolve and
	// rtv-handler histograms sample), so the latency count must match the
	// call count exactly.
	if d := xbtLat.Count() - c0[5]; d != n {
		t.Errorf("xbt latency observations delta = %d, want %d", d, n)
	}

	// Every event the ring hands out must be fully formed: monotonically
	// increasing Seq and a non-empty Kind. A torn read would surface here
	// (and as a -race report) as a zero or mixed-up record.
	events := obs.Default.Ring().Events()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	lastSeq := int64(-1)
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("ring events out of order: seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Kind == "" {
			t.Fatalf("torn/empty event: %+v", e)
		}
	}
}
