package serve

import (
	"errors"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/d2x/wire"
	"d2x/internal/examplebuilds"
	"d2x/internal/progen"
)

// startServerWith is startServer with a custom build catalogue.
func startServerWith(t *testing.T, fn BuildFunc) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewWithBuilds(fn)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return ln.Addr().String()
}

func TestBatchBeforeLaunchRejected(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, err := c.DoBatch([]wire.SubRequest{{Command: wire.CmdXBT}})
	if err == nil || !strings.Contains(err.Error(), "no session") {
		t.Fatalf("batch before launch: got %v, want a no-session error", err)
	}
}

func TestBatchEmptyRejected(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	for _, args := range []*wire.Args{nil, {}} {
		if _, err := c.Do(wire.CmdBatch, args); err == nil || !strings.Contains(err.Error(), "at least one sub-command") {
			t.Fatalf("empty batch (%+v): got %v, want an empty-batch error", args, err)
		}
	}
	// A rejected batch is a normal command error: the connection and its
	// session survive it.
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
}

// TestBatchPartialFailure: a failing sub-command (2 of 3) is isolated to
// its own SubResult; sub-commands 1 and 3 still execute and succeed.
func TestBatchPartialFailure(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
	mustDo(t, c, wire.CmdRun, nil)
	c.Events()

	results, err := c.DoBatch([]wire.SubRequest{
		{Command: wire.CmdXBT},
		{Command: wire.CmdXDel, Arguments: &wire.Args{Spec: "99"}},
		{Command: wire.CmdXVars},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !results[0].Success || !strings.Contains(results[0].Output, "examplebuilds.go") {
		t.Errorf("sub 1 (xbt): %+v, want success with staging frames", results[0])
	}
	if results[1].Success || !strings.Contains(results[1].Message, "no DSL breakpoint #99") {
		t.Errorf("sub 2 (xdel 99): %+v, want an isolated failure", results[1])
	}
	if !results[2].Success {
		t.Errorf("sub 3 (xvars) did not survive sub 2's failure: %+v", results[2])
	}
}

// TestBatchRejectsNonBatchableSubCommands: session- and connection-scoped
// commands cannot ride inside a batch; each is rejected in its own
// SubResult while the batchable neighbours still run.
func TestBatchRejectsNonBatchableSubCommands(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
	mustDo(t, c, wire.CmdRun, nil)
	c.Events()

	results, err := c.DoBatch([]wire.SubRequest{
		{Command: wire.CmdLaunch, Arguments: &wire.Args{Example: "power"}},
		{Command: wire.CmdDisconnect},
		{Command: wire.CmdBatch},
		{Command: wire.CmdStats},
		{Command: "make-coffee"},
		{Command: wire.CmdXBT},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i := 0; i < 4; i++ {
		if results[i].Success || !strings.Contains(results[i].Message, "not batchable") {
			t.Errorf("sub %d: %+v, want a not-batchable rejection", i+1, results[i])
		}
	}
	if results[4].Success || !strings.Contains(results[4].Message, "unknown command") {
		t.Errorf("sub 5: %+v, want an unknown-command rejection", results[4])
	}
	if !results[5].Success || !strings.Contains(results[5].Output, "examplebuilds.go") {
		t.Errorf("sub 6 (xbt): %+v, want success after the rejected subs", results[5])
	}
	// The rejected launch/disconnect subs must not have touched the
	// connection's session.
	mustDo(t, c, wire.CmdXList, nil)
}

// TestBatchOversizedRejectedClientSide: the encoder refuses to put a
// frame over MaxFrameBytes on the wire, and because nothing was sent the
// connection stays usable.
func TestBatchOversizedRejectedClientSide(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})

	big := strings.Repeat("x", wire.MaxFrameBytes)
	_, err := c.DoBatch([]wire.SubRequest{{Command: wire.CmdXBreak, Arguments: &wire.Args{Spec: big}}})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized batch: got %v, want a frame-limit error", err)
	}
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
}

// TestBatchOversizedResponseKeepsConnection: a batch whose response would
// exceed MaxFrameBytes (about 8,600 xbt on power) gets an error response
// naming the response's size and the limit, and the connection and its
// session stay usable.
func TestBatchOversizedResponseKeepsConnection(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
	mustDo(t, c, wire.CmdRun, nil)
	c.Events()

	// xbt names files by absolute path, so size the batch from one result.
	one := mustDo(t, c, wire.CmdXBT, nil).Body.Output
	subs := make([]wire.SubRequest, wire.MaxFrameBytes/len(one)+1)
	for i := range subs {
		subs[i] = wire.SubRequest{Command: wire.CmdXBT}
	}
	_, err := c.DoBatch(subs)
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("batch of %d xbt: got %v, want a remote error", len(subs), err)
	}
	m := regexp.MustCompile(`(\d+) bytes exceeds the (\d+)-byte limit`).FindStringSubmatch(re.Message)
	if m == nil || m[2] != strconv.Itoa(wire.MaxFrameBytes) {
		t.Fatalf("error %q does not name the response size and the %d-byte limit", re.Message, wire.MaxFrameBytes)
	}
	if size, _ := strconv.Atoi(m[1]); size <= wire.MaxFrameBytes {
		t.Fatalf("error names a %d-byte response, want one over the limit", size)
	}

	if xbt := mustDo(t, c, wire.CmdXBT, nil); xbt.Body.Output != one {
		t.Fatalf("xbt after the refused batch: %q, want %q", xbt.Body.Output, one)
	}
}

// TestBatchOversizedRejectedServerSide: a peer that streams a request
// line past MaxFrameBytes gets its connection dropped, and the server
// keeps serving everyone else.
func TestBatchOversizedRejectedServerSide(t *testing.T) {
	_, addr := startServer(t)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = 'a'
	}
	for written := 0; written <= wire.MaxFrameBytes; written += len(chunk) {
		if _, err := raw.Write(chunk); err != nil {
			break // server already reset the connection — that is the point
		}
	}
	raw.Write([]byte("\n"))
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered an oversized frame instead of dropping the connection")
	}

	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "quickstart"})
}

// TestBatchMatchesSequentialDifferential is the wire-level correctness
// pin for the batch frame: over every example build plus a progen corpus
// slice, a batch of sub-commands must produce byte-identical outputs —
// and identical failures — to the same commands sent one frame each.
// Both paths share execOne on the server; this proves the sharing holds
// end to end, per-build and per-command.
func TestBatchMatchesSequentialDifferential(t *testing.T) {
	const progenSlice = 3
	addr := startServerWith(t, func(name string) (*d2x.Build, error) {
		if idx, ok := strings.CutPrefix(name, "progen-"); ok {
			i, err := strconv.Atoi(idx)
			if err != nil {
				return nil, err
			}
			p, err := progen.Render(progen.Generate(42, i))
			if err != nil {
				return nil, err
			}
			return p.Build(false)
		}
		return examplebuilds.Build(name)
	})

	names := append([]string{}, examplebuilds.Names()...)
	for i := 0; i < progenSlice; i++ {
		names = append(names, "progen-"+strconv.Itoa(i))
	}

	// A mixed steady-state sequence: frame-bearing queries, breakpoint
	// install/list/delete (bare-line specs resolve against the paused DSL
	// context on every build), and guaranteed failures — which must fail
	// identically on both paths.
	subs := []wire.SubRequest{
		{Command: wire.CmdXBT},
		{Command: wire.CmdXList},
		{Command: wire.CmdXVars},
		{Command: wire.CmdXFrame, Arguments: &wire.Args{Spec: "0"}},
		{Command: wire.CmdXBreak, Arguments: &wire.Args{Spec: "3"}},
		{Command: wire.CmdXBreak, Arguments: &wire.Args{Spec: "4"}},
		{Command: wire.CmdXBT},
		{Command: wire.CmdXDel, Arguments: &wire.Args{Spec: "1"}},
		{Command: wire.CmdXDel, Arguments: &wire.Args{Spec: "99"}},
		{Command: wire.CmdXVars, Arguments: &wire.Args{Name: "no_such_var"}},
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			setup := func(c *wire.Client) {
				mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: name})
				mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: breakSpecFor(name)})
				mustDo(t, c, wire.CmdRun, nil)
				c.Events()
			}
			seqC, batC := dial(t, addr), dial(t, addr)
			setup(seqC)
			setup(batC)

			single := make([]wire.SubResult, len(subs))
			for i, sub := range subs {
				f, err := seqC.Do(sub.Command, sub.Arguments)
				if err != nil {
					if _, ok := err.(*wire.RemoteError); !ok {
						t.Fatalf("sequential %s: %v", sub.Command, err)
					}
					single[i] = wire.SubResult{Message: f.Message}
					continue
				}
				single[i] = wire.SubResult{Success: true, Output: f.Body.Output}
			}

			batch, err := batC.DoBatch(subs)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for i := range subs {
				if batch[i] != single[i] {
					t.Errorf("sub %d (%s %+v) diverged:\nsequential: %+v\nbatch:      %+v",
						i+1, subs[i].Command, subs[i].Arguments, single[i], batch[i])
				}
			}
		})
	}
}

// breakSpecFor names the staged function of each example build, where a
// session stops to run its D2X commands.
func breakSpecFor(example string) string {
	switch example {
	case "power":
		return "power_15"
	case "quickstart":
		return "sum_squares"
	case "einsum":
		return "m_v_mul"
	}
	return "main"
}
