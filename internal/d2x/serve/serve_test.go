package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"d2x/internal/d2x"
	"d2x/internal/d2x/wire"
	"d2x/internal/obs"
)

// startServer runs a Server on a loopback listener and tears it down with
// the test.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustDo(t *testing.T, c *wire.Client, cmd string, args *wire.Args) *wire.Frame {
	t.Helper()
	resp, err := c.Do(cmd, args)
	if err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	return resp
}

func TestFullDebugSessionOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	resp := mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	if resp.Body == nil || resp.Body.Session == 0 {
		t.Fatalf("launch response has no session id: %+v", resp.Body)
	}

	out := mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "main"})
	if !strings.Contains(out.Body.Output, "Breakpoint") {
		t.Fatalf("break transcript: %q", out.Body.Output)
	}

	mustDo(t, c, wire.CmdRun, nil)
	stopped := findEvent(c.Events(), wire.EventStopped)
	if stopped == nil || stopped.Body.Reason != "breakpoint" {
		t.Fatalf("run did not stop at breakpoint: %+v", stopped)
	}

	// The D2X commands work across the wire: the backtrace shows the DSL
	// frame context after stepping into the staged function.
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
	mustDo(t, c, wire.CmdContinue, nil)
	if st := findEvent(c.Events(), wire.EventStopped); st == nil || st.Body.Reason != "breakpoint" {
		t.Fatalf("continue did not stop at power_15 breakpoint: %+v", st)
	}
	// xbt shows the contextual (staging-time) stack: frames point into the
	// Go code that staged the power pipeline, not the generated function.
	xbt := mustDo(t, c, wire.CmdXBT, nil)
	if !strings.Contains(xbt.Body.Output, "examplebuilds.go") {
		t.Fatalf("xbt transcript: %q", xbt.Body.Output)
	}

	// Run to completion: program output must arrive as an output event,
	// not inside the response transcript, and the stop event says exited.
	mustDo(t, c, wire.CmdContinue, nil)
	ev := c.Events()
	outEv := findEvent(ev, wire.EventOutput)
	if outEv == nil || !strings.Contains(outEv.Body.Output, "14348907") {
		t.Fatalf("no program-output event with power(3,15): %+v", ev)
	}
	st := findEvent(ev, wire.EventStopped)
	if st == nil || !st.Body.Exited {
		t.Fatalf("final stop event not exited: %+v", st)
	}
}

func findEvent(evs []*wire.Frame, name string) *wire.Frame {
	for _, e := range evs {
		if e.Event == name {
			return e
		}
	}
	return nil
}

func TestServerErrors(t *testing.T) {
	_, addr := startServer(t)

	cases := []struct {
		name string
		run  func(c *wire.Client) error
		want string
	}{
		{"command before launch", func(c *wire.Client) error {
			_, err := c.Do(wire.CmdRun, nil)
			return err
		}, "no session"},
		{"unknown example", func(c *wire.Client) error {
			_, err := c.Do(wire.CmdLaunch, &wire.Args{Example: "nope"})
			return err
		}, "unknown pipeline"},
		{"launch without example", func(c *wire.Client) error {
			_, err := c.Do(wire.CmdLaunch, nil)
			return err
		}, "needs an example name"},
		{"double launch", func(c *wire.Client) error {
			if _, err := c.Do(wire.CmdLaunch, &wire.Args{Example: "quickstart"}); err != nil {
				return err
			}
			_, err := c.Do(wire.CmdLaunch, &wire.Args{Example: "quickstart"})
			return err
		}, "already launched"},
		{"break without spec", func(c *wire.Client) error {
			if _, err := c.Do(wire.CmdLaunch, &wire.Args{Example: "quickstart"}); err != nil {
				return err
			}
			_, err := c.Do(wire.CmdBreak, nil)
			return err
		}, "needs a spec"},
		{"unknown command", func(c *wire.Client) error {
			_, err := c.Do("make-coffee", nil)
			return err
		}, "unknown command"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dial(t, addr)
			err := tc.run(c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestStatsAndDisconnect(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	resp := mustDo(t, c, wire.CmdStats, nil)
	if !strings.Contains(resp.Body.Output, "counters") {
		t.Fatalf("stats response is not an obs snapshot: %q", resp.Body.Output)
	}

	if _, err := c.Do(wire.CmdDisconnect, nil); err != nil {
		t.Fatalf("disconnect: %v", err)
	}
	// The server closes its side after the response; the next round trip
	// fails at transport level.
	if _, err := c.Do(wire.CmdStats, nil); err == nil {
		t.Fatal("request after disconnect should fail")
	}
}

func TestMalformedInputDoesNotKillServer(t *testing.T) {
	_, addr := startServer(t)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	raw.Write([]byte("this is not json\n"))
	raw.Close()

	// The server must still serve a well-behaved client afterwards.
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "quickstart"})
}

// TestConcurrentSessionsShareOneBuild runs 16 wire clients at once, each
// its own debug session on one shared power build: launch, stop at
// power_15, alternate xbt and xvars with every output checked, continue
// and disconnect. Every command must succeed, the build must be
// constructed once, and once the clients are gone the build holds no
// session state and the server's connection goroutines have returned.
// Under -race it is also the concurrency check of the command path.
func TestConcurrentSessionsShareOneBuild(t *testing.T) {
	srv, addr := startServer(t)
	goroutines := runtime.NumGoroutine()

	const clients = 16
	const queries = 4
	var (
		wg   sync.WaitGroup
		cmds atomic.Int64
	)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			script := func() error {
				if _, err := c.Do(wire.CmdLaunch, &wire.Args{Example: "power"}); err != nil {
					return err
				}
				if _, err := c.Do(wire.CmdBreak, &wire.Args{Spec: "power_15"}); err != nil {
					return err
				}
				if _, err := c.Do(wire.CmdRun, nil); err != nil {
					return err
				}
				for q := 0; q < queries; q++ {
					cmd, want := wire.CmdXBT, "#0 in power at "
					if q%2 == 1 {
						cmd, want = wire.CmdXVars, "1. exponent\n"
					}
					resp, err := c.Do(cmd, nil)
					if err != nil {
						return err
					}
					if out := resp.Body.Output; !strings.HasPrefix(out, want) {
						return fmt.Errorf("%s printed %q", cmd, out)
					}
					cmds.Add(1)
				}
				if _, err := c.Do(wire.CmdContinue, nil); err != nil {
					return err
				}
				_, err := c.Do(wire.CmdDisconnect, nil)
				return err
			}
			errs <- script()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("client: %v", err)
		}
	}
	if n := cmds.Load(); n != clients*queries {
		t.Errorf("%d xbt/xvars commands succeeded, want %d", n, clients*queries)
	}

	srv.buildMu.Lock()
	n := len(srv.builds)
	b := srv.builds["power"]
	srv.buildMu.Unlock()
	if n != 1 || b == nil {
		t.Fatalf("%d builds constructed for one example name, want 1 shared build", n)
	}
	// A connection's goroutine closes its session after it has sent the
	// disconnect response, so both counts settle shortly after.
	for deadline := time.Now().Add(5 * time.Second); b.LiveSessions() != 0 || runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after every client disconnected: %d live sessions, %d goroutines (baseline %d)",
				b.LiveSessions(), runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestReadmeTranscript sends README's nc transcript as one write on a raw
// connection and checks every frame the server answers with: each
// request's events come before its response, every request_seq matches,
// seq strictly increases, and the server closes after disconnect. Every
// line the server writes is byte for byte what encoding/json writes for
// the frame it decodes to.
func TestReadmeTranscript(t *testing.T) {
	_, addr := startServer(t)
	readme, err := os.ReadFile("../../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, script, _ := strings.Cut(string(readme), "nc 127.0.0.1 4711 <<'EOF'\n")
	script, _, ok := strings.Cut(script, "\nEOF\n")
	if !ok {
		t.Fatal("README has no nc transcript")
	}
	if n := strings.Count(script, "\n") + 1; n != 6 {
		t.Fatalf("README's nc transcript has %d request lines, want 6", n)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := raw.Write([]byte(script + "\n")); err != nil {
		t.Fatalf("write: %v", err)
	}

	var written bytes.Buffer
	dec := wire.NewDecoder(io.TeeReader(raw, &written))
	var lastSeq int64
	next := func() *wire.Frame {
		t.Helper()
		f, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode after seq %d: %v", lastSeq, err)
		}
		if f.Seq <= lastSeq {
			t.Fatalf("seq %d follows seq %d", f.Seq, lastSeq)
		}
		lastSeq = f.Seq
		return f
	}
	response := func(reqSeq int64, cmd string) *wire.Frame {
		t.Helper()
		f := next()
		if f.Type != wire.TypeResponse || f.RequestSeq != reqSeq || f.Command != cmd || !f.Success {
			t.Fatalf("want a successful %s response to request %d, got %+v", cmd, reqSeq, f)
		}
		return f
	}
	event := func(name string) *wire.Frame {
		t.Helper()
		f := next()
		if f.Type != wire.TypeEvent || f.Event != name || f.Body == nil {
			t.Fatalf("want a %s event, got %+v", name, f)
		}
		return f
	}

	if f := response(1, wire.CmdLaunch); f.Body == nil || f.Body.Session == 0 {
		t.Fatalf("launch response has no session: %+v", f.Body)
	}
	response(2, wire.CmdBreak)
	if f := event(wire.EventStopped); f.Body.Reason != "breakpoint" {
		t.Fatalf("run stopped for %q, want breakpoint", f.Body.Reason)
	}
	response(3, wire.CmdRun)
	if f := response(4, wire.CmdXBT); f.Body == nil || !strings.Contains(f.Body.Output, "examplebuilds.go") {
		t.Fatalf("xbt response lacks the staging frames: %+v", f.Body)
	}
	if f := event(wire.EventOutput); !strings.Contains(f.Body.Output, "14348907") {
		t.Fatalf("output event lacks power(3,15): %q", f.Body.Output)
	}
	if f := event(wire.EventStopped); f.Body.Reason != "exited" || !f.Body.Exited {
		t.Fatalf("continue stopped with %+v, want exited", f.Body)
	}
	response(5, wire.CmdContinue)
	response(6, wire.CmdDisconnect)
	if f, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF after the disconnect response, got %+v, %v", f, err)
	}

	lines := bytes.SplitAfter(written.Bytes(), []byte("\n"))
	for _, line := range lines[:len(lines)-1] {
		var f wire.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("encoding/json cannot decode %q: %v", line, err)
		}
		want, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(line, want) {
			t.Errorf("the server wrote\n%q\nencoding/json writes\n%q", line, want)
		}
	}
	if len(lines) != 10 || len(lines[len(lines)-1]) != 0 {
		t.Errorf("the server wrote %d lines and %d bytes after the last, want 9 frames", len(lines)-1, len(lines[len(lines)-1]))
	}
}

// TestStalledClientHoldsNoFrames: a client that pipelines requests and
// reads nothing stalls its own connection through TCP flow control. The
// server keeps no backlog of responses for it, and Close returns while
// the connection's goroutine is blocked writing to it.
func TestStalledClientHoldsNoFrames(t *testing.T) {
	const requests = 20000
	goroutines := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	var reqs bytes.Buffer
	enc := wire.NewEncoder(&reqs)
	for i := 1; i <= requests; i++ {
		if err := enc.Encode(wire.Request(int64(i), wire.CmdStats, nil)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	handled := obs.GetCounter("serve.requests")
	handled0, heap0 := handled.Value(), liveHeap()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		raw.Write(reqs.Bytes()) // blocks once the server stops reading; fails when it closes
	}()

	time.Sleep(2 * time.Second)
	if grown := float64(liveHeap()-heap0) / (1 << 20); grown >= 8 {
		t.Errorf("live heap grew by %.1f MiB while the client read nothing, want < 8 MiB", grown)
	}
	if n := handled.Value() - handled0; n >= requests {
		t.Errorf("the server handled all %d requests of a client that reads nothing", n)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1 s of a blocked write")
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v", err)
	}
	raw.Close()
	<-wrote
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want the baseline %d", runtime.NumGoroutine(), goroutines)
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// longOutput is a program that prints 100,000 numbered lines, 5.2 MB,
// more than one frame holds, and the lines it prints.
func longOutput() (src string, want string) {
	const lines = 100000
	line := "%d " + strings.Repeat("x", 45) + "\n"
	src = "func int main() {\n\tfor (int i = 0; i < " + strconv.Itoa(lines) + "; i++) {\n\t\tprintf(" +
		strconv.Quote(line) + ", i);\n\t}\n\treturn 0;\n}\n"
	var b strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, line, i)
	}
	return src, b.String()
}

// TestLongOutputSplitsIntoEvents: a run whose debuggee prints more than
// one frame can carry gets its output as several consecutive output
// events, and the session goes on.
func TestLongOutputSplitsIntoEvents(t *testing.T) {
	src, wantOut := longOutput()
	addr := startServerWith(t, func(name string) (*d2x.Build, error) {
		return d2x.Link("big.c", src, nil, d2x.LinkOptions{})
	})
	var want strings.Builder
	want.WriteString(wantOut)
	if want.Len() <= wire.MaxFrameBytes {
		t.Fatalf("the program prints %d bytes, not more than one frame holds", want.Len())
	}

	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "big"})
	mustDo(t, c, wire.CmdRun, nil)
	var got strings.Builder
	outputs := 0
	for _, ev := range c.Events() {
		if ev.Event == wire.EventOutput {
			outputs++
			got.WriteString(ev.Body.Output)
		}
	}
	if outputs < 2 {
		t.Errorf("%d bytes of output came as %d output events, want more than one", want.Len(), outputs)
	}
	if got.String() != want.String() {
		t.Errorf("the output events carry %d bytes that differ from the program's %d", got.Len(), want.Len())
	}
	mustDo(t, c, wire.CmdStats, nil)
}

// TestLongOutputLeavesNoBuffers: once the client has drained the events
// of a run that printed 5.2 MB, nothing keeps their size alive, neither
// the server's output buffers nor either end's frame decoder: with the
// session still open, the live heap is back within 1 MiB of what it was
// before the run.
func TestLongOutputLeavesNoBuffers(t *testing.T) {
	src, want := longOutput()
	addr := startServerWith(t, func(name string) (*d2x.Build, error) {
		return d2x.Link("big.c", src, nil, d2x.LinkOptions{})
	})
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "big"})
	before := liveHeap()
	mustDo(t, c, wire.CmdRun, nil)
	if n := drainOutput(c); n != len(want) {
		t.Fatalf("the output events carry %d bytes, the program printed %d", n, len(want))
	}
	if after := liveHeap(); after > before+1<<20 {
		t.Errorf("live heap %.1f MiB after the run, %.1f MiB before it", float64(after)/(1<<20), float64(before)/(1<<20))
	}
	mustDo(t, c, wire.CmdStats, nil)
}

// drainOutput takes the client's events and returns the bytes of output
// they carried, keeping none of them.
func drainOutput(c *wire.Client) int {
	n := 0
	for _, ev := range c.Events() {
		if ev.Event == wire.EventOutput {
			n += len(ev.Body.Output)
		}
	}
	return n
}

// TestOutputEventsFitInFrames: output events are cut at rune starts, and
// each encodes under wire.MaxFrameBytes even when every output byte
// needs a six-byte escape.
func TestOutputEventsFitInFrames(t *testing.T) {
	for _, out := range []string{
		strings.Repeat("a", outputChunk-1) + "é" + strings.Repeat("€", outputChunk),
		strings.Repeat("\x01", 2*outputChunk+5),
		strings.Repeat("\xff", outputChunk+1),
	} {
		cn := &conn{}
		cn.outputEvents(out)
		if len(cn.frames) < 2 {
			t.Errorf("%d bytes of output made %d events, want more than one", len(out), len(cn.frames))
		}
		var got strings.Builder
		for _, f := range cn.frames {
			if utf8.ValidString(out) && !utf8.ValidString(f.Body.Output) {
				t.Errorf("an event cuts a rune: it ends with %q", f.Body.Output[len(f.Body.Output)-3:])
			}
			if err := wire.NewEncoder(io.Discard).Encode(f); err != nil {
				t.Errorf("an event of %d output bytes: %v", len(f.Body.Output), err)
			}
			got.WriteString(f.Body.Output)
		}
		if got.String() != out {
			t.Errorf("the events carry %d bytes that differ from the %d output bytes", got.Len(), len(out))
		}
	}
}
