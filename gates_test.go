package bench

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/d2x/serve"
	"d2x/internal/d2x/wire"
	"d2x/internal/debugger"
	"d2x/internal/dwarfish"
	"d2x/internal/examplebuilds"
	"d2x/internal/minic"
	"d2x/internal/minic/journal"
	"d2x/internal/obs"
)

// The timing gates. Each one runs two sides of a comparison in this
// process, in pairs, and gates on the median of the per-pair ratios, so
// the machine's speed and its slow drift cancel out and one noisy pair
// cannot fail a gate. A side returns one measurement (ns per op, or
// commands per second per core); the ratio is side A's over side B's.
// The gates run under plain `go test ./...` and skip under -race, where
// the timings mean nothing.
//
//	go test -count=1 -run Gate -v .
//
// prints one line per gate: its median, quartiles, pair count and bound.

// pairStats is the distribution of a gate's per-pair ratios.
type pairStats struct {
	median, q1, q3 float64
	pairs          int // pairs run
	want           int // pairs asked for
}

// gateCap bounds the wall-clock time of one pairRatios call. Each gate
// takes under 6 s on a shared 2-vCPU VM; one whose sides have slowed so
// far that its pairs would outlast `go test`'s 10-minute timeout stops
// here and fails with its own reading instead of the timeout's panic.
const gateCap = time.Minute

// pairRatios runs n A/B pairs, after one unmeasured pair that warms both
// sides, and returns the distribution of a()/b(). The side that runs
// first alternates from pair to pair, so what one side leaves behind
// (warm caches, and GC debt unless a side collects first) falls on both
// sides equally. It starts no pair once gateCap has passed, so it may
// return fewer than n, and never none.
func pairRatios(n int, a, b func() float64) pairStats {
	start := time.Now()
	a()
	b()
	r := make([]float64, 0, n)
	for i := 0; i < n && (i == 0 || time.Since(start) < gateCap); i++ {
		if i%2 == 0 {
			x := a()
			r = append(r, x/b())
		} else {
			y := b()
			r = append(r, a()/y)
		}
	}
	sort.Float64s(r)
	at := func(q float64) float64 { return r[int(q*float64(len(r)-1)+0.5)] }
	return pairStats{median: at(0.5), q1: at(0.25), q3: at(0.75), pairs: len(r), want: n}
}

// report logs a reading in the format every gate shares and says whether
// its median is within the bound: at most bound for "<=", at least bound
// for ">=".
func report(t *testing.T, name string, st pairStats, op string, bound float64) bool {
	t.Helper()
	t.Logf("gate %s: median %.3f, quartiles [%.3f, %.3f], %d pairs, bound %s %.3f",
		name, st.median, st.q1, st.q3, st.pairs, op, bound)
	if op == "<=" {
		return st.median <= bound
	}
	return st.median >= bound
}

// gate fails the test when the median crosses its bound, or when the
// gate ran out of time before its last pair.
func gate(t *testing.T, name string, st pairStats, op string, bound float64) {
	t.Helper()
	within := report(t, name, st, op, bound)
	switch {
	case st.pairs < st.want:
		t.Errorf("gate %s: stopped at the %v cap after %d of %d pairs; median so far %.3f, bound %s %.3f",
			name, gateCap, st.pairs, st.want, st.median, op, bound)
	case !within:
		t.Errorf("gate %s: median ratio %.3f is not %s %.3f", name, st.median, op, bound)
	}
}

func skipTiming(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timing gates don't hold under the race detector's runtime")
	}
}

// nsPerOp times n calls of f and returns the mean in ns.
func nsPerOp(t *testing.T, n int, f func() error) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// ---- The Figure 4 two-stage reference ----

// twoStageXBT is the Figure 4 mapping done by hand, as the
// internal/examplebuilds differential oracle does it: standard debug
// info takes rip to its generated line (stage 1), then the tables, from
// a decode of their own, take the line to its record (stage 2), which
// renders with fmt in xbt's format. It is the yardstick the xbt and
// sequential gates measure the real command path against.
type twoStageXBT struct {
	info   *dwarfish.Info
	tables *d2xenc.Tables
	rip    int64
}

func newTwoStageXBT(t testing.TB, d *debugger.Debugger) *twoStageXBT {
	t.Helper()
	tables, err := d2xenc.Decode(d.Process().VM)
	if err != nil {
		t.Fatal(err)
	}
	rip, ok := d.RegisterRIP()
	if !ok {
		t.Fatal("no rip")
	}
	return &twoStageXBT{info: d.Process().Info, tables: tables, rip: rip}
}

// render writes the backtrace at rip to w, an io.Discard or a
// bytes.Buffer, neither of which fails a write.
func (ts *twoStageXBT) render(w io.Writer) error {
	_, line, ok := ts.info.LineFor(dwarfish.DecodeAddr(ts.rip))
	if !ok {
		return fmt.Errorf("no line info for rip %#x", ts.rip)
	}
	rec := ts.tables.RecordForLine(line)
	if rec == nil {
		return fmt.Errorf("no D2X record for generated line %d", line)
	}
	for i, loc := range rec.Stack {
		fmt.Fprintf(w, "#%d ", i)
		if loc.Function != "" {
			fmt.Fprintf(w, "in %s ", loc.Function)
		}
		fmt.Fprintf(w, "at %s:%d\n", loc.File, loc.Line)
	}
	return nil
}

// gateSink is a session's output: dropped, except while a gate checks
// what a command printed.
type gateSink struct {
	capture bool
	buf     bytes.Buffer
}

func (s *gateSink) Write(p []byte) (int, error) {
	if s.capture {
		s.buf.Write(p)
	}
	return len(p), nil
}

// pausedXBT pauses a PageRankDelta session in the specialised UDF and
// checks that its xbt prints what the two-stage reference renders.
func pausedXBT(t *testing.T) (*debugger.Debugger, *twoStageXBT) {
	t.Helper()
	build := pagerankBuild(t)
	sink := &gateSink{}
	d, err := build.NewSession(sink)
	if err != nil {
		t.Fatal(err)
	}
	udfLine := lineOf(build.Source, "atomic_add(&new_rank[dst]")
	mustExec(t, d, fmt.Sprintf("break pagerankdelta.c:%d", udfLine), "run")
	ref := newTwoStageXBT(t, d)
	sink.capture = true
	mustExec(t, d, "xbt")
	var want bytes.Buffer
	if err := ref.render(&want); err != nil {
		t.Fatal(err)
	}
	if got := sink.buf.String(); got != want.String() {
		t.Fatalf("xbt printed %q, the two-stage reference %q", got, want.String())
	}
	sink.capture = false
	return d, ref
}

// ---- The gates ----

// xbtRefRatio is the xbt gate's median ratio on the tree just before
// the gate was added: ns per `xbt` over ns per two-stage reference
// render at the same paused rip. It was measured by running this file's
// TestGateXBT in a copy of that tree, 10 times, on a shared 2-vCPU Intel
// Xeon VM (go1.24, linux/amd64): the runs read 1.638 to 1.671, and this
// is their median.
const xbtRefRatio = 1.656

// seqRefRatio is the sequential gate's median ratio on the same tree:
// the 8-session string-protocol mix's commands/s on one P over the
// two-stage reference's renders/s. Measured like xbtRefRatio: 10 runs
// read 0.436 to 0.468.
const seqRefRatio = 0.449

// refRatioNote follows a failure of a gate whose bound scales one of the
// committed reference ratios above, which were measured on one machine.
const refRatioNote = "the bound scales a reference ratio measured on a shared 2-vCPU Intel Xeon VM; " +
	"on other hardware or another Go release, check it first: run the gate 10 times on the parent " +
	"commit and compare the median of its medians with the constant (see xbtRefRatio)"

// TestGateXBT holds Figure 4's claim that a DSL command is a cheap
// two-stage lookup: one `xbt` through the debugger (lexer, macro, native
// call, fused resolve, render) may cost at most 25% more, relative to
// the two-stage reference at the same rip, than it did when the gate
// was introduced. The sides alternate every 20 commands: on a shared
// 2-vCPU VM the speed of both swung by up to 1.75x within milliseconds,
// and only sides that short see the same speed.
func TestGateXBT(t *testing.T) {
	skipTiming(t)
	d, ref := pausedXBT(t)
	st := pairRatios(80001,
		func() float64 { return nsPerOp(t, 20, func() error { return d.Execute("xbt") }) },
		func() float64 { return nsPerOp(t, 20, func() error { return ref.render(io.Discard) }) })
	gate(t, "xbt", st, "<=", 1.25*xbtRefRatio)
	if t.Failed() {
		t.Log(refRatioNote)
	}
}

// TestGateRecording holds the journal's budget: recording the Fig4
// PageRankDelta forward run costs at most 15% over the same run without
// a journal. Each side starts from a collected heap and allocates too
// little to start another cycle, so the ratio is the journal's own CPU
// cost. What its garbage costs the collector is held by
// TestJournalRecordAllocs instead: sides that run into GC cycles read
// the unmodified journal at run medians from 0.98 to 1.34 while `go
// test ./...` runs other packages on the second CPU, over 1.15 in about
// half the runs, so a gate on them would fail on noise.
func TestGateRecording(t *testing.T) {
	skipTiming(t)
	build := pagerankBuild(t)
	run := func(record bool) float64 {
		runtime.GC()
		return nsPerOp(t, 1, func() error {
			vm := minic.NewVM(build.Program, nil)
			if err := vm.Start(); err != nil {
				return err
			}
			if record {
				if _, err := journal.Attach(vm, journal.Options{}); err != nil {
					return err
				}
			}
			return vm.RunToCompletion(0)
		})
	}
	st := pairRatios(201, func() float64 { return run(true) }, func() float64 { return run(false) })
	gate(t, "recording", st, "<=", 1.15)
}

// TestGateBatch holds the typed batch path's reason to exist: on the
// 8-session xbt/xvars/xbreak/xdel mix it must deliver at least twice the
// string protocol's commands/s per core. If it does not, it has quietly
// reabsorbed the per-command overhead it was built to shed.
func TestGateBatch(t *testing.T) {
	skipTiming(t)
	sessions := satSessions(t, pagerankBuild(t), satGoroutines)
	// 25 cycles per session is 1600 commands a side: a few ms sequential.
	st := pairRatios(201,
		func() float64 { return runSaturation(t, sessions, 25, true).CommandsPerSecPerCore },
		func() float64 { return runSaturation(t, sessions, 25, false).CommandsPerSecPerCore })
	gate(t, "batch", st, ">=", 2.0)
}

// TestGateSequential catches a command path that grew a per-command
// cost, such as a table re-decode per command: the string
// protocol's commands/s on the 8-session mix, relative to the two-stage
// reference's renders/s, may fall at most 60% below its ratio when the
// gate was introduced. The gate runs on one P, so both sides are per-core
// rates and the other CPUs' load stays out of the ratio.
func TestGateSequential(t *testing.T) {
	skipTiming(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sessions := satSessions(t, pagerankBuild(t), satGoroutines)
	_, ref := pausedXBT(t)
	// Both sides take about 2 ms: 640 commands against 2000 renders.
	st := pairRatios(201,
		func() float64 { return runSaturation(t, sessions, 10, false).CommandsPerSecPerCore },
		func() float64 { return 1e9 / nsPerOp(t, 2000, func() error { return ref.render(io.Discard) }) })
	gate(t, "sequential", st, ">=", 0.4*seqRefRatio)
	if t.Failed() {
		t.Log(refRatioNote)
	}
}

// gateClients is how many wire clients TestGateSessions holds open, each
// with a live debug session on one shared build.
const gateClients = 100

// pausedWireSessions serves one power build on an in-process d2xserve
// and returns gateClients wire clients, each launched and stopped at
// power_15, after checking that the first client's xbt and xvars print
// what a session of the same build paused there in process prints. The
// server and the clients close with the test.
func pausedWireSessions(t *testing.T) []*wire.Client {
	t.Helper()
	build, err := examplebuilds.Build("power")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewWithBuilds(func(string) (*d2x.Build, error) { return build, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})
	setup := []struct {
		cmd  string
		args *wire.Args
	}{
		{wire.CmdLaunch, &wire.Args{Example: "power"}},
		{wire.CmdBreak, &wire.Args{Spec: "power_15"}},
		{wire.CmdRun, nil},
	}
	clients := make([]*wire.Client, gateClients)
	for i := range clients {
		c, err := wire.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		for _, req := range setup {
			if _, err := c.Do(req.cmd, req.args); err != nil {
				t.Fatalf("client %d: %s: %v", i, req.cmd, err)
			}
		}
		c.Events()
		clients[i] = c
	}
	sink := &gateSink{}
	d, err := build.NewSession(sink)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mustExec(t, d, "break power_15", "run")
	// The wire must answer as a session in this process does: the same
	// backtrace and the same variable listing, byte for byte.
	for _, cmd := range sessionCmds {
		resp, err := clients[0].Do(cmd, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink.capture = true
		mustExec(t, d, cmd)
		sink.capture = false
		if got := resp.Body.Output; got != sink.buf.String() || got == "" {
			t.Fatalf("%s over the wire printed %q, in process %q", cmd, got, sink.buf.String())
		}
		sink.buf.Reset()
	}
	return clients
}

// sessionCmds are the commands each wire client of TestGateSessions
// runs, one round trip each.
var sessionCmds = []string{wire.CmdXBT, wire.CmdXVars}

// echoConns starts a loopback server that writes back what it reads, in
// one read and one write call per frame as d2xserve makes them, and
// returns gateClients connections to it. It runs no repository code.
func echoConns(t *testing.T) []net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	conns := make([]net.Conn, gateClients)
	for i := range conns {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	return conns
}

// sessRefRatio is the sessions gate's median ratio on the tree just
// before its reference became the echo server: ns per command over
// gateClients concurrent wire sessions against ns per echoed frame over
// as many loopback connections, on one P. Measured like xbtRefRatio:
// 10 runs read 1.867 to 2.055.
const sessRefRatio = 1.907

// TestGateSessions holds the debug service's premise that sessions share
// nothing on the command path. gateClients wire clients, each paused in
// its own session of one shared build, run an xbt and an xvars round
// trip at once; a command may cost at most 50% more, relative to the
// same clients' round trips of the same request frames through a bare
// loopback echo server, than it did when the reference was introduced.
// A cost that grows with the number of sessions or connections, a lock
// that every request waits on, or a uniform slowdown of the server, the
// codec or the debugger raises only the wire side, and the reference
// runs no repository code, so no speed-up of repository code can read as
// a regression. The ratio is about one plus the server's work per
// command over a loopback round trip, so it depends on how the host's
// loopback cost compares with its CPU speed: a host whose loopback is
// cheaper, relative to its CPU, than the shared 2-vCPU VM sessRefRatio
// was measured on reads higher with no regression behind it (see
// refRatioNote). The gate runs on one P, as TestGateSequential does, so
// the ratio does not depend on the runner's core count. Its factor, 1.5
// where the xbt gate's is 1.25, is the one it was introduced with; its
// run medians spread from about 1.8 to 2.1 on that VM.
func TestGateSessions(t *testing.T) {
	skipTiming(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clients := pausedWireSessions(t)
	conns := echoConns(t)
	var frames [][]byte
	for _, cmd := range sessionCmds {
		var b bytes.Buffer
		if err := wire.NewEncoder(&b).Encode(wire.Request(1, cmd, nil)); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b.Bytes())
	}
	echoed := make([][]byte, len(conns))
	for i := range echoed {
		echoed[i] = make([]byte, 4096)
	}
	errs := make([]error, gateClients)
	// perCommand runs one client's round trips on every client at once and
	// returns the ns per command.
	perCommand := func(client func(i int) error) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for i := range gateClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = client(i)
			}()
		}
		wg.Wait()
		ns := float64(time.Since(start).Nanoseconds()) / float64(len(sessionCmds)*gateClients)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return ns
	}
	remote := func() float64 {
		return perCommand(func(i int) error {
			for _, cmd := range sessionCmds {
				if _, err := clients[i].Do(cmd, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	echo := func() float64 {
		return perCommand(func(i int) error {
			for _, f := range frames {
				if _, err := conns[i].Write(f); err != nil {
					return err
				}
				if _, err := io.ReadFull(conns[i], echoed[i][:len(f)]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	st := pairRatios(801, remote, echo)
	gate(t, "sessions", st, "<=", 1.5*sessRefRatio)
	if t.Failed() {
		t.Log(refRatioNote)
	}
}

// TestObsOverheadPaired measures what the observability layer costs
// `xbt`: the same command with obs enabled and disabled, alternating
// every 20 commands. Its budget is 5%, but it is logged, not gated: the
// per-command obs work (two clock reads, a histogram observation and a
// ring event) was sized when xbt cost about 5 µs, and xbt now costs
// about 1 µs. It becomes a gate once sampling brings it back under.
// Being a measurement, not a gate, it also skips under -short.
func TestObsOverheadPaired(t *testing.T) {
	skipTiming(t)
	if testing.Short() {
		t.Skip("timing measurement, skipped in -short")
	}
	d, _ := pausedXBT(t)
	defer obs.SetEnabled(true)
	xbt := func(on bool) float64 {
		obs.SetEnabled(on)
		return nsPerOp(t, 20, func() error { return d.Execute("xbt") })
	}
	st := pairRatios(10001, func() float64 { return xbt(true) }, func() float64 { return xbt(false) })
	report(t, "obs", st, "<=", 1.05)
}
