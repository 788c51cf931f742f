package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/d2x/serve"
	"d2x/internal/d2x/wire"
	"d2x/internal/examplebuilds"
	"d2x/internal/graphit"
)

// paused_queries: two wire clients over loopback TCP to an in-process
// debug server, both paused in one shared PageRankDelta build, replaying
// seeded mixes of reads, breakpoint writes and batches.
var pausedQueries = &workload{
	name: "paused_queries",
	why: "Wire, serve, debugger macros, d2xr and session do all the work; after set-up the VM, the journal " +
		"and the compilers do none. Noise it avoids: a set-up of tens of milliseconds drifts with whatever " +
		"the heap holds, so every set-up starts from a collected heap in the run's own process and setup_s " +
		"is the median of nine.",
	setup:     setupPaused,
	setupReps: 9,
	blockOps:  4096,
}

// pausedExpected is the parsed expected_paused.json: the byte-exact
// outputs the paused_queries checks compare against. Reads are keyed
// "<stop>/<selected frame>/<command>"; Breaks maps a DSL line of
// pagerankdelta.gt to the xbreak and xdel output templates for it, in
// which {id} is the DSL breakpoint id and each {bp} the next debugger
// breakpoint number.
type pausedExpected struct {
	Reads  map[string]string            `json:"reads"`
	Breaks map[string]map[string]string `json:"breaks"`
}

// pausedStop describes one client's stop: the generated-code line it
// breaks on and the reads valid there.
type pausedStop struct {
	name   string // "A" (Fig 6 UDF stop) or "B" (Fig 7 print stop)
	needle string // text of the generated line to break on
	frames int    // extended frames at the stop
	reads  []string
}

var pausedStops = []pausedStop{
	{"A", "atomic_add(&new_rank[dst]", 2, []string{"xbt", "xframe 0", "xframe 1", "xlist", "xvars"}},
	{"B", "__frontier_size(frontier)", 1, []string{"xbt", "xframe 0", "xlist", "xvars", "xvars frontier"}},
}

type pausedInstance struct {
	build *d2x.Build
	srv   *serve.Server
	done  chan struct{}
	cl    []*pausedClient
}

func (p *pausedInstance) clients() []client {
	out := make([]client, len(p.cl))
	for i, c := range p.cl {
		out[i] = c
	}
	return out
}

func (p *pausedInstance) probe() (*probeTarget, error) {
	pt := &probeTarget{
		build: p.build, natives: graphit.RegisterGraphNatives,
		gtSource: graphit.PageRankDeltaSrc, gtSchedule: graphit.PageRankDeltaSchedule,
	}
	for _, c := range p.cl {
		pt.stops = append(pt.stops, probeStop{
			script: []string{fmt.Sprintf("break pagerankdelta.c:%d", lineOf(p.build.Source, c.stop.needle)), "run"},
			reads:  c.stop.reads,
			xbreak: fmt.Sprintf("pagerankdelta.gt:%d", c.lines[0]),
		})
	}
	return pt, nil
}

func (p *pausedInstance) close() {
	for _, c := range p.cl {
		_, _ = c.c.Do(wire.CmdDisconnect, nil) // the server drops the session either way
		c.c.Close()
	}
	p.srv.Close()
	<-p.done
}

// pausedClient is one wire client paused at its stop.
type pausedClient struct {
	stop  pausedStop
	exp   *pausedExpected
	c     *wire.Client
	rng   *rand.Rand
	lines []int // DSL lines with generated code: the xbreak targets

	frame  int // selected extended frame (xframe persists)
	nextID int // next DSL breakpoint id
	nextBP int // next debugger breakpoint number
	live   []liveBreak
	opID   int64
}

type liveBreak struct{ line, id, bp int }

// pcmd is one wire command with the output it must produce.
type pcmd struct {
	command string
	args    *wire.Args
	want    string
}

func setupPaused(seed int64) (instance, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	b, err := examplebuilds.PagerankDelta()
	if err != nil {
		return nil, err
	}
	srv, addr, done, err := startServer(b, "pagerankdelta")
	if err != nil {
		return nil, err
	}
	p := &pausedInstance{build: b, srv: srv, done: done}
	for i, st := range pausedStops {
		// An xdel of a line whose expansion covers the stop's own
		// breakpoint would clear the stop too, so such lines are no
		// xbreak targets at that stop.
		own := fmt.Sprintf("pagerankdelta.c:%d ", lineOf(b.Source, st.needle))
		var lines []int
		for k, t := range exp.Breaks {
			n, err := strconv.Atoi(k)
			if err != nil {
				p.close()
				return nil, fmt.Errorf("expected_paused.json: bad line key %q", k)
			}
			if !strings.Contains(t["xbreak"], own) {
				lines = append(lines, n)
			}
		}
		sort.Ints(lines)
		c, err := launchAt(addr, b, st.needle)
		if err != nil {
			p.close()
			return nil, err
		}
		p.cl = append(p.cl, &pausedClient{
			stop: st, exp: exp, c: c, lines: lines,
			rng:    rand.New(rand.NewSource(seed*7919 + int64(i))),
			nextID: 1, nextBP: 2, // breakpoint 1 is the stop itself
		})
	}
	// Warm-up: a fixed count of ops per client, so set-up time does not
	// depend on how fast the machine happens to be.
	for _, c := range p.cl {
		for i := 0; i < 200; i++ {
			if err := c.op(nil); err != nil {
				p.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return p, nil
}

// startServer serves b under name on a loopback port. Close the server,
// then wait on the returned channel for its accept loop to exit.
func startServer(b *d2x.Build, name string) (*serve.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := serve.NewWithBuilds(func(n string) (*d2x.Build, error) {
		if n != name {
			return nil, fmt.Errorf("unknown build %q", n)
		}
		return b, nil
	})
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }() // Serve returns nil after Close
	return srv, ln.Addr().String(), done, nil
}

// launchAt connects a client, launches a session and runs it to the
// generated line containing needle.
func launchAt(addr string, b *d2x.Build, needle string) (*wire.Client, error) {
	line := lineOf(b.Source, needle)
	if line == 0 {
		return nil, fmt.Errorf("no generated line contains %q", needle)
	}
	c, err := wire.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	for _, step := range []struct {
		cmd  string
		args *wire.Args
	}{
		{wire.CmdLaunch, &wire.Args{Example: "pagerankdelta"}},
		{wire.CmdBreak, &wire.Args{Spec: fmt.Sprintf("pagerankdelta.c:%d", line)}},
		{wire.CmdRun, nil},
	} {
		if _, err := c.Do(step.cmd, step.args); err != nil {
			c.Close()
			return nil, fmt.Errorf("%s: %w", step.cmd, err)
		}
	}
	c.Events()
	return c, nil
}

func lineOf(src, needle string) int {
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, needle) {
			return i + 1
		}
	}
	return 0
}

//go:embed expected_paused.json
var expectedJSON []byte

func loadExpected() (*pausedExpected, error) {
	var e pausedExpected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected_paused.json: %w", err)
	}
	if len(e.Reads) == 0 || len(e.Breaks) == 0 {
		return nil, fmt.Errorf("expected_paused.json: no expected outputs")
	}
	return &e, nil
}

// op issues one op of the client's seeded mix: 70% single-frame reads,
// 15% single-frame breakpoint writes, 15% batches of 2-16 mixed
// sub-commands. One op is one round trip.
func (c *pausedClient) op(tr *tracer) error {
	c.opID++
	k := c.rng.Intn(100)
	if k < 85 {
		var pc pcmd
		if k < 70 {
			pc = c.nextRead()
		} else {
			pc = c.nextWrite()
		}
		root := tr.start("op."+pc.command, -1)
		sp := tr.start("wire.Client.Do", root)
		f, err := c.c.Do(pc.command, pc.args)
		tr.finish(sp)
		tr.finish(root)
		if err != nil {
			return fmt.Errorf("%s %s: %w", c.stop.name, pc.command, err)
		}
		got := ""
		if f.Body != nil {
			got = f.Body.Output
		}
		if tr != nil {
			tr.wireOp(wire.Request(c.opID, pc.command, pc.args), f)
		}
		if got != pc.want {
			return fmt.Errorf("%s %s %+v: got %q, want %q", c.stop.name, pc.command, pc.args, got, pc.want)
		}
		return nil
	}
	n := 2 + c.rng.Intn(15)
	cmds := make([]pcmd, n)
	subs := make([]wire.SubRequest, n)
	for i := range cmds {
		if c.rng.Intn(85) < 70 {
			cmds[i] = c.nextRead()
		} else {
			cmds[i] = c.nextWrite()
		}
		subs[i] = wire.SubRequest{Command: cmds[i].command, Arguments: cmds[i].args}
	}
	root := tr.start("op.batch", -1)
	sp := tr.start("wire.Client.DoBatch", root)
	results, err := c.c.DoBatch(subs)
	tr.finish(sp)
	tr.finish(root)
	if err != nil {
		return fmt.Errorf("%s batch: %w", c.stop.name, err)
	}
	if tr != nil {
		req := wire.Request(c.opID, wire.CmdBatch, &wire.Args{Batch: subs})
		tr.wireOp(req, wire.Response(c.opID, req, &wire.Body{Results: results}))
	}
	if len(results) != n {
		return fmt.Errorf("%s batch: %d results for %d sub-commands", c.stop.name, len(results), n)
	}
	for i, r := range results {
		if !r.Success || r.Output != cmds[i].want {
			return fmt.Errorf("%s batch[%d] %s: success=%v %s got %q, want %q",
				c.stop.name, i, cmds[i].command, r.Success, r.Message, r.Output, cmds[i].want)
		}
	}
	return nil
}

// nextRead draws a read valid at the client's stop.
func (c *pausedClient) nextRead() pcmd {
	text := c.stop.reads[c.rng.Intn(len(c.stop.reads))]
	want := c.exp.Reads[fmt.Sprintf("%s/%d/%s", c.stop.name, c.frame, text)]
	cmd, args := wireCommand(text)
	if cmd == wire.CmdXFrame {
		c.frame, _ = strconv.Atoi(args.Spec)
	}
	return pcmd{cmd, args, want}
}

// nextWrite draws an xbreak of a DSL line, or an xdel of the oldest live
// DSL breakpoint; at most three stay live.
func (c *pausedClient) nextWrite() pcmd {
	if len(c.live) == 3 || (len(c.live) > 0 && c.rng.Intn(2) == 0) {
		lb := c.live[0]
		c.live = c.live[1:]
		t := c.exp.Breaks[strconv.Itoa(lb.line)]
		return pcmd{wire.CmdXDel, &wire.Args{Spec: strconv.Itoa(lb.id)}, renderBreak(t["xdel"], lb.id, lb.bp)}
	}
	// A line already live would share its generated locations, and one
	// xdel clears them all, so live breakpoints are on distinct lines.
	line := c.lines[c.rng.Intn(len(c.lines))]
	for c.isLive(line) {
		line = c.lines[c.rng.Intn(len(c.lines))]
	}
	t := c.exp.Breaks[strconv.Itoa(line)]
	lb := liveBreak{line: line, id: c.nextID, bp: c.nextBP}
	c.nextID++
	c.nextBP += strings.Count(t["xbreak"], "{bp}")
	c.live = append(c.live, lb)
	return pcmd{wire.CmdXBreak, &wire.Args{Spec: fmt.Sprintf("pagerankdelta.gt:%d", line)}, renderBreak(t["xbreak"], lb.id, lb.bp)}
}

func (c *pausedClient) isLive(line int) bool {
	for _, lb := range c.live {
		if lb.line == line {
			return true
		}
	}
	return false
}

// wireCommand maps a debugger command line onto its wire request.
func wireCommand(text string) (string, *wire.Args) {
	cmd, arg, _ := strings.Cut(text, " ")
	switch {
	case arg == "":
		return cmd, nil
	case cmd == wire.CmdXVars:
		return cmd, &wire.Args{Name: arg}
	}
	return cmd, &wire.Args{Spec: arg}
}

// renderBreak fills an output template: {id} with the DSL breakpoint id
// and the k-th {bp} with debugger breakpoint number bp+k.
func renderBreak(tmpl string, id, bp int) string {
	s := strings.ReplaceAll(tmpl, "{id}", strconv.Itoa(id))
	var b strings.Builder
	for k := 0; ; k++ {
		i := strings.Index(s, "{bp}")
		if i < 0 {
			b.WriteString(s)
			return b.String()
		}
		b.WriteString(s[:i])
		b.WriteString(strconv.Itoa(bp + k))
		s = s[i+len("{bp}"):]
	}
}

var (
	reBPNum  = regexp.MustCompile(`(Breakpoint|Deleted breakpoint) \d+`)
	reDSLNum = regexp.MustCompile(`(with ID: #|DSL breakpoint #)\d+`)
)

// templateOf parameterises the breakpoint numbers of an xbreak or xdel
// output.
func templateOf(out string) string {
	out = reBPNum.ReplaceAllString(out, "$1 {bp}")
	return reDSLNum.ReplaceAllString(out, "$1{id}")
}

// writeExpected records the expected outputs into path: every read at
// both stops under every frame selection over the wire, and the
// xbreak/xdel templates of every DSL line with generated code from an
// in-process session with no other breakpoint, concatenated transcript
// first as the server does.
func writeExpected(path string) error {
	b, err := examplebuilds.PagerankDelta()
	if err != nil {
		return err
	}
	srv, addr, done, err := startServer(b, "pagerankdelta")
	if err != nil {
		return err
	}
	defer func() { srv.Close(); <-done }()
	exp := pausedExpected{Reads: map[string]string{}, Breaks: map[string]map[string]string{}}
	for _, st := range pausedStops {
		c, err := launchAt(addr, b, st.needle)
		if err != nil {
			return err
		}
		for f := 0; f < st.frames; f++ {
			for _, text := range st.reads {
				for _, t := range []string{fmt.Sprintf("xframe %d", f), text} {
					cmd, args := wireCommand(t)
					r, err := c.Do(cmd, args)
					if err != nil {
						return fmt.Errorf("%s: %w", t, err)
					}
					exp.Reads[fmt.Sprintf("%s/%d/%s", st.name, f, text)] = r.Body.Output
				}
			}
		}
		c.Close()
	}
	var prog, tran bytes.Buffer
	d, err := b.NewSessionSplit(&prog, &tran)
	if err != nil {
		return err
	}
	defer d.Close()
	ex := func(cmd string) (string, error) {
		prog.Reset()
		tran.Reset()
		err := d.Execute(cmd)
		return tran.String() + prog.String(), err
	}
	for _, cmd := range []string{"break main", "run", "delete 1"} {
		if _, err := ex(cmd); err != nil {
			return err
		}
	}
	for line, id := 1, 1; line <= strings.Count(graphit.PageRankDeltaSrc, "\n"); line++ {
		out, err := ex(fmt.Sprintf("xbreak pagerankdelta.gt:%d", line))
		if err != nil {
			return err
		}
		if strings.HasPrefix(out, "No generated code") {
			continue
		}
		del, err := ex(fmt.Sprintf("xdel %d", id))
		if err != nil {
			return err
		}
		id++
		exp.Breaks[strconv.Itoa(line)] = map[string]string{"xbreak": templateOf(out), "xdel": templateOf(del)}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(exp); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
