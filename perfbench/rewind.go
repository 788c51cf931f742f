package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/debugger"
	"d2x/internal/graphit"
	"d2x/internal/minic/journal"
)

// run_and_rewind: one in-process session at a time over a seeded
// PageRankDelta build, recording every cycle and rewinding at a seeded
// third of the stops, the way a REPL user would.
var runAndRewind = &workload{
	name: "run_and_rewind",
	why: "The VM, the debugger resume loop and the journal do the work; wire and d2xr do almost none. " +
		"Forward ops pay the record hook, reverse ops restore and replay. Noise it avoids: one graph's " +
		"frontier sizes set every op's cost, so a run cycles over eight seeded graphs, and the set-up's " +
		"warm-up cycle rewinds the same way whatever the seed.",
	setup:     setupRewind,
	setupReps: 5,
	blockOps:  256,
}

// prdIterLine is the per-iteration DSL line of PageRankDelta: `print
// frontier.size()`, the Fig 7 stop.
const prdIterLine = 26

// rewindGraphs is how many seeded graphs a run cycles through. One graph's
// frontier sizes set the cost of every op of its cycles, so cycling over
// several keeps the choice of seed from moving throughput and latency.
const rewindGraphs = 8

// rewindGraph is one seeded PageRankDelta build and the frontier sizes
// its debugger-free run prints, one per iteration.
type rewindGraph struct {
	src   string
	build *d2x.Build
	sizes []string
}

type rewindInstance struct {
	graphs []*rewindGraph
	seed   int64
	cycles int64
	cyc    *rewindCycle
	// Traced runs only: resume-op accounting for the per-layer metrics,
	// and the journal positions the rewinds landed on.
	reverseOps, replaySteps         int64
	forwardOps, forwardSteps, fwdNS int64
	targets                         []int64
}

// seededPageRank returns the PageRankDelta source over the g-th power-law
// graph generated from the seed.
func seededPageRank(seed int64, g int) string {
	spec := fmt.Sprintf("powerlaw:n=64,m=512,seed=%d", 1+(uint64(seed)*rewindGraphs+uint64(g))%1000003)
	return strings.Replace(graphit.PageRankDeltaSrc, `load("powerlaw:n=64,m=512,seed=5")`, "load("+strconv.Quote(spec)+")", 1)
}

func setupRewind(seed int64) (instance, error) {
	r := &rewindInstance{seed: seed}
	for g := 0; g < rewindGraphs; g++ {
		src := seededPageRank(seed, g)
		art, err := graphit.CompileToC("pagerankdelta.gt", src,
			"pagerankdelta.sched", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: true})
		if err != nil {
			return nil, err
		}
		b, err := art.Link()
		if err != nil {
			return nil, err
		}
		out, _, err := b.Run()
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		sizes := strings.Fields(out)
		if len(sizes) != 10 {
			return nil, fmt.Errorf("reference run printed %d frontier sizes, want 10", len(sizes))
		}
		r.graphs = append(r.graphs, &rewindGraph{src: src, build: b, sizes: sizes})
	}
	// Warm-up: one whole cycle, numbered 0 so its rewinds, and with them
	// the set-up time, do not depend on the workload seed.
	r.cycles = -1
	for {
		last, err := r.step(nil)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if last {
			break
		}
	}
	return r, nil
}

func (r *rewindInstance) clients() []client { return []client{r} }

// probe targets the first graph, whose cycles' rewind positions the
// traced run kept.
func (r *rewindInstance) probe() (*probeTarget, error) {
	g := r.graphs[0]
	printLine := lineOf(g.build.Source, "__frontier_size(frontier)")
	return &probeTarget{
		build: g.build, natives: graphit.RegisterGraphNatives,
		stops: []probeStop{{
			script: []string{fmt.Sprintf("break pagerankdelta.c:%d", printLine), "run"},
			reads:  []string{"xbt", "xframe 0", "xlist", "xvars", "xvars frontier"},
			xbreak: fmt.Sprintf("pagerankdelta.gt:%d", prdIterLine),
		}},
		record: true, targets: r.targets,
		gtSource: g.src, gtSchedule: graphit.PageRankDeltaSchedule,
	}, nil
}

func (r *rewindInstance) close() {
	if r.cyc != nil {
		r.cyc.d.Close()
		r.cyc = nil
	}
}

// rewindCycle is the state of one session's cycle.
type rewindCycle struct {
	g          *rewindGraph
	d          *debugger.Debugger
	prog, tran bytes.Buffer
	rng        *rand.Rand
	// pending resume ops of the cycle, issued one per op.
	queue []string
	stop  int     // current stop: iteration index, or -1 before the first
	pos   []int64 // journal position of each stop reached
	// rewind decides, per stop, whether arriving there forward rewinds.
	rewind  []bool
	visited []bool
}

func (r *rewindInstance) op(tr *tracer) error {
	_, err := r.step(tr)
	return err
}

// step issues the next resume op of the current cycle, opening a new
// session first when none is open. It reports whether the op ended the
// cycle.
func (r *rewindInstance) step(tr *tracer) (bool, error) {
	if r.cyc == nil {
		if err := r.open(tr); err != nil {
			return true, err
		}
	}
	c := r.cyc
	cmd := c.queue[0]
	c.queue = c.queue[1:]
	err := r.resume(c, cmd, tr)
	if err != nil || len(c.queue) == 0 {
		r.finish(tr)
		return true, err
	}
	return false, nil
}

// open starts a cycle: a new session with `break main` set, whose first
// op is `run`.
func (r *rewindInstance) open(tr *tracer) error {
	r.cycles++
	cycleSeed := r.seed*1_000_003 + r.cycles
	if r.cycles == 0 {
		cycleSeed = 0 // the set-up's warm-up cycle
	}
	g := r.graphs[r.cycles%int64(len(r.graphs))]
	c := &rewindCycle{
		g:       g,
		rng:     rand.New(rand.NewSource(cycleSeed)),
		stop:    -2,
		rewind:  make([]bool, len(g.sizes)),
		visited: make([]bool, len(g.sizes)),
	}
	for i := 1; i < len(c.rewind); i++ {
		c.rewind[i] = c.rng.Intn(3) == 0
	}
	sp := tr.start("d2x.Build.NewSession", -1)
	d, err := g.build.NewSessionSplit(&c.prog, &c.tran)
	tr.finish(sp)
	if err != nil {
		return err
	}
	c.d = d
	r.cyc = c
	if err := r.exec(c, "break main", tr); err != nil {
		return err
	}
	c.queue = []string{"run"}
	return nil
}

// finish ends the cycle: record stop and close the session.
func (r *rewindInstance) finish(tr *tracer) {
	c := r.cyc
	if c == nil {
		return
	}
	if c.d.ActiveRecorder() != nil {
		_ = r.exec(c, "record stop", tr) // the session closes next either way
	}
	c.d.Close()
	r.cyc = nil
}

func (r *rewindInstance) exec(c *rewindCycle, line string, tr *tracer) error {
	c.prog.Reset()
	c.tran.Reset()
	sp := tr.start("debugger.Execute", -1)
	err := c.d.Execute(line)
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", line, err)
	}
	return nil
}

// resume issues one resume op, checks where it stopped and what the
// program printed, and queues the cycle's next ops.
func (r *rewindInstance) resume(c *rewindCycle, cmd string, tr *tracer) error {
	vm := c.d.Process().VM
	steps0 := vm.Steps
	var rep0 int64
	if tr != nil {
		rep0 = r.replayed(c)
	}
	root := tr.start("op."+strings.Fields(cmd)[0], -1)
	c.prog.Reset()
	c.tran.Reset()
	sp := tr.start("debugger.Execute", root)
	t0 := time.Now()
	err := c.d.Execute(cmd)
	ns := time.Since(t0).Nanoseconds()
	tr.finish(sp)
	tr.finish(root)
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	tr.wireOp(inProcessFrames(cmd, c.tran.String()+c.prog.String())...)
	if tr != nil {
		if cmd == "reverse-continue" || strings.HasPrefix(cmd, "record goto ") {
			r.reverseOps++
			r.replaySteps += r.replayed(c) - rep0
		} else if c.d.ActiveRecorder() != nil {
			r.forwardOps++
			r.forwardSteps += vm.Steps - steps0
			r.fwdNS += ns
		}
	}
	prog, tran := c.prog.String(), c.tran.String()
	switch {
	case cmd == "run":
		if !strings.Contains(tran, "Breakpoint 1, main ()") || prog != "" {
			return fmt.Errorf("run: did not stop at main: %q", tran)
		}
		if err := r.exec(c, fmt.Sprintf("xbreak pagerankdelta.gt:%d", prdIterLine), tr); err != nil {
			return err
		}
		if err := r.exec(c, "delete 1", tr); err != nil {
			return err
		}
		c.stop = -1
		c.queue = append(c.queue, "continue")
		return nil
	case cmd == "continue":
		if c.stop >= 0 {
			if want := c.g.sizes[c.stop] + "\n"; prog != want {
				return fmt.Errorf("continue from stop %d printed %q, want %q", c.stop, prog, want)
			}
		} else if prog != "" {
			return fmt.Errorf("continue to the first stop printed %q", prog)
		}
		if c.stop == len(c.g.sizes)-1 {
			if !strings.Contains(tran, "[Program exited]") {
				return fmt.Errorf("continue from the last stop did not exit: %q", tran)
			}
			return nil
		}
		c.stop++
		if err := r.checkStop(c, tr); err != nil {
			return err
		}
		if c.stop == 0 {
			if err := r.exec(c, "record", tr); err != nil {
				return err
			}
		}
		rec := c.d.ActiveRecorder()
		if len(c.pos) <= c.stop {
			c.pos = append(c.pos, rec.Step())
		} else if c.pos[c.stop] != rec.Step() {
			return fmt.Errorf("stop %d re-reached at position %d, first at %d", c.stop, rec.Step(), c.pos[c.stop])
		}
		first := !c.visited[c.stop]
		c.visited[c.stop] = true
		if first && c.rewind[c.stop] {
			back := 1 + c.rng.Intn(3)
			if back > c.stop {
				back = c.stop
			}
			if c.rng.Intn(2) == 0 {
				for i := 0; i < back; i++ {
					c.queue = append(c.queue, "reverse-continue")
				}
			} else {
				c.queue = append(c.queue, fmt.Sprintf("record goto %d", c.pos[c.stop-back]))
			}
		}
		c.queue = append(c.queue, "continue")
		return nil
	case cmd == "reverse-continue", strings.HasPrefix(cmd, "record goto "):
		if prog != "" {
			return fmt.Errorf("%s printed program output %q", cmd, prog)
		}
		if cmd == "reverse-continue" {
			c.stop--
		} else {
			want, _ := strconv.ParseInt(strings.TrimPrefix(cmd, "record goto "), 10, 64)
			for c.stop > 0 && c.pos[c.stop] != want {
				c.stop--
			}
		}
		if got := c.d.ActiveRecorder().Step(); got != c.pos[c.stop] {
			return fmt.Errorf("%s landed at position %d, want stop %d at %d", cmd, got, c.stop, c.pos[c.stop])
		}
		if tr != nil && c.g == r.graphs[0] {
			r.targets = append(r.targets, c.pos[c.stop])
		}
		return r.checkStop(c, tr)
	}
	return fmt.Errorf("unknown resume op %q", cmd)
}

// replayed returns the instructions the cycle's journal has re-executed
// across all its restores.
func (r *rewindInstance) replayed(c *rewindCycle) int64 {
	if j, ok := c.g.build.Runtime.StateFor(c.d.Process().VM).Journal.(*journal.Journal); ok {
		return j.Stats().ReplaySteps
	}
	return 0
}

// checkStop checks that the session is stopped at the xbreak's DSL line.
func (r *rewindInstance) checkStop(c *rewindCycle, tr *tracer) error {
	if err := r.exec(c, "xbt", tr); err != nil {
		return err
	}
	want := fmt.Sprintf("#0 in main at pagerankdelta.gt:%d\n", prdIterLine)
	if got := c.prog.String() + c.tran.String(); !strings.HasPrefix(got, want) {
		return fmt.Errorf("stop %d: xbt = %q, want frame 0 %q", c.stop, got, want)
	}
	return nil
}
