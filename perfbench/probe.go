package main

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/d2x/d2xr"
	"d2x/internal/d2x/session"
	"d2x/internal/d2x/wire"
	"d2x/internal/debugger"
	"d2x/internal/dwarfish"
	"d2x/internal/graphit"
	"d2x/internal/minic"
	"d2x/internal/minic/effects"
	"d2x/internal/minic/journal"
	"d2x/internal/obs"
	"d2x/internal/progen"
)

// probeStop is one stop the workload's sessions pause at.
type probeStop struct {
	// script brings a fresh session to the stop; every command maps onto
	// a wire request too.
	script []string
	// reads are the paused-state commands probed at the stop.
	reads []string
	// xbreak is the breakpoint spec probed, with its xdel.
	xbreak string
}

// probeTarget is what the probe phase replays through each layer's entry
// point: the workload's build, its stops, and its recording inputs.
type probeTarget struct {
	build   *d2x.Build
	natives func(*minic.Natives) // DSL runtime natives the build links against
	// renders are the progen programs the compile-side probes render,
	// link and time; when empty they time the build and gtSource.
	renders []renderProbe
	stops   []probeStop
	record  bool    // the workload records its forward runs
	targets []int64 // journal positions the workload restored, relative to its first stop
	// gtSource and gtSchedule are the GraphIt program the workload
	// compiled in set-up, when renders is empty.
	gtSource, gtSchedule string
}

// renderProbe is one progen program for the compile-side probes, in the
// link mode a traced op used.
type renderProbe struct {
	spec     *progen.Spec
	optimize bool
}

// probeResults holds the probe phase's samples.
type probeResults struct {
	handleUS, transportUS        []float64
	executeUS, execUS            map[string][]float64
	instrsPerRead                float64
	resolveNS, fusedBuildMS      []float64
	emitMS, decodeMS, tableBytes []float64
	compileMS                    []float64
	rawNS, journalNS             float64
	resumeNS, rawResumeNS        float64
	snapshotMS, restoreMS        []float64
	snapshots                    int
	recordMiB                    float64
	dwarfEncodeMS, dwarfDecodeMS []float64
	effectsMS                    []float64
	graphitMS, renderMS, linkMS  []float64
	newSessionMS                 []float64
}

const (
	cmdReps    = 100 // rounds of every paused command per stop
	costReps   = 15  // repetitions of each millisecond-scale probe
	renderReps = 3   // renders and links of each progen program probed
)

var reXBreakID = regexp.MustCompile(`with ID: #(\d+)`)

// runProbes times each layer's entry point on the workload's own inputs.
func runProbes(pt *probeTarget) (*probeResults, error) {
	pr := &probeResults{executeUS: map[string][]float64{}, execUS: map[string][]float64{}}
	b := pt.build
	var reads float64
	for _, st := range pt.stops {
		n, err := pr.probeCommands(b, st)
		if err != nil {
			return nil, err
		}
		reads += n
	}
	pr.instrsPerRead = reads / float64(len(pt.stops))
	if err := pr.probeServe(b, pt.stops[0]); err != nil {
		return nil, fmt.Errorf("serve probe: %w", err)
	}
	if err := pr.probeStatic(pt); err != nil {
		return nil, err
	}
	if err := pr.probeExecution(pt); err != nil {
		return nil, err
	}
	return pr, nil
}

// pausedSession opens a session on b and runs it to st, with every
// breakpoint deleted afterwards.
func pausedSession(b *d2x.Build, st probeStop) (*debugger.Debugger, *bytes.Buffer, error) {
	out := &bytes.Buffer{}
	d, err := b.NewSession(out)
	if err != nil {
		return nil, nil, err
	}
	for _, cmd := range append(append([]string(nil), st.script...), "delete") {
		if err := d.Execute(cmd); err != nil {
			d.Close()
			return nil, nil, fmt.Errorf("%s: %w", cmd, err)
		}
	}
	out.Reset()
	return d, out, nil
}

func cmdName(text string) string { return strings.Fields(text)[0] }

// probeCommands times Debugger.Execute and a one-op Runtime.ExecBatch of
// every paused command at the stop, and returns the VM instructions one
// command executes on average (rtv handlers run inside the debuggee).
func (pr *probeResults) probeCommands(b *d2x.Build, st probeStop) (float64, error) {
	d, out, err := pausedSession(b, st)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	vm := d.Process().VM
	exec := func(text string) (string, error) {
		out.Reset()
		t0 := time.Now()
		err := d.Execute(text)
		pr.executeUS[cmdName(text)] = append(pr.executeUS[cmdName(text)], us(time.Since(t0)))
		return out.String(), err
	}
	steps0, cmds := vm.Steps, 0
	for i := 0; i < cmdReps; i++ {
		for _, r := range st.reads {
			if _, err := exec(r); err != nil {
				return 0, fmt.Errorf("%s: %w", r, err)
			}
			cmds++
		}
		o, err := exec("xbreak " + st.xbreak)
		m := reXBreakID.FindStringSubmatch(o)
		if err != nil || m == nil {
			return 0, fmt.Errorf("xbreak %s: %q %v", st.xbreak, o, err)
		}
		if _, err := exec("xdel " + m[1]); err != nil {
			return 0, fmt.Errorf("xdel: %w", err)
		}
		cmds += 2
	}
	perCmd := float64(vm.Steps-steps0) / float64(cmds)

	rip, ok1 := d.RegisterRIP()
	rsp, ok2 := d.RegisterRSP()
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("no registers at the stop")
	}
	rt := b.Runtime
	var res d2xr.BatchResults
	batch := func(name string, op d2xr.BatchOp) ([]byte, error) {
		t0 := time.Now()
		rt.ExecBatch(vm, []d2xr.BatchOp{op}, &res)
		pr.execUS[name] = append(pr.execUS[name], us(time.Since(t0)))
		return res.Output(0), res.Ops[0].Err
	}
	for i := 0; i < cmdReps; i++ {
		for _, r := range st.reads {
			op, err := batchOp(r, rip, rsp)
			if err != nil {
				return 0, err
			}
			if _, err := batch(cmdName(r), op); err != nil {
				return 0, fmt.Errorf("batch %s: %w", r, err)
			}
		}
		o, err := batch("xbreak", d2xr.BatchOp{Kind: d2xr.BatchXBreak, RIP: rip, Arg: st.xbreak})
		m := reXBreakID.FindSubmatch(o)
		if err != nil || m == nil {
			return 0, fmt.Errorf("batch xbreak %s: %q %v", st.xbreak, o, err)
		}
		if _, err := batch("xdel", d2xr.BatchOp{Kind: d2xr.BatchXDel, Arg: string(m[1])}); err != nil {
			return 0, fmt.Errorf("batch xdel: %w", err)
		}
	}

	info := rt.Info()
	var fu *session.Fused
	for i := 0; i < costReps; i++ {
		svc := session.New()
		if _, err := svc.Tables(vm); err != nil {
			return 0, err
		}
		t0 := time.Now()
		f, err := svc.Fused(vm, info)
		if err != nil {
			return 0, err
		}
		pr.fusedBuildMS = append(pr.fusedBuildMS, ms(time.Since(t0)))
		fu = f
	}
	sink := 0
	for i := 0; i < cmdReps; i++ {
		t0 := time.Now()
		for j := 0; j < 1000; j++ {
			line, _, _ := fu.Resolve(rip)
			sink += line
		}
		pr.resolveNS = append(pr.resolveNS, float64(time.Since(t0).Nanoseconds())/1000)
	}
	runtime.KeepAlive(sink)

	for i := 0; i < costReps; i++ {
		t0 := time.Now()
		if _, err := d2xenc.Decode(vm); err != nil {
			return 0, err
		}
		pr.decodeMS = append(pr.decodeMS, ms(time.Since(t0)))
		t0 = time.Now()
		_ = vm.TakeSnapshot()
		pr.snapshotMS = append(pr.snapshotMS, ms(time.Since(t0)))
	}
	return perCmd, nil
}

// batchOp maps a paused read onto its typed batch op.
func batchOp(text string, rip, rsp int64) (d2xr.BatchOp, error) {
	cmd, arg, _ := strings.Cut(text, " ")
	kinds := map[string]d2xr.BatchKind{"xbt": d2xr.BatchXBT, "xframe": d2xr.BatchXFrame, "xlist": d2xr.BatchXList, "xvars": d2xr.BatchXVars}
	k, ok := kinds[cmd]
	if !ok {
		return d2xr.BatchOp{}, fmt.Errorf("no batch op for %q", text)
	}
	return d2xr.BatchOp{Kind: k, RIP: rip, RSP: rsp, Arg: arg}, nil
}

// probeServe drives one wire session on the build to the stop and times
// each paused read: round trip, server-side handling (the exact growth of
// serve.cmd.latency over the request) and encode+decode of the frames;
// the rest of the round trip is transport.
func (pr *probeResults) probeServe(b *d2x.Build, st probeStop) error {
	srv, addr, done, err := startServer(b, "probe")
	if err != nil {
		return err
	}
	defer func() { srv.Close(); <-done }()
	c, err := wire.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Do(wire.CmdLaunch, &wire.Args{Example: "probe"}); err != nil {
		return err
	}
	for _, text := range st.script {
		cmd, args := wireCommand(text)
		if _, err := c.Do(cmd, args); err != nil {
			return fmt.Errorf("%s: %w", text, err)
		}
	}
	c.Events()
	h := obs.GetHistogram("serve.cmd.latency")
	for i := 0; i < cmdReps; i++ {
		for _, text := range st.reads {
			cmd, args := wireCommand(text)
			n0, s0 := h.Count(), h.SumNS()
			t0 := time.Now()
			f, err := c.Do(cmd, args)
			rtt := time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s: %w", text, err)
			}
			// The server observes the request just after queueing the
			// response, so wait for the observation to land.
			for wait := time.Now(); h.Count() == n0; runtime.Gosched() {
				if time.Since(wait) > time.Second {
					return fmt.Errorf("%s: the server recorded no handling time", text)
				}
			}
			handle := float64(h.SumNS()-s0) / 1e3
			codec, _ := codecCost([][]*wire.Frame{{wire.Request(1, cmd, args), f}})
			pr.handleUS = append(pr.handleUS, handle)
			pr.transportUS = append(pr.transportUS, us(rtt)-handle-codec[0])
		}
	}
	_, err = c.Do(wire.CmdDisconnect, nil)
	return err
}

// probeStatic times the compile-side layers on the workload's builds.
func (pr *probeResults) probeStatic(pt *probeTarget) error {
	if len(pt.renders) == 0 {
		if err := pr.probeBuild(pt.build, pt.natives); err != nil {
			return err
		}
		return pr.probeGraphit(pt)
	}
	for _, r := range pt.renders {
		var natives func(*minic.Natives)
		if r.spec.Kind == progen.KindGraphit {
			natives = graphit.RegisterGraphNatives
		}
		var b *d2x.Build
		for i := 0; i < renderReps; i++ {
			t0 := time.Now()
			p, err := progen.Render(r.spec)
			if err != nil {
				return err
			}
			if r.spec.Kind == progen.KindGraphit {
				pr.graphitMS = append(pr.graphitMS, ms(time.Since(t0)))
			} else {
				pr.renderMS = append(pr.renderMS, ms(time.Since(t0)))
			}
			t0 = time.Now()
			if b, err = p.Build(r.optimize); err != nil {
				return err
			}
			pr.linkMS = append(pr.linkMS, ms(time.Since(t0)))
			if err := pr.probeSession(b); err != nil {
				return err
			}
		}
		if err := pr.probeBuild(b, natives); err != nil {
			return err
		}
	}
	return nil
}

// probeSession times opening (and closes) one debug session on b.
func (pr *probeResults) probeSession(b *d2x.Build) error {
	t0 := time.Now()
	d, err := b.NewSessionSplit(io.Discard, io.Discard)
	if err != nil {
		return err
	}
	pr.newSessionMS = append(pr.newSessionMS, ms(time.Since(t0)))
	d.Close()
	return nil
}

// probeBuild times table emission, compilation, debug-info encode and
// decode, and effect analysis of one build.
func (pr *probeResults) probeBuild(b *d2x.Build, natives func(*minic.Natives)) error {
	var tables strings.Builder
	for i := 0; i < costReps; i++ {
		tables.Reset()
		t0 := time.Now()
		if err := d2xenc.EmitTablesFX(b.Ctx, nil, &tables); err != nil {
			return err
		}
		pr.emitMS = append(pr.emitMS, ms(time.Since(t0)))
		pr.tableBytes = append(pr.tableBytes, float64(tables.Len()))

		nats := minic.NewNatives()
		d2xr.New().Register(nats)
		if natives != nil {
			natives(nats)
		}
		t0 = time.Now()
		if _, err := minic.Compile(b.Program.SourceName, b.Source, nats); err != nil {
			return fmt.Errorf("compile probe: %w", err)
		}
		pr.compileMS = append(pr.compileMS, ms(time.Since(t0)))

		t0 = time.Now()
		blob := dwarfish.Build(b.Program).Encode()
		pr.dwarfEncodeMS = append(pr.dwarfEncodeMS, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := dwarfish.Decode(blob); err != nil {
			return err
		}
		pr.dwarfDecodeMS = append(pr.dwarfDecodeMS, ms(time.Since(t0)))
		t0 = time.Now()
		effects.Analyze(b.Program)
		pr.effectsMS = append(pr.effectsMS, ms(time.Since(t0)))
	}
	return nil
}

// probeGraphit times the GraphIt compile, link and session start of the
// workload's GraphIt program.
func (pr *probeResults) probeGraphit(pt *probeTarget) error {
	b := pt.build
	for i := 0; i < costReps; i++ {
		t0 := time.Now()
		art, err := graphit.CompileToC("pagerankdelta.gt", pt.gtSource, "pagerankdelta.sched", pt.gtSchedule, graphit.CompileOptions{D2X: true})
		if err != nil {
			return err
		}
		on := ms(time.Since(t0))
		t0 = time.Now()
		if _, err := graphit.CompileToC("pagerankdelta.gt", pt.gtSource, "pagerankdelta.sched", pt.gtSchedule, graphit.CompileOptions{}); err != nil {
			return err
		}
		// d2xc's share of a GraphIt compile: D2X on minus D2X off.
		pr.graphitMS = append(pr.graphitMS, on)
		pr.renderMS = append(pr.renderMS, on-ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := art.Link(); err != nil {
			return err
		}
		pr.linkMS = append(pr.linkMS, ms(time.Since(t0)))
	}
	for i := 0; i < costReps; i++ {
		if err := pr.probeSession(b); err != nil {
			return err
		}
	}
	return nil
}

// probeExecution times the VM raw and with a journal attached, the
// debugger's forward resume from the workload's first stop to exit, and
// journal restores to the workload's own targets.
func (pr *probeResults) probeExecution(pt *probeTarget) error {
	b := pt.build
	var raw, attached, resume []float64
	for i := 0; i < 5; i++ {
		for _, rec := range []bool{false, true} {
			vm := minic.NewVM(b.Program, io.Discard)
			if err := vm.Start(); err != nil {
				return err
			}
			if rec {
				if _, err := journal.Attach(vm, journal.Options{}); err != nil {
					return err
				}
			}
			s0 := vm.Steps
			t0 := time.Now()
			if err := vm.RunToCompletion(0); err != nil {
				return err
			}
			ns := float64(time.Since(t0).Nanoseconds()) / float64(vm.Steps-s0)
			if rec {
				attached = append(attached, ns)
			} else {
				raw = append(raw, ns)
			}
			vm.SetStepHook(nil)
		}
		ns, err := resumeToExit(pt)
		if err != nil {
			return err
		}
		resume = append(resume, ns)
	}
	pr.rawNS, pr.journalNS, pr.resumeNS = median(raw), median(attached), median(resume)
	pr.rawResumeNS = pr.rawNS
	if pt.record {
		pr.rawResumeNS = pr.journalNS
	}

	// Journal: record from the first stop to exit, then restore.
	d, _, err := pausedSession(b, pt.stops[0])
	if err != nil {
		return err
	}
	defer d.Close()
	for _, cmd := range []string{"record", "continue"} {
		if err := d.Execute(cmd); err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
	}
	j, ok := b.Runtime.StateFor(d.Process().VM).Journal.(*journal.Journal)
	if !ok {
		return fmt.Errorf("no journal after record")
	}
	st := j.Stats()
	pr.snapshots, pr.recordMiB = st.Snapshots, float64(st.RecordBytes)/(1<<20)
	targets := append([]int64(nil), pt.targets...)
	if len(targets) == 0 {
		for i := int64(1); i <= 10; i++ {
			targets = append(targets, st.Steps*i/11)
		}
	}
	if len(targets) > 200 {
		targets = targets[:200]
	}
	// A restore truncates the history after its target, so restore the
	// latest target first.
	sort.Slice(targets, func(a, b int) bool { return targets[a] > targets[b] })
	for _, t := range targets {
		t0 := time.Now()
		if err := j.RestoreTo(t); err != nil {
			return fmt.Errorf("restore to %d: %w", t, err)
		}
		pr.restoreMS = append(pr.restoreMS, ms(time.Since(t0)))
	}
	return d.Execute("record stop")
}

// resumeToExit times one forward continue from the first stop to exit,
// recording if the workload does, in nanoseconds per VM instruction.
func resumeToExit(pt *probeTarget) (float64, error) {
	d, _, err := pausedSession(pt.build, pt.stops[0])
	if err != nil {
		return 0, err
	}
	defer d.Close()
	if pt.record {
		if err := d.Execute("record"); err != nil {
			return 0, err
		}
		defer func() { _ = d.Execute("record stop") }() // the session closes next either way
	}
	vm := d.Process().VM
	s0 := vm.Steps
	t0 := time.Now()
	if err := d.Execute("continue"); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(vm.Steps-s0), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
