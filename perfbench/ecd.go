package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"d2x/internal/d2x"
	"d2x/internal/d2x/d2xr"
	"d2x/internal/d2x/wire"
	"d2x/internal/graphit"
	"d2x/internal/minic"
	"d2x/internal/progen"
)

// edit_compile_debug: one worker cycling over a progen corpus, where one
// op is the whole render, link, launch, break, inspect and run-to-exit
// cycle of one program.
var editCompileDebug = &workload{
	name: "edit_compile_debug",
	why: "The compilers and the cold D2X path (table decode, fused-index build) do the work the other two " +
		"workloads pay only in set-up. Noise it avoids: a corpus drawn afresh per seed changes how much " +
		"work a pass holds, so the corpus is fixed and each run cycles through all of it; the seed orders " +
		"it and picks link modes and breakpoints.",
	setup:     setupECD,
	setupReps: 3,
	blockOps:  128,
}

const (
	// corpusSeed names the progen corpus. It is fixed so that every
	// workload seed measures the same mix of program sizes; the workload
	// seed orders the corpus and picks link modes and breakpoints.
	corpusSeed = 1
	// corpusSize is how many progen programs one pass visits: 48 staged
	// mini-C and 16 GraphIt.
	corpusSize = 64
	// discoverStops caps the stops the set-up walks to find the DSL lines
	// a run reaches.
	discoverStops = 200
)

type ecdProgram struct {
	spec  *progen.Spec
	want  string // program output of the reference run
	lines []int  // DSL lines whose first hit stops with that line as frame 0
}

type ecdInstance struct {
	corpus []*ecdProgram
	order  []int
	rng    *rand.Rand
	n      int
	// Traced runs only: the ops run, their VM instructions, and the last
	// op's program and build for the probe phase.
	traced    []ecdOp
	opSteps   []float64
	rewrites  int64
	last      ecdOp
	lastBuild *d2x.Build
}

// ecdOp is one traced cycle: which program, which link mode, which line.
type ecdOp struct {
	prog     *ecdProgram
	optimize bool
	target   string
}

func setupECD(seed int64) (instance, error) {
	e := &ecdInstance{rng: rand.New(rand.NewSource(seed))}
	for i := 0; len(e.corpus) < corpusSize; i++ {
		p, err := prepareProgram(progen.Generate(corpusSeed, i))
		if err != nil {
			return nil, err
		}
		if len(p.lines) > 0 {
			e.corpus = append(e.corpus, p)
		}
	}
	e.order = e.rng.Perm(len(e.corpus))
	// Warm-up: the first four cycles of the seeded order.
	for i := 0; i < 4; i++ {
		if err := e.op(nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *ecdInstance) clients() []client { return []client{e} }
func (e *ecdInstance) close()            {}

// probe counts the optimiser rewrites of the traced ops' optimised links
// and targets the last traced op's build and stop. The compile-side
// probes cover up to maxRenders distinct traced programs, one of each
// kind at least.
func (e *ecdInstance) probe() (*probeTarget, error) {
	rewrites := map[*ecdProgram]int64{}
	var renders []renderProbe
	kinds := map[string]bool{}
	for _, op := range e.traced {
		if _, ok := rewrites[op.prog]; !ok {
			n, err := countRewrites(op.prog)
			if err != nil {
				return nil, err
			}
			rewrites[op.prog] = n
			if len(renders) < maxRenders {
				renders = append(renders, renderProbe{op.prog.spec, op.optimize})
				kinds[op.prog.spec.Kind] = true
			}
		}
		if op.optimize {
			e.rewrites += rewrites[op.prog]
		}
	}
	for _, p := range e.corpus {
		if !kinds[p.spec.Kind] {
			kinds[p.spec.Kind] = true
			renders = append(renders, renderProbe{p.spec, false})
		}
	}
	return &probeTarget{
		build: e.lastBuild, natives: nativesFor(e.last.prog.spec.Kind), renders: renders,
		stops: []probeStop{{
			script: []string{"break main", "run", "xbreak " + e.last.target, "continue"},
			reads:  []string{"xbt", "xframe 0", "xlist", "xvars"},
			xbreak: e.last.target,
		}},
	}, nil
}

// maxRenders caps the distinct traced programs the compile-side probes
// time.
const maxRenders = 16

// nativesFor returns the DSL runtime natives a progen program of the kind
// links against.
func nativesFor(kind string) func(*minic.Natives) {
	if kind == progen.KindGraphit {
		return graphit.RegisterGraphNatives
	}
	return nil
}

// countRewrites returns how many rewrites the optimiser makes linking p:
// its unoptimised generated source, tables included, through
// minic.CompileOptimized.
func countRewrites(p *ecdProgram) (int64, error) {
	rp, err := progen.Render(p.spec)
	if err != nil {
		return 0, err
	}
	b, err := rp.Build(false)
	if err != nil {
		return 0, err
	}
	nats := minic.NewNatives()
	d2xr.New().Register(nats)
	if natives := nativesFor(p.spec.Kind); natives != nil {
		natives(nats)
	}
	_, n, err := minic.CompileOptimized(b.Program.SourceName, b.Source, nats)
	if err != nil {
		return 0, fmt.Errorf("%s: optimised compile: %w", p.spec.Name(), err)
	}
	return int64(n), nil
}

// prepareProgram renders and links a corpus program in both modes, runs
// it for its reference output, and finds the DSL lines whose first hit
// stops there in both link modes.
func prepareProgram(spec *progen.Spec) (*ecdProgram, error) {
	p, err := progen.Render(spec)
	if err != nil {
		return nil, err
	}
	ep := &ecdProgram{spec: spec}
	var sets [2]map[int]bool
	for mode := 0; mode < 2; mode++ {
		b, err := p.Build(mode == 1)
		if err != nil {
			return nil, err
		}
		if mode == 0 {
			if ep.want, _, err = b.Run(); err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", spec.Name(), err)
			}
		}
		if sets[mode], err = discoverLines(b, p); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name(), err)
		}
	}
	for l := range sets[0] {
		if sets[1][l] {
			ep.lines = append(ep.lines, l)
		}
	}
	sort.Ints(ep.lines)
	return ep, nil
}

var (
	reBPAt     = regexp.MustCompile(`(?m)^Breakpoint (\d+) at `)
	reBPHit    = regexp.MustCompile(`(?m)^Breakpoint (\d+), `)
	reFrame0   = regexp.MustCompile(`^#0 in \S+ at (\S+):(\d+)\n`)
	reInserted = regexp.MustCompile(`Inserting \d+ breakpoints with ID`)
)

// discoverLines xbreaks every DSL line, walks up to discoverStops stops,
// and returns the lines whose first hit stops with frame 0 on that line.
func discoverLines(b *d2x.Build, p *progen.Program) (map[int]bool, error) {
	var buf bytes.Buffer
	d, err := b.NewSession(&buf)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	ex := func(cmd string) (string, error) {
		buf.Reset()
		err := d.Execute(cmd)
		return buf.String(), err
	}
	if _, err := ex("break main"); err != nil {
		return nil, err
	}
	if _, err := ex("run"); err != nil {
		return nil, err
	}
	owner := map[int]int{} // debugger breakpoint -> DSL line
	for l := 1; l <= strings.Count(p.DSLSource, "\n"); l++ {
		out, err := ex(fmt.Sprintf("xbreak %s:%d", p.DSLFile, l))
		if err != nil {
			return nil, err
		}
		if !reInserted.MatchString(out) {
			continue
		}
		for _, m := range reBPAt.FindAllStringSubmatch(out, -1) {
			n, _ := strconv.Atoi(m[1])
			owner[n] = l
		}
	}
	if _, err := ex("delete 1"); err != nil {
		return nil, err
	}
	found := map[int]bool{}
	seen := map[int]bool{}
	for i := 0; i < discoverStops; i++ {
		out, err := ex("continue")
		if err != nil {
			return nil, err
		}
		m := reBPHit.FindStringSubmatch(out)
		if m == nil {
			break // exited
		}
		n, _ := strconv.Atoi(m[1])
		l, ok := owner[n]
		if !ok || seen[l] {
			continue
		}
		seen[l] = true
		xbt, err := ex("xbt")
		if err != nil {
			return nil, err
		}
		if f := reFrame0.FindStringSubmatch(xbt); f != nil && f[1] == p.DSLFile && f[2] == strconv.Itoa(l) {
			found[l] = true
		}
	}
	return found, nil
}

// op runs one edit-compile-debug cycle and checks it: the first stop's
// xbt frame 0 names the xbreak's line, and the program output under the
// debugger equals the reference run's.
func (e *ecdInstance) op(tr *tracer) error {
	ep := e.corpus[e.order[e.n%len(e.corpus)]]
	e.n++
	optimize := e.rng.Intn(2) == 0
	line := ep.lines[e.rng.Intn(len(ep.lines))]
	kind := ep.spec.Kind

	root := tr.start("op."+kind, -1)
	defer tr.finish(root)
	sp := tr.start("progen.Render."+kind, root)
	p, err := progen.Render(ep.spec)
	tr.finish(sp)
	if err != nil {
		return err
	}
	sp = tr.start("progen.Program.Build", root)
	b, err := p.Build(optimize)
	tr.finish(sp)
	if err != nil {
		return err
	}
	var prog, tran bytes.Buffer
	sp = tr.start("d2x.Build.NewSession", root)
	d, err := b.NewSessionSplit(&prog, &tran)
	tr.finish(sp)
	if err != nil {
		return err
	}
	defer d.Close()
	target := fmt.Sprintf("%s:%d", p.DSLFile, line)
	if tr != nil {
		e.last = ecdOp{prog: ep, optimize: optimize, target: target}
		e.lastBuild = b
		e.traced = append(e.traced, e.last)
	}
	steps0 := d.Process().VM.Steps
	var output strings.Builder
	var frames []*wire.Frame
	if tr != nil {
		defer func() { tr.wireOp(frames...) }()
	}
	ex := func(cmd string) (string, error) {
		prog.Reset()
		tran.Reset()
		sp := tr.start("debugger.Execute", root)
		err := d.Execute(cmd)
		tr.finish(sp)
		if err != nil {
			return "", fmt.Errorf("%s: %s: %w", ep.spec.Name(), cmd, err)
		}
		if tr != nil {
			frames = append(frames, inProcessFrames(cmd, tran.String()+prog.String())...)
		}
		if cmd == "run" || cmd == "continue" {
			output.WriteString(prog.String())
			return tran.String(), nil
		}
		return prog.String() + tran.String(), nil
	}
	for _, cmd := range []string{"break main", "run", "xbreak " + target, "delete 1", "continue"} {
		if _, err := ex(cmd); err != nil {
			return err
		}
	}
	xbt, err := ex("xbt")
	if err != nil {
		return err
	}
	if f := reFrame0.FindStringSubmatch(xbt); f == nil || f[1]+":"+f[2] != target {
		return fmt.Errorf("%s: first stop xbt = %q, want frame 0 at %s", ep.spec.Name(), xbt, target)
	}
	for _, cmd := range []string{"xvars", "delete"} {
		if _, err := ex(cmd); err != nil {
			return err
		}
	}
	last, err := ex("continue")
	if err != nil {
		return err
	}
	if !strings.Contains(last, "[Program exited]") {
		return fmt.Errorf("%s: final continue did not exit: %q", ep.spec.Name(), last)
	}
	if output.String() != ep.want {
		return fmt.Errorf("%s: output under the debugger differs from the reference run", ep.spec.Name())
	}
	if tr != nil {
		e.opSteps = append(e.opSteps, float64(d.Process().VM.Steps-steps0))
	}
	return nil
}
