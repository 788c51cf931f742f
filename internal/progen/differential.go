package progen

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"d2x/internal/d2x"
	"d2x/internal/d2x/d2xc"
)

// Divergence kinds, ordered roughly by how early in the oracle they are
// detected.
const (
	DivBuild     = "build"            // optimised build failed where reference linked
	DivOutput    = "run-output"       // program output differs between build modes
	DivExpansion = "xbreak-expansion" // optimised xbreak covers lines the reference doesn't
	DivMissed    = "missed-stop"      // reference stopped on a line the subject still claims to break on
	DivExtra     = "extra-stop"       // subject stopped where the reference never did
	DivBacktrace = "xbt"              // xbt text differs at an aligned stop
	DivVariables = "xvars"            // xvars text differs at an aligned stop
	DivReplay    = "replay"           // CheckReplay: a rewound or reversed session left its forward run
)

// Divergence is one observed disagreement between the reference
// (unoptimised) and subject (optimised) builds of the same program.
type Divergence struct {
	Kind    string
	GenLine int    // generated-code line of the stop, when applicable
	Detail  string // human-readable description
	Ref     string // reference-side text, when applicable
	Subject string // subject-side text, when applicable
}

func (d Divergence) String() string {
	s := d.Kind
	if d.GenLine > 0 {
		s += fmt.Sprintf(" @gen:%d", d.GenLine)
	}
	if d.Detail != "" {
		s += ": " + d.Detail
	}
	return s
}

// DiffResult is the outcome of one differential run.
type DiffResult struct {
	Spec        *Spec
	Divergences []Divergence
	Stops       int // stops observed in the reference trace
	DSLLines    int // distinct breakable DSL lines exercised via xbreak
	// Ref and Subject are the builds compared, so callers can run
	// further oracles (CheckReplay) without linking again. Subject is
	// nil when the optimised link failed.
	Ref, Subject *d2x.Build
}

// Clean reports whether the two build modes were debugger-equivalent.
func (r *DiffResult) Clean() bool { return len(r.Divergences) == 0 }

// stopInfo is one breakpoint halt in a session trace: where it stopped
// and what the contextual debugger showed there.
type stopInfo struct {
	genLine int
	xbt     string
	xvars   string
}

// sessionTrace is everything the oracle observes from one scripted
// session against one build.
type sessionTrace struct {
	perDSL     map[int]int  // dsl line -> breakpoints xbreak inserted there
	breakLines map[int]bool // gen lines carrying an installed breakpoint
	stops      []stopInfo
}

// maxStops bounds one trace so a semantics-breaking optimisation that
// turns a bounded loop unbounded fails fast instead of hanging the run.
// The cap is sized to the corpus' worst case — a graphit program stops
// a few times per edge per iteration (~22k stops for the largest graph
// and trip count) — with headroom, while still catching runaways.
const maxStops = 60000

// RunDifferential builds the program with the optimiser off (reference)
// and on (subject) and checks that a debugging session cannot tell the
// two apart, per the alignment rules:
//
//   - program output must be identical;
//   - every DSL line's xbreak expansion in the subject must be a subset
//     of the reference's (the optimiser may only remove stop points, and
//     only by removing the statements themselves);
//   - the subject's stop trace must be an in-order subsequence of the
//     reference's, where a reference-only stop is excused only if its
//     generated line has no breakpoint in the subject (the statement was
//     pruned, and xbreak knows it);
//   - at every aligned stop, xbt and xvars must print byte-identical
//     text.
//
// Divergences are observations, not errors; the error return is for the
// harness itself failing (e.g. the reference build misbehaving, which
// would be a generator bug rather than an optimiser bug).
func RunDifferential(p *Program) (*DiffResult, error) {
	res := &DiffResult{Spec: p.Spec}

	ref, err := p.Build(false)
	if err != nil {
		return nil, fmt.Errorf("progen: reference link of %s: %w", p.Spec.Name(), err)
	}
	res.Ref = ref
	sub, err := p.Build(true)
	if err != nil {
		res.Divergences = append(res.Divergences, Divergence{
			Kind: DivBuild, Detail: fmt.Sprintf("optimised link failed: %v", err),
		})
		return res, nil
	}
	res.Subject = sub

	refOut, _, err := ref.Run()
	if err != nil {
		return nil, fmt.Errorf("progen: reference run of %s: %w", p.Spec.Name(), err)
	}
	subOut, _, err := sub.Run()
	if err != nil {
		res.Divergences = append(res.Divergences, Divergence{
			Kind: DivOutput, Detail: fmt.Sprintf("optimised run failed: %v", err), Ref: refOut,
		})
		return res, nil
	}
	if refOut != subOut {
		res.Divergences = append(res.Divergences, Divergence{
			Kind: DivOutput, Detail: "program output differs", Ref: refOut, Subject: subOut,
		})
	}

	lines := dslStmtLines(p.context(), p.DSLFile)
	res.DSLLines = len(lines)

	refTrace, err := captureTrace(ref, p.DSLFile, lines)
	if err != nil {
		return nil, fmt.Errorf("progen: reference session of %s: %w", p.Spec.Name(), err)
	}
	res.Stops = len(refTrace.stops)
	subTrace, err := captureTrace(sub, p.DSLFile, lines)
	if err != nil {
		// The subject's session misbehaving IS an optimiser-visible
		// divergence: the same script ran clean on the reference.
		res.Divergences = append(res.Divergences, Divergence{
			Kind: DivExtra, Detail: fmt.Sprintf("optimised session failed: %v", err),
		})
		return res, nil
	}

	res.Divergences = append(res.Divergences, compareExpansions(lines, refTrace, subTrace)...)
	res.Divergences = append(res.Divergences, alignStops(refTrace, subTrace)...)
	return res, nil
}

// context returns the D2X compile-time context of the rendered program,
// whichever pipeline produced it.
func (p *Program) context() *d2xc.Context {
	if p.art != nil {
		return p.art.Ctx
	}
	return p.ctx
}

// dslStmtLines collects the distinct DSL source lines the context's
// records attribute generated code to — the lines a user could plausibly
// xbreak on — in ascending order.
func dslStmtLines(ctx *d2xc.Context, dslFile string) []int {
	seen := map[int]bool{}
	for _, rec := range ctx.Records() {
		if len(rec.Stack) > 0 && rec.Stack[0].File == dslFile && rec.Stack[0].Line > 0 {
			seen[rec.Stack[0].Line] = true
		}
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

var (
	reInserting = regexp.MustCompile(`Inserting (\d+) breakpoints with ID`)
	reStopLine  = regexp.MustCompile(`(?m)^Breakpoint \d+, .* at .*:(\d+)$`)
	reBPSite    = regexp.MustCompile(` at [^:;]+:(\d+)`)
)

// captureTrace runs the oracle's fixed session script against one build:
// bootstrap at main, install an xbreak on every DSL statement line, drop
// the bootstrap breakpoint, then continue to completion recording the
// xbt and xvars view at every stop.
func captureTrace(b *d2x.Build, dslFile string, dslLines []int) (*sessionTrace, error) {
	var buf bytes.Buffer
	d, err := b.NewSession(&buf)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	// Drain the transcript per command: a slice from a persistent mark
	// would copy the whole (growing) buffer on every command, which is
	// quadratic over the thousands of stops a graphit trace produces.
	exec := func(cmd string) (string, error) {
		buf.Reset()
		err := d.Execute(cmd)
		return buf.String(), err
	}

	if _, err := exec("break main"); err != nil {
		return nil, fmt.Errorf("break main: %w", err)
	}
	if out, err := exec("run"); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	} else if !strings.Contains(out, "Breakpoint 1,") {
		return nil, fmt.Errorf("run did not stop at main:\n%s", out)
	}

	tr := &sessionTrace{perDSL: map[int]int{}, breakLines: map[int]bool{}}
	for _, line := range dslLines {
		out, err := exec(fmt.Sprintf("xbreak %s:%d", dslFile, line))
		if err != nil {
			return nil, fmt.Errorf("xbreak %s:%d: %w", dslFile, line, err)
		}
		if m := reInserting.FindStringSubmatch(out); m != nil {
			tr.perDSL[line], _ = strconv.Atoi(m[1])
		} else {
			tr.perDSL[line] = 0
		}
	}

	// Read back where the xbreaks actually landed in the generated code.
	// Breakpoint 1 is the bootstrap at main; everything else is D2X's.
	out, err := exec("info breakpoints")
	if err != nil {
		return nil, fmt.Errorf("info breakpoints: %w", err)
	}
	for _, row := range strings.Split(out, "\n") {
		fields := strings.Fields(row)
		if len(fields) < 4 || fields[0] == "Num" || fields[0] == "1" {
			continue
		}
		for _, m := range reBPSite.FindAllStringSubmatch(row, -1) {
			gl, _ := strconv.Atoi(m[1])
			tr.breakLines[gl] = true
		}
	}
	if _, err := exec("delete 1"); err != nil {
		return nil, fmt.Errorf("delete 1: %w", err)
	}

	for {
		out, err := exec("continue")
		if err != nil {
			return nil, fmt.Errorf("continue: %w", err)
		}
		if strings.Contains(out, "[Program exited]") {
			return tr, nil
		}
		m := reStopLine.FindStringSubmatch(out)
		if m == nil {
			return nil, fmt.Errorf("continue stopped without a breakpoint banner:\n%s", out)
		}
		genLine, _ := strconv.Atoi(m[1])
		xbt, err := exec("xbt")
		if err != nil {
			return nil, fmt.Errorf("xbt at gen:%d: %w", genLine, err)
		}
		xvars, err := exec("xvars")
		if err != nil {
			return nil, fmt.Errorf("xvars at gen:%d: %w", genLine, err)
		}
		tr.stops = append(tr.stops, stopInfo{genLine: genLine, xbt: xbt, xvars: xvars})
		if len(tr.stops) > maxStops {
			return nil, fmt.Errorf("stop cap exceeded (%d stops)", maxStops)
		}
	}
}

// compareExpansions enforces the subset rule: per DSL line the subject
// may insert at most as many breakpoints as the reference, and every
// generated line the subject breaks on must be one the reference breaks
// on too. The optimiser may delete stop points; it must not mint them.
func compareExpansions(lines []int, ref, sub *sessionTrace) []Divergence {
	var out []Divergence
	for _, l := range lines {
		if sub.perDSL[l] > ref.perDSL[l] {
			out = append(out, Divergence{
				Kind:   DivExpansion,
				Detail: fmt.Sprintf("dsl line %d: subject expands to %d breakpoints, reference to %d", l, sub.perDSL[l], ref.perDSL[l]),
			})
		}
	}
	for gl := range sub.breakLines {
		if !ref.breakLines[gl] {
			out = append(out, Divergence{
				Kind: DivExpansion, GenLine: gl,
				Detail: "subject placed a breakpoint on a generated line the reference has no statement on",
			})
		}
	}
	return out
}

// alignStops checks the subject's stop trace is an in-order subsequence
// of the reference's, with byte-identical contextual views at aligned
// stops. A reference stop with no subject counterpart is legitimate only
// when the subject no longer claims that generated line is breakable —
// i.e. the statement was pruned and the line table says so.
func alignStops(ref, sub *sessionTrace) []Divergence {
	var out []Divergence
	i := 0
	for j := 0; j < len(sub.stops); j++ {
		s := sub.stops[j]
		matched := false
		for i < len(ref.stops) {
			r := ref.stops[i]
			if r.genLine == s.genLine {
				i++
				matched = true
				if r.xbt != s.xbt {
					out = append(out, Divergence{
						Kind: DivBacktrace, GenLine: s.genLine,
						Detail: "xbt differs at aligned stop",
						Ref:    r.xbt, Subject: s.xbt,
					})
				}
				if r.xvars != s.xvars {
					out = append(out, Divergence{
						Kind: DivVariables, GenLine: s.genLine,
						Detail: "xvars differs at aligned stop",
						Ref:    r.xvars, Subject: s.xvars,
					})
				}
				break
			}
			// Reference-only stop: fine iff the subject pruned the line.
			if sub.breakLines[r.genLine] {
				out = append(out, Divergence{
					Kind: DivMissed, GenLine: r.genLine,
					Detail: "reference stopped here; subject has a breakpoint on this line but skipped it",
				})
			}
			i++
		}
		if !matched {
			out = append(out, Divergence{
				Kind: DivExtra, GenLine: s.genLine,
				Detail: "subject stopped where the reference trace has no remaining stop",
			})
			// Past the reference's trace end every further subject stop is
			// equally unexplained; one finding per line is enough.
			break
		}
	}
	for ; i < len(ref.stops); i++ {
		if sub.breakLines[ref.stops[i].genLine] {
			out = append(out, Divergence{
				Kind: DivMissed, GenLine: ref.stops[i].genLine,
				Detail: "reference trace continues past the subject's last stop on a line the subject can still break on",
			})
		}
	}
	return dedupeDivergences(out)
}

// dedupeDivergences collapses repeated findings (e.g. the same missed
// line on every loop iteration) to one per (kind, line, detail).
func dedupeDivergences(in []Divergence) []Divergence {
	seen := map[string]bool{}
	out := in[:0]
	for _, d := range in {
		k := fmt.Sprintf("%s|%d|%s", d.Kind, d.GenLine, d.Detail)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}
