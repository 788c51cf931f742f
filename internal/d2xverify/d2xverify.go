// Package d2xverify is a static-analysis subsystem for D2X pipelines: it
// cross-checks the three artifacts every compile produces — the mini-C
// program, its dwarfish debug info, and the D2X tables riding inside the
// program — and lints the generated code itself.
//
// The motivation is the failure class documented for DWARF producers
// ("Who's Debugging the Debuggers?", Di Luna et al.): debug metadata
// that is silently wrong gives the user wrong answers with full
// confidence. D2X widens the surface — a generated line with a stale
// location stack or a dangling rtv_handler lies about the DSL, not just
// about the binary — so the verifier checks every layer against the
// others:
//
//   - cross-layer consistency (checks_crosslayer.go): line tables map to
//     real statements, D2X records are well-formed and round-trip
//     through the wire format, handlers and macros name real functions
//     with compatible signatures, scopes are balanced.
//   - mini-C dataflow lints (checks_dataflow.go): use-before-init,
//     unreachable statements, unused frame slots, dead stores — catching
//     DSL codegen bugs at compile time instead of at debug time.
//
// Every check reads one build's artifacts, never the source tree, so a
// binary that links Build.Verify links no Go source tooling. The lints
// over the repository itself (import layering, delta markers) are
// d2xvet passes.
//
// DSL authors add their own checks with Registry.Register; see
// DESIGN.md's Verification section.
package d2xverify

import (
	"fmt"
	"sort"
	"strings"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/minic/debugify"
	"d2x/internal/minic/effects"
	"d2x/internal/srcloc"
)

// Severity grades a diagnostic.
type Severity int

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String renders the severity for report output.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Diagnostic is one finding: which check fired, how bad it is, where
// (a srcloc anchor into the generated program or a DSL source), what is
// wrong, and — when the fix is mechanical — how to fix it.
type Diagnostic struct {
	Check    string
	Severity Severity
	Loc      srcloc.Loc
	Message  string
	Hint     string
}

// String renders the diagnostic in file:line: tool style.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Loc.File != "" {
		fmt.Fprintf(&b, "%s:%d: ", d.Loc.File, d.Loc.Line)
	}
	fmt.Fprintf(&b, "%s: [%s] %s", d.Severity, d.Check, d.Message)
	if d.Hint != "" {
		fmt.Fprintf(&b, " (fix: %s)", d.Hint)
	}
	return b.String()
}

// Report is the outcome of one verification run.
type Report struct {
	Diags []Diagnostic
}

// Errors counts error-severity findings.
func (r *Report) Errors() int { return r.count(SevError) }

// Warnings counts warning-severity findings.
func (r *Report) Warnings() int { return r.count(SevWarning) }

func (r *Report) count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// ByCheck returns the findings of one named check.
func (r *Report) ByCheck(name string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Check == name {
			out = append(out, d)
		}
	}
	return out
}

// String renders every finding, one per line.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Reporter collects diagnostics for the check currently running.
type Reporter struct {
	check string
	diags *[]Diagnostic
}

func (r *Reporter) report(sev Severity, loc srcloc.Loc, hint, format string, args ...any) {
	*r.diags = append(*r.diags, Diagnostic{
		Check:    r.check,
		Severity: sev,
		Loc:      loc,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// Errorf records an error finding anchored at loc. hint may be empty.
func (r *Reporter) Errorf(loc srcloc.Loc, hint, format string, args ...any) {
	r.report(SevError, loc, hint, format, args...)
}

// Warnf records a warning finding anchored at loc. hint may be empty.
func (r *Reporter) Warnf(loc srcloc.Loc, hint, format string, args ...any) {
	r.report(SevWarning, loc, hint, format, args...)
}

// Input is one compiled pipeline output under verification. Program is
// required; the other artifacts unlock further checks (a nil DebugBlob
// skips the dwarfish checks, a nil Ctx skips the journal/round-trip
// checks, and so on) — the verifier checks what it is given.
type Input struct {
	// Program is the compiled generated program (with the D2X tables
	// inside it, when the pipeline ran with D2X).
	Program *minic.Program
	// DebugBlob is the encoded dwarfish debug info, as produced by the
	// link step.
	DebugBlob []byte
	// Ctx is the D2X compile-time context that produced the tables,
	// when the caller still holds it. It enables the round-trip and
	// scope-journal checks.
	Ctx *d2xc.Context
	// Macros is DSL-specific debugger macro text (d2x.Build.ExtraMacros);
	// call targets inside it are resolved against the program.
	Macros string

	info     *dwarfish.Info
	infoErr  error
	infoDone bool

	tables     *d2xenc.Tables
	tablesErr  error
	tablesDone bool

	fx     *effects.Analysis
	fxDone bool

	dbg     *debugify.Report
	dbgDone bool
}

// Debugify lazily runs the per-pass debug-info preservation analysis
// over the program's source text (see internal/minic/debugify). The
// report is shared by every opt/debugify-* check. Returns (nil, nil)
// when the program carries no source text or it does not re-parse —
// those are other checks' findings.
func (in *Input) Debugify() (*debugify.Report, error) {
	if !in.dbgDone {
		in.dbgDone = true
		src := in.Program.SourceText
		if src == "" {
			return nil, nil
		}
		rep, err := debugify.Run(in.Program.SourceName, src, in.Program.Natives)
		if err != nil {
			// debugify.Run only fails on a parse error, and unparseable
			// SourceText is another check's finding.
			return nil, nil
		}
		in.dbg = rep
	}
	return in.dbg, nil
}

// EffectAnalysis lazily runs the effect-and-termination analysis over
// the compiled program (checker annotations are enough; no bytecode is
// consulted). The result is shared by every effects-family check.
func (in *Input) EffectAnalysis() *effects.Analysis {
	if !in.fxDone {
		in.fxDone = true
		in.fx = effects.Analyze(in.Program)
	}
	return in.fx
}

// GenFile returns the generated source file name.
func (in *Input) GenFile() string { return in.Program.SourceName }

// GenLoc anchors a diagnostic at a generated-program line.
func (in *Input) GenLoc(line int) srcloc.Loc {
	return srcloc.Loc{File: in.GenFile(), Line: line}
}

// Info lazily decodes the dwarfish blob. Returns (nil, nil) when the
// input carries no blob.
func (in *Input) Info() (*dwarfish.Info, error) {
	if !in.infoDone {
		in.infoDone = true
		if len(in.DebugBlob) > 0 {
			in.info, in.infoErr = dwarfish.Decode(in.DebugBlob)
		}
	}
	return in.info, in.infoErr
}

// HasD2XTables reports whether the program carries D2X tables (the
// marker global exists).
func (in *Input) HasD2XTables() bool {
	_, ok := in.Program.GlobalByName[d2xenc.GRecCount]
	return ok
}

// Tables lazily decodes the D2X tables from the globals of a scratch VM
// — exactly the path the D2X runtime uses on the debuggee, so decoding
// here exercises the real wire format. Returns (nil, nil) when the
// program carries no tables.
func (in *Input) Tables() (*d2xenc.Tables, error) {
	if !in.tablesDone {
		in.tablesDone = true
		if in.HasD2XTables() {
			in.tables, in.tablesErr = d2xenc.Decode(minic.NewVM(in.Program, nil))
		}
	}
	return in.tables, in.tablesErr
}

// Check is one verification pass over a build.
type Check struct {
	Name string // stable slug, e.g. "d2x/stacks"
	Desc string
	Run  func(in *Input, r *Reporter) error
}

// Registry holds the checks a verification run executes. The zero value
// is empty; DefaultRegistry returns the built-in set. DSLs register
// their own checks on a copy (see DESIGN.md: adding a DSL-specific
// check).
type Registry struct {
	checks []Check
}

// Register adds a check.
func (reg *Registry) Register(c Check) { reg.checks = append(reg.checks, c) }

// Checks returns the registered checks.
func (reg *Registry) Checks() []Check { return reg.checks }

// DefaultRegistry returns the built-in check set.
func DefaultRegistry() *Registry {
	reg := &Registry{}
	for _, c := range crossLayerChecks() {
		reg.Register(c)
	}
	for _, c := range dataflowChecks() {
		reg.Register(c)
	}
	for _, c := range effectsChecks() {
		reg.Register(c)
	}
	for _, c := range optimizeChecks() {
		reg.Register(c)
	}
	for _, c := range debugifyChecks() {
		reg.Register(c)
	}
	return reg
}

// Verify runs every check of the registry over the input. A check that
// fails to run at all contributes an error diagnostic rather than
// aborting the whole run.
func (reg *Registry) Verify(in *Input) *Report {
	rep := &Report{}
	for _, c := range reg.checks {
		r := &Reporter{check: c.Name, diags: &rep.Diags}
		if err := c.Run(in, r); err != nil {
			r.Errorf(srcloc.Loc{File: in.GenFile()}, "", "check failed to run: %v", err)
		}
	}
	sortDiags(rep.Diags)
	return rep
}

// Verify runs the default registry's checks.
func Verify(in *Input) *Report { return DefaultRegistry().Verify(in) }

// sortDiags orders findings by location, then severity (most severe
// first), then check name, for stable output.
func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Loc.File != b.Loc.File {
			return a.Loc.File < b.Loc.File
		}
		if a.Loc.Line != b.Loc.Line {
			return a.Loc.Line < b.Loc.Line
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		return a.Check < b.Check
	})
}
