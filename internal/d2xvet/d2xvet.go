// Package d2xvet is the repository's own static-analysis suite: a set of
// passes that encode, as compiler-checked diagnostics, the invariants the
// concurrency and performance work of PRs 2–7 otherwise enforces only
// dynamically (-race regression tests, AllocsPerRun budgets, load gates).
//
// The motivating failure class is the one "Who's Debugging the
// Debuggers?" documents for debug-info producers: infrastructure that
// exists to find bugs is where correctness bugs hide, because its own
// invariants are checked last. This repo's service layer now carries
// several such invariants — atomically published immutable tables, the
// allocation-free steady state of the command path, shard-lock scope
// discipline — and every one of them fails silently at first: a torn
// table copy, a lock held across a blocking call or a stray allocation
// ships and waits for a -race run or a budget test to notice. d2xvet
// moves those contracts to analysis time.
//
// The suite is built directly on go/parser and go/types (the module has
// no third-party dependencies, so golang.org/x/tools/go/analysis is
// deliberately not used), but mirrors its shape: each pass is an
// *Analyzer with a Run(*Pass) function reporting position-anchored
// diagnostics, a multichecker driver (cmd/d2xvet) runs the suite over
// package patterns, and fixture tests assert findings with // want
// comments, analysistest-style.
//
// Passes:
//
//   - atomicfield: values holding sync/atomic types (or sync locks) are
//     never copied, atomic fields are accessed only through their
//     methods, and types annotated //d2x:immutable are written only by
//     their //d2x:ctor constructors.
//   - noalloc: functions annotated //d2x:noalloc contain no allocating
//     operations and call only other noalloc (or known alloc-free)
//     functions; error paths are excused, everything else needs an
//     inline //d2xvet:ignore with a reason.
//   - lockscope: no blocking operation or second mutex acquisition
//     while a mutex is held.
//   - obssample: hot-path functions (//d2x:noalloc or //d2x:hotpath)
//     use the cheap monotonic/sampled obs variants, never the
//     wall-clock ones, and gate histogram observations on a sampling
//     branch.
//   - arch/import-graph, arch/markers: the repository architecture
//     lints, run once over the module root. The import graph keeps the
//     debugger free of D2X, the wire layer free of the debug stack, and
//     this package (with go/types) out of every service binary; the
//     markers pass reports the delta-marker faults that internal/loc's
//     counting scan finds. cmd/d2xvet is the only place they run.
//
// A finding is suppressed by a comment on the flagged line or the line
// above:
//
//	//d2xvet:ignore <pass> <reason>
//
// The reason is mandatory; an ignore without one is itself a finding.
// See DESIGN.md ("Static analysis: the d2xvet pass suite") for the
// annotation grammar.
package d2xvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: which pass fired, where, and what is wrong.
type Diagnostic struct {
	Pass    string
	Pos     token.Position
	Message string
}

// String renders the diagnostic in file:line:col: tool style.
func (d Diagnostic) String() string {
	if d.Pos.Filename == "" {
		return fmt.Sprintf("[%s] %s", d.Pass, d.Message)
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// Analyzer is one static-analysis pass.
type Analyzer struct {
	// Name is the stable slug diagnostics carry and //d2xvet:ignore
	// directives name (e.g. "noalloc", "arch/markers").
	Name string
	Doc  string
	// Repo marks a repository-level pass: it runs once over the module
	// root (Pass.Root), parse-only, instead of once per type-checked
	// package.
	Repo bool
	Run  func(*Pass) error
}

// Pass carries one analysis unit to an Analyzer.Run: for package-level
// passes a type-checked package, for repo-level passes the tree root.
type Pass struct {
	Analyzer *Analyzer

	// Fset, Files, Pkg, Info describe the type-checked package under
	// analysis (nil/empty for repo-level passes). Files includes
	// in-package _test.go files.
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Facts holds the annotation facts scanned over every loaded
	// package, so passes can resolve markers on functions and types
	// defined outside the package under analysis.
	Facts *Facts

	// Root is the module root directory (repo-level passes and the
	// import-graph pass use it).
	Root string

	diags *[]Diagnostic
}

// Reportf records a finding at a token position of the pass's file set.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Fset.Position(pos), format, args...)
}

// ReportAt records a finding at an explicit position (repo-level passes
// report against files they read themselves).
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pass:    p.Analyzer.Name,
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full pass suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicFieldAnalyzer,
		NoAllocAnalyzer,
		LockScopeAnalyzer,
		ObsSampleAnalyzer,
		ImportGraphAnalyzer,
		MarkersAnalyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackages runs every package-level analyzer of the suite over each
// loaded package, and every repo-level analyzer once over root. The
// returned diagnostics are filtered through //d2xvet:ignore directives
// and sorted by position.
func RunPackages(root string, pkgs []*Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Repo {
			p := &Pass{Analyzer: a, Root: root, Facts: facts, diags: &diags}
			if err := a.Run(p); err != nil {
				return nil, fmt.Errorf("d2xvet: pass %s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range pkgs {
			p := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Facts:    facts,
				Root:     root,
				diags:    &diags,
			}
			if err := a.Run(p); err != nil {
				return nil, fmt.Errorf("d2xvet: pass %s over %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	return Filter(diags), nil
}

// ignoreDirective is the comment prefix that suppresses a finding on its
// line or the line below.
const ignoreDirective = "//d2xvet:ignore"

// suppressions caches, per file, line → pass → has-reason for every
// ignore directive in the file.
var suppressions sync.Map // string -> map[int]map[string]bool

func fileSuppressions(filename string) map[int]map[string]bool {
	if v, ok := suppressions.Load(filename); ok {
		return v.(map[int]map[string]bool)
	}
	m := map[int]map[string]bool{}
	data, err := os.ReadFile(filename)
	if err == nil {
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, ignoreDirective)
			if idx < 0 {
				continue
			}
			rest := strings.TrimSpace(line[idx+len(ignoreDirective):])
			pass, reason, _ := strings.Cut(rest, " ")
			if pass == "" {
				continue
			}
			if m[i+1] == nil {
				m[i+1] = map[string]bool{}
			}
			m[i+1][pass] = strings.TrimSpace(reason) != ""
		}
	}
	suppressions.Store(filename, m)
	return m
}

// Filter drops diagnostics suppressed by a //d2xvet:ignore <pass>
// <reason> directive on the reported line or the line above it, and adds
// a finding for directives that name the pass but omit the reason — an
// undocumented suppression is itself a defect.
func Filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	reported := map[string]bool{}
	for _, d := range diags {
		if d.Pos.Filename == "" {
			out = append(out, d)
			continue
		}
		m := fileSuppressions(d.Pos.Filename)
		suppressed := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			hasReason, ok := m[line][d.Pass]
			if !ok {
				continue
			}
			if hasReason {
				suppressed = true
				break
			}
			key := fmt.Sprintf("%s:%d:%s", d.Pos.Filename, line, d.Pass)
			if !reported[key] {
				reported[key] = true
				out = append(out, Diagnostic{
					Pass: d.Pass,
					Pos:  token.Position{Filename: d.Pos.Filename, Line: line, Column: 1},
					Message: fmt.Sprintf("d2xvet:ignore %s needs a reason (\"//d2xvet:ignore %s <why>\")",
						d.Pass, d.Pass),
				})
			}
			suppressed = true
			break
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	Sort(out)
	return out
}

// Sort orders diagnostics by file, line, column, then pass name.
func Sort(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
}
