package examplebuilds

import (
	"bytes"
	"testing"

	"d2x/internal/d2x"
	"d2x/internal/minic"
)

// builtPair returns the reference and optimised builds of one example.
func builtPair(t *testing.T, name string) (*d2x.Build, *d2x.Build) {
	t.Helper()
	ref, err := Build(name)
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	opt, err := BuildOptimized(name)
	if err != nil {
		t.Fatalf("building %s optimised: %v", name, err)
	}
	return ref, opt
}

// TestOptimizedBuildsVerifyClean runs the full verifier — including the
// opt/line-attribution and opt/debugify-* checks — over the optimised
// build of every example. The optimiser must not cost a single check.
func TestOptimizedBuildsVerifyClean(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			build, err := BuildOptimized(name)
			if err != nil {
				t.Fatalf("building %s optimised: %v", name, err)
			}
			rep := build.Verify()
			if rep.Errors() > 0 || rep.Warnings() > 0 {
				t.Errorf("optimised %s has verifier findings:\n%s", name, rep)
			}
		})
	}
}

// TestOptimizedRunMatchesReference: both build modes of every example
// produce byte-identical program output.
func TestOptimizedRunMatchesReference(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ref, opt := builtPair(t, name)
			refOut, _, err := ref.Run()
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			optOut, _, err := opt.Run()
			if err != nil {
				t.Fatalf("optimised run: %v", err)
			}
			if refOut != optOut {
				t.Errorf("output diverged:\nref: %q\nopt: %q", refOut, optOut)
			}
		})
	}
}

// TestFusedMatchesTwoStageReferenceOptimized repeats the fused-index
// differential sweep on the optimised build of every example: pruning
// statements reshapes the line table the fused index is built over, so
// the optimised builds exercise lookup shapes the reference builds
// cannot (dead entries, shrunk PC ranges).
func TestFusedMatchesTwoStageReferenceOptimized(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			build, err := BuildOptimized(name)
			if err != nil {
				t.Fatalf("building %s optimised: %v", name, err)
			}
			var out bytes.Buffer
			d, err := build.NewSession(&out)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			defer d.Close()
			if err := d.Execute("run"); err != nil {
				t.Fatalf("run: %v", err)
			}
			checkFusedMatchesTwoStage(t, build.Runtime, d.Process().VM)
		})
	}
}

// TestOptimizedBuildsActuallyOptimize guards the fixture itself: the
// optimiser must rewrite something in at least one example, otherwise
// the optimised sweeps above are running the same programs twice.
func TestOptimizedBuildsActuallyOptimize(t *testing.T) {
	rewrites := 0
	for _, name := range Names() {
		build, err := Build(name)
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		f, err := minic.Parse(build.Program.SourceName, build.Program.SourceText)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", name, err)
		}
		rewrites += minic.Optimize(f)
	}
	if rewrites == 0 {
		t.Error("the optimiser rewrote nothing across the examples — the optimised differential fixtures are vacuous")
	}
}
