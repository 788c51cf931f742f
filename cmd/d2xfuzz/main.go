// Command d2xfuzz differentially fuzzes the optimiser against the D2X
// debugging experience. It generates a deterministic corpus of staged
// programs (internal/progen), builds each with the optimiser off
// (reference) and on (subject), and asserts a scripted debug session
// cannot tell the builds apart: identical program output, xbreak
// expansions that only shrink, stop traces that align, and byte-identical
// xbt/xvars at every aligned stop. Each build also runs the time-travel
// oracle (progen.CheckReplay): record goto replays, reverse-step then
// step, and reverse-continue must reproduce the forward session.
//
// On a divergence the offending spec is minimised to a 1-minimal
// reproducer and, with -fixtures, written as a JSON fixture for
// examples/fuzz and the replay test.
//
// Usage:
//
//	d2xfuzz [-n 200] [-start 0] [-seed 1] [-fixtures dir] [-debugify] [-v]
//
// Exit status is 1 when any program diverged, 2 on harness errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"d2x/internal/d2x"
	"d2x/internal/minic"
	"d2x/internal/minic/debugify"
	"d2x/internal/progen"
)

func main() {
	var (
		n        = flag.Int("n", 200, "corpus size")
		start    = flag.Int("start", 0, "first corpus index (replay one failure with -start i -n 1)")
		seed     = flag.Int64("seed", 1, "corpus seed")
		fixtures = flag.String("fixtures", "", "directory to write minimised divergence fixtures to")
		dbg      = flag.Bool("debugify", false, "also debugify every minic-kind program and report per-pass preservation")
		verbose  = flag.Bool("v", false, "log every program, not just divergences")
	)
	flag.Parse()

	divergent, harnessErrs := 0, 0
	totalStops, totalDSLLines := 0, 0
	kindCount := map[string]int{}
	// Per-pass debugify aggregation across the whole corpus.
	passRewrites := map[string]int{}
	passFindings := map[string]int{}
	passPrograms := 0

	for i := *start; i < *start+*n; i++ {
		spec := progen.Generate(*seed, i)
		kindCount[spec.Kind]++
		p, err := progen.Render(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: render: %v\n", spec.Name(), err)
			harnessErrs++
			continue
		}
		if *dbg && spec.Kind == progen.KindMinic {
			rep, err := debugify.Run(p.GenFile, p.GenSource, minic.NewNatives())
			if err == nil {
				passPrograms++
				for _, pr := range rep.Passes {
					passRewrites[pr.Pass] += pr.Rewrites
					passFindings[pr.Pass] += len(pr.Findings)
				}
			}
		}
		res, err := runOracles(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", spec.Name(), err)
			harnessErrs++
			continue
		}
		totalStops += res.Stops
		totalDSLLines += res.DSLLines
		if res.Clean() {
			if *verbose {
				fmt.Printf("%-22s ok   (%d dsl lines, %d stops)\n", spec.Name(), res.DSLLines, res.Stops)
			}
			continue
		}
		divergent++
		fmt.Printf("%-22s DIVERGED (%d finding(s))\n", spec.Name(), len(res.Divergences))
		for _, d := range res.Divergences {
			fmt.Printf("  %s\n", d)
			if d.Ref != "" || d.Subject != "" {
				fmt.Printf("    ref:     %q\n    subject: %q\n", d.Ref, d.Subject)
			}
		}
		min := progen.Minimize(spec, reproduces(res.Divergences[0].Kind))
		if *fixtures != "" {
			if path, err := writeFixture(*fixtures, min); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing fixture: %v\n", spec.Name(), err)
				harnessErrs++
			} else {
				fmt.Printf("  minimised reproducer: %s\n", path)
			}
		}
	}

	fmt.Printf("\nd2xfuzz: %d programs (", *n)
	kinds := make([]string, 0, len(kindCount))
	for k := range kindCount {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for i, k := range kinds {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%d %s", kindCount[k], k)
	}
	fmt.Printf("), seed %d\n", *seed)
	fmt.Printf("  %d dsl lines exercised, %d reference stops compared\n", totalDSLLines, totalStops)
	fmt.Printf("  %d divergent, %d harness errors\n", divergent, harnessErrs)

	if *dbg && passPrograms > 0 {
		fmt.Printf("\ndebugify over %d minic programs:\n", passPrograms)
		for _, p := range minic.Passes() {
			clean := "clean"
			if passFindings[p.Name] > 0 {
				clean = fmt.Sprintf("%d finding(s)", passFindings[p.Name])
			}
			fmt.Printf("  %-20s %6d rewrites  %s\n", p.Name, passRewrites[p.Name], clean)
		}
	}

	switch {
	case harnessErrs > 0:
		os.Exit(2)
	case divergent > 0:
		os.Exit(1)
	}
}

// replayStops caps the stops CheckReplay drives per build, as in the
// progen replay test.
const replayStops = 20

// runOracles runs the optimiser differential and then the time-travel
// oracle on both builds it linked, reporting replay failures as
// divergences of kind progen.DivReplay.
func runOracles(p *progen.Program) (*progen.DiffResult, error) {
	res, err := progen.RunDifferential(p)
	if err != nil {
		return nil, err
	}
	for _, b := range []struct {
		name  string
		build *d2x.Build
	}{{"reference", res.Ref}, {"optimised", res.Subject}} {
		if b.build == nil {
			continue
		}
		if err := progen.CheckReplay(b.build, replayStops); err != nil {
			res.Divergences = append(res.Divergences, progen.Divergence{
				Kind: progen.DivReplay, Detail: fmt.Sprintf("%s build: %v", b.name, err),
			})
		}
	}
	return res, nil
}

// reproduces builds the minimiser predicate: a candidate keeps the
// divergence alive if it renders, runs through the oracles, and still
// reports a divergence of the original kind.
func reproduces(kind string) func(*progen.Spec) bool {
	return func(s *progen.Spec) bool {
		p, err := progen.Render(s)
		if err != nil {
			return false
		}
		res, err := runOracles(p)
		if err != nil {
			return false
		}
		for _, d := range res.Divergences {
			if d.Kind == kind {
				return true
			}
		}
		return false
	}
}

// writeFixture serialises a minimised spec into dir, named after its
// provenance so re-runs overwrite rather than accumulate.
func writeFixture(dir string, s *progen.Spec) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := s.Marshal()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, s.Name()+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
