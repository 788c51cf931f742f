// Command d2xlint runs the d2xverify checks over the case-study
// pipelines (pagerankdelta, power, einsum, quickstart). It is the CI face
// of the verifier: a healthy tree prints one "ok" line per pipeline and
// exits 0. The lints over the repository's source (import layering,
// delta markers) are cmd/d2xvet's.
//
// Exit status follows compiler conventions:
//
//	0  no error-severity findings (warnings are printed but do not fail)
//	1  at least one SevError finding
//	2  the tool itself could not run (unknown pipeline, build failure)
//
// Usage:
//
//	d2xlint [-effects] [-debugify] [pagerankdelta|power|einsum|quickstart ...]
//
// With no pipeline arguments all pipelines are checked. -effects prints
// each pipeline's per-function effect summaries (the output of
// internal/minic/effects) — the debugging view for the analysis itself.
// -debugify prints each pipeline's per-pass debug-info preservation
// summary (the output of internal/minic/debugify): rewrites applied,
// locations tracked, and findings per optimiser pass.
package main

import (
	"flag"
	"fmt"
	"os"

	"d2x/internal/d2xverify"
	"d2x/internal/examplebuilds"
	"d2x/internal/minic"
	"d2x/internal/minic/effects"
)

func main() {
	showFX := flag.Bool("effects", false, "print per-function effect summaries for each pipeline")
	showDbg := flag.Bool("debugify", false, "print per-pass debug-info preservation summaries for each pipeline")
	flag.Parse()

	targets := flag.Args()
	if len(targets) == 0 {
		targets = examplebuilds.Names()
	}

	sawError := false
	for _, name := range targets {
		build, err := examplebuilds.Build(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "d2xlint: building %s: %v\n", name, err)
			os.Exit(2)
		}
		rep := build.Verify()
		if rep.Errors() > 0 {
			sawError = true
		}
		if len(rep.Diags) > 0 {
			fmt.Printf("%s: %d finding(s)\n%s", name, len(rep.Diags), rep)
		} else {
			fmt.Printf("%s: ok (%d checks)\n", name, len(d2xverify.DefaultRegistry().Checks()))
		}
		if *showFX {
			printEffects(name, build.Program)
		}
		if *showDbg {
			printDebugify(name, build.Program)
		}
	}

	if sawError {
		os.Exit(1)
	}
}

// printDebugify dumps one pipeline's per-pass preservation summary, one
// optimiser pass per line.
func printDebugify(name string, prog *minic.Program) {
	in := &d2xverify.Input{Program: prog}
	rep, err := in.Debugify()
	if err != nil || rep == nil {
		fmt.Printf("%s: debugify unavailable\n", name)
		return
	}
	fmt.Printf("%s: debugify per-pass preservation\n", name)
	for _, pr := range rep.Passes {
		status := "clean"
		if !pr.Clean() {
			status = fmt.Sprintf("%d finding(s)", len(pr.Findings))
		}
		fmt.Printf("  %-20s rewrites=%-4d locs=%d->%d vars=%d->%d %s\n",
			pr.Pass, pr.Rewrites, pr.LocsBefore, pr.LocsAfter, pr.VarsBefore, pr.VarsAfter, status)
		for _, f := range pr.Findings {
			fmt.Printf("    %s\n", f)
		}
	}
	if rep.VarCheckNote != "" {
		fmt.Printf("  note: %s\n", rep.VarCheckNote)
	}
}

// printEffects dumps one pipeline's effect summaries, one function per
// line, in name order.
func printEffects(name string, prog *minic.Program) {
	fmt.Printf("%s: effect summaries\n", name)
	for _, s := range effects.Analyze(prog).Sorted() {
		line := fmt.Sprintf("  %-40s %-36s loops=%s", s.Name, s.Effects, s.Loop)
		if s.Effects&effects.WritesHeap != 0 && s.WriteLine != 0 {
			line += fmt.Sprintf(" (first write at line %d)", s.WriteLine)
		}
		fmt.Println(line)
	}
}
