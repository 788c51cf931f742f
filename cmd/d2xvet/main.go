// Command d2xvet runs the repository's static-analysis pass suite
// (internal/d2xvet) over package patterns, multichecker-style.
//
// Usage:
//
//	d2xvet [-pass name[,name...]] [-list] [pattern ...]
//
// A pattern is a directory, or a directory followed by /... for the
// subtree rooted there; the default is ./... from the enclosing module
// root. Repository-level passes (arch/import-graph, arch/markers) run
// once over the module root whenever selected, regardless of patterns;
// this command is the only place the repository's architecture lints
// run.
//
// Exit codes (matching d2xlint):
//
//	0  every selected pass ran and reported nothing
//	1  at least one finding
//	2  usage error, or the tool itself failed (unparseable source,
//	   type-check failure, unknown pass)
//
// Suppress a finding with a trailing (or preceding-line) comment:
//
//	//d2xvet:ignore <pass> <reason>
//
// The reason is mandatory; a reason-less ignore is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"d2x/internal/d2xvet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("d2xvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passes := fs.String("pass", "", "comma-separated pass names to run (default: all)")
	list := fs.Bool("list", false, "list the available passes and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: d2xvet [-pass name[,name...]] [-list] [pattern ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range d2xvet.All() {
			kind := "package"
			if a.Repo {
				kind = "repo"
			}
			fmt.Fprintf(stdout, "%-18s %-7s  %s\n", a.Name, kind, a.Doc)
		}
		return 0
	}

	analyzers := d2xvet.All()
	if *passes != "" {
		analyzers = nil
		for _, name := range strings.Split(*passes, ",") {
			name = strings.TrimSpace(name)
			a := d2xvet.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "d2xvet: unknown pass %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := d2xvet.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "d2xvet: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if base == "" || base == "." {
			base = loader.Root
		}
		abs, err := filepath.Abs(base)
		if err != nil {
			fmt.Fprintf(stderr, "d2xvet: %v\n", err)
			return 2
		}
		if recursive {
			sub, err := d2xvet.GoDirs(abs)
			if err != nil {
				fmt.Fprintf(stderr, "d2xvet: %v\n", err)
				return 2
			}
			for _, d := range sub {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			}
		} else if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}

	var pkgs []*d2xvet.Package
	for _, dir := range dirs {
		loaded, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "d2xvet: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, loaded...)
	}

	facts := d2xvet.NewFacts(pkgs)
	// Markers must resolve module-wide even when analyzing a subset of
	// packages, or cross-package annotations look missing and noalloc
	// reports false positives.
	analyzed := map[string]bool{}
	for _, dir := range dirs {
		analyzed[dir] = true
	}
	if err := facts.ScanModule(loader, analyzed); err != nil {
		fmt.Fprintf(stderr, "d2xvet: %v\n", err)
		return 2
	}
	diags, err := d2xvet.RunPackages(loader.Root, pkgs, analyzers, facts)
	if err != nil {
		fmt.Fprintf(stderr, "d2xvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, relDiag(loader.Root, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stdout, "d2xvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relDiag renders a diagnostic with its file path relative to the
// module root, the way the repo's other lint output reads.
func relDiag(root string, d d2xvet.Diagnostic) string {
	if d.Pos.Filename != "" {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
	}
	return d.String()
}
