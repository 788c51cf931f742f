package graphit

// Link-step D2X wiring for GraphIt builds; part of the Table 3 delta (see
// d2x_support.go for the accounting rule).

import (
	"os"

	"d2x/internal/d2x"
)

// Link assembles a debuggable build from a compiled artifact: the
// generated code with the D2X tables riding inside it, the standard debug
// info, the D2X runtime, and the GraphIt graph natives. The .gt source is
// served to xlist from memory, falling back to the filesystem for any
// other first-stage file.
func (a *Artifact) Link() (*d2x.Build, error) { return a.LinkOptimizing(false) }

// LinkOptimizing is Link with the mini-C constant folder optionally run
// over the generated code first.
func (a *Artifact) LinkOptimizing(optimize bool) (*d2x.Build, error) {
	build, err := d2x.Link(genFileName(a.GTFile), a.Source, a.Ctx, d2x.LinkOptions{
		Optimize: optimize,
		Natives:  RegisterGraphNatives,
		FileResolver: func(path string) (string, error) {
			if path == a.GTFile {
				return a.GTSource, nil
			}
			b, err := os.ReadFile(path)
			return string(b), err
		},
	})
	if err != nil {
		return nil, err
	}
	if a.Ctx != nil {
		build.ExtraMacros = XGraphMacro
	}
	return build, nil
}

// genFileName derives the generated-code file name: pagerankdelta.gt ->
// pagerankdelta.c (the paper's Figure 6 pairing).
func genFileName(gtFile string) string {
	base := gtFile
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '.' {
			base = base[:i]
			break
		}
	}
	return base + ".c"
}
