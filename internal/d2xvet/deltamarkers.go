package d2xvet

import (
	"go/token"
	"path/filepath"

	"d2x/internal/loc"
)

// MarkersAnalyzer is the repo-level delta-marker pass. The
// D2X:BEGIN/END/REMOVED markers feed internal/loc's Tables 3/4
// accounting, and a malformed marker silently skews a published number,
// so the pass reports every fault the counting scan meets in the files
// it counts by hunks. A component missing from the tree is skipped; loc
// reports it when it counts.
var MarkersAnalyzer = &Analyzer{
	Name: "arch/markers",
	Doc:  "D2X delta markers in counted components are well-formed",
	Repo: true,
	Run: func(p *Pass) error {
		for _, c := range loc.Components() {
			st, err := loc.CountComponent(p.Root, c.Name, c.Dirs...)
			if _, missing := loc.IsMissingComponent(err); missing {
				continue
			}
			if err != nil {
				return err
			}
			for _, f := range st.Faults {
				p.ReportAt(token.Position{
					Filename: filepath.Join(p.Root, filepath.FromSlash(f.File)),
					Line:     f.Line,
					Column:   1,
				}, "%s (fix: %s)", f.Message, f.Hint)
			}
		}
		return nil
	},
}
