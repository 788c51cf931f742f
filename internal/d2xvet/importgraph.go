package d2xvet

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// importRule forbids every Go file under a directory from importing
// certain import paths. A path is forbidden when it equals a prefix
// exactly or lives under it.
type importRule struct {
	dir       string // repo-relative; the rule covers its whole subtree
	forbidden []string
	why       string
}

// noVet is why the verifier and the D2X packages may not import d2xvet.
const noVet = "Build.Verify links the verifier into every binary; the repository lints and the Go type checker they load stay in cmd/d2xvet"

// importRules are the repository's layering constraints. The debugger
// must stay ignorant of D2X (it serves `xbt` through stock call/eval
// only) and of every DSL layer above it; the wire layer must stay free
// of the debug stack; and nothing a service binary links may pull in
// this package.
var importRules = []importRule{
	{
		dir: "internal/debugger",
		forbidden: []string{
			"d2x/internal/d2x",
			"d2x/internal/d2xverify",
			"d2x/internal/buildit",
			"d2x/internal/graphit",
			"d2x/internal/einsum",
		},
		why: "the debugger must work through stock call/eval with no D2X knowledge",
	},
	{
		dir: "internal/d2x/wire",
		forbidden: []string{
			"d2x/internal/d2x/d2xc",
			"d2x/internal/d2x/d2xenc",
			"d2x/internal/d2x/d2xr",
			"d2x/internal/d2x/macros",
			"d2x/internal/d2x/serve",
			"d2x/internal/d2x/session",
			"d2x/internal/d2xverify",
			"d2x/internal/debugger",
			"d2x/internal/minic",
			"d2x/internal/dwarfish",
			"d2x/internal/buildit",
			"d2x/internal/graphit",
			"d2x/internal/einsum",
			"d2x/internal/obs",
		},
		why: "the wire protocol is a pure framing layer: a client must link it without linking the debug stack",
	},
	{dir: "internal/d2xverify", forbidden: []string{"d2x/internal/d2xvet"}, why: noVet},
	{dir: "internal/d2x", forbidden: []string{"d2x/internal/d2xvet"}, why: noVet},
}

func forbiddenBy(imp string, prefixes []string) string {
	for _, p := range prefixes {
		if imp == p || strings.HasPrefix(imp, p+"/") {
			return p
		}
	}
	return ""
}

// ImportGraphAnalyzer is the repo-level import-graph pass. It parses the
// import clauses (only) of every Go file under each rule's directory,
// test files included, and reports each forbidden import at its import
// spec. A rule's directory need not exist in the tree under check
// (fixture roots in tests): no files means nothing to flag.
var ImportGraphAnalyzer = &Analyzer{
	Name: "arch/import-graph",
	Doc:  "the debugger imports no D2X or DSL packages; the wire layer stays free of the debug stack; nothing under the verifier or D2X imports d2xvet",
	Repo: true,
	Run: func(p *Pass) error {
		for _, rule := range importRules {
			err := fs.WalkDir(os.DirFS(p.Root), rule.dir, func(rel string, e fs.DirEntry, err error) error {
				switch {
				case err != nil:
					return err
				case e.IsDir() && e.Name() == "testdata":
					return fs.SkipDir
				case e.IsDir() || !strings.HasSuffix(rel, ".go"):
					return nil
				}
				fset := token.NewFileSet()
				f, err := parser.ParseFile(fset, filepath.Join(p.Root, rel), nil, parser.ImportsOnly)
				if err != nil {
					return err
				}
				for _, spec := range f.Imports {
					imp, err := strconv.Unquote(spec.Path.Value)
					if err != nil {
						continue
					}
					if pre := forbiddenBy(imp, rule.forbidden); pre != "" {
						p.ReportAt(fset.Position(spec.Pos()), "%s imports %q, forbidden under %q (fix: %s)",
							rel, imp, pre, rule.why)
					}
				}
				return nil
			})
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
		return nil
	},
}
