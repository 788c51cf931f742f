package d2xvet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// plantFile writes src to rel under root, creating its directory.
func plantFile(t *testing.T, root, rel, src string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runRepoPass runs one repo-level pass over the tree at root.
func runRepoPass(t *testing.T, root string, a *Analyzer) []Diagnostic {
	t.Helper()
	diags, err := RunPackages(root, nil, []*Analyzer{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// wantOne asserts exactly one finding, anchored at rel:line and
// mentioning needle.
func wantOne(t *testing.T, diags []Diagnostic, root, rel string, line int, needle string) {
	t.Helper()
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Pos.Filename != filepath.Join(root, filepath.FromSlash(rel)) || d.Pos.Line != line {
		t.Fatalf("finding anchored at %s:%d, want %s:%d (%s)", d.Pos.Filename, d.Pos.Line, rel, line, d)
	}
	if !strings.Contains(d.Message, needle) {
		t.Fatalf("finding does not mention %q: %s", needle, d)
	}
}

// ---- arch/import-graph ----

func TestForbiddenDebuggerImportFires(t *testing.T) {
	root := t.TempDir()
	plantFile(t, root, "internal/debugger/bad.go", "package debugger\n\nimport _ \"d2x/internal/d2x/d2xc\"\n")
	wantOne(t, runRepoPass(t, root, ImportGraphAnalyzer), root, "internal/debugger/bad.go", 3, "d2x/internal/d2x/d2xc")
}

// TestForbiddenWireImportFires: the wire protocol layer must stay a pure
// framing package — importing any piece of the debug stack is flagged.
func TestForbiddenWireImportFires(t *testing.T) {
	root := t.TempDir()
	plantFile(t, root, "internal/d2x/wire/bad.go", "package wire\n\nimport _ \"d2x/internal/debugger\"\n")
	wantOne(t, runRepoPass(t, root, ImportGraphAnalyzer), root, "internal/d2x/wire/bad.go", 3, "d2x/internal/debugger")
}

// TestForbiddenVetImportFires: the verifier that Build.Verify links into
// every binary, and every package under internal/d2x, must not import
// this package, or each service binary links a Go type checker.
func TestForbiddenVetImportFires(t *testing.T) {
	for _, rel := range []string{"internal/d2xverify/bad.go", "internal/d2x/serve/bad_test.go"} {
		root := t.TempDir()
		plantFile(t, root, rel, "package p\n\nimport _ \"d2x/internal/d2xvet\"\n")
		wantOne(t, runRepoPass(t, root, ImportGraphAnalyzer), root, rel, 3, "d2x/internal/d2xvet")
	}
}

// TestImportRuleSkipsMissingDir: a constrained directory absent from the
// tree under check (fixture roots, partial checkouts) is not an error —
// the rule constrains files, and there are none.
func TestImportRuleSkipsMissingDir(t *testing.T) {
	root := t.TempDir()
	plantFile(t, root, "internal/debugger/ok.go", "package debugger\n\nimport _ \"d2x/internal/dwarfish\"\n")
	// No internal/d2x or internal/d2xverify in this root; their rules
	// must be skipped, not fail the whole pass.
	if got := runRepoPass(t, root, ImportGraphAnalyzer); len(got) != 0 {
		t.Fatalf("import-graph produced findings on a tree missing constrained dirs: %v", got)
	}
}

// TestImportRuleDoesNotOvermatch: a forbidden entry covers its own path
// and the paths under it, not every path that shares its string prefix:
// d2x/internal/d2xvet starts with "d2x/internal/d2x", which the debugger
// may not import, but lives outside it.
func TestImportRuleDoesNotOvermatch(t *testing.T) {
	root := t.TempDir()
	plantFile(t, root, "internal/debugger/ok.go",
		"package debugger\n\nimport (\n\t_ \"d2x/internal/d2xvet\"\n\t_ \"d2x/internal/dwarfish\"\n)\n")
	if got := runRepoPass(t, root, ImportGraphAnalyzer); len(got) != 0 {
		t.Fatalf("import-graph fired on allowed imports: %v", got)
	}
}

// ---- arch/markers ----

// TestPlantedMarkerFires: a hunk left open in a counted component is
// reported at the line that opened it.
func TestPlantedMarkerFires(t *testing.T) {
	root := t.TempDir()
	plantFile(t, root, "internal/buildit/planted.go", "package buildit\n\n// D2X:BEGIN planted\nvar x int\n")
	wantOne(t, runRepoPass(t, root, MarkersAnalyzer), root, "internal/buildit/planted.go", 3, "never closed")
}

// TestRepoArchitectureVerifies runs both architecture passes over the
// real tree: the debugger imports no D2X package, nothing under the
// verifier or D2X imports this package, and every counted marker is
// well-formed.
func TestRepoArchitectureVerifies(t *testing.T) {
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Analyzer{ImportGraphAnalyzer, MarkersAnalyzer} {
		if got := runRepoPass(t, root, a); len(got) != 0 {
			t.Errorf("%s: %v", a.Name, got)
		}
	}
}
