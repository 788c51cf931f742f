package d2xvet

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

const moduleRoot = "../.."

func runFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	mismatches, err := FixtureMismatches(moduleRoot, filepath.Join("testdata", "src", name), []*Analyzer{a})
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	for _, m := range mismatches {
		t.Error(m)
	}
}

func TestAtomicFieldFixture(t *testing.T) { runFixture(t, "atomicfield", AtomicFieldAnalyzer) }
func TestNoAllocFixture(t *testing.T)     { runFixture(t, "noalloc", NoAllocAnalyzer) }
func TestLockScopeFixture(t *testing.T)   { runFixture(t, "lockscope", LockScopeAnalyzer) }
func TestObsSampleFixture(t *testing.T)   { runFixture(t, "obssample", ObsSampleAnalyzer) }

// TestSuppressionFilter exercises the //d2xvet:ignore directive
// handling directly: a reasoned directive (same line or line above)
// suppresses, a reason-less directive converts the finding into a
// "needs a reason" diagnostic, and unrelated passes stay unsuppressed.
func TestSuppressionFilter(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n" + // line 1
		"var a = 1 //d2xvet:ignore noalloc pooled buffer, measured zero\n" + // 2
		"var b = 2 //d2xvet:ignore noalloc\n" + // 3
		"//d2xvet:ignore atomicfield copied before first use\n" + // 4
		"var c = 3\n" + // 5
		"var d = 4\n" // 6
	path := filepath.Join(dir, "f.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(pass string, line int) Diagnostic {
		return Diagnostic{Pass: pass, Pos: token.Position{Filename: path, Line: line, Column: 5}, Message: "finding"}
	}
	got := Filter([]Diagnostic{
		mk("noalloc", 2),     // suppressed: reasoned directive on the line
		mk("noalloc", 3),     // directive without reason: becomes a finding
		mk("atomicfield", 5), // suppressed: reasoned directive on the line above
		mk("noalloc", 6),     // not suppressed
		mk("lockscope", 2),   // directive names a different pass
	})
	var msgs []string
	for _, d := range got {
		msgs = append(msgs, d.String())
	}
	if len(got) != 3 {
		t.Fatalf("Filter returned %d diagnostics, want 3:\n%v", len(got), msgs)
	}
	if got[0].Pos.Line != 2 || got[0].Pass != "lockscope" {
		t.Errorf("first surviving diagnostic = %s, want the lockscope finding on line 2", got[0])
	}
	if got[1].Pos.Line != 3 || got[1].Message != `d2xvet:ignore noalloc needs a reason ("//d2xvet:ignore noalloc <why>")` {
		t.Errorf("second surviving diagnostic = %s, want the needs-a-reason finding on line 3", got[1])
	}
	if got[2].Pos.Line != 6 || got[2].Pass != "noalloc" {
		t.Errorf("third surviving diagnostic = %s, want the unsuppressed noalloc finding on line 6", got[2])
	}
}

// TestByName pins the analyzer registry: every pass is addressable by
// the name //d2xvet:ignore directives use.
func TestByName(t *testing.T) {
	for _, name := range []string{"atomicfield", "noalloc", "lockscope", "obssample", "arch/import-graph", "arch/markers"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
	if len(All()) != 6 {
		t.Errorf("All() has %d analyzers, want 6", len(All()))
	}
}

// TestLoadDirExportTest checks that an external test package sees what
// the package's export_test.go exports, as go vet and go test check it:
// exporttest_test reads a constant only export_test.go declares.
func TestLoadDirExportTest(t *testing.T) {
	l, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(filepath.Join("testdata", "src", "exporttest"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[1].ImportPath != pkgs[0].ImportPath+"_test" {
		t.Fatalf("loaded %d units, want the package and its external test package", len(pkgs))
	}
}
