package loc

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestCountSource(t *testing.T) {
	src := `package x

// a comment
func f() int { // trailing comments do not demote a code line
	return 1
}

/* block
   comment */
var g = 2
`
	st := CountSource(src)
	if st.Code != 5 {
		t.Errorf("Code = %d, want 5", st.Code)
	}
	if st.Blank != 3 {
		t.Errorf("Blank = %d, want 3", st.Blank)
	}
	if st.Comment != 3 {
		t.Errorf("Comment = %d, want 3", st.Comment)
	}
	if st.Marked != 0 || st.MarkedHunks != 0 {
		t.Errorf("unexpected marked lines: %+v", st)
	}
}

func TestCountMarkedHunks(t *testing.T) {
	src := `package x
func f() {
	a := 1
	// D2X:BEGIN hook
	hook(a)
	hook2(a)
	// D2X:END hook
	b := 2
	// D2X:BEGIN other
	hook3(b)
	// D2X:END other
}
`
	st := CountSource(src)
	if st.Marked != 3 {
		t.Errorf("Marked = %d, want 3", st.Marked)
	}
	if st.MarkedHunks != 2 {
		t.Errorf("MarkedHunks = %d, want 2", st.MarkedHunks)
	}
	if st.Code != 8 {
		t.Errorf("Code = %d, want 8", st.Code)
	}
}

func TestRepoRoot(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(root, "repo") && !strings.Contains(root, "/") {
		t.Errorf("suspicious root %q", root)
	}
}

func TestGraphItDeltaShape(t *testing.T) {
	// The reproduction must exhibit the paper's headline property: adding
	// D2X to GraphIt is a small-percentage change (paper: 1.4%). Allow
	// generous slack — the shape, not the constant, is the claim.
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Count(root, "graphit")
	if err != nil {
		t.Fatal(err)
	}
	if st.Delta == 0 {
		t.Fatal("no GraphIt D2X delta found; marking rules broken")
	}
	if pct := st.DeltaPercent(); pct > 15 {
		t.Errorf("GraphIt delta = %.1f%%, expected a small fraction", pct)
	}
	if st.DeltaFiles < 1 || st.Hunks < 1 {
		t.Errorf("expected dedicated files and marked hunks, got %+v", st)
	}
}

func TestBuildItDeltaShape(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Count(root, "buildit")
	if err != nil {
		t.Fatal(err)
	}
	if st.Delta == 0 {
		t.Fatal("no BuildIt D2X delta found")
	}
	// Paper: 6.1%. BuildIt is small, so its percentage is naturally
	// higher than GraphIt's — that orders the same way here.
	gst, err := Count(root, "graphit")
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaPercent() <= gst.DeltaPercent() {
		t.Errorf("expected BuildIt delta %% (%.1f) > GraphIt delta %% (%.1f), as in the paper",
			st.DeltaPercent(), gst.DeltaPercent())
	}
}

func TestTablesRender(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(root)
	if err != nil {
		t.Fatal(err)
	}
	s3 := t3.String()
	for _, want := range []string{"GraphIt DSL Compiler and Runtime", "D2X-C", "D2X-R", "D2X helper macros", "percentage change"} {
		if !strings.Contains(s3, want) {
			t.Errorf("Table 3 missing row %q:\n%s", want, s3)
		}
	}
	t4, err := Table4(root)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t4.String(), "BuildIt DSL compiler framework") {
		t.Errorf("Table 4:\n%s", t4)
	}
}

func TestCountComponentMissingDir(t *testing.T) {
	_, err := CountComponent("/nonexistent", "x", "nope")
	if err == nil {
		t.Fatal("missing directory accepted")
	}
	// The error is typed so tools can distinguish "component not built
	// yet" from real I/O failures, and name the component.
	comp, ok := IsMissingComponent(err)
	if !ok {
		t.Fatalf("error %v is not an ErrMissingComponent", err)
	}
	if comp != "x" {
		t.Errorf("component = %q, want %q", comp, "x")
	}
	var me *ErrMissingComponent
	if !errors.As(err, &me) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if me.Dir == "" || me.Err == nil {
		t.Errorf("incomplete error detail: %+v", me)
	}
}

// TestMarkerFixtures: the counting scan reports each malformed marker,
// anchored at its line, and a balanced file has no fault.
func TestMarkerFixtures(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		faults  int
		needle  string
		anchors []int
	}{
		{
			name:   "balanced",
			src:    "package x\n// D2X:BEGIN a\nvar a int\n// D2X:END a\n",
			faults: 0,
		},
		{
			name:    "unterminated",
			src:     "package x\n// D2X:BEGIN a\nvar a int\n",
			faults:  1,
			needle:  "never closed",
			anchors: []int{2},
		},
		{
			name:    "stray-end",
			src:     "package x\nvar a int\n// D2X:END a\n",
			faults:  1,
			needle:  "without a matching",
			anchors: []int{3},
		},
		{
			name:   "nested",
			src:    "package x\n// D2X:BEGIN a\n// D2X:BEGIN b\nvar a int\n// D2X:END b\n// D2X:END a\n",
			faults: 1,
			needle: "inside the hunk",
		},
		{
			name:    "embedded-in-code",
			src:     "package x\nvar s = \"D2X:BEGIN trap\"\n// D2X:END trap\n",
			faults:  1,
			needle:  "misclassify",
			anchors: []int{2},
		},
		{
			name:   "removed-without-count",
			src:    "package x\n// D2X:REMOVED lots\nvar a int\n",
			faults: 1,
			needle: "positive line count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := CountSource(tc.src)
			if len(st.Faults) != tc.faults {
				t.Fatalf("got %d faults, want %d: %+v", len(st.Faults), tc.faults, st.Faults)
			}
			if tc.needle != "" && !slices.ContainsFunc(st.Faults, func(f MarkerFault) bool {
				return strings.Contains(f.Message, tc.needle)
			}) {
				t.Fatalf("no fault mentions %q: %+v", tc.needle, st.Faults)
			}
			for _, line := range tc.anchors {
				if !slices.ContainsFunc(st.Faults, func(f MarkerFault) bool { return f.Line == line }) {
					t.Fatalf("no fault anchored at line %d: %+v", line, st.Faults)
				}
			}
			if tc.faults == 0 && st.MarkedHunks != strings.Count(tc.src, "D2X:BEGIN") {
				t.Fatalf("MarkedHunks = %d, want %d", st.MarkedHunks, strings.Count(tc.src, "D2X:BEGIN"))
			}
		})
	}
}

// TestUnlabelledHunkIsAFault: an unlabelled hunk is a fault like the
// others, and CountComponent reports the faults of the files it counts by
// hunks under their repo-relative names, never those of d2x_*.go files,
// which count whole.
func TestUnlabelledHunkIsAFault(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "comp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"a.go":     "package comp\n\n// D2X:BEGIN\nvar a int\n// D2X:END\n",
		"d2x_b.go": "package comp\n\n// D2X:END stray\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := CountComponent(root, "comp", "comp")
	if err != nil {
		t.Fatal(err)
	}
	want := []MarkerFault{{File: "comp/a.go", Line: 3, Message: "unlabelled D2X:BEGIN hunk",
		Hint: "label the hunk, e.g. `// D2X:BEGIN frontier-var`"}}
	if !slices.Equal(st.Faults, want) {
		t.Fatalf("faults = %+v, want %+v", st.Faults, want)
	}
	if st.Hunks != 1 || st.Delta != 2 {
		t.Errorf("hunks = %d, delta = %d; want 1 and 2", st.Hunks, st.Delta)
	}
}
