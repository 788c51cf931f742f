// Package loc counts lines of code with D2X-delta attribution, the
// instrument behind the paper's evaluation (Tables 3 and 4): how much of a
// DSL compiler had to change to gain full contextual debugging.
//
// The counting rule matches DESIGN.md §5: a component's D2X delta is
// (a) every line of its dedicated d2x_*.go files, plus (b) every line
// inside `// D2X:BEGIN` ... `// D2X:END` hunks in its other files. Blank
// lines and comment-only lines are not code; test files are excluded from
// component totals, mirroring the paper's note that LLDB's 543K lines
// exclude test cases.
//
// The package owns the marker grammar: the scan that counts a file also
// reports its malformed markers (MarkerFault), and d2xvet's arch/markers
// pass turns those into findings over every counted component.
package loc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ErrMissingComponent reports that a component's source directory does
// not exist. Callers that tolerate partially-built trees (the seed state
// before every component landed) match it with errors.As and read the
// component name from it.
type ErrMissingComponent struct {
	Component string // component name passed to CountComponent
	Dir       string // the directory that could not be read
	Err       error  // underlying filesystem error
}

func (e *ErrMissingComponent) Error() string {
	return fmt.Sprintf("loc: component %q: missing directory %s: %v", e.Component, e.Dir, e.Err)
}

func (e *ErrMissingComponent) Unwrap() error { return e.Err }

// IsMissingComponent reports whether err is an ErrMissingComponent and
// returns the missing component's name.
func IsMissingComponent(err error) (string, bool) {
	var me *ErrMissingComponent
	if errors.As(err, &me) {
		return me.Component, true
	}
	return "", false
}

// Stats summarises one component.
type Stats struct {
	Name       string
	Files      int
	Total      int // code lines, D2X delta included
	Delta      int // code lines attributable to D2X support
	DeltaFiles int // how many dedicated d2x_*.go files contribute
	Hunks      int // how many marked hunks contribute
	// Faults are the malformed markers of the files whose delta is
	// counted by hunks, in file and line order.
	Faults []MarkerFault
}

// NonDelta returns the component's size without its D2X support.
func (s Stats) NonDelta() int { return s.Total - s.Delta }

// DeltaPercent returns the delta as a percentage of the non-delta size
// (the paper's "percentage change" row).
func (s Stats) DeltaPercent() float64 {
	if s.NonDelta() == 0 {
		return 0
	}
	return 100 * float64(s.Delta) / float64(s.NonDelta())
}

// A Component is one counted component of Tables 3 and 4: its name and
// the directories, relative to the repository root, that hold its code.
type Component struct {
	Name string
	Dirs []string
}

// Components lists every counted component: the two DSL compilers whose
// D2X deltas the tables report, and the three parts of D2X itself.
func Components() []Component {
	return []Component{
		{"graphit", []string{"internal/graphit"}},
		{"buildit", []string{"internal/buildit"}},
		{"d2xc", []string{"internal/d2x/d2xc", "internal/d2x/d2xenc"}},
		{"d2xr", []string{"internal/d2x/d2xr", "internal/d2x/session"}},
		{"macros", []string{"internal/d2x/macros"}},
	}
}

// Count counts the named component of Components.
func Count(root, name string) (Stats, error) {
	for _, c := range Components() {
		if c.Name == name {
			return CountComponent(root, c.Name, c.Dirs...)
		}
	}
	return Stats{Name: name}, fmt.Errorf("loc: unknown component %q", name)
}

// RepoRoot locates the repository root from this source file's location,
// so tools and benchmarks work regardless of the working directory.
func RepoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("loc: cannot locate source file")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file))) // internal/loc/loc.go -> repo root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("loc: %s does not look like the repo root: %w", root, err)
	}
	return root, nil
}

// CountComponent counts the Go code under the given directories (relative
// to root), attributing D2X delta per the marking rules, and collects the
// marker faults of the files it counts by hunks.
func CountComponent(root, name string, dirs ...string) (Stats, error) {
	st := Stats{Name: name}
	for _, dir := range dirs {
		full := filepath.Join(root, dir)
		entries, err := os.ReadDir(full)
		if err != nil {
			return st, &ErrMissingComponent{Component: name, Dir: full, Err: err}
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			names = append(names, e.Name())
		}
		sort.Strings(names)
		for _, fn := range names {
			data, err := os.ReadFile(filepath.Join(full, fn))
			if err != nil {
				return st, err
			}
			fileStats := CountSource(string(data))
			st.Files++
			st.Total += fileStats.Code
			if strings.HasPrefix(fn, "d2x_") {
				st.Delta += fileStats.Code
				st.DeltaFiles++
				continue
			}
			st.Delta += fileStats.Marked
			st.Hunks += fileStats.MarkedHunks
			for _, f := range fileStats.Faults {
				f.File = filepath.ToSlash(filepath.Join(dir, fn))
				st.Faults = append(st.Faults, f)
			}
		}
	}
	return st, nil
}

// SourceStats is the per-file breakdown.
type SourceStats struct {
	Code        int // non-blank, non-comment lines
	Comment     int
	Blank       int
	Marked      int // code lines inside D2X:BEGIN/END hunks
	MarkedHunks int
	Faults      []MarkerFault
}

// The delta markers. Any line that contains markBegin opens a hunk and
// any that contains markEnd closes one, wherever on the line the marker
// stands, so each must be a comment line of its own. markRemoved records
// deleted lines (DESIGN.md §5): `// D2X:REMOVED <n>`.
const (
	markBegin   = "D2X:BEGIN"
	markEnd     = "D2X:END"
	markRemoved = "D2X:REMOVED"
)

// A MarkerFault is one malformed delta marker, which would skew the
// counted delta: the line it is on, what is wrong and how to fix it.
// File is the file's path relative to the repository root, with forward
// slashes; CountSource leaves it empty.
type MarkerFault struct {
	File    string
	Line    int
	Message string
	Hint    string
}

// CountSource classifies the lines of one Go source file and reports its
// malformed delta markers.
func CountSource(src string) SourceStats {
	var st SourceStats
	fault := func(line int, hint, format string, args ...any) {
		st.Faults = append(st.Faults, MarkerFault{Line: line, Message: fmt.Sprintf(format, args...), Hint: hint})
	}
	inBlock := false // inside /* */
	open := 0        // D2X hunks open
	openLine := 0    // where the outermost open hunk began
	for i, raw := range strings.Split(src, "\n") {
		n := i + 1
		line := strings.TrimSpace(raw)
		switch {
		case strings.Contains(line, markBegin):
			st.Comment++
			st.MarkedHunks++
			if label, ok := strings.CutPrefix(line, "// "+markBegin); !ok {
				fault(n, "put the marker on its own `// D2X:BEGIN <label>` comment line",
					"marker %q embedded in a non-marker line; the LoC counter will misclassify it", markBegin)
			} else if strings.TrimSpace(label) == "" {
				fault(n, "label the hunk, e.g. `// D2X:BEGIN frontier-var`", "unlabelled %s hunk", markBegin)
			}
			if open > 0 {
				fault(n, "close the previous hunk first; hunks cannot nest",
					"%s inside the hunk opened at line %d", markBegin, openLine)
			} else {
				openLine = n
			}
			open++
			continue
		case strings.Contains(line, markEnd):
			st.Comment++
			if !strings.HasPrefix(line, "// "+markEnd) {
				fault(n, "put the marker on its own `// D2X:END <label>` comment line",
					"marker %q embedded in a non-marker line; the LoC counter will misclassify it", markEnd)
			}
			if open == 0 {
				fault(n, "remove the stray marker or add the missing D2X:BEGIN",
					"%s without a matching %s", markEnd, markBegin)
			} else {
				open--
			}
			continue
		case strings.Contains(line, markRemoved):
			// The count must be a positive integer for the −n column to
			// add up.
			_, rest, _ := strings.Cut(line, markRemoved)
			rest = strings.TrimSpace(rest)
			count := rest
			if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
				count = rest[:sp]
			}
			if k, err := strconv.Atoi(count); err != nil || k <= 0 {
				fault(n, "write `// D2X:REMOVED <n>` with the number of deleted lines",
					"%s marker without a positive line count (got %q)", markRemoved, rest)
			}
		}
		if inBlock {
			st.Comment++
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case line == "":
			st.Blank++
		case strings.HasPrefix(line, "//"):
			st.Comment++
		case strings.HasPrefix(line, "/*"):
			st.Comment++
			if !strings.Contains(line[2:], "*/") {
				inBlock = true
			}
		default:
			st.Code++
			if open > 0 {
				st.Marked++
			}
		}
	}
	if open > 0 {
		fault(openLine, "add the missing `// D2X:END` before the end of the file",
			"hunk opened at line %d is never closed", openLine)
	}
	return st
}
