package minic_test

import (
	"math"
	"strings"
	"testing"

	"d2x/internal/examplebuilds"
	"d2x/internal/minic"
)

// literalCases are numeric literals as the lexer tokenises them: [0-9]+
// integers, and digits[.digits][e[±]digits] floats. A literal out of
// int64 or float64 range fails to parse.
var literalCases = []struct {
	text    string
	float   bool
	i       int64
	f       float64
	wantErr string
}{
	{text: "0", i: 0},
	{text: "42", i: 42},
	{text: "007", i: 7},
	{text: "9223372036854775807", i: math.MaxInt64},
	{text: "9223372036854775808", wantErr: `bad integer literal "9223372036854775808"`},
	{text: "123456789012345678901234567890", wantErr: "bad integer literal"},
	{text: "1.5", float: true, f: 1.5},
	{text: "0.25", float: true, f: 0.25},
	{text: "1e3", float: true, f: 1000},
	{text: "2.5e-3", float: true, f: 0.0025},
	{text: "1E+2", float: true, f: 100},
	{text: "4.9e-324", float: true, f: 5e-324},
	{text: "1e999", wantErr: `bad float literal "1e999"`},
}

// literalProgram is a program whose only global holds text.
func literalProgram(text string) string {
	return "global float x = " + text + ";\nfunc int main() { return 0; }\n"
}

// seedPrograms exercise array-literal initialisers, and doubled unary
// operators, which must not print as the tokens "--" and "&&".
var seedPrograms = []string{
	"global int[] a = {1, -2, 3};\nglobal string[] s = {\"x\", \"y\\n\"};\nglobal float[] w = {};\nfunc int main() { return a[0]; }\n",
	"global int[] a = {1,};\n",
	"func int main() { int[] a = {1}; return 0; }\n",
	"func int main() { int a = - -5; int* p = & &a; return - -a - -a; }\n",
}

func TestParseNumericLiterals(t *testing.T) {
	for _, tc := range literalCases {
		t.Run(tc.text, func(t *testing.T) {
			f, err := minic.Parse("lit.c", literalProgram(tc.text))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			switch lit := f.Globals[0].Init.(type) {
			case *minic.IntLit:
				if tc.float || lit.Value != tc.i {
					t.Errorf("parsed int %d, want %+v", lit.Value, tc)
				}
			case *minic.FloatLit:
				if !tc.float || lit.Value != tc.f {
					t.Errorf("parsed float %g, want %+v", lit.Value, tc)
				}
			default:
				t.Errorf("parsed %T", lit)
			}
		})
	}
}

// FuzzParse: Parse never panics, and whatever it accepts prints to source
// that parses again and prints identically. Plain `go test` runs only the
// seeds: the four examples' generated sources, tables included, the
// literal tests' programs and seedPrograms.
func FuzzParse(f *testing.F) {
	for _, name := range examplebuilds.Names() {
		b, err := examplebuilds.Build(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b.Source)
	}
	for _, tc := range literalCases {
		f.Add(literalProgram(tc.text))
	}
	for _, src := range seedPrograms {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := minic.Parse("fuzz.c", src)
		if err != nil {
			return
		}
		printed := minic.Print(file)
		again, err := minic.Parse("fuzz.c", printed)
		if err != nil {
			t.Fatalf("printed source does not parse: %v\n%s", err, printed)
		}
		if reprinted := minic.Print(again); reprinted != printed {
			t.Fatalf("printing is not stable:\nfirst:\n%s\nsecond:\n%s", printed, reprinted)
		}
	})
}
