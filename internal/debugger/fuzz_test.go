package debugger

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"d2x/internal/dwarfish"
	"d2x/internal/minic"
)

// exprAllocPerByte bounds what print, set var and eval together allocate
// per input byte. An eval runs the commands it formats, and a command
// line of a few bytes prints or snapshots a few KiB: `stats\n` in an eval
// format allocates about 1.5 KiB per byte of it, `disas` about 0.9.
const exprAllocPerByte = 4096

// d2xMacroBodies are the call and eval arguments of the D2X helper
// macros (internal/d2x/macros, which imports this package), with their
// arguments filled in.
var d2xMacroBodies = []string{
	"d2x_runtime::command_xbt($rip, $rsp)",
	`d2x_runtime::command_xframe($rip, $rsp, "1")`,
	"d2x_runtime::command_xlist($rip, $rsp)",
	`d2x_runtime::command_xvars($rip, $rsp, "")`,
	`"%s", d2x_runtime::command_xbreak($rip, "power.dsl:15")`,
	`"%s", d2x_runtime::command_xdel("7")`,
}

// exprFuzzMax is the longest input FuzzDebuggerExpr runs. A chain of
// string concatenations allocates quadratically in its length, as it
// does in the program: `s+s+…+s` 4 KiB long allocates about 1 KiB per
// byte, and 40 KiB long, 10.
const exprFuzzMax = 4 << 10

// FuzzDebuggerExpr: a debugger expression is untrusted input. Each input
// X of up to exprFuzzMax bytes runs as `print X`, `set var X` and `eval
// X` on a fresh session of exprFixtureSrc, paused at its line 13. Each
// command must return an error or its result, never panic or hang, and
// the three together allocate at most exprAllocPerByte per input byte,
// plus 64 KiB for their fixed costs. minic.Lex, which FuzzParse covers,
// reads the tokens, so this target fuzzes the evaluator. Plain `go test`
// runs only the seeds: the D2X macro bodies and the inputs of the
// expression tests.
func FuzzDebuggerExpr(f *testing.F) {
	prog, err := minic.Compile("gen.c", exprFixtureSrc, nil)
	if err != nil {
		f.Fatal(err)
	}
	blob := dwarfish.Build(prog).Encode()
	for _, seed := range append(d2xMacroBodies, exprSeeds()...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > exprFuzzMax {
			return
		}
		proc, err := NewProcess(prog, blob, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		d := New(proc, &out)
		defer d.Close()
		for _, cmd := range []string{"break gen.c:13", "run"} {
			if err := d.Execute(cmd); err != nil {
				t.Fatal(err)
			}
		}
		out.Reset()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = d.Execute("print " + src)
		if err == nil && !strings.HasPrefix(out.String(), "$1 = ") {
			t.Fatalf("print %q returned no error and printed %q", src, out.String())
		}
		d.Execute("set var " + src)
		d.Execute("eval " + src)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(exprAllocPerByte*len(src)+64<<10); grew > limit {
			t.Fatalf("%d bytes allocated for the %d-byte input %q, limit %d", grew, len(src), src, limit)
		}
	})
}
