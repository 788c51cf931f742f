package examplebuilds

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"d2x/internal/d2x"
	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/d2x/d2xr"
	"d2x/internal/dwarfish"
	"d2x/internal/minic"
)

// ranSession builds the named example, attaches a session, and runs the
// program to completion so the in-debuggee D2X table constructors have
// executed. The returned buffer is the debuggee/debugger output sink.
func ranSession(t *testing.T, name string) (*d2x.Build, *minic.VM, *bytes.Buffer) {
	t.Helper()
	build, err := Build(name)
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	var out bytes.Buffer
	d, err := build.NewSession(&out)
	if err != nil {
		t.Fatalf("session for %s: %v", name, err)
	}
	if err := d.Execute("run"); err != nil {
		t.Fatalf("running %s: %v", name, err)
	}
	return build, d.Process().VM, &out
}

// twoStage is the original, un-fused mapping of Figure 4, kept as the
// oracle for the fused resolution index: standard debug info takes a rip
// to its generated line (stage 1), then the D2X tables take that line to
// its record (stage 2). The tables are a decode of their own, read out
// of the debuggee once per sweep, independent of the runtime's shared
// decode and of the index built over it.
type twoStage struct {
	info    *dwarfish.Info
	tables  *d2xenc.Tables
	tabsErr error
}

func newTwoStage(rt *d2xr.Runtime, vm *minic.VM) twoStage {
	tables, err := d2xenc.Decode(vm)
	return twoStage{info: rt.Info(), tables: tables, tabsErr: err}
}

// recordAt resolves rip with the error precedence of the two stages: a
// stage-1 miss outranks a table decode failure.
func (ts twoStage) recordAt(rip int64) (*d2xc.Record, int, error) {
	_, genLine, ok := ts.info.LineFor(dwarfish.DecodeAddr(rip))
	if !ok {
		return nil, 0, fmt.Errorf("d2x: no line info for rip %#x", rip)
	}
	if ts.tabsErr != nil {
		return nil, genLine, ts.tabsErr
	}
	return ts.tables.RecordForLine(genLine), genLine, nil
}

// checkFusedMatchesTwoStage sweeps every address of the build: the fused
// path must return the same record (by value: the oracle's decode shares
// no pointers with the runtime's), generated line and error as the
// two-stage mapping.
func checkFusedMatchesTwoStage(t *testing.T, rt *d2xr.Runtime, vm *minic.VM) {
	t.Helper()
	ref := newTwoStage(rt, vm)
	sweepAddrs(t, rt.Info(), func(rip int64) {
		rec, gl, err := rt.RecordAt(vm, rip)
		recRef, glRef, errRef := ref.recordAt(rip)
		if (err == nil) != (errRef == nil) {
			t.Fatalf("rip %#x: fused err=%v, reference err=%v", rip, err, errRef)
		}
		if err != nil && err.Error() != errRef.Error() {
			t.Fatalf("rip %#x: fused err %q, reference err %q", rip, err, errRef)
		}
		if gl != glRef || !reflect.DeepEqual(rec, recRef) {
			t.Fatalf("rip %#x: fused (%+v, line %d) != reference (%+v, line %d)",
				rip, rec, gl, recRef, glRef)
		}
	})
}

// sweepAddrs calls fn for every address of the build's debug info — each
// function's PC range plus a margin past its last line entry — and for a
// handful of addresses no function owns.
func sweepAddrs(t *testing.T, info *dwarfish.Info, fn func(rip int64)) {
	t.Helper()
	n := 0
	for fi := range info.Funcs {
		f := &info.Funcs[fi]
		maxPC := 0
		for _, e := range f.Lines {
			if e.PC > maxPC {
				maxPC = e.PC
			}
		}
		for pc := 0; pc <= maxPC+2; pc++ {
			fn(dwarfish.EncodeAddr(dwarfish.Addr{FuncIndex: f.FuncIndex, PC: pc}))
			n++
		}
	}
	// Addresses outside any function: stage-1 misses both paths must
	// agree on.
	for _, a := range []dwarfish.Addr{
		{FuncIndex: len(info.Funcs) + 7, PC: 0},
		{FuncIndex: -1, PC: 3},
	} {
		fn(dwarfish.EncodeAddr(a))
		n += 1
	}
	if n == 0 {
		t.Fatal("address sweep visited nothing — debug info has no line entries")
	}
}

// TestFusedMatchesTwoStageReference is the differential-correctness
// check behind the fused resolution index (CI runs it explicitly): on
// every address of every example program, the fused path must return the
// same record, generated line, and error as the original two-stage
// mapping it replaced.
func TestFusedMatchesTwoStageReference(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			build, vm, _ := ranSession(t, name)
			checkFusedMatchesTwoStage(t, build.Runtime, vm)
		})
	}
}

// TestXBTOutputMatchesReferenceRenderer drives the real xbt entry point
// (append-rendered through the pooled buffers) at every address of every
// example program and demands byte-identical output to a fmt-based
// rendering of the reference two-stage resolution.
func TestXBTOutputMatchesReferenceRenderer(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			build, vm, out := ranSession(t, name)
			rt := build.Runtime
			nat, _, ok := build.Program.Natives.Lookup(d2xr.NativeXBT)
			if !ok {
				t.Fatalf("%s: xbt native not registered", name)
			}
			ref := newTwoStage(rt, vm)
			sweepAddrs(t, rt.Info(), func(rip int64) {
				out.Reset()
				_, err := nat.Handler(&minic.NativeCall{
					VM:   vm,
					Args: []minic.Value{minic.IntVal(rip), minic.IntVal(0)},
				})
				got := out.String()

				rec, gl, refErr := ref.recordAt(rip)
				if refErr != nil {
					if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("rip %#x: xbt err %v, reference err %v", rip, err, refErr)
					}
					if got != "" {
						t.Fatalf("rip %#x: xbt wrote %q despite error", rip, got)
					}
					return
				}
				if err != nil {
					t.Fatalf("rip %#x: xbt failed (%v) where reference resolved", rip, err)
				}
				var want string
				if rec == nil || len(rec.Stack) == 0 {
					want = fmt.Sprintf("No D2X context for generated line %d\n", gl)
				} else {
					var b strings.Builder
					for i, loc := range rec.Stack {
						fmt.Fprintf(&b, "#%d ", i)
						if loc.Function != "" {
							fmt.Fprintf(&b, "in %s ", loc.Function)
						}
						fmt.Fprintf(&b, "at %s:%d\n", loc.File, loc.Line)
					}
					want = b.String()
				}
				if got != want {
					t.Fatalf("rip %#x: xbt output diverged\n got: %q\nwant: %q", rip, got, want)
				}
			})
		})
	}
}
