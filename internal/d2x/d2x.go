// Package d2x ties the D2X components into the workflow of Figure 3:
//
//	DSL compiler ──(d2xc)──► generated code + D2X tables
//	          │
//	          ▼
//	     Link: compile generated code, register the D2X runtime
//	     (d2xr) as linked natives, build standard debug info
//	          │
//	          ▼
//	     Debug: attach the stock debugger, install the helper
//	     macros, and use xbt/xlist/xframe/xvars/xbreak/xdel
//
// DSL compilers use d2xc directly; end-user tooling uses Link and
// NewSession.
package d2x

import (
	"fmt"
	"io"
	"strings"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/d2x/d2xr"
	"d2x/internal/d2x/macros"
	"d2x/internal/d2xverify"
	"d2x/internal/debugger"
	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/minic/effects"
	"d2x/internal/minic/journal"
)

// Build is a linked, debuggable artifact: the compiled generated program
// with D2X tables inside it, its standard debug info, and the attached
// D2X runtime.
type Build struct {
	Program   *minic.Program
	DebugBlob []byte
	Runtime   *d2xr.Runtime
	Source    string // full generated source including the D2X tables

	// Ctx is the D2X compile-time context the build was linked from (nil
	// for a plain build). The verifier uses it to check that the
	// encoded tables round-trip and that the compiler's scope discipline
	// was sound.
	Ctx *d2xc.Context

	// ExtraMacros holds DSL-specific debugger macros (paper §4.3): a DSL
	// may define its own commands over functions it generated into the
	// program, extending the debugger without touching it or D2X-R.
	ExtraMacros string
}

// LinkOptions tune the link step.
type LinkOptions struct {
	// Natives registers additional host-linked functions (a DSL's own
	// runtime library) before compilation.
	Natives func(*minic.Natives)
	// FileResolver overrides how the D2X runtime reads DSL sources for
	// xlist (defaults to the filesystem).
	FileResolver d2xr.FileResolver
	// Optimize runs the mini-C constant folder over the generated code
	// before compiling it. D2X survives: folding rewrites expressions
	// within statements and prunes dead branches, but surviving
	// statements keep their lines — the key the D2X tables map on.
	Optimize bool
}

// Link assembles a debuggable build from generated source and the D2X
// compile-time context that produced it. A nil context links the plain
// program, with no tables and no runtime: the exact program a D2X-less
// compiler would produce, the baseline of the overhead experiment.
func Link(filename, genSource string, ctx *d2xc.Context, opts LinkOptions) (*Build, error) {
	// Natives first: the handler effect analysis below checks the
	// generated source against the same native registry the final
	// compile will use.
	nats := minic.NewNatives()
	var rt *d2xr.Runtime
	if ctx != nil {
		rt = d2xr.New()
		rt.Register(nats)
		if opts.FileResolver != nil {
			rt.SetFileResolver(opts.FileResolver)
		}
	}
	if opts.Natives != nil {
		opts.Natives(nats)
	}

	full := genSource
	if ctx != nil {
		var tb strings.Builder
		if err := d2xenc.EmitTablesFX(ctx, handlerEffects(filename, genSource, ctx, nats), &tb); err != nil {
			return nil, fmt.Errorf("d2x: emitting tables: %w", err)
		}
		if !strings.HasSuffix(full, "\n") && full != "" {
			full += "\n"
		}
		full += tb.String()
	}

	var prog *minic.Program
	var err error
	if opts.Optimize {
		prog, _, err = minic.CompileOptimized(filename, full, nats)
	} else {
		prog, err = minic.Compile(filename, full, nats)
	}
	if err != nil {
		return nil, fmt.Errorf("d2x: compiling generated code: %w", err)
	}
	blob := dwarfish.Build(prog).Encode()
	if rt != nil {
		if err := rt.AttachDebugInfo(blob); err != nil {
			return nil, err
		}
	}
	return &Build{Program: prog, DebugBlob: blob, Runtime: rt, Source: full, Ctx: ctx}, nil
}

// handlerEffects runs the effect-and-termination analysis over the
// generated source (before the D2X tables are appended) and returns one
// summary row per registered rtv handler, in first-registration order.
// Analysis failures are swallowed: a genSource that does not check here
// will fail the real compile just below with a better error.
func handlerEffects(filename, genSource string, ctx *d2xc.Context, nats *minic.Natives) []d2xenc.HandlerEffect {
	var names []string
	seen := map[string]bool{}
	for _, r := range ctx.Records() {
		for _, v := range r.Vars {
			if v.Kind == d2xc.VarHandler && v.Val != "" && !seen[v.Val] {
				seen[v.Val] = true
				names = append(names, v.Val)
			}
		}
	}
	if len(names) == 0 {
		return nil
	}
	file, err := minic.Parse(filename, genSource)
	if err != nil {
		return nil
	}
	prog, err := minic.Check(file, nats)
	if err != nil {
		return nil
	}
	an := effects.Analyze(prog)
	var fx []d2xenc.HandlerEffect
	for _, name := range names {
		s, ok := an.ByName(name)
		if !ok {
			continue // handler not in this translation unit
		}
		fx = append(fx, d2xenc.HandlerEffect{
			Handler: name, Mask: int64(s.Effects), Loop: int64(s.Loop),
		})
	}
	return fx
}

// Verify runs the d2xverify cross-layer and lint checks over the build:
// the program, its debug info, its D2X tables, and every macro the
// debug session would load. Pipelines call this behind a -lint flag;
// tests call it directly.
func (b *Build) Verify() *d2xverify.Report {
	macroText := ""
	if b.Runtime != nil {
		macroText = macros.GDBInit
	}
	if b.ExtraMacros != "" {
		macroText += "\n" + b.ExtraMacros
	}
	return d2xverify.Verify(&d2xverify.Input{
		Program:   b.Program,
		DebugBlob: b.DebugBlob,
		Ctx:       b.Ctx,
		Macros:    macroText,
	})
}

// NewSession attaches a fresh debugger to the build, with the D2X helper
// macros installed. Program output and the debugger transcript both go to
// out, interleaved as in a terminal.
//
// Sessions are independent: each gets its own debuggee VM and debugger,
// while the build's D2X runtime serves all of them from one shared table
// decode. Call Close on the returned debugger when done with it — that
// evicts the session's D2X state from the shared runtime (via a close
// hook, so the debugger itself stays D2X-free).
func (b *Build) NewSession(out io.Writer) (*debugger.Debugger, error) {
	return b.NewSessionSplit(out, out)
}

// NewSessionSplit is NewSession with the two output streams separated:
// debuggee program output goes to progOut, the debugger transcript to
// transcript. A terminal interleaves them (NewSession); a debug server
// routes program output into asynchronous events and the transcript into
// command responses, so it needs them apart.
func (b *Build) NewSessionSplit(progOut, transcript io.Writer) (*debugger.Debugger, error) {
	proc, err := debugger.NewProcess(b.Program, b.DebugBlob, progOut)
	if err != nil {
		return nil, err
	}
	d := debugger.New(proc, transcript)
	if b.Runtime != nil {
		if err := macros.Install(d); err != nil {
			return nil, err
		}
		vm := proc.VM
		rt := b.Runtime
		d.OnClose(func() { rt.Release(vm) })
		// Publish each recording on the session state, where tooling
		// finds it next to the session's other D2X state. The debugger
		// still owns the journal and stops it when it closes.
		d.OnRecord(func(j *journal.Journal) { rt.StateFor(vm).Journal = j })
	}
	if b.ExtraMacros != "" {
		if err := d.LoadMacros(b.ExtraMacros); err != nil {
			return nil, fmt.Errorf("d2x: DSL-specific macros: %w", err)
		}
	}
	return d, nil
}

// LiveSessions reports how many debug sessions currently hold per-session
// state in the build's D2X runtime (0 for a plain build).
func (b *Build) LiveSessions() int {
	if b.Runtime == nil {
		return 0
	}
	return b.Runtime.LiveSessions()
}

// Run executes the build to completion without a debugger (the normal,
// non-debug execution path) and returns the program's output. The D2X
// tables ride along but no D2X code runs — the zero-overhead property of
// paper §3.2.
func (b *Build) Run() (string, int64, error) {
	var out strings.Builder
	vm := minic.NewVM(b.Program, &out)
	err := vm.Run()
	return out.String(), vm.Steps, err
}
