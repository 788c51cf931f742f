package buildit

// D2X support for the buildit framework — the entire Table 4 delta, plus
// the marked hunks in buildit.go (see DESIGN.md §5 for the accounting
// rule). The paper's claim for this case study (§5.2) is that one
// framework-level integration makes every DSL built on the framework
// debuggable: static tags come for free from the first-stage call stack,
// so einsum needed zero lines of change.

import (
	"runtime"
	"strings"

	"d2x/internal/d2x"
	"d2x/internal/d2x/d2xc"
	"d2x/internal/srcloc"
)

// Link generates the staged program and assembles a debuggable build:
// generated code with the D2X tables inside it, standard debug info, and
// the D2X runtime. Without EnableD2X it produces the plain program (the
// overhead baseline).
func (b *Builder) Link(filename string, opts d2x.LinkOptions) (*d2x.Build, error) {
	src, ctx, err := b.Generate(filename)
	if err != nil {
		return nil, err
	}
	return d2x.Link(filename, src, ctx, opts)
}

// captureTag harvests the first-stage call stack as a static tag,
// innermost first. Frames inside buildit itself are dropped (the tag
// should point at the DSL and its user, not the framework), and the walk
// stops at the Go runtime / testing harness below the user's entry
// point.
func captureTag() srcloc.Stack {
	goroot := runtime.GOROOT()
	full := d2xc.CallerStack(1) // skip captureTag itself
	var out srcloc.Stack
	for _, fr := range full {
		if strings.Contains(fr.File, "internal/buildit") {
			continue
		}
		if goroot != "" && strings.HasPrefix(fr.File, goroot+"/src/") {
			break
		}
		if strings.Contains(fr.File, "/src/runtime/") || strings.Contains(fr.File, "/src/testing/") {
			break
		}
		out = append(out, fr)
	}
	return out
}

// snapshotStatics renders the current value of every static variable
// registered so far — the per-line snapshot that lets the debugger show
// erased first-stage state (Figure 9).
func (f *FuncBuilder) snapshotStatics() []staticKV {
	kv := make([]staticKV, len(f.statics))
	for i, s := range f.statics {
		kv[i] = staticKV{key: s.name, val: s.get()}
	}
	return kv
}

// beginFuncD2X opens the function's D2X section and scope and declares
// its static variables as live.
func beginFuncD2X(em *d2xc.Emitter, ctx *d2xc.Context, f *FuncBuilder) error {
	if err := em.BeginSection(); err != nil {
		return err
	}
	ctx.PushScope()
	for _, s := range f.statics {
		ctx.CreateVar(s.name)
	}
	return nil
}

// emitStmtD2X records one generated line's extended stack and updates
// the live static values to their staging-time snapshot.
func emitStmtD2X(ctx *d2xc.Context, st stmtRec) error {
	for _, fr := range st.tag {
		ctx.PushLoc(fr)
	}
	for _, kv := range st.snap {
		if err := ctx.UpdateVar(kv.key, kv.val); err != nil {
			return err
		}
	}
	return nil
}

// endFuncD2X closes the function's scope and section; the scope is
// popped first so the closing brace line carries no stale live
// variables.
func endFuncD2X(em *d2xc.Emitter, ctx *d2xc.Context) error {
	if err := ctx.PopScope(); err != nil {
		return err
	}
	return em.EndSection()
}
