// Package bench is the evaluation harness: one benchmark per table and
// figure of the paper (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for measured-vs-paper results). Run with:
//
//	go test -bench=. -benchmem
package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"d2x/internal/buildit"
	"d2x/internal/d2x"
	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/debugger"
	"d2x/internal/einsum"
	"d2x/internal/graphit"
	"d2x/internal/loc"
	"d2x/internal/minic"
)

func lineOf(src, needle string) int {
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, needle) {
			return i + 1
		}
	}
	return 1
}

func mustExec(tb testing.TB, d *debugger.Debugger, cmds ...string) {
	tb.Helper()
	for _, c := range cmds {
		if err := d.Execute(c); err != nil {
			tb.Fatalf("command %q: %v", c, err)
		}
	}
}

// ---- Figures 1/2: per-call-site UDF specialisation ----

// BenchmarkFig1_2_UDFSpecialization measures the full GraphIt pipeline on
// the Figure 1 program and verifies the Figure 2 shape on every iteration.
func BenchmarkFig1_2_UDFSpecialization(b *testing.B) {
	var genLines int
	for i := 0; i < b.N; i++ {
		art, err := graphit.CompileToC("twoapply.gt", graphit.TwoApplySrc,
			"s", graphit.TwoApplySchedule, graphit.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(art.Source, "atomic_add(&nrank[d]") ||
			!strings.Contains(art.Source, "nrank[d] += orank[s];") {
			b.Fatal("Figure 2 shape missing")
		}
		genLines = len(strings.Split(art.Source, "\n"))
	}
	b.ReportMetric(float64(genLines), "generated-lines")
}

// ---- Figure 4: the two-stage mapping ----

// BenchmarkFig4_TwoStageMapping measures one xbt: rip -> generated line
// via standard debug info, then generated line -> DSL context via the D2X
// tables read from the debuggee.
func BenchmarkFig4_TwoStageMapping(b *testing.B) {
	d, src := pausedPagerankDelta(b, "powerlaw:n=64,m=512,seed=5")
	_ = src
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Execute("xbt"); err != nil {
			b.Fatal(err)
		}
	}
}

// pausedPagerankDelta builds PageRankDelta with D2X and pauses inside the
// specialised UDF. Output goes to io.Discard: a strings.Builder sink
// grows without bound across b.N command iterations, and its regrow
// memcpys would dominate the measured command latency at large N.
func pausedPagerankDelta(tb testing.TB, spec string) (*debugger.Debugger, string) {
	tb.Helper()
	src := strings.Replace(graphit.PageRankDeltaSrc,
		`load("powerlaw:n=64,m=512,seed=5")`, fmt.Sprintf("load(%q)", spec), 1)
	art, err := graphit.CompileToC("pagerankdelta.gt", src,
		"s", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: true})
	if err != nil {
		tb.Fatal(err)
	}
	build, err := art.Link()
	if err != nil {
		tb.Fatal(err)
	}
	d, err := build.NewSession(io.Discard)
	if err != nil {
		tb.Fatal(err)
	}
	udfLine := lineOf(build.Source, "atomic_add(&new_rank[dst]")
	mustExec(tb, d, fmt.Sprintf("break pagerankdelta.c:%d", udfLine), "run")
	return d, build.Source
}

// ---- Figure 6: the PageRankDelta debugging session, swept over graph
// sizes ----

func BenchmarkFig6_PagerankDeltaSession(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		spec := fmt.Sprintf("powerlaw:n=%d,m=%d,seed=5", n, 8*n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, _ := pausedPagerankDelta(b, spec)
				mustExec(b, d, "xbt", "xlist", "xframe 1", "xvars schedule", "delete", "continue")
				if d.LastStop().Reason != debugger.StopExited {
					b.Fatalf("stop = %v", d.LastStop().Reason)
				}
			}
		})
	}
}

// ---- Figure 7: the frontier rtv_handler ----

// BenchmarkFig7_FrontierHandler measures evaluating the generated
// vertexset handler (a debug-time call into the debuggee) for growing
// frontier sizes.
func BenchmarkFig7_FrontierHandler(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			spec := fmt.Sprintf("powerlaw:n=%d,m=%d,seed=5", n, 8*n)
			src := strings.Replace(graphit.PageRankDeltaSrc,
				`load("powerlaw:n=64,m=512,seed=5")`, fmt.Sprintf("load(%q)", spec), 1)
			art, err := graphit.CompileToC("pagerankdelta.gt", src,
				"s", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: true})
			if err != nil {
				b.Fatal(err)
			}
			build, err := art.Link()
			if err != nil {
				b.Fatal(err)
			}
			d, err := build.NewSession(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			printLine := lineOf(build.Source, "__frontier_size(frontier)")
			mustExec(b, d, fmt.Sprintf("break pagerankdelta.c:%d", printLine), "run")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Execute("xvars frontier"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 8: staging the power function ----

func BenchmarkFig8_PowerStaging(b *testing.B) {
	for _, exp := range []int{15, 64, 1024} {
		b.Run(fmt.Sprintf("exp=%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bb := buildit.NewBuilder()
				buildit.EnableD2X(bb)
				stagePower(bb, exp)
				if _, _, err := bb.Generate("power_gen.c"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func stagePower(b *buildit.Builder, exponent int) string {
	f := b.Func("power_f", []buildit.Param{{Name: "arg0", Type: minic.IntType}}, minic.IntType)
	exp := buildit.NewStatic(f, "exponent", exponent)
	res := f.Decl("res", f.IntLit(1))
	x := f.Decl("x", f.Arg(0))
	for exp.Get() > 0 {
		if exp.Get()%2 == 1 {
			f.Assign(res, f.Mul(res, x))
		}
		exp.Set(exp.Get() / 2)
		if exp.Get() > 0 {
			f.Assign(x, f.Mul(x, x))
		}
	}
	f.Return(res)
	return f.Name()
}

// ---- Figure 9: the full first-stage/second-stage session ----

func BenchmarkFig9_PowerSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bb := buildit.NewBuilder()
		buildit.EnableD2X(bb)
		kernel := stagePower(bb, 15)
		m := bb.Func("main", nil, minic.IntType)
		r := m.Decl("r", m.Call(kernel, minic.IntType, m.IntLit(3)))
		m.Printf("%d\n", r)
		m.Return(m.IntLit(0))
		build, err := bb.Link("power_gen.c", d2x.LinkOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var sink strings.Builder
		d, err := build.NewSession(&sink)
		if err != nil {
			b.Fatal(err)
		}
		line := lineOf(build.Source, "x_2 = x_2 * x_2;")
		mustExec(b, d,
			fmt.Sprintf("break power_gen.c:%d", line),
			"run", "bt", "xbt", "xvars exponent", "print res_1", "delete", "continue")
		if !strings.Contains(sink.String(), "14348907") {
			b.Fatal("wrong program result")
		}
	}
}

// ---- Figure 11: the einsum session ----

func BenchmarkFig11_EinsumSession(b *testing.B) {
	const M, N = 16, 8
	for i := 0; i < b.N; i++ {
		bb := buildit.NewBuilder()
		buildit.EnableD2X(bb)
		f := bb.Func("m_v_mul", []buildit.Param{
			{Name: "output", Type: einsum.IntArrayType},
			{Name: "matrix", Type: einsum.IntArrayType},
			{Name: "input", Type: einsum.IntArrayType},
		}, minic.VoidType)
		env := einsum.New(f)
		c := env.Tensor("c", f.Arg(0), M)
		a := env.Tensor("a", f.Arg(1), M, N)
		bt := env.Tensor("b", f.Arg(2), N)
		ii, jj := einsum.NewIndex("i"), einsum.NewIndex("j")
		if err := bt.Assign(einsum.Const(1), jj); err != nil {
			b.Fatal(err)
		}
		if err := c.Assign(einsum.Mul(einsum.Const(2), a.At(ii, jj), bt.At(jj)), ii); err != nil {
			b.Fatal(err)
		}
		f.Return(buildit.Expr{})
		m := bb.Func("main", nil, minic.IntType)
		out := m.DeclArr("output", minic.IntType, m.IntLit(M))
		mat := m.DeclArr("matrix", minic.IntType, m.IntLit(M*N))
		in := m.DeclArr("input", minic.IntType, m.IntLit(N))
		m.Do(m.Call("m_v_mul", minic.VoidType, out, mat, in))
		m.Return(m.IntLit(0))
		build, err := bb.Link("einsum_gen.c", d2x.LinkOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var sink strings.Builder
		d, err := build.NewSession(&sink)
		if err != nil {
			b.Fatal(err)
		}
		accLine := lineOf(build.Source, "acc_")
		mustExec(b, d,
			fmt.Sprintf("break einsum_gen.c:%d", accLine),
			"run", "xbt", "xvars b.constant_val", "delete", "continue")
		if !strings.Contains(sink.String(), "b.constant_val = 1") {
			b.Fatal("constant propagation result not visible")
		}
	}
}

// ---- Tables 3 and 4: LoC accounting ----

func BenchmarkTable3_GraphItLoC(b *testing.B) {
	root, err := loc.RepoRoot()
	if err != nil {
		b.Fatal(err)
	}
	var st loc.Stats
	for i := 0; i < b.N; i++ {
		st, err = loc.Count(root, "graphit")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.NonDelta()), "graphit-loc")
	b.ReportMetric(float64(st.Delta), "delta-loc")
	b.ReportMetric(st.DeltaPercent(), "delta-pct")
}

func BenchmarkTable4_BuildItLoC(b *testing.B) {
	root, err := loc.RepoRoot()
	if err != nil {
		b.Fatal(err)
	}
	var st loc.Stats
	for i := 0; i < b.N; i++ {
		st, err = loc.Count(root, "buildit")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.NonDelta()), "buildit-loc")
	b.ReportMetric(float64(st.Delta), "delta-loc")
	b.ReportMetric(st.DeltaPercent(), "delta-pct")
}

// ---- §3.2: "D2X-R does not add any runtime overhead" ----

// The overhead pair runs the identical PageRankDelta computation with and
// without the D2X tables in the binary. The paper's claim is that the
// tables are inert data until a debug command runs; here the VM's
// deterministic instruction counter makes the comparison exact — the
// main-phase instruction counts must be identical, and are reported as
// metrics.
func BenchmarkOverhead_WithD2X(b *testing.B)    { benchOverhead(b, true) }
func BenchmarkOverhead_WithoutD2X(b *testing.B) { benchOverhead(b, false) }

func benchOverhead(b *testing.B, withD2X bool) {
	art, err := graphit.CompileToC("pagerankdelta.gt", graphit.PageRankDeltaSrc,
		"s", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: withD2X})
	if err != nil {
		b.Fatal(err)
	}
	build, err := art.Link()
	if err != nil {
		b.Fatal(err)
	}
	var mainSteps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := minic.NewVM(build.Program, nil)
		if err := vm.Start(); err != nil {
			b.Fatal(err)
		}
		startSteps := vm.Steps
		if err := vm.RunToCompletion(0); err != nil {
			b.Fatal(err)
		}
		mainSteps = vm.Steps - startSteps
	}
	b.ReportMetric(float64(mainSteps), "main-phase-instrs")
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkAblation_InferiorTables_XBT vs _HostSideTables_XBT: the paper
// stores D2X tables in the debuggee and reads them via calls; the obvious
// alternative keeps a host-side map in the debugger process. The pair
// quantifies the cost of the portable design.
func BenchmarkAblation_InferiorTables_XBT(b *testing.B) {
	d, _ := pausedPagerankDelta(b, "powerlaw:n=64,m=512,seed=5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Execute("xbt"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_HostSideTables_XBT(b *testing.B) {
	d, _ := pausedPagerankDelta(b, "powerlaw:n=64,m=512,seed=5")
	// Host side: decode the tables once into the debugger process and
	// serve the backtrace from them directly, bypassing the call into
	// the debuggee entirely.
	ref := newTwoStageXBT(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ref.render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_LiveVars vs _PerLineVars: D2X-C offers scoped live
// variables (create once, auto-emitted per line) against naively calling
// set_var on every line. The pair measures collection+emission cost and
// reports emitted table size; both encode the same information.
func BenchmarkAblation_LiveVars(b *testing.B)    { benchVarStrategy(b, true) }
func BenchmarkAblation_PerLineVars(b *testing.B) { benchVarStrategy(b, false) }

func benchVarStrategy(b *testing.B, live bool) {
	const lines = 2000
	var tableBytes int
	for i := 0; i < b.N; i++ {
		ctx := d2xc.NewContext()
		if err := ctx.BeginSectionAt(1); err != nil {
			b.Fatal(err)
		}
		if live {
			ctx.PushScope()
			for v := 0; v < 8; v++ {
				ctx.CreateVar(fmt.Sprintf("var%d", v))
			}
		}
		for l := 0; l < lines; l++ {
			ctx.PushSourceLoc("input.dsl", l%50+1, "main")
			if live {
				if l%100 == 0 {
					if err := ctx.UpdateVar("var0", fmt.Sprint(l)); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				for v := 0; v < 8; v++ {
					ctx.SetVar(fmt.Sprintf("var%d", v), fmt.Sprint(l/100*100))
				}
			}
			ctx.Nextl()
		}
		if live {
			if err := ctx.PopScope(); err != nil {
				b.Fatal(err)
			}
		}
		if err := ctx.EndSection(); err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		if err := d2xenc.EmitTables(ctx, &sb); err != nil {
			b.Fatal(err)
		}
		tableBytes = sb.Len()
	}
	b.ReportMetric(float64(tableBytes), "table-bytes")
}

// ---- D2X-R command path: xbreak and multi-session table sharing ----

// BenchmarkXBreak measures the DSL-breakpoint round trip: expand a DSL
// line through the tables' forward index, insert the generated-code
// breakpoints via eval, then delete them again.
func BenchmarkXBreak(b *testing.B) {
	d, _ := pausedPagerankDelta(b, "powerlaw:n=64,m=512,seed=5")
	dslLine := lineOf(graphit.PageRankDeltaSrc, "new_rank[dst] +=")
	xbreakCmd := fmt.Sprintf("xbreak pagerankdelta.gt:%d", dslLine)
	// The per-iteration xdel command is built with strconv, not Sprintf:
	// the op's intrinsic cost is one unique command string, and the
	// harness should not add fmt's boxing on top of it.
	scratch := make([]byte, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Execute(xbreakCmd); err != nil {
			b.Fatal(err)
		}
		scratch = append(scratch[:0], "xdel "...)
		scratch = strconv.AppendInt(scratch, int64(i+1), 10)
		if err := d.Execute(string(scratch)); err != nil {
			b.Fatal(err)
		}
	}
}

// pagerankBuild links the standard PageRankDelta build with D2X once.
func pagerankBuild(tb testing.TB) *d2x.Build {
	tb.Helper()
	art, err := graphit.CompileToC("pagerankdelta.gt", graphit.PageRankDeltaSrc,
		"s", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: true})
	if err != nil {
		tb.Fatal(err)
	}
	build, err := art.Link()
	if err != nil {
		tb.Fatal(err)
	}
	return build
}

// pausedSession attaches one more debug session to an existing build and
// pauses it inside the specialised UDF (output discarded, as above).
func pausedSession(tb testing.TB, build *d2x.Build) *debugger.Debugger {
	tb.Helper()
	d, err := build.NewSession(io.Discard)
	if err != nil {
		tb.Fatal(err)
	}
	udfLine := lineOf(build.Source, "atomic_add(&new_rank[dst]")
	mustExec(tb, d, fmt.Sprintf("break pagerankdelta.c:%d", udfLine), "run")
	return d
}

// The shared-tables pair measures what a *second* concurrent session on
// the same Build pays per D2X command. With the shared service the first
// session's decode is reused; the ablation re-decodes the tables from the
// debuggee on each command, which is what per-session table ownership
// (the pre-service design) cost on a session's first command.
func BenchmarkSharedTables_SecondSessionXBT(b *testing.B) {
	build := pagerankBuild(b)
	d1 := pausedSession(b, build)
	mustExec(b, d1, "xbt") // first session pays the one shared decode
	d2 := pausedSession(b, build)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d2.Execute("xbt"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSharedTables_PerSessionDecodeXBT(b *testing.B) {
	build := pagerankBuild(b)
	d1 := pausedSession(b, build)
	mustExec(b, d1, "xbt")
	d2 := pausedSession(b, build)
	vm := d2.Process().VM
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d2xenc.Decode(vm); err != nil { // the old per-session decode
			b.Fatal(err)
		}
		if err := d2.Execute("xbt"); err != nil {
			b.Fatal(err)
		}
	}
}
