package d2xverify_test

// End-to-end verification of the three case-study pipelines: a healthy
// compile must produce zero findings across every check — the verifier's
// precision contract. The corrupted-artifact suite (corrupt_test.go)
// proves the complementary recall contract.

import (
	"testing"

	"d2x/internal/buildit"
	"d2x/internal/d2x"
	"d2x/internal/d2xverify"
	"d2x/internal/einsum"
	"d2x/internal/graphit"
	"d2x/internal/minic"
)

func assertClean(t *testing.T, rep *d2xverify.Report) {
	t.Helper()
	if len(rep.Diags) != 0 {
		t.Fatalf("expected a clean report, got %d findings:\n%s", len(rep.Diags), rep)
	}
}

func pagerankDeltaBuild(t *testing.T) *d2x.Build {
	t.Helper()
	art, err := graphit.CompileToC("pagerankdelta.gt", graphit.PageRankDeltaSrc,
		"s", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: true})
	if err != nil {
		t.Fatal(err)
	}
	build, err := art.Link()
	if err != nil {
		t.Fatal(err)
	}
	return build
}

func powerBuild(t *testing.T) *d2x.Build {
	t.Helper()
	bb := buildit.NewBuilder()
	buildit.EnableD2X(bb)
	f := bb.Func("power_15", []buildit.Param{{Name: "base", Type: minic.IntType}}, minic.IntType)
	exp := buildit.NewStatic(f, "exponent", 15)
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
	m := bb.Func("main", nil, minic.IntType)
	r := m.Decl("r", m.Call("power_15", minic.IntType, m.IntLit(3)))
	m.Printf("%d\n", r)
	m.Return(m.IntLit(0))
	build, err := bb.Link("power_gen.c", d2x.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return build
}

func einsumBuild(t *testing.T) *d2x.Build {
	t.Helper()
	const M, N = 16, 8
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
		t.Fatal(err)
	}
	if err := c.Assign(einsum.Mul(einsum.Const(2), a.At(ii, jj), bt.At(jj)), ii); err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	return build
}

func TestPagerankDeltaPipelineVerifies(t *testing.T) {
	assertClean(t, pagerankDeltaBuild(t).Verify())
}

func TestPowerPipelineVerifies(t *testing.T) {
	assertClean(t, powerBuild(t).Verify())
}

func TestEinsumPipelineVerifies(t *testing.T) {
	assertClean(t, einsumBuild(t).Verify())
}

// TestWithoutD2XBuildVerifies checks the degenerate input: a build with
// no tables and no context still runs the dwarfish and dataflow checks
// and stays clean.
func TestWithoutD2XBuildVerifies(t *testing.T) {
	art, err := graphit.CompileToC("pagerankdelta.gt", graphit.PageRankDeltaSrc,
		"s", graphit.PageRankDeltaSchedule, graphit.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	build, err := art.Link()
	if err != nil {
		t.Fatal(err)
	}
	rep := build.Verify()
	assertClean(t, rep)
}

// TestOptimizedPipelineVerifies runs the verifier over a constant-folded
// build: optimisation rewrites statements but must not desynchronise the
// debug layers.
func TestOptimizedPipelineVerifies(t *testing.T) {
	art, err := graphit.CompileToC("pagerankdelta.gt", graphit.PageRankDeltaSrc,
		"s", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: true})
	if err != nil {
		t.Fatal(err)
	}
	build, err := art.LinkOptimizing(true)
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, build.Verify())
}

// TestVerifyReportsSomethingOnEveryPipeline guards against the vacuous
// pass: the expensive layers (tables, debug info, journal) must actually
// be present in the healthy builds, otherwise the zero-findings results
// above prove nothing.
func TestVerifyReportsSomethingOnEveryPipeline(t *testing.T) {
	for name, build := range map[string]*d2x.Build{
		"pagerankdelta": pagerankDeltaBuild(t),
		"power":         powerBuild(t),
		"einsum":        einsumBuild(t),
	} {
		in := &d2xverify.Input{Program: build.Program, DebugBlob: build.DebugBlob, Ctx: build.Ctx}
		if !in.HasD2XTables() {
			t.Errorf("%s: build carries no D2X tables", name)
		}
		tables, err := in.Tables()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tables == nil || len(tables.Records) == 0 {
			t.Errorf("%s: no table records decoded", name)
		}
		info, err := in.Info()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info == nil || len(info.Funcs) == 0 {
			t.Errorf("%s: no debug info", name)
		}
		if build.Ctx == nil || len(build.Ctx.Journal()) == 0 {
			t.Errorf("%s: no operation journal", name)
		}
	}
}
