// Package examplebuilds constructs the repository's example D2X builds —
// the four case-study pipelines under examples/ (pagerankdelta, power,
// einsum, quickstart) — from one place. d2xlint verifies them, the
// differential-correctness check sweeps them, and anything else that
// needs "every example program" iterates Names/Build instead of keeping
// its own copy of the staging code.
package examplebuilds

import (
	"fmt"

	"d2x/internal/buildit"
	"d2x/internal/d2x"
	"d2x/internal/einsum"
	"d2x/internal/graphit"
	"d2x/internal/minic"
)

// Names lists the example builds in canonical order.
func Names() []string {
	return []string{"pagerankdelta", "power", "einsum", "quickstart"}
}

// Build constructs the named example.
func Build(name string) (*d2x.Build, error) {
	return buildMode(name, false, true)
}

// BuildOptimized constructs the named example with the mini-C optimiser
// enabled — the staging is identical, only the link mode differs, so a
// Build/BuildOptimized pair is a differential-testing fixture.
func BuildOptimized(name string) (*d2x.Build, error) {
	return buildMode(name, true, true)
}

// buildMode stages the named example, with the D2X compile-time context
// or, for the overhead baseline, as a D2X-less compiler would.
func buildMode(name string, optimize, withD2X bool) (*d2x.Build, error) {
	switch name {
	case "pagerankdelta":
		return pagerankDelta(optimize, withD2X)
	case "power":
		return staged(power, optimize, withD2X)
	case "einsum":
		return staged(einsumBuild, optimize, withD2X)
	case "quickstart":
		return staged(quickstart, optimize, withD2X)
	}
	return nil, fmt.Errorf("examplebuilds: unknown pipeline %q", name)
}

// staged runs a buildit staging on a goroutine of its own. buildit tags
// each generated line with the Go call stack that staged it, down to the
// goroutine's entry, so a build made here records this package's frames
// only, the same whoever asks for it: a server's request handler, a test
// or a command.
func staged(stage func(optimize, withD2X bool) (*d2x.Build, error), optimize, withD2X bool) (*d2x.Build, error) {
	var b *d2x.Build
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		b, err = stage(optimize, withD2X)
	}()
	<-done
	return b, err
}

// PagerankDelta compiles the GraphIt PageRankDelta case study (paper §2,
// Fig. 6) with D2X enabled.
func PagerankDelta() (*d2x.Build, error) { return pagerankDelta(false, true) }

func pagerankDelta(optimize, withD2X bool) (*d2x.Build, error) {
	art, err := graphit.CompileToC("pagerankdelta.gt", graphit.PageRankDeltaSrc,
		"pagerankdelta.sched", graphit.PageRankDeltaSchedule, graphit.CompileOptions{D2X: withD2X})
	if err != nil {
		return nil, err
	}
	return art.LinkOptimizing(optimize)
}

// power stages the BuildIt power_15 example (paper Fig. 8): a
// specialised exponentiation with the exponent erased at staging time.
func power(optimize, withD2X bool) (*d2x.Build, error) {
	bb := newBuilder(withD2X)
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
	return bb.Link("power_gen.c", d2x.LinkOptions{Optimize: optimize})
}

// einsumBuild stages the matrix-vector einsum example (paper Fig. 11).
func einsumBuild(optimize, withD2X bool) (*d2x.Build, error) {
	const M, N = 16, 8
	bb := newBuilder(withD2X)
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
		return nil, err
	}
	if err := c.Assign(einsum.Mul(einsum.Const(2), a.At(ii, jj), bt.At(jj)), ii); err != nil {
		return nil, err
	}
	f.Return(buildit.Expr{})
	m := bb.Func("main", nil, minic.IntType)
	out := m.DeclArr("output", minic.IntType, m.IntLit(M))
	mat := m.DeclArr("matrix", minic.IntType, m.IntLit(M*N))
	in := m.DeclArr("input", minic.IntType, m.IntLit(N))
	m.Do(m.Call("m_v_mul", minic.VoidType, out, mat, in))
	m.Return(m.IntLit(0))
	return bb.Link("einsum_gen.c", d2x.LinkOptions{Optimize: optimize})
}

// quickstart replicates the staging of examples/quickstart: an unrolled
// sum_squares with an erased static, the smallest D2X build.
func quickstart(optimize, withD2X bool) (*d2x.Build, error) {
	bb := newBuilder(withD2X)
	f := bb.Func("sum_squares", []buildit.Param{{Name: "n", Type: minic.IntType}}, minic.IntType)
	unroll := buildit.NewStatic(f, "unroll", 4)
	total := f.Decl("total", f.IntLit(0))
	for unroll.Get() > 0 {
		f.AddAssign(total, f.Mul(f.Arg(0), f.Arg(0)))
		unroll.Set(unroll.Get() - 1)
	}
	f.Return(total)
	m := bb.Func("main", nil, minic.IntType)
	m.Printf("%d\n", m.Call("sum_squares", minic.IntType, m.IntLit(5)))
	m.Return(m.IntLit(0))
	return bb.Link("quickstart_gen.c", d2x.LinkOptions{Optimize: optimize})
}

func newBuilder(withD2X bool) *buildit.Builder {
	bb := buildit.NewBuilder()
	if withD2X {
		buildit.EnableD2X(bb)
	}
	return bb
}
