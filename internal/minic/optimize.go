package minic

import "fmt"

// This file implements the mini-C optimiser: AST-level constant folding
// and algebraic simplification, plus branch pruning for statically-known
// conditions. DSL compilers emit very regular code (BuildIt unrolls whole
// loops into constant expressions), so folding is worthwhile — and it
// exercises the property the D2X design depends on: optimisation changes
// *code*, not the line attribution, because folding happens within a
// statement and pruning keeps surviving statements' lines intact.
//
// The optimiser is organised as a declared sequence of passes (Passes).
// Each pass is one rewrite family run as its own traversal, so tooling —
// the debugify preservation analysis in particular — can run passes one
// at a time and verify the debug-info invariants after each. Optimize
// itself iterates the declared order to a fixpoint.

// Pass is one optimiser rewrite family. Passes run independently: each
// Run is a full traversal applying only that family's rewrites.
type Pass struct {
	Name string // stable slug, e.g. "fold-constants"
	Desc string
	cfg  passConfig
}

// passConfig selects which rewrite families a traversal applies.
type passConfig struct {
	fold             bool // literal constant folding (binary, unary, cast)
	simplify         bool // algebraic identities and short-circuiting
	pruneBranches    bool // drop if/while arms with constant conditions
	pruneUnreachable bool // drop statements after an unconditional return
}

// Passes returns the optimiser's passes in their declared execution
// order. Optimize runs exactly this sequence (repeated to a fixpoint);
// TestOptimizeRunsDeclaredOrder asserts the two never drift apart.
func Passes() []Pass {
	return []Pass{
		{Name: "fold-constants", Desc: "evaluate literal-operand expressions at compile time",
			cfg: passConfig{fold: true}},
		{Name: "simplify-algebraic", Desc: "apply integer identities (x+0, x*1, x*0) and boolean short-circuits",
			cfg: passConfig{simplify: true}},
		{Name: "prune-branches", Desc: "drop if/while arms whose condition is a constant",
			cfg: passConfig{pruneBranches: true}},
		{Name: "prune-unreachable", Desc: "drop statements after an unconditional return",
			cfg: passConfig{pruneUnreachable: true}},
	}
}

// PassByName returns the declared pass with the given name.
func PassByName(name string) (Pass, bool) {
	for _, p := range Passes() {
		if p.Name == name {
			return p, true
		}
	}
	return Pass{}, false
}

// Run applies the pass to the file in place and returns the number of
// rewrites performed.
func (p Pass) Run(f *File) int { return p.RunTraced(f, nil) }

// RunTraced is Run with a RemapSet attached: any intentional line
// re-attribution the pass performs is declared into rm, the escape
// hatch the debugify analysis consults before flagging a moved
// location. The current passes rewrite strictly in place and declare
// nothing; a pass that merges or re-homes statements must declare each
// (from, to) line pair here or fail verification.
func (p Pass) RunTraced(f *File, rm *RemapSet) int {
	o := &optimizer{cfg: p.cfg, remaps: rm}
	for _, fd := range f.Funcs {
		fd.Body = o.block(fd.Body)
	}
	for _, g := range f.Globals {
		if g.Init != nil {
			g.Init = o.expr(g.Init)
		}
	}
	return o.count
}

// RemapSet records the line re-attributions a pass declares as
// intentional: "the location formerly on `from` now belongs to `to`".
// Debug-info preservation tooling treats undeclared re-attributions as
// bugs (the D2X tables would silently detach from the code they
// describe) and declared ones as policy.
type RemapSet struct {
	m map[[2]int]bool
}

// Declare records one intentional re-attribution from one line to
// another.
func (r *RemapSet) Declare(from, to int) {
	if r == nil {
		return
	}
	if r.m == nil {
		r.m = make(map[[2]int]bool)
	}
	r.m[[2]int{from, to}] = true
}

// Declared reports whether the (from, to) re-attribution was declared.
func (r *RemapSet) Declared(from, to int) bool {
	return r != nil && r.m[[2]int{from, to}]
}

// Len returns the number of declared remaps.
func (r *RemapSet) Len() int {
	if r == nil {
		return 0
	}
	return len(r.m)
}

// maxOptimizeRounds bounds the Optimize fixpoint loop. Every rewrite
// strictly shrinks the tree, so the bound is never reached in practice;
// it exists so a buggy future pass cannot hang the compiler.
const maxOptimizeRounds = 20

// Optimize rewrites the file in place, folding constants and pruning dead
// branches. It must run after Parse and before Check (it does not maintain
// resolution annotations). It returns the number of rewrites applied.
//
// Optimize runs the declared pass sequence (Passes) in order, repeating
// the whole sequence until a full round applies no rewrite, so a
// simplification in a late pass still feeds folding opportunities in an
// earlier one.
func Optimize(f *File) int {
	n, _ := OptimizeTraced(f)
	return n
}

// OptimizeTraced is Optimize returning also the names of the passes it
// ran, in execution order — the witness the pass-order unit test checks
// against the declared order.
func OptimizeTraced(f *File) (int, []string) {
	total := 0
	var trace []string
	for round := 0; round < maxOptimizeRounds; round++ {
		roundN := 0
		for _, p := range Passes() {
			roundN += p.Run(f)
			trace = append(trace, p.Name)
		}
		total += roundN
		if roundN == 0 {
			break
		}
	}
	return total, trace
}

type optimizer struct {
	count  int
	cfg    passConfig
	remaps *RemapSet
}

func (o *optimizer) block(b *BlockStmt) *BlockStmt {
	var out []Stmt
	for i, s := range b.Stmts {
		s = o.stmt(s)
		if s == nil {
			continue
		}
		out = append(out, s)
		// Statements after an unconditional return are unreachable:
		// count one rewrite per statement actually dropped.
		if _, isRet := s.(*ReturnStmt); isRet && o.cfg.pruneUnreachable {
			o.count += len(b.Stmts) - i - 1
			break
		}
	}
	b.Stmts = out
	return b
}

// stmt rewrites one statement; returning nil drops it.
func (o *optimizer) stmt(s Stmt) Stmt {
	switch st := s.(type) {
	case *BlockStmt:
		return o.block(st)
	case *VarDeclStmt:
		if st.Init != nil {
			st.Init = o.expr(st.Init)
		}
	case *AssignStmt:
		st.LHS = o.expr(st.LHS)
		st.RHS = o.expr(st.RHS)
	case *IncDecStmt:
		st.LHS = o.expr(st.LHS)
	case *ExprStmt:
		st.X = o.expr(st.X)
	case *IfStmt:
		st.Cond = o.expr(st.Cond)
		st.Then = o.block(st.Then)
		if st.Else != nil {
			st.Else = o.stmt(st.Else)
		}
		if lit, ok := st.Cond.(*BoolLit); ok && o.cfg.pruneBranches {
			o.count++
			if lit.Value {
				return st.Then
			}
			if st.Else == nil {
				return nil
			}
			return st.Else
		}
	case *WhileStmt:
		st.Cond = o.expr(st.Cond)
		st.Body = o.block(st.Body)
		if lit, ok := st.Cond.(*BoolLit); ok && !lit.Value && o.cfg.pruneBranches {
			o.count++
			return nil
		}
	case *ForStmt:
		if st.Init != nil {
			st.Init = o.stmt(st.Init)
		}
		if st.Cond != nil {
			st.Cond = o.expr(st.Cond)
		}
		if st.Post != nil {
			st.Post = o.stmt(st.Post)
		}
		st.Body = o.block(st.Body)
	case *ParallelForStmt:
		st.Lo = o.expr(st.Lo)
		st.Hi = o.expr(st.Hi)
		st.Body = o.block(st.Body)
	case *ReturnStmt:
		if st.X != nil {
			st.X = o.expr(st.X)
		}
	}
	return s
}

func (o *optimizer) expr(e Expr) Expr {
	switch x := e.(type) {
	case *BinaryExpr:
		x.X = o.expr(x.X)
		x.Y = o.expr(x.Y)
		if o.cfg.fold {
			if folded := foldBinary(x); folded != nil {
				o.count++
				return folded
			}
		}
		if o.cfg.simplify {
			if simplified := simplifyAlgebraic(x); simplified != nil {
				o.count++
				return simplified
			}
		}
	case *UnaryExpr:
		x.X = o.expr(x.X)
		if o.cfg.fold {
			if folded := foldUnary(x); folded != nil {
				o.count++
				return folded
			}
		}
	case *IndexExpr:
		x.X = o.expr(x.X)
		x.Index = o.expr(x.Index)
	case *FieldExpr:
		x.X = o.expr(x.X)
	case *CallExpr:
		for i := range x.Args {
			x.Args[i] = o.expr(x.Args[i])
		}
	case *NewExpr:
		if x.Count != nil {
			x.Count = o.expr(x.Count)
		}
	case *ArrayLit:
		for i := range x.Elems {
			x.Elems[i] = o.expr(x.Elems[i])
		}
	case *CastExpr:
		x.X = o.expr(x.X)
		if o.cfg.fold {
			if folded := foldCast(x); folded != nil {
				o.count++
				return folded
			}
		}
	}
	return e
}

// foldBinary evaluates an operator on two literals of one kind at compile
// time, through the VM's own semantics (EvalBinary). A pair the VM faults
// on, a division by zero or a shift out of range, is left alone: the
// fault must happen at run time, where the debugger can catch it. So is
// a pair of two kinds, which Check, running after the optimiser, rejects.
func foldBinary(x *BinaryExpr) Expr {
	a, aOK := literalOperand(x.X)
	b, bOK := literalOperand(x.Y)
	if aOK && bOK && a.Kind == b.Kind {
		if !folds(a.Kind, x.Op) {
			return nil
		}
		v, err := EvalBinary(x.Op, a, b)
		if err != nil {
			return nil
		}
		return literalOf(v, x.Line)
	}
	// Short-circuit with one constant bool side.
	if lb, ok := x.X.(*BoolLit); ok {
		if x.Op == AndAnd {
			if lb.Value {
				return x.Y
			}
			return &BoolLit{exprBase: exprBase{Line: x.Line}, Value: false}
		}
		if x.Op == OrOr {
			if lb.Value {
				return &BoolLit{exprBase: exprBase{Line: x.Line}, Value: true}
			}
			return x.Y
		}
	}
	return nil
}

// folds reports whether foldBinary folds op on two literals of kind k:
// every int operator but && and ||, float arithmetic, bool logic and
// equality, and string concatenation.
func folds(k ValueKind, op Kind) bool {
	switch k {
	case VInt:
		return op != AndAnd && op != OrOr
	case VFloat:
		return op == Plus || op == Minus || op == Star || op == Slash
	case VBool:
		return op == AndAnd || op == OrOr || op == Eq || op == Neq
	}
	return op == Plus
}

// literalOperand returns the value of an int, float, bool or string
// literal.
func literalOperand(e Expr) (Value, bool) {
	switch e.(type) {
	case *IntLit, *FloatLit, *BoolLit, *StringLit:
		return literalValue(e), true
	}
	return Value{}, false
}

// literalOf is the literal of v, on the given line.
func literalOf(v Value, line int) Expr {
	at := exprBase{Line: line}
	switch v.Kind {
	case VInt:
		return &IntLit{exprBase: at, Value: v.I}
	case VFloat:
		return &FloatLit{exprBase: at, Value: v.F()}
	case VBool:
		return &BoolLit{exprBase: at, Value: v.Bool()}
	}
	return &StringLit{exprBase: at, Value: v.S()}
}

// simplifyAlgebraic applies identity rules: x+0, x-0, x*1, x*0, x/1, 0+x,
// 1*x. Only integer identities; float zero/one have sign and NaN caveats
// (0*NaN != 0), so floats are left to foldBinary's literal-only cases.
func simplifyAlgebraic(x *BinaryExpr) Expr {
	intVal := func(e Expr) (int64, bool) {
		l, ok := e.(*IntLit)
		if !ok {
			return 0, false
		}
		return l.Value, true
	}
	if v, ok := intVal(x.Y); ok {
		switch {
		case x.Op == Plus && v == 0, x.Op == Minus && v == 0, x.Op == Star && v == 1, x.Op == Slash && v == 1:
			return x.X
		case x.Op == Star && v == 0 && sideEffectFree(x.X):
			return &IntLit{exprBase: exprBase{Line: x.Line}, Value: 0}
		}
	}
	if v, ok := intVal(x.X); ok {
		switch {
		case x.Op == Plus && v == 0, x.Op == Star && v == 1:
			return x.Y
		case x.Op == Star && v == 0 && sideEffectFree(x.Y):
			return &IntLit{exprBase: exprBase{Line: x.Line}, Value: 0}
		}
	}
	return nil
}

// sideEffectFree reports whether evaluating e can have no observable
// effect (no calls, no allocation; index/deref can fault, so they count
// as effects here).
func sideEffectFree(e Expr) bool {
	switch x := e.(type) {
	case *IntLit, *FloatLit, *BoolLit, *StringLit, *NullLit, *Ident:
		return true
	case *BinaryExpr:
		if x.Op == Slash || x.Op == Percent {
			return false // can trap
		}
		return sideEffectFree(x.X) && sideEffectFree(x.Y)
	case *UnaryExpr:
		return x.Op != Star && sideEffectFree(x.X)
	}
	return false
}

func foldUnary(x *UnaryExpr) Expr {
	switch x.Op {
	case Minus:
		if l, ok := x.X.(*IntLit); ok {
			return &IntLit{exprBase: exprBase{Line: x.Line}, Value: -l.Value}
		}
		if l, ok := x.X.(*FloatLit); ok {
			return &FloatLit{exprBase: exprBase{Line: x.Line}, Value: -l.Value}
		}
	case Not:
		if l, ok := x.X.(*BoolLit); ok {
			return &BoolLit{exprBase: exprBase{Line: x.Line}, Value: !l.Value}
		}
	}
	return nil
}

func foldCast(x *CastExpr) Expr {
	switch x.Target.Kind {
	case TInt:
		if l, ok := x.X.(*FloatLit); ok {
			return &IntLit{exprBase: exprBase{Line: x.Line}, Value: int64(l.Value)}
		}
		if l, ok := x.X.(*IntLit); ok {
			return l
		}
	case TFloat:
		if l, ok := x.X.(*IntLit); ok {
			return &FloatLit{exprBase: exprBase{Line: x.Line}, Value: float64(l.Value)}
		}
	}
	return nil
}

// CompileOptimized is Compile with the optimiser inserted between parsing
// and checking.
func CompileOptimized(filename, src string, natives *Natives) (*Program, int, error) {
	if natives == nil {
		natives = NewNatives()
	}
	file, err := Parse(filename, src)
	if err != nil {
		return nil, 0, err
	}
	n := Optimize(file)
	prog, err := Check(file, natives)
	if err != nil {
		return nil, n, fmt.Errorf("minic: after optimisation: %w", err)
	}
	if err := CompileCode(prog); err != nil {
		return nil, n, err
	}
	prog.SourceText = src
	return prog, n, nil
}
