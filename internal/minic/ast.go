package minic

// This file defines the abstract syntax tree for mini-C. The tree is
// produced by the parser, annotated in place by the checker (types, symbol
// resolution, local slot numbers) and consumed by the bytecode compiler and
// the printer.

// File is a parsed mini-C translation unit.
type File struct {
	Name    string // source file name (appears in debug info)
	Structs []*StructDef
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
}

// GlobalDecl declares one global variable, optionally initialised with a
// constant expression (literals, and array literals of literals).
type GlobalDecl struct {
	Name string
	Type *Type
	Init Expr // may be nil
	Line int

	Index int // assigned by the checker: index into Program.Globals
}

// FuncDecl declares one function.
type FuncDecl struct {
	Name   string
	Params []Param
	Result *Type
	Body   *BlockStmt
	Line   int

	// Filled in by the checker.
	Index     int      // index into Program.Funcs
	NumSlots  int      // total local slots including params
	SlotNames []string // slot -> variable name (debug info)
	SlotTypes []*Type  // slot -> declared type
	// Captured counts a parallel_for helper's by-reference params, slots
	// 1 to Captured, which a worker shares with the spawning frame.
	Captured int
}

// Param is one function parameter.
type Param struct {
	Name string
	Type *Type
}

// ---- Statements ----

// Stmt is implemented by all statement nodes.
type Stmt interface {
	stmtNode()
	Pos() int // 1-based source line
}

type stmtBase struct{ Line int }

func (s stmtBase) stmtNode() {}
func (s stmtBase) Pos() int  { return s.Line }

// BlockStmt is `{ ... }`.
type BlockStmt struct {
	stmtBase
	Stmts []Stmt
}

// VarDeclStmt declares a local variable with an optional initialiser.
type VarDeclStmt struct {
	stmtBase
	Name string
	Type *Type
	Init Expr // may be nil

	Slot int // assigned by checker
}

// AssignStmt is `lhs = rhs;`, `lhs += rhs;` or `lhs -= rhs;`.
type AssignStmt struct {
	stmtBase
	Op  Kind // Assign, PlusAssign, MinusAssign
	LHS Expr // must be addressable
	RHS Expr
}

// IncDecStmt is `lhs++;` or `lhs--;`.
type IncDecStmt struct {
	stmtBase
	Op  Kind // Inc or Dec
	LHS Expr
}

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	stmtBase
	X Expr
}

// IfStmt is `if (cond) then [else else]`.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt, or nil
}

// WhileStmt is `while (cond) body`.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body *BlockStmt
}

// ForStmt is the C-style `for (init; cond; post) body` where init is a
// declaration or assignment, and post is an assignment or inc/dec.
type ForStmt struct {
	stmtBase
	Init Stmt // may be nil; VarDeclStmt or AssignStmt
	Cond Expr // may be nil (infinite)
	Post Stmt // may be nil; AssignStmt or IncDecStmt
	Body *BlockStmt
}

// ParallelForStmt is `parallel_for (int i = lo; i < hi; i++) body`.
// The runtime splits the iteration space across the VM's logical threads.
// The loop variable iterates from Lo (inclusive) to Hi (exclusive).
type ParallelForStmt struct {
	stmtBase
	Var  string
	Lo   Expr
	Hi   Expr
	Body *BlockStmt

	// Filled in by the checker/compiler: the hidden function compiled from
	// the body, plus the captured enclosing locals passed by reference.
	HelperIndex  int      // index into Program.Funcs of the compiled body
	CapturedVars []string // names of captured enclosing locals
	capturedSlot []int    // matching slots in the enclosing function
	Slot         int      // slot of the loop variable inside the helper
}

// ReturnStmt is `return [expr];`.
type ReturnStmt struct {
	stmtBase
	X Expr // nil for void return
}

// BreakStmt is `break;`.
type BreakStmt struct{ stmtBase }

// ContinueStmt is `continue;`.
type ContinueStmt struct{ stmtBase }

// ---- Expressions ----

// Expr is implemented by all expression nodes. After checking, Type()
// returns the expression's static type.
type Expr interface {
	exprNode()
	Pos() int
	Type() *Type
}

type exprBase struct {
	Line int
	typ  *Type
}

func (e exprBase) exprNode()   {}
func (e exprBase) Pos() int    { return e.Line }
func (e exprBase) Type() *Type { return e.typ }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Value float64
}

// BoolLit is `true` or `false`.
type BoolLit struct {
	exprBase
	Value bool
}

// StringLit is a string literal.
type StringLit struct {
	exprBase
	Value string
}

// NullLit is `null`.
type NullLit struct{ exprBase }

// ArrayLit is `{e0, e1, ...}`, the initialiser of an array global. The
// parser builds it only there, and the checker requires every element to
// be a constant literal assignable to the array's element type.
type ArrayLit struct {
	exprBase
	Elems []Expr
}

// Ident is a reference to a local, parameter, global, or function.
type Ident struct {
	exprBase
	Name string

	// Resolution results (checker).
	IsGlobal    bool
	Slot        int // local slot when !IsGlobal and !IsFunc
	GlobalIndex int // when IsGlobal
	IsFunc      bool
	FuncIndex   int
}

// BinaryExpr is `x op y`.
type BinaryExpr struct {
	exprBase
	Op   Kind
	X, Y Expr
}

// UnaryExpr is `-x`, `!x`, `&x` (address-of) or `*x` (dereference).
type UnaryExpr struct {
	exprBase
	Op Kind // Minus, Not, Amp, Star
	X  Expr
}

// IndexExpr is `arr[i]`.
type IndexExpr struct {
	exprBase
	X     Expr
	Index Expr
}

// FieldExpr is `x.f` or `p->f`.
type FieldExpr struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool

	FieldIndex int // assigned by checker
}

// CallExpr is `f(args...)`. Callee must be a plain identifier naming a
// declared function or a registered builtin.
type CallExpr struct {
	exprBase
	Callee string
	Args   []Expr
	Line2  int

	IsBuiltin    bool
	BuiltinIndex int
	FuncIndex    int
}

// NewExpr is `new T` (struct allocation) or `new T[n]` (array allocation,
// zero-initialised).
type NewExpr struct {
	exprBase
	ElemType *Type
	Count    Expr // nil for single struct allocation
}

// CastExpr is `int(x)` / `float(x)` style conversion between numeric types
// (and int<->bool where needed by generated code).
type CastExpr struct {
	exprBase
	Target *Type
	X      Expr
}
