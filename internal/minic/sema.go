package minic

import "fmt"

// checker resolves names, assigns local slots, and types every expression.
type checker struct {
	file    *File
	prog    *Program
	fn      *FuncDecl
	scopes  []map[string]int // name -> slot, innermost last
	loop    int              // nesting depth of breakable loops
	helpers []*FuncDecl      // parallel_for helper functions discovered
	parCnt  int
}

// Check resolves and type-checks a parsed file against the given native
// registry, producing an executable-ready (but not yet code-generated)
// Program.
func Check(file *File, natives *Natives) (*Program, error) {
	prog := &Program{
		SourceName:   file.Name,
		Structs:      map[string]*StructDef{},
		FuncByName:   map[string]int{},
		GlobalByName: map[string]int{},
		Natives:      natives,
	}
	c := &checker{file: file, prog: prog}

	for _, sd := range file.Structs {
		if _, dup := prog.Structs[sd.Name]; dup {
			return nil, c.err(sd.Line, "duplicate struct %q", sd.Name)
		}
		prog.Structs[sd.Name] = sd
	}
	for _, sd := range file.Structs {
		for _, f := range sd.Fields {
			if err := c.validType(f.Type, sd.Line); err != nil {
				return nil, err
			}
		}
	}
	for _, g := range file.Globals {
		if _, dup := prog.GlobalByName[g.Name]; dup {
			return nil, c.err(g.Line, "duplicate global %q", g.Name)
		}
		if err := c.validType(g.Type, g.Line); err != nil {
			return nil, err
		}
		if g.Type.Kind == TVoid {
			return nil, c.err(g.Line, "global %q cannot have type void", g.Name)
		}
		g.Index = len(prog.Globals)
		prog.GlobalByName[g.Name] = g.Index
		prog.Globals = append(prog.Globals, g)
	}
	for _, fd := range file.Funcs {
		if _, dup := prog.FuncByName[fd.Name]; dup {
			return nil, c.err(fd.Line, "duplicate function %q", fd.Name)
		}
		if _, _, isNative := natives.Lookup(fd.Name); isNative {
			return nil, c.err(fd.Line, "function %q collides with a native function", fd.Name)
		}
		fd.Index = len(prog.Funcs)
		prog.FuncByName[fd.Name] = fd.Index
		prog.Funcs = append(prog.Funcs, fd)
	}

	// Global initialisers must be literal constants (negated literals
	// allowed), or array literals of them; anything richer is code and
	// belongs in a function.
	for _, g := range file.Globals {
		if g.Init == nil {
			continue
		}
		if lit, ok := g.Init.(*ArrayLit); ok {
			if err := c.checkArrayLit(g, lit); err != nil {
				return nil, err
			}
			continue
		}
		if err := c.checkExpr(g.Init); err != nil {
			return nil, err
		}
		if !isConstExpr(g.Init) {
			return nil, c.err(g.Line, "global initialiser for %q must be a constant literal", g.Name)
		}
		if !assignable(g.Type, g.Init.Type()) {
			return nil, c.err(g.Line, "cannot initialise %s global %q with %s",
				g.Type, g.Name, g.Init.Type())
		}
	}

	for _, fd := range file.Funcs {
		if err := c.checkFunc(fd); err != nil {
			return nil, err
		}
	}
	// parallel_for helpers were appended to prog.Funcs during checkFunc;
	// they are already checked.
	return prog, nil
}

func (c *checker) err(line int, format string, args ...any) error {
	return errf(c.file.Name, line, 0, "%s", fmt.Sprintf(format, args...))
}

func (c *checker) validType(t *Type, line int) error {
	switch t.Kind {
	case TPointer, TArray:
		return c.validType(t.Elem, line)
	case TStruct:
		if _, ok := c.prog.Structs[t.Name]; !ok {
			return c.err(line, "unknown type %q", t.Name)
		}
	}
	return nil
}

// checkArrayLit checks the array-literal initialiser of global g: g is
// an array, and every element is a constant literal assignable to its
// element type.
func (c *checker) checkArrayLit(g *GlobalDecl, lit *ArrayLit) error {
	if g.Type.Kind != TArray {
		return c.err(g.Line, "array literal cannot initialise %s global %q", g.Type, g.Name)
	}
	for i, e := range lit.Elems {
		if err := c.checkExpr(e); err != nil {
			return err
		}
		if !isConstExpr(e) {
			return c.err(e.Pos(), "element %d of global %q must be a constant literal", i, g.Name)
		}
		if !assignable(g.Type.Elem, e.Type()) {
			return c.err(e.Pos(), "cannot initialise element %d of %s global %q with %s",
				i, g.Type, g.Name, e.Type())
		}
	}
	lit.typ = g.Type
	return nil
}

func isConstExpr(e Expr) bool {
	switch x := e.(type) {
	case *IntLit, *FloatLit, *BoolLit, *StringLit, *NullLit:
		return true
	case *UnaryExpr:
		return x.Op == Minus && isConstExpr(x.X)
	}
	return false
}

// assignable reports whether a value of type from may be assigned to a
// location of type to. int widens to float; null converts to any
// reference; any converts both ways (native void*-style results).
func assignable(to, from *Type) bool {
	if to == nil || from == nil {
		return false
	}
	if to.Kind == TAny || from.Kind == TAny {
		return true
	}
	if to.Equal(from) {
		return true
	}
	if to.Kind == TFloat && from.Kind == TInt {
		return true
	}
	if to.IsReference() && from.Kind == TVoid {
		return false
	}
	if to.IsReference() && from.Kind == TPointer && from.Elem == nil {
		return true // typed null
	}
	return false
}

// StoreValue returns v as the program's own store of it into a location
// of declared type t leaves it, and whether the checker would allow that
// store (assignable): an int stored into a float becomes a float, as
// castIfNeeded compiles it. A value carries no static type, so v's is
// rebuilt from what it holds. A pointer does not record its target's
// type: it fits any pointer type but a struct pointer, which holds the
// struct itself.
func StoreValue(t *Type, v Value) (Value, bool) {
	var from *Type
	switch v.Kind {
	case VInt:
		from = IntType
	case VFloat:
		from = FloatType
	case VBool:
		from = BoolType
	case VStr:
		from = StringType
	case VPtr:
		return v, t.Kind == TAny || t.Kind == TPointer && t.Elem != nil && t.Elem.Kind != TStruct
	default:
		from = nullType
	}
	if a := v.Arr(); a != nil {
		from = ArrayOf(a.Elem)
	} else if s := v.Struct(); s != nil {
		from = PointerTo(StructType(s.Def.Name))
	}
	if !assignable(t, from) {
		return v, false
	}
	if t.Kind == TFloat && v.Kind == VInt {
		return FloatVal(float64(v.I)), true
	}
	return v, true
}

// nullType is the type given to the `null` literal: a pointer with nil
// element, assignable to every reference type.
var nullType = &Type{Kind: TPointer}

func (c *checker) checkFunc(fd *FuncDecl) error {
	if err := c.validType(fd.Result, fd.Line); err != nil {
		return err
	}
	c.fn = fd
	c.scopes = []map[string]int{{}}
	c.loop = 0
	fd.NumSlots = 0
	fd.SlotNames = nil
	fd.SlotTypes = nil
	for _, p := range fd.Params {
		if err := c.validType(p.Type, fd.Line); err != nil {
			return err
		}
		if p.Type.Kind == TVoid {
			return c.err(fd.Line, "parameter %q of %q cannot be void", p.Name, fd.Name)
		}
		if _, dup := c.scopes[0][p.Name]; dup {
			return c.err(fd.Line, "duplicate parameter %q in %q", p.Name, fd.Name)
		}
		c.declareSlot(p.Name, p.Type)
	}
	if err := c.checkBlock(fd.Body); err != nil {
		return err
	}
	return nil
}

func (c *checker) declareSlot(name string, t *Type) int {
	slot := c.fn.NumSlots
	c.fn.NumSlots++
	c.fn.SlotNames = append(c.fn.SlotNames, name)
	c.fn.SlotTypes = append(c.fn.SlotTypes, t)
	c.scopes[len(c.scopes)-1][name] = slot
	return slot
}

func (c *checker) lookup(name string) (slot int, ok bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, found := c.scopes[i][name]; found {
			return s, true
		}
	}
	return 0, false
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]int{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) checkBlock(b *BlockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return c.checkBlock(st)

	case *VarDeclStmt:
		if err := c.validType(st.Type, st.Line); err != nil {
			return err
		}
		if st.Type.Kind == TVoid {
			return c.err(st.Line, "variable %q cannot have type void", st.Name)
		}
		if st.Init != nil {
			if err := c.checkExprInto(st.Init, st.Type); err != nil {
				return err
			}
			if !assignable(st.Type, st.Init.Type()) {
				return c.err(st.Line, "cannot initialise %s variable %q with %s",
					st.Type, st.Name, st.Init.Type())
			}
		}
		if _, dup := c.scopes[len(c.scopes)-1][st.Name]; dup {
			return c.err(st.Line, "variable %q redeclared in this scope", st.Name)
		}
		st.Slot = c.declareSlot(st.Name, st.Type)
		return nil

	case *AssignStmt:
		if err := c.checkExpr(st.LHS); err != nil {
			return err
		}
		if !isAddressable(st.LHS) {
			return c.err(st.Line, "left-hand side of assignment is not addressable")
		}
		if err := c.checkExprInto(st.RHS, st.LHS.Type()); err != nil {
			return err
		}
		lt, rt := st.LHS.Type(), st.RHS.Type()
		switch st.Op {
		case Assign:
			if !assignable(lt, rt) {
				return c.err(st.Line, "cannot assign %s to %s", rt, lt)
			}
		case PlusAssign:
			if lt.Kind == TString {
				if rt.Kind != TString {
					return c.err(st.Line, "cannot append %s to string", rt)
				}
				return nil
			}
			if !lt.IsNumeric() || !assignable(lt, rt) {
				return c.err(st.Line, "invalid operands to +=: %s and %s", lt, rt)
			}
		case MinusAssign:
			if !lt.IsNumeric() || !assignable(lt, rt) {
				return c.err(st.Line, "invalid operands to -=: %s and %s", lt, rt)
			}
		}
		return nil

	case *IncDecStmt:
		if err := c.checkExpr(st.LHS); err != nil {
			return err
		}
		if !isAddressable(st.LHS) {
			return c.err(st.Line, "operand of %s is not addressable", st.Op)
		}
		if st.LHS.Type().Kind != TInt {
			return c.err(st.Line, "operand of %s must be int, have %s", st.Op, st.LHS.Type())
		}
		return nil

	case *ExprStmt:
		return c.checkExpr(st.X)

	case *IfStmt:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		if st.Cond.Type().Kind != TBool {
			return c.err(st.Line, "if condition must be bool, have %s", st.Cond.Type())
		}
		if err := c.checkBlock(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkStmt(st.Else)
		}
		return nil

	case *WhileStmt:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		if st.Cond.Type().Kind != TBool {
			return c.err(st.Line, "while condition must be bool, have %s", st.Cond.Type())
		}
		c.loop++
		defer func() { c.loop-- }()
		return c.checkBlock(st.Body)

	case *ForStmt:
		c.pushScope()
		defer c.popScope()
		if st.Init != nil {
			if err := c.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := c.checkExpr(st.Cond); err != nil {
				return err
			}
			if st.Cond.Type().Kind != TBool {
				return c.err(st.Line, "for condition must be bool, have %s", st.Cond.Type())
			}
		}
		if st.Post != nil {
			if err := c.checkStmt(st.Post); err != nil {
				return err
			}
		}
		c.loop++
		defer func() { c.loop-- }()
		return c.checkBlock(st.Body)

	case *ParallelForStmt:
		return c.checkParallelFor(st)

	case *ReturnStmt:
		want := c.fn.Result
		if st.X == nil {
			if want.Kind != TVoid {
				return c.err(st.Line, "missing return value in %q (want %s)", c.fn.Name, want)
			}
			return nil
		}
		if want.Kind == TVoid {
			return c.err(st.Line, "unexpected return value in void function %q", c.fn.Name)
		}
		if err := c.checkExprInto(st.X, want); err != nil {
			return err
		}
		if !assignable(want, st.X.Type()) {
			return c.err(st.Line, "cannot return %s from %q (want %s)", st.X.Type(), c.fn.Name, want)
		}
		return nil

	case *BreakStmt:
		if c.loop == 0 {
			return c.err(st.Line, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if c.loop == 0 {
			return c.err(st.Line, "continue outside loop")
		}
		return nil
	}
	return fmt.Errorf("minic: unknown statement %T", s)
}

// checkParallelFor lifts the loop body into a hidden helper function whose
// frame shares cells with the spawning frame for every captured variable.
func (c *checker) checkParallelFor(st *ParallelForStmt) error {
	if err := c.checkExprInto(st.Lo, IntType); err != nil {
		return err
	}
	if err := c.checkExprInto(st.Hi, IntType); err != nil {
		return err
	}
	if st.Lo.Type().Kind != TInt || st.Hi.Type().Kind != TInt {
		return c.err(st.Line, "parallel_for bounds must be int")
	}

	// Find captured variables: free identifiers in the body that resolve
	// to locals of the enclosing function (not globals/functions/natives).
	captured := []string{}
	capturedSet := map[string]bool{}
	declared := map[string]bool{st.Var: true}
	collectCaptures(st.Body, declared, func(name string) {
		if capturedSet[name] {
			return
		}
		if _, ok := c.lookup(name); ok {
			capturedSet[name] = true
			captured = append(captured, name)
		}
	})

	outer := c.fn
	helper := &FuncDecl{
		Name:   fmt.Sprintf("%s$par%d", outer.Name, c.parCnt),
		Result: VoidType,
		Body:   st.Body,
		Line:   st.Line,
	}
	c.parCnt++
	helper.Params = append(helper.Params, Param{Name: st.Var, Type: IntType})
	st.capturedSlot = nil
	for _, name := range captured {
		slot, _ := c.lookup(name)
		st.capturedSlot = append(st.capturedSlot, slot)
		helper.Params = append(helper.Params, Param{Name: name, Type: outer.SlotTypes[slot]})
	}
	st.CapturedVars = captured
	st.Slot = 0
	helper.Captured = len(captured)

	helper.Index = len(c.prog.Funcs)
	c.prog.FuncByName[helper.Name] = helper.Index
	c.prog.Funcs = append(c.prog.Funcs, helper)
	st.HelperIndex = helper.Index

	// Check the helper body in a fresh function context.
	savedFn, savedScopes, savedLoop, savedPar := c.fn, c.scopes, c.loop, c.parCnt
	err := c.checkFunc(helper)
	c.fn, c.scopes, c.loop, c.parCnt = savedFn, savedScopes, savedLoop, savedPar
	return err
}

// collectCaptures walks the statement tree invoking found for every
// identifier that is not declared within the tree itself.
func collectCaptures(s Stmt, declared map[string]bool, found func(string)) {
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *Ident:
			if !declared[x.Name] {
				found(x.Name)
			}
		case *BinaryExpr:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *UnaryExpr:
			walkExpr(x.X)
		case *IndexExpr:
			walkExpr(x.X)
			walkExpr(x.Index)
		case *FieldExpr:
			walkExpr(x.X)
		case *CallExpr:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *NewExpr:
			if x.Count != nil {
				walkExpr(x.Count)
			}
		case *CastExpr:
			walkExpr(x.X)
		}
	}
	var walkStmt func(s Stmt)
	walkStmt = func(s Stmt) {
		switch st := s.(type) {
		case nil:
		case *BlockStmt:
			for _, inner := range st.Stmts {
				walkStmt(inner)
			}
		case *VarDeclStmt:
			walkExpr(st.Init)
			declared[st.Name] = true
		case *AssignStmt:
			walkExpr(st.LHS)
			walkExpr(st.RHS)
		case *IncDecStmt:
			walkExpr(st.LHS)
		case *ExprStmt:
			walkExpr(st.X)
		case *IfStmt:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			walkStmt(st.Else)
		case *WhileStmt:
			walkExpr(st.Cond)
			walkStmt(st.Body)
		case *ForStmt:
			walkStmt(st.Init)
			walkExpr(st.Cond)
			walkStmt(st.Post)
			walkStmt(st.Body)
		case *ParallelForStmt:
			walkExpr(st.Lo)
			walkExpr(st.Hi)
			saved := declared[st.Var]
			declared[st.Var] = true
			walkStmt(st.Body)
			declared[st.Var] = saved
		case *ReturnStmt:
			walkExpr(st.X)
		}
	}
	walkStmt(s)
}

func isAddressable(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return !x.IsFunc
	case *IndexExpr:
		return true
	case *FieldExpr:
		return true
	case *UnaryExpr:
		return x.Op == Star
	}
	return false
}

// checkExprInto checks e and, when e is a call to an any-result native,
// adopts the destination type. This is the mini-C analogue of assigning a
// void* result in C, which D2X-R's find_stack_var relies on (Figure 7 of
// the paper assigns it to a frontier_t**).
func (c *checker) checkExprInto(e Expr, want *Type) error {
	if err := c.checkExpr(e); err != nil {
		return err
	}
	if call, ok := e.(*CallExpr); ok && call.typ != nil && call.typ.Kind == TAny && want != nil {
		call.typ = want
	}
	return nil
}

func (c *checker) checkExpr(e Expr) error {
	switch x := e.(type) {
	case *IntLit:
		x.typ = IntType
	case *FloatLit:
		x.typ = FloatType
	case *BoolLit:
		x.typ = BoolType
	case *StringLit:
		x.typ = StringType
	case *NullLit:
		x.typ = nullType

	case *Ident:
		if slot, ok := c.lookup(x.Name); ok {
			x.Slot = slot
			x.typ = c.fn.SlotTypes[slot]
			return nil
		}
		if gi, ok := c.prog.GlobalByName[x.Name]; ok {
			x.IsGlobal = true
			x.GlobalIndex = gi
			x.typ = c.prog.Globals[gi].Type
			return nil
		}
		if fi, ok := c.prog.FuncByName[x.Name]; ok {
			x.IsFunc = true
			x.FuncIndex = fi
			x.typ = VoidType
			return nil
		}
		return c.err(x.Line, "undefined identifier %q", x.Name)

	case *BinaryExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if err := c.checkExpr(x.Y); err != nil {
			return err
		}
		xt, yt := x.X.Type(), x.Y.Type()
		switch x.Op {
		case Plus:
			if xt.Kind == TString && yt.Kind == TString {
				x.typ = StringType
				return nil
			}
			fallthrough
		case Minus, Star, Slash:
			if !xt.IsNumeric() || !yt.IsNumeric() {
				return c.err(x.Line, "invalid operands to %s: %s and %s", x.Op, xt, yt)
			}
			if xt.Kind == TFloat || yt.Kind == TFloat {
				x.typ = FloatType
			} else {
				x.typ = IntType
			}
		case Percent, Shl, Shr:
			if xt.Kind != TInt || yt.Kind != TInt {
				return c.err(x.Line, "operands of %s must be int, have %s and %s", x.Op, xt, yt)
			}
			x.typ = IntType
		case Lt, Le, Gt, Ge:
			if xt.Kind == TString && yt.Kind == TString {
				x.typ = BoolType
				return nil
			}
			if !xt.IsNumeric() || !yt.IsNumeric() {
				return c.err(x.Line, "invalid operands to %s: %s and %s", x.Op, xt, yt)
			}
			x.typ = BoolType
		case Eq, Neq:
			ok := (xt.IsNumeric() && yt.IsNumeric()) ||
				(xt.Kind == yt.Kind && (xt.Kind == TBool || xt.Kind == TString)) ||
				(xt.IsReference() && (yt.IsReference() || yt == nullType)) ||
				(yt.IsReference() && xt == nullType) ||
				(xt == nullType && yt == nullType) ||
				xt.Kind == TAny || yt.Kind == TAny
			if !ok {
				return c.err(x.Line, "invalid comparison between %s and %s", xt, yt)
			}
			x.typ = BoolType
		case AndAnd, OrOr:
			if xt.Kind != TBool || yt.Kind != TBool {
				return c.err(x.Line, "operands of %s must be bool, have %s and %s", x.Op, xt, yt)
			}
			x.typ = BoolType
		default:
			return c.err(x.Line, "unknown binary operator %s", x.Op)
		}

	case *UnaryExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		xt := x.X.Type()
		switch x.Op {
		case Minus:
			if !xt.IsNumeric() {
				return c.err(x.Line, "operand of unary - must be numeric, have %s", xt)
			}
			x.typ = xt
		case Not:
			if xt.Kind != TBool {
				return c.err(x.Line, "operand of ! must be bool, have %s", xt)
			}
			x.typ = BoolType
		case Amp:
			if !isAddressable(x.X) {
				return c.err(x.Line, "cannot take address of this expression")
			}
			x.typ = PointerTo(xt)
		case Star:
			if xt.Kind != TPointer || xt.Elem == nil {
				return c.err(x.Line, "cannot dereference %s", xt)
			}
			x.typ = xt.Elem
		}

	case *IndexExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if err := c.checkExpr(x.Index); err != nil {
			return err
		}
		if x.Index.Type().Kind != TInt {
			return c.err(x.Line, "array index must be int, have %s", x.Index.Type())
		}
		xt := x.X.Type()
		if xt.Kind != TArray {
			return c.err(x.Line, "cannot index %s", xt)
		}
		x.typ = xt.Elem

	case *FieldExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		xt := x.X.Type()
		if x.Arrow {
			if xt.Kind != TPointer || xt.Elem == nil || xt.Elem.Kind != TStruct {
				return c.err(x.Line, "-> requires a struct pointer, have %s", xt)
			}
			xt = xt.Elem
		}
		if xt.Kind != TStruct {
			return c.err(x.Line, ". requires a struct, have %s", xt)
		}
		sd, ok := c.prog.Structs[xt.Name]
		if !ok {
			return c.err(x.Line, "unknown struct %q", xt.Name)
		}
		fi := sd.FieldIndex(x.Name)
		if fi < 0 {
			return c.err(x.Line, "struct %q has no field %q", xt.Name, x.Name)
		}
		x.FieldIndex = fi
		x.typ = sd.Fields[fi].Type

	case *CallExpr:
		return c.checkCall(x)

	case *NewExpr:
		if err := c.validType(x.ElemType, x.Line); err != nil {
			return err
		}
		if x.Count != nil {
			if err := c.checkExpr(x.Count); err != nil {
				return err
			}
			if x.Count.Type().Kind != TInt {
				return c.err(x.Line, "array size must be int, have %s", x.Count.Type())
			}
			x.typ = ArrayOf(x.ElemType)
		} else {
			if x.ElemType.Kind != TStruct {
				return c.err(x.Line, "new without a size requires a struct type, have %s", x.ElemType)
			}
			x.typ = PointerTo(x.ElemType)
		}

	case *CastExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		src := x.X.Type()
		dst := x.Target
		ok := false
		switch dst.Kind {
		case TInt:
			ok = src.IsNumeric() || src.Kind == TBool
		case TFloat:
			ok = src.IsNumeric()
		case TBool:
			ok = src.Kind == TBool || src.Kind == TInt
		case TString:
			ok = src.Kind == TString
		}
		if !ok {
			return c.err(x.Line, "cannot convert %s to %s", src, dst)
		}
		x.typ = dst

	default:
		return fmt.Errorf("minic: unknown expression %T", e)
	}
	return nil
}

func (c *checker) checkCall(x *CallExpr) error {
	for _, a := range x.Args {
		if err := c.checkExpr(a); err != nil {
			return err
		}
	}
	// Specially typed core builtins first.
	switch x.Callee {
	case "printf":
		if len(x.Args) < 1 || x.Args[0].Type().Kind != TString {
			return c.err(x.Line, "printf requires a string format as first argument")
		}
		x.typ = VoidType
		return c.markNative(x)
	case "to_str":
		if len(x.Args) != 1 {
			return c.err(x.Line, "to_str takes exactly one argument")
		}
		x.typ = StringType
		return c.markNative(x)
	case "len":
		if len(x.Args) != 1 || x.Args[0].Type().Kind != TArray {
			return c.err(x.Line, "len takes exactly one array argument")
		}
		x.typ = IntType
		return c.markNative(x)
	case "atomic_add":
		if len(x.Args) != 2 {
			return c.err(x.Line, "atomic_add takes a pointer and a value")
		}
		pt := x.Args[0].Type()
		if pt.Kind != TPointer || pt.Elem == nil || !pt.Elem.IsNumeric() {
			return c.err(x.Line, "atomic_add first argument must point to a numeric value, have %s", pt)
		}
		if !assignable(pt.Elem, x.Args[1].Type()) {
			return c.err(x.Line, "atomic_add value %s does not match pointee %s", x.Args[1].Type(), pt.Elem)
		}
		x.typ = VoidType
		return c.markNative(x)
	case "atomic_min":
		if len(x.Args) != 2 {
			return c.err(x.Line, "atomic_min takes a pointer and a value")
		}
		pt := x.Args[0].Type()
		if pt.Kind != TPointer || pt.Elem == nil || !pt.Elem.IsNumeric() {
			return c.err(x.Line, "atomic_min first argument must point to a numeric value, have %s", pt)
		}
		x.typ = BoolType
		return c.markNative(x)
	case "cas":
		if len(x.Args) != 3 {
			return c.err(x.Line, "cas takes a pointer, an expected value, and a new value")
		}
		pt := x.Args[0].Type()
		if pt.Kind != TPointer || pt.Elem == nil {
			return c.err(x.Line, "cas first argument must be a pointer, have %s", pt)
		}
		x.typ = BoolType
		return c.markNative(x)
	}

	if nat, idx, ok := c.prog.Natives.Lookup(x.Callee); ok {
		if nat.Variadic {
			if len(x.Args) < len(nat.Sig.Params) {
				return c.err(x.Line, "%s requires at least %d arguments, have %d",
					x.Callee, len(nat.Sig.Params), len(x.Args))
			}
		} else if len(x.Args) != len(nat.Sig.Params) {
			return c.err(x.Line, "%s requires %d arguments, have %d",
				x.Callee, len(nat.Sig.Params), len(x.Args))
		}
		for i, pt := range nat.Sig.Params {
			if !assignable(pt, x.Args[i].Type()) {
				return c.err(x.Line, "argument %d of %s: cannot use %s as %s",
					i+1, x.Callee, x.Args[i].Type(), pt)
			}
		}
		x.IsBuiltin = true
		x.BuiltinIndex = idx
		if nat.AnyResult {
			x.typ = AnyType
		} else {
			x.typ = nat.Sig.Result
		}
		return nil
	}

	fi, ok := c.prog.FuncByName[x.Callee]
	if !ok {
		return c.err(x.Line, "call to undefined function %q", x.Callee)
	}
	fd := c.prog.Funcs[fi]
	if len(x.Args) != len(fd.Params) {
		return c.err(x.Line, "%s requires %d arguments, have %d",
			x.Callee, len(fd.Params), len(x.Args))
	}
	for i, p := range fd.Params {
		if !assignable(p.Type, x.Args[i].Type()) {
			return c.err(x.Line, "argument %d of %s: cannot use %s as %s",
				i+1, x.Callee, x.Args[i].Type(), p.Type)
		}
	}
	x.FuncIndex = fi
	x.typ = fd.Result
	return nil
}

func (c *checker) markNative(x *CallExpr) error {
	nat, idx, ok := c.prog.Natives.Lookup(x.Callee)
	if !ok || nat == nil {
		return c.err(x.Line, "core builtin %q is not registered", x.Callee)
	}
	x.IsBuiltin = true
	x.BuiltinIndex = idx
	return nil
}
