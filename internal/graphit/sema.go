package graphit

import "fmt"

// SiteKind classifies operator call sites the mid-end lowers specially.
type SiteKind int

const (
	SiteEdgesApply SiteKind = iota
	SiteEdgesApplyModified
	SiteVertexApply
	SiteVertexFilter
)

// ApplySite is one operator occurrence: an edgeset.apply-family call or a
// vertexset operator, with everything the mid-end and codegen need.
type ApplySite struct {
	Index    int
	Kind     SiteKind
	Label    string
	Line     int // line of the operator in the .gt file
	UDF      *FuncDef
	HasFrom  bool
	Weighted bool
	TrackVec string // applyModified's modification-tracked vector
	Expr     *MethodExpr

	// Filled by the mid-end.
	Schedule        ApplySchedule
	SpecializedName string
	DriverName      string
}

// Info is the checked program plus everything later phases consume.
type Info struct {
	Prog    *Program
	Edgeset *ConstDecl
	Vectors []*ConstDecl
	Scalars []*ConstDecl
	Sites   []*ApplySite

	constByName map[string]*ConstDecl
	localTypes  map[*FuncDef]map[string]*GType
}

// ConstByName returns the const declaration, or nil.
func (in *Info) ConstByName(name string) *ConstDecl { return in.constByName[name] }

// checker performs name resolution and type checking.
type checker struct {
	info *Info
	file string

	fn     *FuncDef
	scopes []map[string]*GType
	loop   int
}

// Check type-checks the program and collects operator sites.
func Check(prog *Program) (*Info, error) {
	info := &Info{
		Prog:        prog,
		constByName: map[string]*ConstDecl{},
		localTypes:  map[*FuncDef]map[string]*GType{},
	}
	c := &checker{info: info, file: prog.File}

	for _, cd := range prog.Consts {
		if _, dup := info.constByName[cd.Name]; dup {
			return nil, gtErrf(c.file, cd.Line, 1, "duplicate const %q", cd.Name)
		}
		info.constByName[cd.Name] = cd
		switch cd.Type.Kind {
		case GTEdgeSet:
			if info.Edgeset != nil {
				return nil, gtErrf(c.file, cd.Line, 1, "only one edgeset is supported (%q already declared)", info.Edgeset.Name)
			}
			if cd.LoadSpec == nil {
				return nil, gtErrf(c.file, cd.Line, 1, "edgeset %q must be initialised with load(...)", cd.Name)
			}
			if err := c.checkExpr(cd.LoadSpec); err != nil {
				return nil, err
			}
			info.Edgeset = cd
		case GTVector:
			if cd.ScalarInit != nil {
				if err := c.checkExpr(cd.ScalarInit); err != nil {
					return nil, err
				}
				it := cd.ScalarInit.GType()
				if !assignableGT(cd.Type.Elem, it) {
					return nil, gtErrf(c.file, cd.Line, 1, "cannot initialise %s vector %q with %s", cd.Type.Elem, cd.Name, it)
				}
			}
			info.Vectors = append(info.Vectors, cd)
		case GTVertexSet:
			return nil, gtErrf(c.file, cd.Line, 1, "global vertexsets are not supported; declare %q with var in main", cd.Name)
		default:
			if cd.ScalarInit != nil {
				if err := c.checkExpr(cd.ScalarInit); err != nil {
					return nil, err
				}
				if !assignableGT(cd.Type, cd.ScalarInit.GType()) {
					return nil, gtErrf(c.file, cd.Line, 1, "cannot initialise %s const %q with %s", cd.Type, cd.Name, cd.ScalarInit.GType())
				}
			}
			info.Scalars = append(info.Scalars, cd)
		}
	}
	if info.Edgeset == nil {
		return nil, gtErrf(c.file, 1, 1, "program declares no edgeset")
	}

	seen := map[string]bool{}
	for _, f := range prog.Funcs {
		if seen[f.Name] {
			return nil, gtErrf(c.file, f.Line, 1, "duplicate function %q", f.Name)
		}
		seen[f.Name] = true
	}
	if prog.FuncByName("main") == nil {
		return nil, gtErrf(c.file, 1, 1, "program has no main function")
	}

	for _, f := range prog.Funcs {
		if err := c.checkFunc(f); err != nil {
			return nil, err
		}
	}
	return info, nil
}

// assignableGT: ints widen to float; Vertex and int interconvert (vertex
// IDs are integers in this dialect).
func assignableGT(dst, src *GType) bool {
	if dst.Equal(src) {
		return true
	}
	if dst.Kind == GTFloat && (src.Kind == GTInt || src.Kind == GTVertex) {
		return true
	}
	if dst.Kind == GTInt && src.Kind == GTVertex {
		return true
	}
	if dst.Kind == GTVertex && src.Kind == GTInt {
		return true
	}
	return false
}

func (c *checker) err(line int, format string, args ...any) error {
	return gtErrf(c.file, line, 0, format, args...)
}

func (c *checker) checkFunc(f *FuncDef) error {
	c.fn = f
	c.scopes = []map[string]*GType{{}}
	c.loop = 0
	locals := map[string]*GType{}
	c.info.localTypes[f] = locals
	for _, p := range f.Params {
		c.scopes[0][p.Name] = p.Type
		locals[p.Name] = p.Type
	}
	if f.RetName != "" {
		c.scopes[0][f.RetName] = f.RetType
		locals[f.RetName] = f.RetType
	}
	return c.checkStmts(f.Body)
}

func (c *checker) lookup(name string) (*GType, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	return nil, false
}

func (c *checker) declare(name string, t *GType, line int) error {
	if _, dup := c.scopes[len(c.scopes)-1][name]; dup {
		return c.err(line, "variable %q redeclared", name)
	}
	c.scopes[len(c.scopes)-1][name] = t
	if prev, ok := c.info.localTypes[c.fn][name]; ok && !prev.Equal(t) {
		return c.err(line, "variable %q redeclared with a different type in %s", name, c.fn.Name)
	}
	c.info.localTypes[c.fn][name] = t
	return nil
}

func (c *checker) checkStmts(stmts []GStmt) error {
	c.scopes = append(c.scopes, map[string]*GType{})
	defer func() { c.scopes = c.scopes[:len(c.scopes)-1] }()
	for _, s := range stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s GStmt) error {
	switch st := s.(type) {
	case *VarDecl:
		if err := c.checkExpr(st.Init); err != nil {
			return err
		}
		if !assignableGT(st.Type, st.Init.GType()) {
			return c.err(st.Line, "cannot initialise %s variable %q with %s", st.Type, st.Name, st.Init.GType())
		}
		return c.declare(st.Name, st.Type, st.Line)

	case *AssignStmt:
		if err := c.checkExpr(st.LHS); err != nil {
			return err
		}
		if err := c.checkExpr(st.RHS); err != nil {
			return err
		}
		lt, rt := st.LHS.GType(), st.RHS.GType()
		switch st.LHS.(type) {
		case *NameRef, *IndexExpr:
		default:
			return c.err(st.gline(), "left side of assignment must be a variable or vector element")
		}
		if nr, ok := st.LHS.(*NameRef); ok {
			if cd := c.info.constByName[nr.Name]; cd != nil && cd.Type.Kind != GTVector {
				return c.err(st.gline(), "cannot assign to const %q", nr.Name)
			}
		}
		if st.Op != "=" && !lt.IsNumeric() {
			return c.err(st.gline(), "%s requires a numeric target, have %s", st.Op, lt)
		}
		if st.Op == "min=" {
			if _, isIdx := st.LHS.(*IndexExpr); !isIdx {
				return c.err(st.gline(), "min= is only supported on vector elements")
			}
		}
		if !assignableGT(lt, rt) {
			return c.err(st.gline(), "cannot assign %s to %s", rt, lt)
		}
		return nil

	case *ExprStmt:
		if err := c.checkExprLabelled(st.X, st.Label); err != nil {
			return err
		}
		return nil

	case *IfStmt:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		if st.Cond.GType().Kind != GTBool {
			return c.err(st.Line, "if condition must be bool, have %s", st.Cond.GType())
		}
		if err := c.checkStmts(st.Then); err != nil {
			return err
		}
		return c.checkStmts(st.Else)

	case *WhileStmt:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		if st.Cond.GType().Kind != GTBool {
			return c.err(st.Line, "while condition must be bool, have %s", st.Cond.GType())
		}
		c.loop++
		defer func() { c.loop-- }()
		return c.checkStmts(st.Body)

	case *ForStmt:
		if err := c.checkExpr(st.Lo); err != nil {
			return err
		}
		if err := c.checkExpr(st.Hi); err != nil {
			return err
		}
		if st.Lo.GType().Kind != GTInt || st.Hi.GType().Kind != GTInt {
			return c.err(st.Line, "for bounds must be int")
		}
		c.scopes = append(c.scopes, map[string]*GType{})
		defer func() { c.scopes = c.scopes[:len(c.scopes)-1] }()
		if err := c.declare(st.Var, gtInt, st.Line); err != nil {
			return err
		}
		c.loop++
		defer func() { c.loop-- }()
		return c.checkStmts(st.Body)

	case *PrintStmt:
		return c.checkExpr(st.X)

	case *BreakStmt:
		if c.loop == 0 {
			return c.err(st.gline(), "break outside loop")
		}
		return nil
	}
	return fmt.Errorf("graphit: unknown statement %T", s)
}

func (c *checker) checkExpr(e GExpr) error { return c.checkExprLabelled(e, "") }

func (c *checker) checkExprLabelled(e GExpr, label string) error {
	switch x := e.(type) {
	case *labelledExpr:
		return c.checkExprLabelled(x.inner, x.label)

	case *IntLit:
		x.setType(gtInt)
	case *FloatLit:
		x.setType(gtFloat)
	case *BoolLit:
		x.setType(gtBool)
	case *StringLit:
		x.setType(&GType{Kind: GTVoid}) // strings only appear in load()
	case *NameRef:
		if t, ok := c.lookup(x.Name); ok {
			x.setType(t)
			return nil
		}
		if cd, ok := c.info.constByName[x.Name]; ok {
			x.setType(cd.Type)
			return nil
		}
		switch x.Name {
		case "vertices":
			x.setType(gtVertexSet)
			return nil
		case "out_degree", "in_degree":
			x.setType(&GType{Kind: GTVector, Elem: gtInt})
			return nil
		case "num_vertices", "num_edges":
			x.setType(gtInt)
			return nil
		}
		if c.info.Prog.FuncByName(x.Name) != nil {
			return c.err(x.Line, "function %q used as a value (operators take function names directly)", x.Name)
		}
		return c.err(x.Line, "undefined name %q", x.Name)

	case *BinExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if err := c.checkExpr(x.Y); err != nil {
			return err
		}
		xt, yt := x.X.GType(), x.Y.GType()
		switch x.Op {
		case "+", "-", "*", "/":
			if !numericOrVertex(xt) || !numericOrVertex(yt) {
				return c.err(x.Line, "invalid operands to %s: %s and %s", x.Op, xt, yt)
			}
			if xt.Kind == GTFloat || yt.Kind == GTFloat {
				x.setType(gtFloat)
			} else {
				x.setType(gtInt)
			}
		case "<", "<=", ">", ">=":
			if !numericOrVertex(xt) || !numericOrVertex(yt) {
				return c.err(x.Line, "invalid operands to %s: %s and %s", x.Op, xt, yt)
			}
			x.setType(gtBool)
		case "==", "!=":
			ok := (numericOrVertex(xt) && numericOrVertex(yt)) ||
				(xt.Kind == GTBool && yt.Kind == GTBool)
			if !ok {
				return c.err(x.Line, "invalid comparison between %s and %s", xt, yt)
			}
			x.setType(gtBool)
		case "and", "or":
			if xt.Kind != GTBool || yt.Kind != GTBool {
				return c.err(x.Line, "operands of %s must be bool", x.Op)
			}
			x.setType(gtBool)
		default:
			return c.err(x.Line, "unknown operator %q", x.Op)
		}

	case *UnExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if x.Op == "-" {
			if !x.X.GType().IsNumeric() {
				return c.err(x.Line, "unary - requires a numeric operand")
			}
			x.setType(x.X.GType())
		} else {
			if x.X.GType().Kind != GTBool {
				return c.err(x.Line, "not requires a bool operand")
			}
			x.setType(gtBool)
		}

	case *IndexExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if err := c.checkExpr(x.Index); err != nil {
			return err
		}
		if x.X.GType().Kind != GTVector {
			return c.err(x.Line, "cannot index %s", x.X.GType())
		}
		it := x.Index.GType()
		if it.Kind != GTVertex && it.Kind != GTInt {
			return c.err(x.Line, "vector index must be a Vertex or int, have %s", it)
		}
		x.setType(x.X.GType().Elem)

	case *CallExpr:
		return c.err(x.Line, "unknown function %q (operators use method syntax)", x.Name)

	case *NewVertexSetExpr:
		if err := c.checkExpr(x.Count); err != nil {
			return err
		}
		if x.Count.GType().Kind != GTInt {
			return c.err(x.Line, "vertexset size must be int")
		}
		x.setType(gtVertexSet)

	case *MethodExpr:
		return c.checkMethod(x, label)

	default:
		return fmt.Errorf("graphit: unknown expression %T", e)
	}
	return nil
}

func numericOrVertex(t *GType) bool {
	return t.IsNumeric() || t.Kind == GTVertex
}

// checkMethod types operator syntax and records apply sites.
func (c *checker) checkMethod(x *MethodExpr, label string) error {
	// `from` receivers check specially: edges.from(vs).
	if inner, ok := x.Recv.(*MethodExpr); ok && inner.Method == "from" {
		if err := c.checkFrom(inner); err != nil {
			return err
		}
	} else if err := c.checkExpr(x.Recv); err != nil {
		return err
	}
	recvT := x.Recv.GType()

	udfArg := func(i int) (*FuncDef, error) {
		if i >= len(x.Args) {
			return nil, c.err(x.Line, "%s requires a function argument", x.Method)
		}
		nr, ok := x.Args[i].(*NameRef)
		if !ok {
			return nil, c.err(x.Line, "%s requires a function name, not an expression", x.Method)
		}
		f := c.info.Prog.FuncByName(nr.Name)
		if f == nil {
			return nil, c.err(x.Line, "unknown function %q", nr.Name)
		}
		nr.setType(gtVoid)
		return f, nil
	}

	record := func(site *ApplySite) {
		site.Index = len(c.info.Sites)
		site.Label = label
		site.Line = x.Line
		site.Expr = x
		c.info.Sites = append(c.info.Sites, site)
	}

	switch x.Method {
	case "from":
		return c.err(x.Line, "from(...) must be followed by .apply or .applyModified")

	case "apply":
		udf, err := udfArg(0)
		if err != nil {
			return err
		}
		if len(x.Args) != 1 {
			return c.err(x.Line, "apply takes exactly one function")
		}
		switch recvT.Kind {
		case GTEdgeSet:
			if err := checkEdgeUDFSig(c, udf, recvT.Weighted); err != nil {
				return err
			}
			record(&ApplySite{Kind: SiteEdgesApply, UDF: udf, HasFrom: isFrom(x.Recv), Weighted: recvT.Weighted})
			x.setType(gtVoid)
		case GTVertexSet:
			if err := checkUDFSig(c, udf, 1, gtVoid); err != nil {
				return err
			}
			record(&ApplySite{Kind: SiteVertexApply, UDF: udf})
			x.setType(gtVoid)
		default:
			return c.err(x.Line, "apply is not defined on %s", recvT)
		}

	case "applyModified":
		if recvT.Kind != GTEdgeSet {
			return c.err(x.Line, "applyModified is only defined on edgesets")
		}
		udf, err := udfArg(0)
		if err != nil {
			return err
		}
		if len(x.Args) != 2 {
			return c.err(x.Line, "applyModified takes a function and a tracked vector")
		}
		vecRef, ok := x.Args[1].(*NameRef)
		if !ok {
			return c.err(x.Line, "applyModified's second argument must be a vector name")
		}
		cd := c.info.constByName[vecRef.Name]
		if cd == nil || cd.Type.Kind != GTVector {
			return c.err(x.Line, "%q is not a vector const", vecRef.Name)
		}
		vecRef.setType(cd.Type)
		if err := checkEdgeUDFSig(c, udf, recvT.Weighted); err != nil {
			return err
		}
		record(&ApplySite{Kind: SiteEdgesApplyModified, UDF: udf, HasFrom: isFrom(x.Recv), TrackVec: vecRef.Name, Weighted: recvT.Weighted})
		x.setType(gtVertexSet)

	case "filter":
		if recvT.Kind != GTVertexSet {
			return c.err(x.Line, "filter is only defined on vertexsets")
		}
		udf, err := udfArg(0)
		if err != nil {
			return err
		}
		if len(x.Args) != 1 {
			return c.err(x.Line, "filter takes exactly one function")
		}
		if err := checkUDFSig(c, udf, 1, gtBool); err != nil {
			return err
		}
		record(&ApplySite{Kind: SiteVertexFilter, UDF: udf})
		x.setType(gtVertexSet)

	case "size", "getVertexSetSize":
		if recvT.Kind != GTVertexSet {
			return c.err(x.Line, "%s is only defined on vertexsets", x.Method)
		}
		if len(x.Args) != 0 {
			return c.err(x.Line, "%s takes no arguments", x.Method)
		}
		x.setType(gtInt)

	case "addVertex":
		if recvT.Kind != GTVertexSet {
			return c.err(x.Line, "addVertex is only defined on vertexsets")
		}
		if len(x.Args) != 1 {
			return c.err(x.Line, "addVertex takes one vertex")
		}
		if err := c.checkExpr(x.Args[0]); err != nil {
			return err
		}
		at := x.Args[0].GType()
		if at.Kind != GTVertex && at.Kind != GTInt {
			return c.err(x.Line, "addVertex argument must be a vertex")
		}
		x.setType(gtVoid)

	case "contains":
		if recvT.Kind != GTVertexSet {
			return c.err(x.Line, "contains is only defined on vertexsets")
		}
		if len(x.Args) != 1 {
			return c.err(x.Line, "contains takes one vertex")
		}
		if err := c.checkExpr(x.Args[0]); err != nil {
			return err
		}
		x.setType(gtBool)

	default:
		return c.err(x.Line, "unknown method %q on %s", x.Method, recvT)
	}
	return nil
}

func isFrom(recv GExpr) bool {
	m, ok := recv.(*MethodExpr)
	return ok && m.Method == "from"
}

// checkFrom types `edges.from(vs)`.
func (c *checker) checkFrom(x *MethodExpr) error {
	if err := c.checkExpr(x.Recv); err != nil {
		return err
	}
	if x.Recv.GType().Kind != GTEdgeSet {
		return c.err(x.Line, "from is only defined on edgesets")
	}
	if len(x.Args) != 1 {
		return c.err(x.Line, "from takes exactly one vertexset")
	}
	if err := c.checkExpr(x.Args[0]); err != nil {
		return err
	}
	if x.Args[0].GType().Kind != GTVertexSet {
		return c.err(x.Line, "from's argument must be a vertexset, have %s", x.Args[0].GType())
	}
	// Propagate the receiver's exact edgeset type (weightedness matters).
	x.setType(x.Recv.GType())
	return nil
}

// checkEdgeUDFSig validates an edge UDF: (src, dst) for plain edgesets,
// (src, dst, weight: int) for weighted ones.
func checkEdgeUDFSig(c *checker, f *FuncDef, weighted bool) error {
	want := 2
	if weighted {
		want = 3
	}
	if len(f.Params) != want {
		return c.err(f.Line, "function %q must take %d parameters for this edgeset, has %d",
			f.Name, want, len(f.Params))
	}
	for i, p := range f.Params {
		if i < 2 && p.Type.Kind != GTVertex {
			return c.err(f.Line, "parameter %q of %q must be Vertex", p.Name, f.Name)
		}
		if i == 2 && p.Type.Kind != GTInt {
			return c.err(f.Line, "weight parameter %q of %q must be int", p.Name, f.Name)
		}
	}
	if f.RetName != "" {
		return c.err(f.Line, "function %q must not return a value here", f.Name)
	}
	return nil
}

func checkUDFSig(c *checker, f *FuncDef, nparams int, ret *GType) error {
	if len(f.Params) != nparams {
		return c.err(f.Line, "function %q must take %d Vertex parameters, has %d", f.Name, nparams, len(f.Params))
	}
	for _, p := range f.Params {
		if p.Type.Kind != GTVertex {
			return c.err(f.Line, "parameter %q of %q must be Vertex", p.Name, f.Name)
		}
	}
	if ret.Kind == GTVoid && f.RetName != "" {
		return c.err(f.Line, "function %q must not return a value here", f.Name)
	}
	if ret.Kind != GTVoid && (f.RetName == "" || !f.RetType.Equal(ret)) {
		return c.err(f.Line, "function %q must declare a %s return value", f.Name, ret)
	}
	return nil
}
