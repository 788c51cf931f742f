package minic

import "fmt"

// CompileCode lowers every checked function of prog to bytecode, filling in
// prog.Code. Check must have run first.
func CompileCode(prog *Program) error {
	prog.Code = make([]*FuncCode, len(prog.Funcs))
	base := 0
	for i, fd := range prog.Funcs {
		fc, err := compileFunc(prog, fd)
		if err != nil {
			return err
		}
		fc.Base = base
		base += len(fc.Instrs)
		prog.Code[i] = fc
	}
	return nil
}

// slotsPrivate reports whether nothing can reach a frame's slots of fc
// once the frame returns: the code takes no local's address and runs no
// parallel_for, whose workers capture slots by reference. A helper's
// addrc takes the address of its spawner's cell, not of its own slot.
func slotsPrivate(fc *FuncCode) bool {
	for _, in := range fc.Instrs {
		if in.Op == OpAddrLocal || in.Op == OpParFor {
			return false
		}
	}
	return true
}

// fnCompiler lowers one function body.
type fnCompiler struct {
	prog *Program
	fn   *FuncDecl
	fc   *FuncCode

	line      int // current source line being compiled
	stmtStart bool

	breakPatch    [][]int // jump sites to patch per loop nesting
	continuePatch [][]int
}

func compileFunc(prog *Program, fd *FuncDecl) (*FuncCode, error) {
	c := &fnCompiler{
		prog: prog,
		fn:   fd,
		fc: &FuncCode{
			Name:      fd.Name,
			NumSlots:  fd.NumSlots,
			NumParams: len(fd.Params),
		},
	}
	if err := c.block(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return at end of function. Non-void functions that fall off
	// the end return their zero value; generated code always returns
	// explicitly, but hand-written test programs may not.
	c.line = lastLine(fd.Body)
	if fd.Result.Kind == TVoid {
		c.emit(OpRet, 0, 0)
	} else {
		c.emit(OpConst, c.constIdx(ZeroValue(fd.Result)), 0)
		c.emit(OpRetVal, 0, 0)
	}
	c.fc.MaxStack = maxStack(prog, c.fc)
	c.fc.reuseFrames = slotsPrivate(c.fc)
	return c.fc, nil
}

// maxStack returns the deepest the operand stack of fc gets: a forward
// dataflow over the control-flow graph from depth 0 at entry. The
// compiler is structured, so every path reaches an instruction at the
// same depth; should two disagree the larger wins, and depths are capped
// at one push per instruction so a malformed loop cannot keep raising
// them. An underestimate would only cost the VM an append growth.
func maxStack(prog *Program, fc *FuncCode) int {
	n := len(fc.Instrs)
	if n == 0 {
		return 0
	}
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	work := []int{0}
	peak := 0
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := fc.Instrs[pc]
		d := depth[pc] - int(in.pops)
		switch {
		case in.Op == OpCall:
			if prog.Funcs[in.A].Result.Kind != TVoid {
				d++
			}
		case in.Op == OpCallNative:
			if prog.Natives.At(in.A).pushesResult() {
				d++
			}
		case int(in.Op) < len(opPushes):
			d += opPushes[in.Op]
		}
		d = min(max(d, 0), n)
		peak = max(peak, depth[pc], d)
		flow := func(next int) {
			if next >= 0 && next < n && depth[next] < d {
				depth[next] = d
				work = append(work, next)
			}
		}
		switch in.Op {
		case OpJmp:
			flow(in.A)
		case OpJmpFalse, OpJmpTrue:
			flow(in.A)
			flow(pc + 1)
		case OpRet, OpRetVal:
		default:
			flow(pc + 1)
		}
	}
	return peak
}

func lastLine(b *BlockStmt) int {
	if len(b.Stmts) == 0 {
		return b.Line
	}
	return b.Stmts[len(b.Stmts)-1].Pos()
}

func (c *fnCompiler) emit(op OpCode, a, b int) int {
	pc := len(c.fc.Instrs)
	c.fc.Instrs = append(c.fc.Instrs, Instr{
		Op: op, A: a, B: b, Line: c.line, StmtStart: c.stmtStart,
		pops: int32(popsOf(op, b)),
	})
	c.stmtStart = false
	return pc
}

func (c *fnCompiler) patch(pc, target int) { c.fc.Instrs[pc].A = target }

// emitLocal emits op, one of loadl, storel and addrl, on a local slot, or
// its capture twin (loadc, storec, addrc) when the slot is one of a
// parallel_for helper's by-reference params, which a worker's frame
// reaches through its capture list.
func (c *fnCompiler) emitLocal(op OpCode, slot int) {
	if slot >= 1 && slot <= c.fn.Captured {
		switch op {
		case OpLoadLocal:
			op = OpLoadCap
		case OpStoreLocal:
			op = OpStoreCap
		case OpAddrLocal:
			op = OpAddrCap
		}
	}
	c.emit(op, slot, 0)
}

func (c *fnCompiler) here() int { return len(c.fc.Instrs) }

func (c *fnCompiler) constIdx(v Value) int {
	// Small tables; linear dedup of scalar constants is fine and keeps
	// const pools compact for the big D2X string tables.
	for i, existing := range c.fc.Consts {
		if existing.Kind == v.Kind {
			switch v.Kind {
			case VInt, VBool:
				if existing.I == v.I {
					return i
				}
			case VFloat:
				if existing.F() == v.F() {
					return i
				}
			case VStr:
				if existing.S() == v.S() {
					return i
				}
			case VNull:
				return i
			}
		}
	}
	c.fc.Consts = append(c.fc.Consts, v)
	return len(c.fc.Consts) - 1
}

func (c *fnCompiler) typeIdx(t *Type) int {
	for i, existing := range c.fc.Types {
		if existing.Equal(t) {
			return i
		}
	}
	c.fc.Types = append(c.fc.Types, t)
	return len(c.fc.Types) - 1
}

func (c *fnCompiler) structIdx(sd *StructDef) int {
	for i, existing := range c.fc.StructRefs {
		if existing == sd {
			return i
		}
	}
	c.fc.StructRefs = append(c.fc.StructRefs, sd)
	return len(c.fc.StructRefs) - 1
}

// stmt marks the next emitted instruction as a statement boundary at the
// statement's line, then compiles it.
func (c *fnCompiler) stmt(s Stmt) error {
	c.line = s.Pos()
	c.stmtStart = true
	return c.stmtNoMark(s)
}

func (c *fnCompiler) block(b *BlockStmt) error {
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *fnCompiler) stmtNoMark(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		// A bare block is not itself a step target; its statements are.
		c.stmtStart = false
		return c.block(st)

	case *VarDeclStmt:
		if st.Init != nil {
			if err := c.expr(st.Init); err != nil {
				return err
			}
			c.castIfNeeded(st.Type, st.Init.Type())
		} else {
			c.emit(OpConst, c.constIdx(ZeroValue(st.Type)), 0)
		}
		c.emitLocal(OpStoreLocal, st.Slot)
		return nil

	case *AssignStmt:
		return c.assign(st)

	case *IncDecStmt:
		delta := int64(1)
		if st.Op == Dec {
			delta = -1
		}
		synth := &AssignStmt{
			stmtBase: stmtBase{Line: st.Line},
			Op:       PlusAssign,
			LHS:      st.LHS,
			RHS:      &IntLit{exprBase: exprBase{Line: st.Line, typ: IntType}, Value: delta},
		}
		return c.assign(synth)

	case *ExprStmt:
		if err := c.expr(st.X); err != nil {
			return err
		}
		if st.X.Type().Kind != TVoid {
			c.emit(OpPop, 0, 0)
		}
		return nil

	case *IfStmt:
		if err := c.expr(st.Cond); err != nil {
			return err
		}
		jf := c.emit(OpJmpFalse, 0, 0)
		if err := c.block(st.Then); err != nil {
			return err
		}
		if st.Else == nil {
			c.patch(jf, c.here())
			return nil
		}
		jEnd := c.emit(OpJmp, 0, 0)
		c.patch(jf, c.here())
		if err := c.stmt(st.Else); err != nil {
			return err
		}
		c.patch(jEnd, c.here())
		return nil

	case *WhileStmt:
		top := c.here()
		c.line = st.Line
		if err := c.expr(st.Cond); err != nil {
			return err
		}
		jf := c.emit(OpJmpFalse, 0, 0)
		c.pushLoop()
		if err := c.block(st.Body); err != nil {
			return err
		}
		c.patchContinues(top)
		c.emit(OpJmp, top, 0)
		c.patch(jf, c.here())
		c.patchBreaks(c.here())
		c.popLoop()
		return nil

	case *ForStmt:
		if st.Init != nil {
			if err := c.stmtNoMark(st.Init); err != nil {
				return err
			}
		}
		top := c.here()
		var jf int = -1
		if st.Cond != nil {
			c.line = st.Line
			if err := c.expr(st.Cond); err != nil {
				return err
			}
			jf = c.emit(OpJmpFalse, 0, 0)
		}
		c.pushLoop()
		if err := c.block(st.Body); err != nil {
			return err
		}
		post := c.here()
		c.patchContinues(post)
		if st.Post != nil {
			c.line = st.Post.Pos()
			if err := c.stmtNoMark(st.Post); err != nil {
				return err
			}
		}
		c.emit(OpJmp, top, 0)
		if jf >= 0 {
			c.patch(jf, c.here())
		}
		c.patchBreaks(c.here())
		c.popLoop()
		return nil

	case *ParallelForStmt:
		if err := c.expr(st.Lo); err != nil {
			return err
		}
		if err := c.expr(st.Hi); err != nil {
			return err
		}
		info := ParForInfo{Helper: st.HelperIndex, Captured: st.capturedSlot}
		c.fc.ParFors = append(c.fc.ParFors, info)
		c.emit(OpParFor, len(c.fc.ParFors)-1, 0)
		return nil

	case *ReturnStmt:
		if st.X == nil {
			c.emit(OpRet, 0, 0)
			return nil
		}
		if err := c.expr(st.X); err != nil {
			return err
		}
		c.castIfNeeded(c.fn.Result, st.X.Type())
		c.emit(OpRetVal, 0, 0)
		return nil

	case *BreakStmt:
		pc := c.emit(OpJmp, 0, 0)
		last := len(c.breakPatch) - 1
		c.breakPatch[last] = append(c.breakPatch[last], pc)
		return nil

	case *ContinueStmt:
		pc := c.emit(OpJmp, 0, 0)
		last := len(c.continuePatch) - 1
		c.continuePatch[last] = append(c.continuePatch[last], pc)
		return nil
	}
	return fmt.Errorf("minic: cannot compile statement %T", s)
}

func (c *fnCompiler) pushLoop() {
	c.breakPatch = append(c.breakPatch, nil)
	c.continuePatch = append(c.continuePatch, nil)
}

func (c *fnCompiler) popLoop() {
	c.breakPatch = c.breakPatch[:len(c.breakPatch)-1]
	c.continuePatch = c.continuePatch[:len(c.continuePatch)-1]
}

func (c *fnCompiler) patchBreaks(target int) {
	for _, pc := range c.breakPatch[len(c.breakPatch)-1] {
		c.patch(pc, target)
	}
}

func (c *fnCompiler) patchContinues(target int) {
	for _, pc := range c.continuePatch[len(c.continuePatch)-1] {
		c.patch(pc, target)
	}
}

// castIfNeeded emits the implicit int->float widening on stores into
// float-typed locations, keeping the invariant that float cells always
// hold float values (so `/` means float division there).
func (c *fnCompiler) castIfNeeded(dst, src *Type) {
	if dst != nil && src != nil && dst.Kind == TFloat && src.Kind == TInt {
		c.emit(OpCastFloat, 0, 0)
	}
}

func (c *fnCompiler) assign(st *AssignStmt) error {
	lt := st.LHS.Type()
	op := Assign // or the operator of a compound assignment
	switch st.Op {
	case Assign:
	case PlusAssign:
		op = Plus
	case MinusAssign:
		op = Minus
	default:
		return fmt.Errorf("minic: unknown assignment operator %s", st.Op)
	}
	// A plain variable is loaded and stored directly: taking a local's
	// address would keep its function's frames from being reused.
	if id, ok := st.LHS.(*Ident); ok {
		if op != Assign {
			if err := c.expr(id); err != nil {
				return err
			}
		}
		if err := c.assignedValue(op, lt, st.RHS); err != nil {
			return err
		}
		if id.IsGlobal {
			c.emit(OpStoreGlobal, id.GlobalIndex, 0)
		} else {
			c.emitLocal(OpStoreLocal, id.Slot)
		}
		return nil
	}
	if err := c.addr(st.LHS); err != nil {
		return err
	}
	if op != Assign {
		c.emit(OpDup, 0, 0)
		c.emit(OpLoadInd, 0, 0)
	}
	if err := c.assignedValue(op, lt, st.RHS); err != nil {
		return err
	}
	c.emit(OpStoreInd, 0, 0)
	return nil
}

// assignedValue compiles the value an assignment stores into a location of
// type lt: rhs, applied with op to the location's value already on the
// stack unless op is Assign, and widened to float where lt is float.
func (c *fnCompiler) assignedValue(op Kind, lt *Type, rhs Expr) error {
	if err := c.expr(rhs); err != nil {
		return err
	}
	if op != Assign {
		c.emit(OpBin, int(op), 0)
	}
	c.castIfNeeded(lt, rhs.Type())
	return nil
}

// addr compiles the address of an addressable expression onto the stack.
func (c *fnCompiler) addr(e Expr) error {
	switch x := e.(type) {
	case *Ident:
		if x.IsGlobal {
			c.emit(OpAddrGlobal, x.GlobalIndex, 0)
		} else {
			c.emitLocal(OpAddrLocal, x.Slot)
		}
		return nil
	case *IndexExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		if err := c.expr(x.Index); err != nil {
			return err
		}
		c.emit(OpIndexAddr, 0, 0)
		return nil
	case *FieldExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		c.emit(OpFieldAddr, x.FieldIndex, 0)
		return nil
	case *UnaryExpr:
		if x.Op == Star {
			return c.expr(x.X)
		}
	}
	return fmt.Errorf("minic: expression %T is not addressable", e)
}

func (c *fnCompiler) expr(e Expr) error {
	switch x := e.(type) {
	case *IntLit:
		c.emit(OpConst, c.constIdx(IntVal(x.Value)), 0)
	case *FloatLit:
		c.emit(OpConst, c.constIdx(FloatVal(x.Value)), 0)
	case *BoolLit:
		c.emit(OpConst, c.constIdx(BoolVal(x.Value)), 0)
	case *StringLit:
		c.emit(OpConst, c.constIdx(StrVal(x.Value)), 0)
	case *NullLit:
		c.emit(OpConst, c.constIdx(NullVal()), 0)

	case *Ident:
		if x.IsFunc {
			return fmt.Errorf("minic: function %q used as a value at line %d", x.Name, x.Line)
		}
		if x.IsGlobal {
			c.emit(OpLoadGlobal, x.GlobalIndex, 0)
		} else {
			c.emitLocal(OpLoadLocal, x.Slot)
		}

	case *BinaryExpr:
		if x.Op == AndAnd || x.Op == OrOr {
			if err := c.expr(x.X); err != nil {
				return err
			}
			c.emit(OpDup, 0, 0)
			var jshort int
			if x.Op == AndAnd {
				jshort = c.emit(OpJmpFalse, 0, 0)
			} else {
				jshort = c.emit(OpJmpTrue, 0, 0)
			}
			c.emit(OpPop, 0, 0)
			if err := c.expr(x.Y); err != nil {
				return err
			}
			c.patch(jshort, c.here())
			return nil
		}
		if err := c.expr(x.X); err != nil {
			return err
		}
		if err := c.expr(x.Y); err != nil {
			return err
		}
		c.emit(OpBin, int(x.Op), 0)

	case *UnaryExpr:
		switch x.Op {
		case Amp:
			return c.addr(x.X)
		case Star:
			if err := c.expr(x.X); err != nil {
				return err
			}
			c.emit(OpLoadInd, 0, 0)
		default:
			if err := c.expr(x.X); err != nil {
				return err
			}
			c.emit(OpUn, int(x.Op), 0)
		}

	case *IndexExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		if err := c.expr(x.Index); err != nil {
			return err
		}
		c.emit(OpIndexLoad, 0, 0)

	case *FieldExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		c.emit(OpFieldLoad, x.FieldIndex, 0)

	case *CallExpr:
		if x.IsBuiltin {
			nat := c.prog.Natives.At(x.BuiltinIndex)
			for i, a := range x.Args {
				if err := c.expr(a); err != nil {
					return err
				}
				if i < len(nat.Sig.Params) {
					c.castIfNeeded(nat.Sig.Params[i], a.Type())
				}
			}
			c.emit(OpCallNative, x.BuiltinIndex, len(x.Args))
			return nil
		}
		fd := c.prog.Funcs[x.FuncIndex]
		for i, a := range x.Args {
			if err := c.expr(a); err != nil {
				return err
			}
			c.castIfNeeded(fd.Params[i].Type, a.Type())
		}
		c.emit(OpCall, x.FuncIndex, len(x.Args))

	case *NewExpr:
		if x.Count != nil {
			if err := c.expr(x.Count); err != nil {
				return err
			}
			c.emit(OpNewArr, c.typeIdx(x.ElemType), 0)
		} else {
			sd := c.prog.Structs[x.ElemType.Name]
			c.emit(OpNewStruct, c.structIdx(sd), 0)
		}

	case *CastExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		switch x.Target.Kind {
		case TInt:
			c.emit(OpCastInt, 0, 0)
		case TFloat:
			c.emit(OpCastFloat, 0, 0)
		case TBool:
			c.emit(OpCastBool, 0, 0)
		case TString:
			// string(x) on a string is the identity.
		}

	default:
		return fmt.Errorf("minic: cannot compile expression %T", e)
	}
	return nil
}
