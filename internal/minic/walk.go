package minic

// AST traversal helpers for analysis passes (the d2xverify linter, and
// any future tooling that inspects checked programs).

// InspectStmts walks every statement under b depth-first in source
// order, calling fn before descending. fn returning false prunes the
// walk below that statement (its nested blocks are skipped). Note that
// ParallelForStmt bodies ARE visited; analyses that treat the helper
// function as a separate unit must prune there.
func InspectStmts(b *BlockStmt, fn func(Stmt) bool) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		inspectStmt(s, fn)
	}
}

func inspectStmt(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch st := s.(type) {
	case *BlockStmt:
		for _, c := range st.Stmts {
			inspectStmt(c, fn)
		}
	case *IfStmt:
		inspectStmt(st.Then, fn)
		if st.Else != nil {
			inspectStmt(st.Else, fn)
		}
	case *WhileStmt:
		inspectStmt(st.Body, fn)
	case *ForStmt:
		if st.Init != nil {
			inspectStmt(st.Init, fn)
		}
		if st.Post != nil {
			inspectStmt(st.Post, fn)
		}
		inspectStmt(st.Body, fn)
	case *ParallelForStmt:
		inspectStmt(st.Body, fn)
	}
}

// StmtExprs calls fn for each top-level expression owned directly by s
// (conditions, initialisers, operands) without descending into nested
// statements or into sub-expressions; combine with InspectExpr for a
// deep expression walk.
func StmtExprs(s Stmt, fn func(Expr)) {
	emit := func(e Expr) {
		if e != nil {
			fn(e)
		}
	}
	switch st := s.(type) {
	case *VarDeclStmt:
		emit(st.Init)
	case *AssignStmt:
		emit(st.LHS)
		emit(st.RHS)
	case *IncDecStmt:
		emit(st.LHS)
	case *ExprStmt:
		emit(st.X)
	case *IfStmt:
		emit(st.Cond)
	case *WhileStmt:
		emit(st.Cond)
	case *ForStmt:
		emit(st.Cond)
	case *ParallelForStmt:
		emit(st.Lo)
		emit(st.Hi)
	case *ReturnStmt:
		emit(st.X)
	}
}

// InspectExpr walks the expression tree rooted at e depth-first,
// calling fn on every node including e itself.
func InspectExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		InspectExpr(x.X, fn)
		InspectExpr(x.Y, fn)
	case *UnaryExpr:
		InspectExpr(x.X, fn)
	case *IndexExpr:
		InspectExpr(x.X, fn)
		InspectExpr(x.Index, fn)
	case *FieldExpr:
		InspectExpr(x.X, fn)
	case *CallExpr:
		for _, a := range x.Args {
			InspectExpr(a, fn)
		}
	case *NewExpr:
		InspectExpr(x.Count, fn)
	case *CastExpr:
		InspectExpr(x.X, fn)
	case *ArrayLit:
		for _, el := range x.Elems {
			InspectExpr(el, fn)
		}
	}
}
