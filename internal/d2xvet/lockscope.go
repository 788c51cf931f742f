package d2xvet

import (
	"go/ast"
	"go/token"
)

// LockScopeAnalyzer enforces lock scope discipline: while a mutex is
// held, a function must not perform a channel operation, select,
// known-blocking call (time.Sleep, WaitGroup.Wait), or a second Lock on
// a different mutex. Each of those either parks the goroutine while
// every other goroutine contending for the lock waits, or opens a
// lock-order inversion. sync.Cond.Wait is deliberately not flagged:
// waiting with the lock held is the condition-variable contract.
//
// The region tracking is syntactic and intra-function: a statement
// `x.mu.Lock()` opens the region for the lock expression `x.mu` until a
// matching `x.mu.Unlock()` statement in the same or an inner block;
// `defer x.mu.Unlock()` holds it to function end. Function literals
// reset the held set (their bodies run elsewhere), except immediately
// invoked ones.
var LockScopeAnalyzer = &Analyzer{
	Name: "lockscope",
	Doc:  "no blocking operation or second Lock while a mutex is held",
	Run:  runLockScope,
}

func runLockScope(p *Pass) error {
	p.eachFunc(func(fi funcInfo) {
		w := &lockWalker{p: p, fi: fi}
		w.block(fi.body.List, map[string]bool{})
	})
	return nil
}

type lockWalker struct {
	p  *Pass
	fi funcInfo
}

// lockCall matches `<expr>.Lock()` / `.RLock()` / `.Unlock()` /
// `.RUnlock()` statements, returning the lock expression spine.
func lockCall(e ast.Expr) (lockExpr string, method string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return exprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// block walks a statement list with the set of held lock expressions.
// The set is copied per nested block so sibling branches don't leak
// acquisitions into each other.
func (w *lockWalker) block(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		w.stmt(s, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if lock, method, ok := lockCall(s.X); ok {
			switch method {
			case "Lock", "RLock":
				if len(held) > 0 && !held[lock] {
					w.p.Reportf(s.Pos(), "acquires %s while %s is held: nested locks invert order under contention", lock, anyHeld(held))
				}
				held[lock] = true
			case "Unlock", "RUnlock":
				delete(held, lock)
			}
			return
		}
		w.checkExpr(s.X, held)
	case *ast.DeferStmt:
		if lock, method, ok := lockCall(s.Call); ok && (method == "Unlock" || method == "RUnlock") {
			// Held to function end; the region stays open, which is
			// exactly what we want to keep checking.
			_ = lock
			return
		}
		w.checkExpr(s.Call, held)
	case *ast.SendStmt:
		w.reportHeld(held, s.Pos(), "channel send")
	case *ast.SelectStmt:
		w.reportHeld(held, s.Pos(), "select")
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.GoStmt:
		// Goroutine launch doesn't block; its body runs without our
		// locks.
		w.walkLits(s.Call, map[string]bool{})
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.checkExpr(s.Cond, held)
		w.block(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.BlockStmt:
		w.block(s.List, copyHeld(held))
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, held)
		}
		w.block(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		w.checkExpr(s.X, held)
		w.block(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.IncDecStmt:
		w.checkExpr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, held)
					}
				}
			}
		}
	}
}

func anyHeld(held map[string]bool) string {
	for k := range held {
		return k
	}
	return "?"
}

// checkExpr scans an expression for receives and blocking calls
// performed with locks held. Function literals inside the
// expression are walked with an empty held set.
func (w *lockWalker) checkExpr(e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		w.walkLits(e, map[string]bool{})
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.block(n.Body.List, map[string]bool{})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportHeld(held, n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if fn := staticCallee(w.p.Info, n); fn != nil {
				switch FuncKey(fn) {
				case "time.Sleep", "sync.WaitGroup.Wait":
					w.reportHeld(held, n.Pos(), FuncKey(fn))
				}
			}
		}
		return true
	})
}

// walkLits visits function literals in an expression so their bodies
// still get lock tracking of their own.
func (w *lockWalker) walkLits(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.block(lit.Body.List, copyHeld(held))
			return false
		}
		return true
	})
}

func (w *lockWalker) reportHeld(held map[string]bool, pos token.Pos, what string) {
	if len(held) == 0 {
		return
	}
	w.p.Reportf(pos, "%s while %s is held blocks every goroutine contending for the lock", what, anyHeld(held))
}
