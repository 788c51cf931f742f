// Package debugify is a per-pass debug-info preservation analysis for
// the mini-C optimiser, after LLVM's `debugify` utility and the
// methodology of "Who's Debugging the Debuggers?" (Di Luna et al.): the
// class of bug where an optimisation silently drops or mis-attributes
// debug metadata is endemic in production toolchains, and it is exactly
// the class that would detach D2X's tables from the code they describe —
// the D2X design leans entirely on "optimisation changes code, not line
// attribution".
//
// The analysis works on synthetic metadata so it needs no ground truth:
//
//  1. Instrument replaces every statement's and expression's source line
//     with a unique synthetic location id, remembering the original line,
//     each expression's owning statement, and (via the checker) each
//     function's variable set.
//  2. Each optimiser pass (minic.Passes) runs individually over the
//     instrumented module.
//  3. After every pass the module is re-scanned and verified:
//     (a) no surviving statement or expression lost its location
//     (a zero or unknown id — FindingLocMissing / FindingLocInvented);
//     (b) no location was re-attributed to a different original
//     statement unless the pass declared the remap through
//     minic.RemapSet — the explicit escape hatch for passes that
//     merge or re-home code (FindingLocReattributed);
//     (c) the per-function variable sets the debug tables would claim
//     were not widened — a pass may eliminate a variable, never
//     invent one (FindingVarWidened).
//
// The result is a typed per-pass Report. d2xverify exposes it as the
// opt/debugify-* checks; cmd/d2xfuzz runs it over every generated corpus
// program; d2xlint -debugify prints the per-pass preservation summary.
package debugify

import (
	"fmt"

	"d2x/internal/minic"
)

// FindingKind classifies one preservation violation.
type FindingKind int

const (
	// FindingLocMissing: a surviving statement or expression carries no
	// location (line <= 0).
	FindingLocMissing FindingKind = iota
	// FindingLocInvented: a surviving node carries a location id that was
	// never assigned — the pass fabricated a line number.
	FindingLocInvented
	// FindingLocReattributed: a surviving node carries a location that
	// belonged to different code before the pass ran, and the pass did
	// not declare the remap.
	FindingLocReattributed
	// FindingVarWidened: after the pass, a function's variable set
	// contains a name it did not contain before — the emitted debug
	// tables would claim a variable the original program never had.
	FindingVarWidened
	// FindingCheckFailed: the module no longer type-checks after the
	// pass, so its debug metadata cannot be validated at all.
	FindingCheckFailed
)

// String renders the kind as its stable slug.
func (k FindingKind) String() string {
	switch k {
	case FindingLocMissing:
		return "loc-missing"
	case FindingLocInvented:
		return "loc-invented"
	case FindingLocReattributed:
		return "loc-reattributed"
	case FindingVarWidened:
		return "var-widened"
	case FindingCheckFailed:
		return "check-failed"
	}
	return fmt.Sprintf("FindingKind(%d)", int(k))
}

// Finding is one preservation violation observed after one pass.
type Finding struct {
	Pass   string
	Kind   FindingKind
	Line   int // original source line of the affected location (0 if unknown)
	Detail string
}

// String renders the finding for diagnostics.
func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Pass, f.Kind, f.Detail)
}

// PassReport is the preservation outcome of one pass.
type PassReport struct {
	Pass     string
	Rewrites int
	// Location population before/after the pass (statements +
	// expressions), the denominator of the preservation rate.
	LocsBefore, LocsAfter int
	// Total variable slots across functions before/after the pass.
	VarsBefore, VarsAfter int
	Findings              []Finding
}

// Clean reports whether the pass preserved everything it had to.
func (p *PassReport) Clean() bool { return len(p.Findings) == 0 }

// Report aggregates the per-pass outcomes of one debugify run.
type Report struct {
	Passes []PassReport
	// VarCheckNote is non-empty when the variable-widening check could
	// not run (the baseline module did not type-check, e.g. because the
	// caller supplied no native registry for linked functions); location
	// checks still ran.
	VarCheckNote string
}

// Clean reports whether every pass preserved its debug metadata.
func (r *Report) Clean() bool {
	for i := range r.Passes {
		if !r.Passes[i].Clean() {
			return false
		}
	}
	return true
}

// Findings returns every finding across all passes, in pass order.
func (r *Report) Findings() []Finding {
	var out []Finding
	for i := range r.Passes {
		out = append(out, r.Passes[i].Findings...)
	}
	return out
}

// PassFunc is one optimiser pass under test: it rewrites the file in
// place, declares any intentional re-attributions into rm, and returns
// its rewrite count. minic's declared passes are adapted via their
// RunTraced method; synthetic misbehaving passes in tests implement it
// directly.
type PassFunc func(f *minic.File, rm *minic.RemapSet) int

// Module is an instrumented mini-C translation unit: every statement and
// expression carries a unique synthetic location id, and the module
// remembers enough pre-pass state to verify preservation after each
// pass. A Module is single-use — drive passes over it in order.
type Module struct {
	file *minic.File
	nats *minic.Natives

	origLine map[int]int  // id -> original source line
	stmtIDs  map[int]bool // ids assigned to statements (and global pseudo-statements)
	exprIDs  map[int]bool // ids assigned to expressions
	globalID []int        // global index -> pseudo owner id

	// Rolling pre-pass snapshot, updated after each verified pass.
	prevStmts map[int]bool
	prevOwner map[int]int
	prevVars  map[string]map[string]bool
	varsOK    bool
	varNote   string

	nextID int
}

// Instrument numbers every statement and expression of f with a unique
// synthetic location id and snapshots the baseline variable sets. The
// file is mutated in place; parse a dedicated copy. nats is the native
// registry the module's calls resolve against (nil for builtin-only
// sources); without the right registry the variable check is skipped.
func Instrument(f *minic.File, nats *minic.Natives) *Module {
	if nats == nil {
		nats = minic.NewNatives()
	}
	m := &Module{
		file:     f,
		nats:     nats,
		origLine: map[int]int{},
		stmtIDs:  map[int]bool{},
		exprIDs:  map[int]bool{},
		nextID:   1,
	}
	for _, g := range f.Globals {
		id := m.newID(g.Line)
		m.stmtIDs[id] = true
		m.globalID = append(m.globalID, id)
		m.instrumentExpr(g.Init)
	}
	for _, fd := range f.Funcs {
		minic.InspectStmts(fd.Body, func(s minic.Stmt) bool {
			id := m.newID(s.Pos())
			m.stmtIDs[id] = true
			setStmtLine(s, id)
			minic.StmtExprs(s, func(e minic.Expr) {
				m.instrumentExpr(e)
			})
			return true
		})
	}
	st := m.scan()
	m.prevStmts, m.prevOwner = st.stmts, st.owner
	if vars, err := m.checkVars(); err != nil {
		m.varsOK = false
		m.varNote = fmt.Sprintf("variable check disabled: baseline module does not type-check: %v", err)
	} else {
		m.varsOK = true
		m.prevVars = vars
	}
	return m
}

func (m *Module) newID(origLine int) int {
	id := m.nextID
	m.nextID++
	m.origLine[id] = origLine
	return id
}

func (m *Module) instrumentExpr(root minic.Expr) {
	minic.InspectExpr(root, func(e minic.Expr) {
		id := m.newID(e.Pos())
		m.exprIDs[id] = true
		setExprLine(e, id)
	})
}

// OrigLine maps a synthetic id back to its original source line.
func (m *Module) OrigLine(id int) int { return m.origLine[id] }

// RunPass runs one pass over the instrumented module and verifies the
// preservation invariants against the pre-pass state.
func (m *Module) RunPass(name string, fn PassFunc) PassReport {
	before := m.scan()
	rm := &minic.RemapSet{}
	rewrites := fn(m.file, rm)
	after := m.scan()

	rep := PassReport{
		Pass:       name,
		Rewrites:   rewrites,
		LocsBefore: len(before.stmts) + len(before.owner),
		LocsAfter:  len(after.stmts) + len(after.owner),
	}
	m.verifyLocations(&rep, before, after, rm)
	m.verifyVars(&rep)

	// The verified post-state becomes the next pass's pre-state.
	m.prevStmts, m.prevOwner = after.stmts, after.owner
	return rep
}

// RunDeclaredPasses drives every declared optimiser pass in order,
// exactly as Optimize would execute one round, and returns the
// per-pass preservation report.
func (m *Module) RunDeclaredPasses() *Report {
	rep := &Report{VarCheckNote: m.varNote}
	for _, p := range minic.Passes() {
		pass := p // capture
		rep.Passes = append(rep.Passes, m.RunPass(pass.Name, func(f *minic.File, rm *minic.RemapSet) int {
			return pass.RunTraced(f, rm)
		}))
	}
	return rep
}

// Run parses source, instruments it, and drives every declared
// optimiser pass, returning the preservation report. nats is the native
// registry of the build that produced the source (nil for builtin-only
// sources).
func Run(filename, source string, nats *minic.Natives) (*Report, error) {
	f, err := minic.Parse(filename, source)
	if err != nil {
		return nil, fmt.Errorf("debugify: %w", err)
	}
	return Instrument(f, nats).RunDeclaredPasses(), nil
}

// scanState is one snapshot of the module's location population.
type scanState struct {
	stmts    map[int]bool
	stmtDups []int
	owner    map[int]int // expr id -> owning statement id
	// raw worklists for verification: every surviving (id, owner) pair,
	// including invalid ids the maps above cannot hold.
	nodes []scanNode
}

type scanNode struct {
	id    int
	owner int  // owning statement id (for expressions); 0 for statements
	expr  bool // true when the node is an expression
}

// scan walks the module and collects every surviving location.
func (m *Module) scan() *scanState {
	st := &scanState{stmts: map[int]bool{}, owner: map[int]int{}}
	for gi, g := range m.file.Globals {
		ownerID := m.globalID[gi]
		st.stmts[ownerID] = true
		st.nodes = append(st.nodes, scanNode{id: ownerID})
		minic.InspectExpr(g.Init, func(e minic.Expr) {
			st.addExpr(e.Pos(), ownerID)
		})
	}
	for _, fd := range m.file.Funcs {
		minic.InspectStmts(fd.Body, func(s minic.Stmt) bool {
			id := s.Pos()
			if st.stmts[id] {
				st.stmtDups = append(st.stmtDups, id)
			}
			st.stmts[id] = true
			st.nodes = append(st.nodes, scanNode{id: id})
			minic.StmtExprs(s, func(root minic.Expr) {
				minic.InspectExpr(root, func(e minic.Expr) {
					st.addExpr(e.Pos(), id)
				})
			})
			return true
		})
	}
	return st
}

func (st *scanState) addExpr(id, ownerID int) {
	if _, dup := st.owner[id]; !dup {
		st.owner[id] = ownerID
	}
	st.nodes = append(st.nodes, scanNode{id: id, owner: ownerID, expr: true})
}

// verifyLocations applies checks (a) and (b) to the post-pass scan.
func (m *Module) verifyLocations(rep *PassReport, before, after *scanState, rm *minic.RemapSet) {
	seenFinding := map[string]bool{}
	add := func(kind FindingKind, id int, format string, args ...any) {
		detail := fmt.Sprintf(format, args...)
		// One finding per (kind, detail): a shared subtree re-scanned
		// through several paths must not flood the report.
		key := fmt.Sprintf("%d|%s", kind, detail)
		if seenFinding[key] {
			return
		}
		seenFinding[key] = true
		rep.Findings = append(rep.Findings, Finding{
			Pass: rep.Pass, Kind: kind, Line: m.origLine[id], Detail: detail,
		})
	}

	for _, dup := range after.stmtDups {
		add(FindingLocReattributed, dup,
			"location %d (orig line %d) appears on more than one surviving statement", dup, m.origLine[dup])
	}
	for _, n := range after.nodes {
		switch {
		case n.id <= 0:
			what := "statement"
			if n.expr {
				what = "expression"
			}
			add(FindingLocMissing, n.id, "surviving %s lost its location", what)
		case !n.expr:
			if !m.stmtIDs[n.id] {
				if m.exprIDs[n.id] {
					add(FindingLocReattributed, n.id,
						"statement carries expression location %d (orig line %d)", n.id, m.origLine[n.id])
				} else {
					add(FindingLocInvented, n.id, "statement carries unassigned location %d", n.id)
				}
			} else if !before.stmts[n.id] {
				add(FindingLocReattributed, n.id,
					"statement location %d (orig line %d) was not live before this pass", n.id, m.origLine[n.id])
			}
		default: // expression
			if m.exprIDs[n.id] {
				prevOwner, had := before.owner[n.id]
				switch {
				case !had:
					if !rm.Declared(n.id, n.owner) {
						add(FindingLocReattributed, n.id,
							"expression location %d (orig line %d) was not live before this pass", n.id, m.origLine[n.id])
					}
				case prevOwner != n.owner:
					if !rm.Declared(prevOwner, n.owner) && !rm.Declared(n.id, n.owner) {
						add(FindingLocReattributed, n.id,
							"expression location %d (orig line %d) moved from statement %d (orig line %d) to statement %d (orig line %d) without a declared remap",
							n.id, m.origLine[n.id], prevOwner, m.origLine[prevOwner], n.owner, m.origLine[n.owner])
					}
				}
			} else if m.stmtIDs[n.id] {
				// A new expression placed at its own statement's location is
				// the correct production behaviour; any other statement's
				// location is a re-attribution.
				if n.id != n.owner && !rm.Declared(n.id, n.owner) {
					add(FindingLocReattributed, n.id,
						"expression carries statement location %d (orig line %d) inside a different statement", n.id, m.origLine[n.id])
				}
			} else {
				add(FindingLocInvented, n.id, "expression carries unassigned location %d", n.id)
			}
		}
	}
}

// verifyVars applies check (c): the per-function variable sets must not
// widen.
func (m *Module) verifyVars(rep *PassReport) {
	if !m.varsOK {
		return
	}
	for _, set := range m.prevVars {
		rep.VarsBefore += len(set)
	}
	vars, err := m.checkVars()
	if err != nil {
		rep.Findings = append(rep.Findings, Finding{
			Pass: rep.Pass, Kind: FindingCheckFailed,
			Detail: fmt.Sprintf("module does not type-check after pass: %v", err),
		})
		m.varsOK = false
		return
	}
	for fn, set := range vars {
		rep.VarsAfter += len(set)
		prev, ok := m.prevVars[fn]
		if !ok {
			rep.Findings = append(rep.Findings, Finding{
				Pass: rep.Pass, Kind: FindingVarWidened,
				Detail: fmt.Sprintf("function %q appeared during optimisation", fn),
			})
			continue
		}
		for name := range set {
			if !prev[name] {
				rep.Findings = append(rep.Findings, Finding{
					Pass: rep.Pass, Kind: FindingVarWidened,
					Detail: fmt.Sprintf("function %q gained variable %q — the debug tables would claim liveness the original never had", fn, name),
				})
			}
		}
	}
	m.prevVars = vars
}

// checkVars type-checks the module and returns each function's variable
// set (parameters + locals, the names the debug info would claim).
func (m *Module) checkVars() (map[string]map[string]bool, error) {
	if _, err := minic.Check(m.file, m.nats); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]bool, len(m.file.Funcs))
	for _, fd := range m.file.Funcs {
		set := make(map[string]bool, len(fd.SlotNames))
		for _, name := range fd.SlotNames {
			set[name] = true
		}
		out[fd.Name] = set
	}
	return out, nil
}

// setStmtLine writes a synthetic location id into a statement node.
func setStmtLine(s minic.Stmt, id int) {
	switch st := s.(type) {
	case *minic.BlockStmt:
		st.Line = id
	case *minic.VarDeclStmt:
		st.Line = id
	case *minic.AssignStmt:
		st.Line = id
	case *minic.IncDecStmt:
		st.Line = id
	case *minic.ExprStmt:
		st.Line = id
	case *minic.IfStmt:
		st.Line = id
	case *minic.WhileStmt:
		st.Line = id
	case *minic.ForStmt:
		st.Line = id
	case *minic.ParallelForStmt:
		st.Line = id
	case *minic.ReturnStmt:
		st.Line = id
	case *minic.BreakStmt:
		st.Line = id
	case *minic.ContinueStmt:
		st.Line = id
	}
}

// setExprLine writes a synthetic location id into an expression node.
func setExprLine(e minic.Expr, id int) {
	switch x := e.(type) {
	case *minic.IntLit:
		x.Line = id
	case *minic.FloatLit:
		x.Line = id
	case *minic.BoolLit:
		x.Line = id
	case *minic.StringLit:
		x.Line = id
	case *minic.NullLit:
		x.Line = id
	case *minic.ArrayLit:
		x.Line = id
	case *minic.Ident:
		x.Line = id
	case *minic.BinaryExpr:
		x.Line = id
	case *minic.UnaryExpr:
		x.Line = id
	case *minic.IndexExpr:
		x.Line = id
	case *minic.FieldExpr:
		x.Line = id
	case *minic.CallExpr:
		x.Line = id
	case *minic.NewExpr:
		x.Line = id
	case *minic.CastExpr:
		x.Line = id
	}
}
