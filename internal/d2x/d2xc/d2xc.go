// Package d2xc is the D2X compiler library (D2X-C): the half of D2X a DSL
// compiler links against while it generates low-level code (paper §3.1,
// §4.1, Table 1). For every line of generated code the DSL compiler
// records (a) a stack of DSL source locations — the "extended stack" — and
// (b) a set of key/value extended variables whose values are either
// constant strings (compiler internal state, e.g. dataflow results) or
// runtime value handlers evaluated inside the debuggee at debug time.
//
// EmitSectionInfo/EmitTables then serialise the tables as plain data and
// code in the generated program itself, so no debugger or debug-info
// format ever needs extending.
package d2xc

import (
	"fmt"
	"runtime"

	"d2x/internal/srcloc"
)

// VarKind discriminates extended-variable values.
type VarKind int

const (
	// VarConst is a constant string captured at compile time.
	VarConst VarKind = iota
	// VarHandler names a runtime value handler: a function generated into
	// the program that receives the variable's key and returns its value
	// as a string, evaluated at debug time (paper's rtv_handler).
	VarHandler
)

// RTVHandler identifies a runtime value handler by the name of the
// generated function implementing it. The paper constructs handlers from
// staged lambdas; in this reproduction the DSL compiler emits the handler
// function into the generated program and refers to it by name. The
// handler's signature in the generated language must be
//
//	func string <name>(string key)
//
// and it may call the D2X runtime API (d2x_find_stack_var) to reach stack
// variables of the paused program.
type RTVHandler struct {
	FuncName string
}

// VarEntry is one extended variable binding at one generated line.
type VarEntry struct {
	Key  string
	Kind VarKind
	Val  string // constant value or handler function name
}

// Record is the debug information of a single generated source line.
type Record struct {
	GenLine int
	Stack   srcloc.Stack // innermost-first extended stack
	Vars    []VarEntry
}

// Section is a contiguous region of generated lines tracked by D2X-C.
type Section struct {
	StartLine int
	Records   []Record
}

type liveVar struct {
	key     string
	kind    VarKind
	val     string
	deleted bool
}

// JournalOp discriminates the operations recorded in a Context's journal.
type JournalOp int

const (
	OpBeginSection JournalOp = iota
	OpEndSection
	OpPushScope
	OpPopScope
	OpCreateVar
	OpUpdateVar
	OpDeleteVar
)

// String names the operation for diagnostics.
func (op JournalOp) String() string {
	switch op {
	case OpBeginSection:
		return "BeginSection"
	case OpEndSection:
		return "EndSection"
	case OpPushScope:
		return "PushScope"
	case OpPopScope:
		return "PopScope"
	case OpCreateVar:
		return "CreateVar"
	case OpUpdateVar:
		return "UpdateVar"
	case OpDeleteVar:
		return "DeleteVar"
	default:
		return fmt.Sprintf("JournalOp(%d)", int(op))
	}
}

// JournalEvent is one recorded scope/variable/section operation: what
// happened, at which generated line (0 when no section was open), and —
// for variable events — the key involved. The journal is the raw
// material for static verification of a DSL compiler's D2X usage
// (d2xverify's scope checks): the tables alone cannot reconstruct
// whether scopes were balanced, the journal can.
type JournalEvent struct {
	Op        JournalOp
	Line      int // generated line at event time; 0 outside a section
	Key       string
	InSection bool
}

// Context accumulates D2X debug information during code generation —
// the d2x_context of the paper. Typical use:
//
//	ctx := d2xc.NewContext()
//	ctx.BeginSectionAt(emitter.Line())
//	... for each generated line:
//	ctx.PushSourceLoc(...); ctx.SetVar(...); emit code; ctx.Nextl()
//	ctx.EndSection()
//	ctx.EmitSectionInfo(w)
type Context struct {
	sections []*Section
	cur      *Section
	curLine  int

	pendingStack srcloc.Stack
	pendingVars  []VarEntry

	scopes [][]*liveVar

	journal []JournalEvent

	emitted int // how many sections EmitSectionInfo has consumed
}

// logOp appends one journal event at the current line.
func (c *Context) logOp(op JournalOp, key string) {
	line := 0
	if c.cur != nil {
		line = c.curLine
	}
	c.journal = append(c.journal, JournalEvent{
		Op: op, Line: line, Key: key, InSection: c.cur != nil,
	})
}

// Journal returns the recorded operation sequence (shared slice; treat
// as read-only).
func (c *Context) Journal() []JournalEvent { return c.journal }

// NewContext returns an empty D2X compile-time context.
func NewContext() *Context {
	return &Context{scopes: [][]*liveVar{{}}}
}

// BeginSectionAt starts a new section whose first generated line is
// startLine (1-based in the generated file). All newlines inside the
// section must be reported via Nextl; lines outside sections carry no D2X
// information.
func (c *Context) BeginSectionAt(startLine int) error {
	if c.cur != nil {
		return fmt.Errorf("d2xc: BeginSection while a section is open")
	}
	c.cur = &Section{StartLine: startLine}
	c.curLine = startLine
	c.pendingStack = nil
	c.pendingVars = nil
	c.logOp(OpBeginSection, "")
	return nil
}

// EndSection closes the current section, flushing the final line's record.
func (c *Context) EndSection() error {
	if c.cur == nil {
		return fmt.Errorf("d2xc: EndSection without BeginSection")
	}
	c.flushLine()
	c.logOp(OpEndSection, "")
	c.sections = append(c.sections, c.cur)
	c.cur = nil
	return nil
}

// InSection reports whether a section is currently open.
func (c *Context) InSection() bool { return c.cur != nil }

// Nextl tells the context that a newline was inserted in the generated
// code: the debug information collected since the previous Nextl belongs
// to the line just finished. Live variables are inserted automatically.
func (c *Context) Nextl() {
	if c.cur == nil {
		return
	}
	c.flushLine()
	c.curLine++
}

func (c *Context) flushLine() {
	rec := Record{GenLine: c.curLine}
	rec.Stack = c.pendingStack
	// Live variables first (outer scopes before inner), then per-line vars
	// so a per-line SetVar can shadow a live variable of the same key.
	for _, scope := range c.scopes {
		for _, lv := range scope {
			if !lv.deleted {
				rec.Vars = append(rec.Vars, VarEntry{Key: lv.key, Kind: lv.kind, Val: lv.val})
			}
		}
	}
	rec.Vars = append(rec.Vars, c.pendingVars...)
	if len(rec.Stack) > 0 || len(rec.Vars) > 0 {
		c.cur.Records = append(c.cur.Records, rec)
	}
	c.pendingStack = nil
	c.pendingVars = nil
}

// PushSourceLoc pushes one DSL source location onto the extended stack of
// the current generated line. Called multiple times per line it builds
// the full stack; the first call supplies the innermost frame.
func (c *Context) PushSourceLoc(file string, line int, function ...string) {
	loc := srcloc.Loc{File: file, Line: line}
	if len(function) > 0 {
		loc.Function = function[0]
	}
	c.pendingStack = append(c.pendingStack, loc)
}

// PushLoc is PushSourceLoc taking a srcloc.Loc, convenient for callers
// that already track locations structurally (BuildIt's static tags).
func (c *Context) PushLoc(loc srcloc.Loc) {
	c.pendingStack = append(c.pendingStack, loc)
}

// SetVar records a constant-string extended variable at the current line.
func (c *Context) SetVar(key, value string) {
	c.pendingVars = append(c.pendingVars, VarEntry{Key: key, Kind: VarConst, Val: value})
}

// SetVarHandler records an extended variable whose value is computed by a
// runtime value handler at debug time.
func (c *Context) SetVarHandler(key string, h RTVHandler) {
	c.pendingVars = append(c.pendingVars, VarEntry{Key: key, Kind: VarHandler, Val: h.FuncName})
}

// CreateVar declares a live variable in the current scope. It is emitted
// at every subsequent line until deleted or its scope is popped. A newly
// created variable has the constant value "<uninitialized>" until updated.
func (c *Context) CreateVar(key string) {
	scope := len(c.scopes) - 1
	c.scopes[scope] = append(c.scopes[scope], &liveVar{
		key: key, kind: VarConst, val: "<uninitialized>",
	})
	c.logOp(OpCreateVar, key)
}

// UpdateVar changes the value of a live variable to a constant string.
// It returns an error when no live variable with the key exists.
func (c *Context) UpdateVar(key, value string) error {
	lv := c.findLive(key)
	if lv == nil {
		return fmt.Errorf("d2xc: UpdateVar: no live variable %q", key)
	}
	lv.kind = VarConst
	lv.val = value
	c.logOp(OpUpdateVar, key)
	return nil
}

// UpdateVarHandler changes the value of a live variable to a handler.
func (c *Context) UpdateVarHandler(key string, h RTVHandler) error {
	lv := c.findLive(key)
	if lv == nil {
		return fmt.Errorf("d2xc: UpdateVarHandler: no live variable %q", key)
	}
	lv.kind = VarHandler
	lv.val = h.FuncName
	c.logOp(OpUpdateVar, key)
	return nil
}

// DeleteVar removes a live variable from whatever scope holds it.
func (c *Context) DeleteVar(key string) error {
	lv := c.findLive(key)
	if lv == nil {
		return fmt.Errorf("d2xc: DeleteVar: no live variable %q", key)
	}
	lv.deleted = true
	c.logOp(OpDeleteVar, key)
	return nil
}

func (c *Context) findLive(key string) *liveVar {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		for j := len(c.scopes[i]) - 1; j >= 0; j-- {
			if lv := c.scopes[i][j]; lv.key == key && !lv.deleted {
				return lv
			}
		}
	}
	return nil
}

// PushScope opens a live-variable scope, mirroring a scope in the DSL or
// the generated code.
func (c *Context) PushScope() {
	c.scopes = append(c.scopes, nil)
	c.logOp(OpPushScope, "")
}

// PopScope closes the innermost scope, deleting its live variables.
func (c *Context) PopScope() error {
	if len(c.scopes) <= 1 {
		return fmt.Errorf("d2xc: PopScope with no open scope")
	}
	c.scopes = c.scopes[:len(c.scopes)-1]
	c.logOp(OpPopScope, "")
	return nil
}

// Records returns every record across all closed sections.
func (c *Context) Records() []Record {
	var out []Record
	for _, s := range c.sections {
		out = append(out, s.Records...)
	}
	return out
}

// SelfSourceLoc resolves a program counter of the *host* program (the DSL
// compiler itself) to a source location — the paper's self_source_loc
// utility. DSLs embedded in the host language (BuildIt) use it to harvest
// first-stage source locations from their own call stacks.
func SelfSourceLoc(pc uintptr) srcloc.Loc {
	frames := runtime.CallersFrames([]uintptr{pc})
	fr, _ := frames.Next()
	if fr.Function == "" && fr.File == "" {
		return srcloc.Loc{}
	}
	return srcloc.Loc{File: fr.File, Line: fr.Line, Function: shortFuncName(fr.Function)}
}

// CallerStack captures the host program's current call stack as source
// locations, skipping `skip` innermost frames (0 includes the caller of
// CallerStack). BuildIt uses this to build static tags.
func CallerStack(skip int) srcloc.Stack {
	pcs := make([]uintptr, 64)
	n := runtime.Callers(skip+2, pcs)
	frames := runtime.CallersFrames(pcs[:n])
	var stack srcloc.Stack
	for {
		fr, more := frames.Next()
		stack = append(stack, srcloc.Loc{
			File: fr.File, Line: fr.Line, Function: shortFuncName(fr.Function),
		})
		if !more {
			break
		}
	}
	return stack
}

// shortFuncName trims the package path from a runtime function name:
// "d2x/internal/buildit.(*Builder).Emit" -> "(*Builder).Emit".
func shortFuncName(full string) string {
	for i := len(full) - 1; i >= 0; i-- {
		if full[i] == '/' {
			full = full[i+1:]
			break
		}
	}
	for i := 0; i < len(full); i++ {
		if full[i] == '.' {
			return full[i+1:]
		}
	}
	return full
}
