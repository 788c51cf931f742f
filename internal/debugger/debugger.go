// Package debugger implements a GDB-style source-level debugger for mini-C
// programs. It plays the role GDB/LLDB play in the paper: a stock debugger
// that knows nothing about any DSL. It maps VM state to generated source
// using only the serialised dwarfish debug info, supports breakpoints,
// stepping, frame navigation and expression printing — and, crucially, the
// two features D2X builds everything on:
//
//   - `call f(args...)`: invoke a function linked into the debuggee while
//     execution is paused (paper §4.2), and
//   - `eval "fmt", args...`: format a string (whose arguments may be calls
//     into the debuggee) and execute the result as debugger commands,
//     which is how D2X's xbreak drives breakpoint insertion.
//
// The package intentionally has no dependency on any D2X package; an
// architecture test enforces this, because the paper's claim is precisely
// that the debugger needs no modification.
package debugger

import (
	"fmt"
	"io"
	"strings"

	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/minic/journal"
)

// Process is the debuggee: a loaded program plus its debug info. The
// debugger receives only what a real one would: the "binary" (compiled
// program), its debug info blob, and the ability to run it.
type Process struct {
	VM   *minic.VM
	Info *dwarfish.Info
}

// NewProcess loads a program under the debugger. debugBlob is the encoded
// dwarfish info ("the binary was compiled with -g"); pass the output of
// dwarfish.Build(...).Encode().
func NewProcess(prog *minic.Program, debugBlob []byte, output io.Writer) (*Process, error) {
	info, err := dwarfish.Decode(debugBlob)
	if err != nil {
		return nil, fmt.Errorf("debugger: bad debug info: %w", err)
	}
	return &Process{VM: minic.NewVM(prog, output), Info: info}, nil
}

// Breakpoint is one user breakpoint, expanded to its machine sites. Cond,
// when non-empty, is an expression evaluated at the stop site; the
// breakpoint only fires when it is true.
type Breakpoint struct {
	ID      int
	Spec    string
	Cond    string
	Sites   []dwarfish.BreakpointSite
	Enabled bool
	Hits    int
}

// StopReason says why execution stopped.
type StopReason int

const (
	StopNone StopReason = iota
	StopBreakpoint
	StopWatchpoint
	StopStep
	StopFault
	StopExited
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopBreakpoint:
		return "breakpoint"
	case StopWatchpoint:
		return "watchpoint"
	case StopStep:
		return "step"
	case StopFault:
		return "fault"
	case StopExited:
		return "exited"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// Stop describes the most recent halt.
type Stop struct {
	Reason     StopReason
	Breakpoint *Breakpoint
	Watch      *Watchpoint
	WatchOld   minic.Value
	WatchNew   minic.Value
	Thread     *minic.Thread
	Fault      error
}

// Debugger drives one Process.
type Debugger struct {
	proc *Process
	out  io.Writer

	bps    []*Breakpoint
	nextBP int

	started  bool
	lastStop Stop

	selThreadID int
	selFrame    int // 0 = innermost

	valueCounter int // GDB's $1, $2, ... history numbering

	watchpoints []*Watchpoint
	displays    []displayEntry
	displayCnt  int

	macros map[string]*Macro

	// skip suppresses re-triggering the breakpoint we are stopped at when
	// resuming, matching GDB semantics.
	skipThread int
	skipAddr   dwarfish.Addr
	skipValid  bool

	// evalGuard, when set, constrains debuggee function calls made while
	// evaluating expressions (CallValue applies it). The debugger sets it
	// around *implicit* evaluations — watchpoint checks and auto-display
	// refreshes — where a misbehaving expression must not mutate the
	// debuggee or hang the stop path. Explicit user `call`/`print` stay
	// unguarded: the user asked for the side effects.
	evalGuard *minic.Guard

	// exprCache memoises lexed token slices and ns::fn name manglings.
	// Macro-driven command streams evaluate the same handful of call
	// expressions on every command, so without these the lexer's token
	// slice and the mangler's rewrite dominate steady-state dispatch
	// cost. Both maps are bounded (cleared wholesale when full — the
	// real working set is a few entries) and hold immutable values, and
	// the debugger executes commands one at a time, so no locking.
	exprCache   map[string][]minic.Token
	mangleCache map[string]string
	lexBuf      []minic.Token // lexing scratch for exprCache misses

	// argFree recycles the argument slices of debuggee calls (the VM
	// recycles their native-call frames). Calls nest (f(g(x)) holds two
	// argument lists at once), hence a freelist rather than a single
	// slot; an inner call completes before the outer one is issued, so a
	// popped entry is never still in use when it is reused.
	argFree []([]minic.Value)
	strFree [][]string
	bufFree [][]byte

	// bpFree recycles Breakpoint objects through delete/set cycles. The
	// D2X xbreak/xdel protocol churns low-level breakpoints on every DSL
	// breakpoint operation (one per generated line), so without a
	// freelist every cycle re-allocates the whole set.
	bpFree []*Breakpoint

	// journal is the process-record target `record` attached (nil when
	// recording is off); onRecord, when set, is told about each one.
	journal  *journal.Journal
	onRecord func(*journal.Journal)

	closed     bool
	closeHooks []func()
}

// New attaches a debugger to a process, writing all user-visible output
// (the GDB transcript) to out.
func New(proc *Process, out io.Writer) *Debugger {
	if out == nil {
		out = io.Discard
	}
	return &Debugger{
		proc:        proc,
		out:         out,
		nextBP:      1,
		selThreadID: -1,
		macros:      map[string]*Macro{},
	}
}

// Out returns the transcript writer (macro expansion writes through it).
func (d *Debugger) Out() io.Writer { return d.out }

// OnClose registers a hook run (once) when the session is closed. The
// layer that attaches runtime services to a session uses this to release
// per-session state; the debugger itself stays ignorant of what they are.
func (d *Debugger) OnClose(fn func()) {
	d.closeHooks = append(d.closeHooks, fn)
}

// Close ends the debug session: a live recording is stopped, registered
// hooks run in registration order and further Execute calls fail.
// Idempotent.
func (d *Debugger) Close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.journal != nil {
		d.journal.Stop()
		d.journal = nil
	}
	for _, fn := range d.closeHooks {
		fn()
	}
	d.closeHooks = nil
}

// Process returns the debuggee.
func (d *Debugger) Process() *Process { return d.proc }

// LastStop reports the most recent stop.
func (d *Debugger) LastStop() Stop { return d.lastStop }

func (d *Debugger) printf(format string, args ...any) {
	fmt.Fprintf(d.out, format, args...)
}

// ---- Breakpoints ----

// SetBreakpoint resolves a location spec — "file:line", ":line", a bare
// line number, or a function name, optionally followed by "if EXPR" — and
// installs a breakpoint on every matching statement site.
func (d *Debugger) SetBreakpoint(spec string) (*Breakpoint, error) {
	cond := ""
	if i := strings.Index(spec, " if "); i >= 0 {
		cond = strings.TrimSpace(spec[i+4:])
		spec = strings.TrimSpace(spec[:i])
	}
	sites, err := d.resolveSpec(spec)
	if err != nil {
		return nil, err
	}
	bp := d.getBP()
	*bp = Breakpoint{ID: d.nextBP, Spec: spec, Cond: cond, Sites: sites, Enabled: true}
	d.nextBP++
	d.bps = append(d.bps, bp)
	return bp, nil
}

// getBP pops a recycled Breakpoint (or allocates the first time).
func (d *Debugger) getBP() *Breakpoint {
	if n := len(d.bpFree); n > 0 {
		bp := d.bpFree[n-1]
		d.bpFree[n-1] = nil
		d.bpFree = d.bpFree[:n-1]
		return bp
	}
	return new(Breakpoint)
}

// putBP parks a deleted Breakpoint for reuse. The last stop may still
// reference the breakpoint it stopped at (`info program` style displays
// read it after deletion), so that one is left to the GC rather than
// recycled into a live object with a different identity.
func (d *Debugger) putBP(bp *Breakpoint) {
	if bp == d.lastStop.Breakpoint {
		return
	}
	d.bpFree = append(d.bpFree, bp)
}

func (d *Debugger) resolveSpec(spec string) ([]dwarfish.BreakpointSite, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("empty breakpoint location")
	}
	lineSpec := spec
	if i := strings.LastIndex(spec, ":"); i >= 0 {
		file := spec[:i]
		if file != "" && file != d.proc.Info.File {
			return nil, fmt.Errorf("no source file named %q (program source is %q)", file, d.proc.Info.File)
		}
		lineSpec = spec[i+1:]
	}
	if line, ok := parseLeadingInt(lineSpec); ok && line > 0 {
		sites := d.proc.Info.SitesForLine(line)
		if len(sites) == 0 {
			return nil, fmt.Errorf("no code at line %d", line)
		}
		return sites, nil
	}
	sites := d.proc.Info.SitesForFunc(spec)
	if len(sites) == 0 {
		return nil, fmt.Errorf("function %q not defined", spec)
	}
	return sites, nil
}

// parseLeadingInt parses an optionally signed decimal prefix, the subset
// of Sscanf("%d") semantics resolveSpec relies on, without fmt's scan
// state. Trailing non-digits are ignored, as Sscanf's were.
func parseLeadingInt(s string) (int, bool) {
	i, neg := 0, false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	n, start := 0, i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		n = n*10 + int(s[i]-'0')
		i++
	}
	if i == start {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// DeleteBreakpoint removes the breakpoint with the given ID.
func (d *Debugger) DeleteBreakpoint(id int) error {
	for i, bp := range d.bps {
		if bp.ID == id {
			d.bps = append(d.bps[:i], d.bps[i+1:]...)
			d.putBP(bp)
			return nil
		}
	}
	return fmt.Errorf("no breakpoint number %d", id)
}

// Breakpoints lists current breakpoints.
func (d *Debugger) Breakpoints() []*Breakpoint { return d.bps }

func (d *Debugger) breakpointAt(addr dwarfish.Addr) *Breakpoint {
	for _, bp := range d.bps {
		if !bp.Enabled {
			continue
		}
		for _, s := range bp.Sites {
			if s.Addr == addr {
				return bp
			}
		}
	}
	return nil
}

// ---- Thread and frame selection ----

// SelectedThread returns the thread the debugger is focused on.
func (d *Debugger) SelectedThread() *minic.Thread {
	if t := d.proc.VM.ThreadByID(d.selThreadID); t != nil {
		return t
	}
	// Fall back to the first live thread.
	for _, t := range d.proc.VM.Threads() {
		if t.State == minic.ThreadReady || t.State == minic.ThreadFaulted || t.State == minic.ThreadWaiting {
			return t
		}
	}
	if ts := d.proc.VM.Threads(); len(ts) > 0 {
		return ts[0]
	}
	return nil
}

// SelectThread switches focus to the thread with the given ID.
func (d *Debugger) SelectThread(id int) error {
	if d.proc.VM.ThreadByID(id) == nil {
		return fmt.Errorf("no thread %d", id)
	}
	d.selThreadID = id
	d.selFrame = 0
	return nil
}

// frames returns the selected thread's call stack innermost-first, the
// order backtraces display. It allocates a reversed copy; hot paths that
// need a single frame use frameAt instead.
func (d *Debugger) frames() []*minic.Frame {
	t := d.SelectedThread()
	if t == nil {
		return nil
	}
	fs := t.Frames
	out := make([]*minic.Frame, len(fs))
	for i := range fs {
		out[i] = fs[len(fs)-1-i]
	}
	return out
}

// frameCount returns the depth of the selected thread's call stack.
func (d *Debugger) frameCount() int {
	t := d.SelectedThread()
	if t == nil {
		return 0
	}
	return len(t.Frames)
}

// frameAt returns frame n of the selected thread, innermost-first —
// frames()[n] without materialising the reversed slice. The register
// meta-variables ($rip, $rsp) every D2X command evaluates resolve through
// here, so the command hot path does not copy the stack per lookup.
func (d *Debugger) frameAt(n int) *minic.Frame {
	t := d.SelectedThread()
	if t == nil {
		return nil
	}
	fs := t.Frames
	if n < 0 || n >= len(fs) {
		return nil
	}
	return fs[len(fs)-1-n]
}

// SelectedFrame returns the currently selected frame (nil before run).
func (d *Debugger) SelectedFrame() *minic.Frame {
	if f := d.frameAt(d.selFrame); f != nil {
		return f
	}
	return d.frameAt(0)
}

// SelectFrame chooses frame n of the selected thread (0 = innermost).
func (d *Debugger) SelectFrame(n int) error {
	if n < 0 || n >= d.frameCount() {
		return fmt.Errorf("no frame %d (stack has %d frames)", n, d.frameCount())
	}
	d.selFrame = n
	return nil
}

// FrameAddr returns the code address of a frame: for the innermost frame
// the instruction about to execute; for outer frames the call site (PC-1,
// like a return address).
func (d *Debugger) FrameAddr(frameNo int) (dwarfish.Addr, bool) {
	f := d.frameAt(frameNo)
	if f == nil {
		return dwarfish.Addr{}, false
	}
	pc := f.PC
	if frameNo > 0 && pc > 0 {
		pc-- // outer frames point at their pending call instruction
	}
	return dwarfish.Addr{FuncIndex: f.FuncIndex, PC: pc}, true
}

// RegisterRIP returns the $rip meta-variable of the selected frame: the
// encoded code address the D2X commands take as their first argument.
func (d *Debugger) RegisterRIP() (int64, bool) {
	a, ok := d.FrameAddr(d.selFrame)
	if !ok {
		return 0, false
	}
	return dwarfish.EncodeAddr(a), true
}

// RegisterRSP returns the $rsp meta-variable of the selected frame: the
// frame's unique ID, which plays the role of a stack pointer value.
func (d *Debugger) RegisterRSP() (int64, bool) {
	f := d.SelectedFrame()
	if f == nil {
		return 0, false
	}
	return int64(f.ID), true
}

// lineAt maps a frame to its current source file and line via debug info.
func (d *Debugger) lineAt(frameNo int) (string, int, bool) {
	a, ok := d.FrameAddr(frameNo)
	if !ok {
		return "", 0, false
	}
	return d.proc.Info.LineFor(a)
}
