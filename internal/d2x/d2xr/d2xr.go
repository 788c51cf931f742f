// Package d2xr is the D2X runtime library (D2X-R): the half of D2X linked
// into the generated executable (paper §3.2, §4.2, Table 2). It exposes a
// set of functions with a well-defined interface that the user invokes
// *from an unmodified debugger* via its `call` and `eval` commands:
//
//	(gdb) call d2x_runtime::command_xbt($rip, $rsp)
//	(gdb) eval "%s", d2x_runtime::command_xbreak($rip, "15")
//
// Each command uses the passed instruction pointer to locate the current
// generated source line through the *standard* debug info (stage 1), then
// maps that line to the DSL context through the D2X tables the program
// carries (stage 2) — the two-stage mapping of Figure 4. Breakpoint
// commands return debugger-command strings that the debugger's eval
// executes, letting the debuggee drive the debugger without any plugin.
//
// One Runtime serves every debug session attached to the same build. The
// expensive per-build data (debug info, decoded D2X tables, DSL sources)
// is shared read-only; everything a command mutates lives in per-session
// state held on the session's VM (internal/d2x/session), created on
// first command and released when the session closes.
package d2xr

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/d2x/session"
	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/minic/effects"
	"d2x/internal/obs"
)

// FileResolver reads DSL source files for xlist. The default reads from
// the filesystem, as GDB does for source display; tests inject in-memory
// sources.
type FileResolver func(path string) (string, error)

// XBreakpoint is one DSL-level breakpoint: a DSL location expanded to the
// generated lines it corresponds to. Breakpoints are per-session state.
type XBreakpoint = session.XBreakpoint

// Names of the native entry points D2X-R links into the generated
// program. The helper macros reach them as d2x_runtime::command_* (the
// debugger mangles :: to _); d2xverify checks the linked program and the
// macro text against this same list, so the interface is defined once.
const (
	NativeXBT          = "d2x_runtime_command_xbt"
	NativeXFrame       = "d2x_runtime_command_xframe"
	NativeXList        = "d2x_runtime_command_xlist"
	NativeXVars        = "d2x_runtime_command_xvars"
	NativeXBreak       = "d2x_runtime_command_xbreak"
	NativeXDel         = "d2x_runtime_command_xdel"
	NativeFindStackVar = "d2x_find_stack_var"
)

// NativeSpec declares one D2X-R entry point: its linked name and its
// signature in the generated language.
type NativeSpec struct {
	Name string
	Sig  minic.Signature
}

// commandNative is one Table 2 entry point: its spec, the command it
// runs, and the argument slots that carry $rip, $rsp and the command's
// string operand, -1 where the native takes none (xdel's only argument
// is a breakpoint spec, not a rip).
type commandNative struct {
	NativeSpec
	kind          BatchKind
	rip, rsp, arg int
}

// commandNatives is the Table 2 command interface, declared once:
// CommandNatives publishes it and Register links it.
var commandNatives = [...]commandNative{
	{NativeSpec{NativeXBT, nativeSig(minic.VoidType, minic.IntType, minic.IntType)}, BatchXBT, 0, 1, -1},
	{NativeSpec{NativeXFrame, nativeSig(minic.VoidType, minic.IntType, minic.IntType, minic.StringType)}, BatchXFrame, 0, 1, 2},
	{NativeSpec{NativeXList, nativeSig(minic.VoidType, minic.IntType, minic.IntType)}, BatchXList, 0, 1, -1},
	{NativeSpec{NativeXVars, nativeSig(minic.VoidType, minic.IntType, minic.IntType, minic.StringType)}, BatchXVars, 0, 1, 2},
	{NativeSpec{NativeXBreak, nativeSig(minic.StringType, minic.IntType, minic.StringType)}, BatchXBreak, 0, -1, 1},
	{NativeSpec{NativeXDel, nativeSig(minic.StringType, minic.StringType)}, BatchXDel, -1, -1, 0},
}

// findStackVarNative is the runtime API rtv_handlers call (§4.1); it is
// linked alongside the commands but is not one.
var findStackVarNative = NativeSpec{NativeFindStackVar, nativeSig(minic.AnyType, minic.StringType)}

func nativeSig(result *minic.Type, params ...*minic.Type) minic.Signature {
	return minic.Signature{Params: params, Result: result}
}

// CommandNatives returns the complete D2X-R native interface (Table 2).
// Register installs exactly these; verification tools cross-check a
// linked program against them.
func CommandNatives() []NativeSpec {
	specs := make([]NativeSpec, 0, len(commandNatives)+1)
	for _, c := range commandNatives {
		specs = append(specs, c.NativeSpec)
	}
	return append(specs, findStackVarNative)
}

// cmdMetrics is one D2X command's observability handle set: call and
// error counts plus a latency histogram. Handles live in the package
// (the obs registry is process-wide), resolved once at init, so the
// command hot path touches only atomics. The counters are sharded:
// every session increments the same six command names, and on the
// 8-session batch mix of TestGateBatch one shared cache line per counter
// costs the typed path 5–10% of its throughput (ROADMAP item 3).
// The session ID is the affinity hint; sums stay exact.
type cmdMetrics struct {
	name  string
	calls *obs.ShardedCounter
	errs  *obs.ShardedCounter
	lat   *obs.Histogram
}

func newCmdMetrics(name string) cmdMetrics {
	return cmdMetrics{
		name:  name,
		calls: obs.GetShardedCounter("d2xr.cmd." + name + ".calls"),
		errs:  obs.GetShardedCounter("d2xr.cmd." + name + ".errors"),
		lat:   obs.GetHistogram("d2xr.cmd." + name),
	}
}

// Package-wide instrumentation handles: the six Table 2 commands, the
// two mapping stages of Figure 4, rtv-handler guard telemetry, and the
// xlist source-file cache.
var (
	// cmdObs holds each command's handles, indexed by its BatchKind.
	// execOp counts every call and error, whichever entry point ran it,
	// so per-command totals are protocol-independent; the latency
	// histogram times the native entry points, one command per call.
	cmdObs = [...]cmdMetrics{
		BatchXBT: newCmdMetrics("xbt"), BatchXFrame: newCmdMetrics("xframe"),
		BatchXList: newCmdMetrics("xlist"), BatchXVars: newCmdMetrics("xvars"),
		BatchXBreak: newCmdMetrics("xbreak"), BatchXDel: newCmdMetrics("xdel"),
	}
	// batchObs covers ExecBatch itself: one call and one latency sample
	// per batch, however many sub-ops it ran.
	batchObs   = newCmdMetrics("batch")
	batchOps   = obs.GetShardedCounter("d2xr.cmd.batch.ops")
	stage1Miss = obs.GetCounter("d2xr.stage1.misses")
	stage2Miss = obs.GetCounter("d2xr.stage2.misses")
	fusedLat   = obs.GetHistogram("d2xr.fused.resolve")

	// stageTick drives 1-in-stageSampleEvery sampling of the resolve
	// histogram (see recordAt); counts and misses remain exact.
	stageTick atomic.Int64

	rtvUnguarded  = obs.GetCounter("d2xr.rtv.unguarded")
	rtvGuarded    = obs.GetCounter("d2xr.rtv.guarded")
	rtvFuelSpent  = obs.GetCounter("d2xr.rtv.fuel_spent")
	rtvBarrier    = obs.GetCounter("d2xr.rtv.barrier_denials")
	rtvExhausted  = obs.GetCounter("d2xr.rtv.fuel_exhausted")
	rtvLat        = obs.GetHistogram("d2xr.rtv.eval")
	findStackVars = obs.GetCounter("d2xr.find_stack_var.calls")

	// rtvTick drives 1-in-stageSampleEvery sampling of the rtv_handler
	// latency histogram (see evalVar); guard counters remain exact.
	rtvTick atomic.Int64

	fileCacheHits   = obs.GetCounter("d2xr.filecache.hits")
	fileCacheMisses = obs.GetCounter("d2xr.filecache.misses")
	fileCacheEvicts = obs.GetCounter("d2xr.filecache.evictions")
	fileCacheResets = obs.GetCounter("d2xr.filecache.resets")
)

// maxFileCacheEntries bounds the xlist source-file cache. DSL programs
// rarely span more than a handful of files; the bound exists so a
// long-lived build serving many sessions over many differently-pathed
// sources cannot grow without limit (the same leak class as the
// pre-service per-session tables map).
const maxFileCacheEntries = 64

// stageSampleEvery is the sampling stride for the resolve and rtv-handler
// latency histograms: recordAt and evalVar time one call in this many.
// A power of two keeps the modulo a mask.
const stageSampleEvery = 8

// Runtime is the per-build D2X runtime — the data a real D2X build links
// into the executable. Register its entry points into the native registry
// before compiling the generated code (the "link" step), then attach the
// debug info produced alongside the binary. One Runtime may serve any
// number of concurrent debug sessions; commands from different sessions
// share only read-only data and atomic counters.
type Runtime struct {
	info  *dwarfish.Info   // immutable after AttachDebugInfo
	files FileResolver     // replaced only before sessions start
	svc   *session.Service // shared tables + per-session state

	fileMu    sync.Mutex
	fileCache map[string][]string
	fileOrder []string // cache keys in insertion order (FIFO eviction)
}

// New returns an empty runtime. Call Register before compiling generated
// code and AttachDebugInfo once the binary's debug blob exists.
func New() *Runtime {
	return &Runtime{
		files: func(path string) (string, error) {
			b, err := os.ReadFile(path)
			return string(b), err
		},
		svc:       session.New(),
		fileCache: map[string][]string{},
	}
}

// SetFileResolver replaces the DSL source reader and drops every cached
// file: lines read through the old resolver must not leak into xlist
// output served under the new one.
func (r *Runtime) SetFileResolver(fr FileResolver) {
	r.fileMu.Lock()
	defer r.fileMu.Unlock()
	r.files = fr
	r.fileCache = map[string][]string{}
	r.fileOrder = nil
	fileCacheResets.Inc()
}

// AttachDebugInfo gives the runtime the program's standard debug info —
// the same blob the debugger loads. D2X-R decodes it itself, exactly as
// the paper's runtime decodes DWARF to find stack variables. A runtime
// is linked into exactly one build, so it takes debug info once: a
// second attach returns an error and changes nothing.
func (r *Runtime) AttachDebugInfo(blob []byte) error {
	if r.info != nil {
		return fmt.Errorf("d2xr: debug info already attached")
	}
	info, err := dwarfish.Decode(blob)
	if err != nil {
		return fmt.Errorf("d2xr: %w", err)
	}
	r.info = info
	return nil
}

// BreakpointsFor returns the DSL-level breakpoints of one session.
func (r *Runtime) BreakpointsFor(vm *minic.VM) []*XBreakpoint {
	if st, ok := r.svc.Lookup(vm); ok {
		return st.XBPs
	}
	return nil
}

// Release drops the per-session state of one debuggee VM. The d2x link
// layer wires this to Debugger.Close; without it a long-lived build
// accumulates state for every session that ever attached.
func (r *Runtime) Release(vm *minic.VM) { r.svc.Release(vm) }

// LiveSessions reports how many debug sessions currently hold state.
func (r *Runtime) LiveSessions() int { return r.svc.Sessions() }

// TableDecodes reports how many times the D2X tables were decoded from a
// debuggee: 1 after any table-backed command, however many sessions ran.
func (r *Runtime) TableDecodes() int { return r.svc.Decodes() }

// Register installs the D2X-R entry points as host-linked natives, the
// analogue of linking libd2x-r.a into the generated executable.
func (r *Runtime) Register(nats *minic.Natives) {
	for i := range commandNatives {
		c := &commandNatives[i]
		nats.Register(&minic.Native{Name: c.Name, Sig: c.Sig, Handler: r.nativeCommand(c)})
	}
	nats.Register(&minic.Native{
		Name:      findStackVarNative.Name,
		Sig:       findStackVarNative.Sig,
		AnyResult: true,
		Handler: func(call *minic.NativeCall) (minic.Value, error) {
			findStackVars.Inc()
			return r.findStackVar(call.VM, call.Args[0].S())
		},
	})
}

// nativeCommand adapts one Table 2 native to execOp: it lifts the call's
// arguments from their slots into a BatchOp, renders the command into a
// pooled buffer, writes the output to the debuggee only on success, and
// returns the break/clear script for the natives that return one.
// Around the command it records the native's latency histogram and one
// trace event per invocation.
func (r *Runtime) nativeCommand(c *commandNative) minic.NativeHandler {
	m := &cmdObs[c.kind]
	//d2x:hotpath
	return func(call *minic.NativeCall) (minic.Value, error) {
		if len(call.Args) != len(c.Sig.Params) {
			return minic.NullVal(), fmt.Errorf("d2x: %s takes %d arguments, got %d", c.Name, len(c.Sig.Params), len(call.Args))
		}
		op := BatchOp{Kind: c.kind}
		if c.rip >= 0 {
			op.RIP = call.Args[c.rip].I
		}
		if c.rsp >= 0 {
			op.RSP = call.Args[c.rsp].I
		}
		if c.arg >= 0 {
			op.Arg = call.Args[c.arg].S()
		}
		st := r.svc.State(call.VM)
		start := obs.NowNanos()
		rb := getRender()
		b, script, err := r.execOp(st, call.VM, op, rb.b)
		rb.b = b
		if err == nil {
			flush(call.VM, b)
		}
		putRender(rb)
		ev := obs.Event{Kind: "cmd", Name: m.name, Session: st.ID, RIP: op.RIP}
		if start != 0 {
			durNS := obs.NowNanos() - start
			m.lat.ObserveNS(durNS)
			ev.DurNS = durNS
			// Derive the event's wall stamp from the timestamps already
			// taken, sparing the ring its own clock read.
			ev.Time = obs.WallNanos(start + durNS)
		}
		if err != nil {
			ev.Err = err.Error()
		}
		obs.Emit(ev)
		if c.Sig.Result == minic.VoidType {
			return minic.NullVal(), err
		}
		return minic.StrVal(script), err
	}
}

// tablesFor returns the build's decoded D2X tables, shared across all
// sessions (the first session to ask pays the one decode).
//
//d2x:noalloc
func (r *Runtime) tablesFor(vm *minic.VM) (*d2xenc.Tables, error) {
	return r.svc.Tables(vm)
}

// recordAt maps an encoded rip to its DSL context through the fused
// resolution index: the two stages of Figure 4 — debug info to the
// generated line, generated line to the D2X record — were joined at
// index-build time, so the steady state is one atomic load plus one
// binary search. The stage-1/stage-2 miss counters keep their exact
// meaning (a fused miss is by construction a stage-1 miss; a resolved
// rip with a nil record is a stage-2 miss).
//
//d2x:noalloc
func (r *Runtime) recordAt(vm *minic.VM, rip int64) (*d2xc.Record, int, error) {
	if r.info == nil {
		return nil, 0, fmt.Errorf("d2x: no debug info attached")
	}
	fu, err := r.svc.Fused(vm, r.info)
	if err != nil {
		// The shared tables are unavailable (the program carries none,
		// or they do not decode). Report with the two-stage
		// mapping's precedence: a stage-1 miss outranks the table error.
		_, genLine, ok := r.info.LineFor(dwarfish.DecodeAddr(rip))
		if !ok {
			stage1Miss.Inc()
			return nil, 0, fmt.Errorf("d2x: no line info for rip %#x", rip)
		}
		return nil, genLine, err
	}
	// The resolve histogram is sampled 1-in-stageSampleEvery: the lookup
	// is tens of nanoseconds, so timing every call would cost more than
	// the work being measured. Misses stay exact.
	var t0 int64
	if stageTick.Add(1)%stageSampleEvery == 0 {
		t0 = obs.NowNanos()
	}
	genLine, rec, ok := fu.Resolve(rip)
	if t0 != 0 {
		fusedLat.ObserveNS(obs.NowNanos() - t0)
	}
	if !ok {
		stage1Miss.Inc()
		return nil, 0, fmt.Errorf("d2x: no line info for rip %#x", rip)
	}
	if rec == nil {
		stage2Miss.Inc()
	}
	return rec, genLine, nil
}

// RecordAt maps an encoded rip to its DSL context through the fused
// resolution index — the production path every D2X command uses.
// Exported so the differential-correctness tests can check it against
// the two-stage mapping on every address of every example program.
func (r *Runtime) RecordAt(vm *minic.VM, rip int64) (*d2xc.Record, int, error) {
	return r.recordAt(vm, rip)
}

// Info returns the attached debug info (nil before AttachDebugInfo).
func (r *Runtime) Info() *dwarfish.Info { return r.info }

// appendNoContext renders the no-DSL-context notice shared by the
// frame-walking commands.
//
//d2x:noalloc amortized
func appendNoContext(b []byte, what string, genLine int) []byte {
	b = append(b, "No D2X "...)
	b = append(b, what...)
	b = append(b, " for generated line "...)
	b = strconv.AppendInt(b, int64(genLine), 10)
	return append(b, '\n')
}

// flush writes the rendered bytes to the debuggee's output. Write
// errors are ignored, as the fmt.Fprintf-based renderer ignored them:
// command output goes to the session's capture buffer, which cannot
// fail, and a failing sink must not abort the user's command.
//
//d2x:noalloc
func flush(vm *minic.VM, b []byte) {
	_, _ = vm.Output.Write(b) //d2xvet:ignore noalloc the session capture sink appends into its reused buffer
}

// appendXBT renders the extended stack for rip into b (xbt). On error b
// is returned unchanged, so a failed command contributes no output.
//
//d2x:noalloc amortized
func (r *Runtime) appendXBT(vm *minic.VM, rip int64, b []byte) ([]byte, error) {
	rec, genLine, err := r.recordAt(vm, rip)
	if err != nil {
		return b, err
	}
	if rec == nil || len(rec.Stack) == 0 {
		return appendNoContext(b, "context", genLine), nil
	}
	for i, loc := range rec.Stack {
		b = appendXFrame(b, i, loc)
		b = append(b, '\n')
	}
	return b, nil
}

// appendXFrameCmd renders (and optionally changes) the selected extended
// frame into b (xframe). On error b is returned unchanged.
//
//d2x:noalloc amortized
func (r *Runtime) appendXFrameCmd(st *session.State, vm *minic.VM, rip int64, arg string, b []byte) ([]byte, error) {
	rec, genLine, err := r.recordAt(vm, rip)
	if err != nil {
		return b, err
	}
	if rec == nil || len(rec.Stack) == 0 {
		return appendNoContext(b, "context", genLine), nil
	}
	if arg = strings.TrimSpace(arg); arg != "" {
		n, err := strconv.Atoi(arg)
		if err != nil {
			return b, fmt.Errorf("d2x: bad extended frame id %q", arg)
		}
		if n < 0 || n >= len(rec.Stack) {
			return b, fmt.Errorf("d2x: no extended frame %d (stack has %d frames)", n, len(rec.Stack))
		}
		st.SelXFrame = n
	}
	if st.SelXFrame >= len(rec.Stack) {
		st.SelXFrame = 0
	}
	loc := rec.Stack[st.SelXFrame]
	b = appendXFrame(b, st.SelXFrame, loc)
	b = append(b, '\n')
	if text, ok := r.sourceLine(loc.File, loc.Line); ok {
		b = strconv.AppendInt(b, int64(loc.Line), 10)
		b = append(b, '\t')
		b = append(b, text...)
		b = append(b, '\n')
	}
	return b, nil
}

// appendXList renders DSL source around the selected extended frame
// into b (xlist). On error b is returned unchanged.
//
//d2x:hotpath
func (r *Runtime) appendXList(st *session.State, vm *minic.VM, rip int64, b []byte) ([]byte, error) {
	rec, genLine, err := r.recordAt(vm, rip)
	if err != nil {
		return b, err
	}
	if rec == nil || len(rec.Stack) == 0 {
		return appendNoContext(b, "context", genLine), nil
	}
	if st.SelXFrame >= len(rec.Stack) {
		st.SelXFrame = 0
	}
	loc := rec.Stack[st.SelXFrame]
	lines, err := r.sourceFile(loc.File)
	if err != nil {
		return b, fmt.Errorf("d2x: cannot list %s: %w", loc.File, err)
	}
	lo := max(1, loc.Line-2)
	hi := min(len(lines), loc.Line+2)
	for n := lo; n <= hi; n++ {
		marker := byte(' ')
		if n == loc.Line {
			marker = '>'
		}
		b = append(b, marker)
		b = appendIntPadded(b, int64(n), 4)
		b = append(b, ' ')
		b = append(b, strings.TrimRight(lines[n-1], " \t")...)
		b = append(b, '\n')
	}
	return b, nil
}

// appendXVars renders the extended variables at the current line (or
// one evaluated variable) into b (xvars). On error b is returned
// unchanged.
//
//d2x:hotpath
func (r *Runtime) appendXVars(st *session.State, vm *minic.VM, rip int64, name string, b []byte) ([]byte, error) {
	rec, genLine, err := r.recordAt(vm, rip)
	if err != nil {
		return b, err
	}
	if rec == nil || len(rec.Vars) == 0 {
		return appendNoContext(b, "variables", genLine), nil
	}
	name = strings.TrimSpace(name)
	if name == "" {
		for i, v := range rec.Vars {
			b = strconv.AppendInt(b, int64(i+1), 10)
			b = append(b, '.', ' ')
			b = append(b, v.Key...)
			b = append(b, '\n')
		}
		return b, nil
	}
	for _, v := range rec.Vars {
		if v.Key != name {
			continue
		}
		val, err := r.evalVar(st, vm, v)
		if err != nil {
			return b, err
		}
		b = append(b, v.Key...)
		b = append(b, " = "...)
		b = append(b, val...)
		b = append(b, '\n')
		return b, nil
	}
	return b, fmt.Errorf("d2x: no extended variable %q at this line", name)
}

// DefaultHandlerFuel is the instruction budget for guarded rtv_handler
// evaluation when the session does not override it (State.FuelBudget).
// Generous enough for any real handler — the graphit frontier handler
// burns a few thousand instructions — while still bounding a runaway
// loop to well under a second.
const DefaultHandlerFuel int64 = 2_000_000

// StateFor returns (creating if needed) the per-session state of one
// debuggee VM — the hook tests and tooling use to tune FuelBudget.
func (r *Runtime) StateFor(vm *minic.VM) *session.State { return r.svc.State(vm) }

// guardFor picks the runtime guard for one handler call from the effect
// summary the link step recorded in the tables:
//
//   - proven safe (no writes, trivially bounded): no guard at all;
//   - no writes but unproven termination: fuel budget only;
//   - writes, or no recorded summary (old build, unknown handler):
//     fuel budget plus the write barrier.
//
// This is the "trust but verify" split: the static proof buys back the
// guard's overhead, and anything unproven runs fenced.
func (r *Runtime) guardFor(vm *minic.VM, st *session.State, handler string) *minic.Guard {
	fuel := st.FuelBudget
	if fuel <= 0 {
		fuel = DefaultHandlerFuel
	}
	full := &minic.Guard{Fuel: fuel, BlockWrites: true}
	tables, err := r.tablesFor(vm)
	if err != nil || !tables.HasFX() {
		return full
	}
	h, ok := tables.HandlerFX(handler)
	if !ok {
		return full
	}
	mask := effects.Effect(h.Mask)
	loop := effects.LoopClass(h.Loop)
	if mask&effects.WritesHeap != 0 {
		return full
	}
	if mask&effects.DivergesMaybe != 0 || loop != effects.LoopTrivial {
		return &minic.Guard{Fuel: fuel}
	}
	return nil
}

// Degraded results for guarded handler calls that hit a fence. They are
// values, not errors: a misbehaving handler must not abort the user's
// command or the session, only its own display.
const (
	ResultFuelExceeded = "<handler exceeded fuel>"
	ResultWriteBlocked = "<handler blocked: write to debuggee>"
)

// evalVar resolves a variable entry to its display string, invoking the
// generated rtv_handler for handler-valued variables under the guard
// the effect summary calls for.
//
//d2x:hotpath
func (r *Runtime) evalVar(st *session.State, vm *minic.VM, v d2xc.VarEntry) (string, error) {
	switch v.Kind {
	case d2xc.VarConst:
		return v.Val, nil
	case d2xc.VarHandler:
		g := r.guardFor(vm, st, v.Val)
		var gs minic.GuardStats
		if g == nil {
			rtvUnguarded.Inc()
		} else {
			rtvGuarded.Inc()
			g.Stats = &gs
		}
		// The handler-eval histogram is sampled 1-in-stageSampleEvery,
		// like the resolve stages in recordAt: a trivial handler is a
		// handful of VM steps, and xvars evaluates every variable in
		// scope per stop. Guard counters stay exact.
		var t0 int64
		if rtvTick.Add(1)%stageSampleEvery == 0 {
			t0 = obs.NowNanos()
		}
		res, err := vm.CallFunctionGuarded(v.Val, []minic.Value{minic.StrVal(v.Key)}, g)
		if t0 != 0 {
			rtvLat.ObserveNS(obs.NowNanos() - t0)
		}
		rtvFuelSpent.Add(gs.FuelUsed)
		switch {
		case err == nil:
		case errors.Is(err, minic.ErrFuelExhausted):
			rtvExhausted.Inc()
			obs.Emit(obs.Event{Kind: "guard", Name: "fuel", Session: st.ID,
				Detail: fmt.Sprintf("%s fuel=%d", v.Val, gs.FuelUsed), Err: err.Error()})
			return ResultFuelExceeded, nil
		case errors.Is(err, minic.ErrWriteBarrier):
			rtvBarrier.Inc()
			obs.Emit(obs.Event{Kind: "guard", Name: "barrier", Session: st.ID,
				Detail: fmt.Sprintf("%s fuel=%d", v.Val, gs.FuelUsed), Err: err.Error()})
			return ResultWriteBlocked, nil
		default:
			return "", fmt.Errorf("d2x: rtv_handler %s failed: %w", v.Val, err)
		}
		if res.Kind != minic.VStr {
			return minic.ToStr(res), nil
		}
		return res.S(), nil
	}
	return "", fmt.Errorf("d2x: unknown variable kind %d", v.Kind)
}

// appendXBreak installs a DSL-level breakpoint (xbreak): it expands the
// DSL location to all matching generated lines, appends the
// human-readable output to b, and returns the debugger commands that
// install the low-level breakpoints (executed by the debugger's eval).
// The script is interned on the session's BreakPlan, so the steady
// state hands back the same string instead of rendering a new one. An
// empty spec lists the current DSL breakpoints and returns no commands.
// On error b is returned unchanged.
//
//d2x:noalloc amortized
func (r *Runtime) appendXBreak(st *session.State, vm *minic.VM, rip int64, spec string, b []byte) ([]byte, string, error) {
	tables, err := r.tablesFor(vm)
	if err != nil {
		return b, "", err
	}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return appendXBPList(st, b), "", nil
	}
	plan, err := r.breakPlanFor(st, vm, tables, rip, spec)
	if err != nil {
		return b, "", err
	}
	if len(plan.GenLines) == 0 {
		b = append(b, "No generated code for "...)
		b = append(b, plan.File...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(plan.Line), 10)
		b = append(b, '\n')
		return b, "", nil
	}
	// The stored expansion must not alias the cached plan, which outlives
	// the breakpoint's trip through the session freelist. GetBP recycles
	// the object and GenLines storage of previously deleted breakpoints,
	// so the set/delete round trip stops allocating once warm.
	bp := st.GetBP()
	bp.ID, bp.File, bp.Line = st.NextID, plan.File, plan.Line
	bp.GenLines = append(bp.GenLines[:0], plan.GenLines...)
	bp.Plan = plan
	st.NextID++
	st.XBPs = append(st.XBPs, bp)
	b = append(b, "Inserting "...)
	b = strconv.AppendInt(b, int64(len(plan.GenLines)), 10)
	b = append(b, " breakpoints with ID: #"...)
	b = strconv.AppendInt(b, int64(bp.ID), 10)
	b = append(b, '\n')
	return b, plan.BreakScript, nil
}

// appendXBPList renders the session's DSL breakpoints (the empty-spec
// form of xbreak).
//
//d2x:noalloc amortized
func appendXBPList(st *session.State, b []byte) []byte {
	if len(st.XBPs) == 0 {
		return append(b, "No DSL breakpoints.\n"...)
	}
	for _, bp := range st.XBPs {
		b = append(b, '#')
		b = strconv.AppendInt(b, int64(bp.ID), 10)
		b = append(b, "  "...)
		b = append(b, bp.File...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(bp.Line), 10)
		b = append(b, "  ("...)
		b = strconv.AppendInt(b, int64(len(bp.GenLines)), 10)
		b = append(b, " generated locations)\n"...)
	}
	return b
}

// breakPlanFor parses a breakpoint spec, resolves its DSL file (from
// the current context when the spec names none), and returns this
// session's cached expansion of the location, computing it on first
// use. The parse is allocation-free; everything expensive — the table
// walk, the statement filter, the break/clear script strings — is paid
// once per location per session and amortizes to nothing across the
// repeated commands and batch sets that dominate real traffic.
//
//d2x:noalloc
func (r *Runtime) breakPlanFor(st *session.State, vm *minic.VM, tables *d2xenc.Tables, rip int64, spec string) (*session.BreakPlan, error) {
	file, lineStr := "", spec
	if i := strings.LastIndex(spec, ":"); i >= 0 {
		file, lineStr = spec[:i], spec[i+1:]
	}
	line, err := strconv.Atoi(lineStr)
	if err != nil {
		return nil, fmt.Errorf("d2x: bad source location %q", spec)
	}
	if file == "" {
		// Default to the DSL file of the current context, then to the
		// program's only DSL file.
		if rec, _, err := r.recordAt(vm, rip); err == nil && rec != nil {
			if top, ok := rec.Stack.Top(); ok {
				file = top.File
			}
		}
		if file == "" {
			first, ok := tables.FirstDSLFile()
			if !ok {
				return nil, fmt.Errorf("d2x: program has no DSL source information")
			}
			file = first
		}
	}
	if plan := st.PlanFor(file, line); plan != nil {
		return plan, nil
	}
	return r.buildBreakPlan(st, tables, file, line), nil //d2xvet:ignore noalloc plan misses expand and intern the scripts once per location
}

// buildBreakPlan is breakPlanFor's cache-miss path: expand the DSL
// location over the shared tables, filter to statement-bearing lines,
// dedupe, render the break and clear scripts, and cache the result on
// the session. Split out so the hit path above stays within its
// //d2x:noalloc contract.
func (r *Runtime) buildBreakPlan(st *session.State, tables *d2xenc.Tables, file string, line int) *session.BreakPlan {
	// Collect candidates into the session's scratch slice: the expansion
	// is filtered, deduped and sorted in place, and only the final
	// result is copied out onto the plan.
	st.ScratchLines = tables.AppendGenLinesForDSL(st.ScratchLines[:0], file, line)
	// Keep only lines a breakpoint can bind to (brace-only or merged
	// lines have D2X records but no statement site).
	w := 0
	for _, gl := range st.ScratchLines {
		if r.info.HasStmtOnLine(gl) {
			st.ScratchLines[w] = gl
			w++
		}
	}
	// A DSL line can reach the same generated line through several
	// records (overlapping sections, suffix-matched files): emit each
	// `break` once, in line order, or the debugger ends up with stacked
	// duplicate breakpoints xdel can only half-remove.
	breakable := dedupeSortedLines(st.ScratchLines[:w])
	plan := &session.BreakPlan{File: file, Line: line}
	if len(breakable) > 0 {
		plan.GenLines = append([]int(nil), breakable...)
		rb := getRender()
		rb.b = appendBreakCmds(rb.b[:0], "break ", r.genFileName(), breakable)
		plan.BreakScript = string(rb.b)
		rb.b = appendBreakCmds(rb.b[:0], "clear ", r.genFileName(), breakable)
		plan.ClearScript = string(rb.b)
		putRender(rb)
	}
	// Empty expansions are cached too: repeating a miss ("No generated
	// code for …") should be as cheap as repeating a hit.
	st.AddPlan(plan)
	return plan
}

// appendBreakCmds renders one debugger command per generated line
// ("break gen.c:N" or "clear gen.c:N"), newline-separated.
//
//d2x:noalloc amortized
func appendBreakCmds(b []byte, verb, gen string, lines []int) []byte {
	for i, gl := range lines {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, verb...)
		b = append(b, gen...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(gl), 10)
	}
	return b
}

// dedupeSortedLines sorts line numbers ascending and removes duplicates,
// in place.
//
//d2x:noalloc
func dedupeSortedLines(lines []int) []int {
	if len(lines) < 2 {
		return lines
	}
	sort.Ints(lines)
	w := 1
	for _, l := range lines[1:] {
		if l != lines[w-1] {
			lines[w] = l
			w++
		}
	}
	return lines[:w]
}

// appendXDel removes a DSL-level breakpoint by ID (xdel): it appends the
// human-readable output to b and returns the debugger commands that
// clear the generated-code breakpoints. On error b is returned
// unchanged.
//
//d2x:noalloc amortized
func appendXDel(st *session.State, spec string, b []byte) ([]byte, string, error) {
	spec = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(spec), "#"))
	id, err := strconv.Atoi(spec)
	if err != nil {
		return b, "", fmt.Errorf("d2x: bad breakpoint id %q", spec)
	}
	for i, bp := range st.XBPs {
		if bp.ID != id {
			continue
		}
		st.XBPs = append(st.XBPs[:i], st.XBPs[i+1:]...)
		b = append(b, "Deleted DSL breakpoint #"...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, " ("...)
		b = strconv.AppendInt(b, int64(len(bp.GenLines)), 10)
		b = append(b, " generated locations)\n"...)
		// appendXBreak is the only code that installs a breakpoint, and it
		// copies GenLines verbatim from the plan it records, so the plan's
		// interned clear script applies as-is.
		script := bp.Plan.ClearScript
		st.PutBP(bp)
		return b, script, nil
	}
	return b, "", fmt.Errorf("d2x: no DSL breakpoint #%d", id)
}

// findStackVar is the D2X runtime API available to rtv_handlers: given a
// variable name, locate its storage in the frame the current command was
// invoked on, by decoding the standard debug info (paper §4.1). It
// returns a pointer to the variable (so handlers can both read and write).
func (r *Runtime) findStackVar(vm *minic.VM, name string) (minic.Value, error) {
	if r.info == nil {
		return minic.NullVal(), fmt.Errorf("d2x: no debug info attached")
	}
	st, ok := r.svc.Lookup(vm)
	if !ok || !st.CmdActive {
		return minic.NullVal(), fmt.Errorf("d2x: find_stack_var called outside a D2X command")
	}
	frame := vm.FrameByID(int(st.CurRSP))
	if frame == nil {
		return minic.NullVal(), fmt.Errorf("d2x: frame %d is no longer live", st.CurRSP)
	}
	fi := r.info.FuncByIndex(frame.FuncIndex)
	if fi == nil {
		return minic.NullVal(), fmt.Errorf("d2x: no debug info for function index %d", frame.FuncIndex)
	}
	v, ok := fi.VarByName(name)
	if !ok || v.Slot >= len(frame.Slots) {
		return minic.NullVal(), fmt.Errorf("d2x: no variable %q in %s", name, fi.Name)
	}
	return minic.PtrVal(frame.Slots[v.Slot]), nil
}

//d2x:noalloc
func (r *Runtime) genFileName() string {
	if r.info != nil {
		return r.info.File
	}
	return ""
}

func (r *Runtime) sourceFile(path string) ([]string, error) {
	r.fileMu.Lock()
	defer r.fileMu.Unlock()
	if lines, ok := r.fileCache[path]; ok {
		fileCacheHits.Inc()
		return lines, nil
	}
	fileCacheMisses.Inc()
	text, err := r.files(path)
	if err != nil {
		// Failures are not cached: the file may appear later (e.g. a
		// resolver backed by a build directory that is still filling).
		return nil, err
	}
	lines := strings.Split(text, "\n")
	for len(r.fileOrder) >= maxFileCacheEntries {
		oldest := r.fileOrder[0]
		r.fileOrder = r.fileOrder[1:]
		delete(r.fileCache, oldest)
		fileCacheEvicts.Inc()
	}
	r.fileCache[path] = lines
	r.fileOrder = append(r.fileOrder, path)
	return lines, nil
}

//d2x:noalloc
func (r *Runtime) sourceLine(path string, n int) (string, bool) {
	lines, err := r.sourceFile(path) //d2xvet:ignore noalloc cache-miss file reads happen once per file, off the steady state
	if err != nil || n < 1 || n > len(lines) {
		return "", false
	}
	return strings.TrimRight(lines[n-1], " \t"), true
}
