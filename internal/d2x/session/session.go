// Package session is the shared debug-info service behind D2X-R: it owns
// the one immutable decode of a build's D2X tables and the per-session
// command state of every debugger attached to that build.
//
// The paper's premise (§3.2, Table 2) is that a debug command is a cheap
// call into the paused inferior. When many sessions debug instances of
// the same build concurrently, that only holds if the expensive part —
// decoding the tables out of inferior memory — happens once per build,
// not once per session, and if the cheap part touches no state shared
// between sessions. This package provides exactly that split:
//
//   - Tables: decoded on first use from whichever session asks first,
//     then shared read-only by every later session. d2xenc.Tables is
//     immutable after Decode and published through an atomic pointer,
//     so the hit path takes no lock at all — one atomic load plus one
//     atomic counter increment.
//   - State: the ambient command state one session accumulates (selected
//     extended frame, DSL breakpoints, active-command frame). Each state
//     lives exactly as long as its session's debugger and is touched only
//     by that session's command stream; the registry holding them is
//     sharded by VM identity, so sessions on different shards never
//     contend even on the map.
//   - Release: evicts a session's state when its debugger closes, so a
//     long-lived build serving many sessions does not accumulate state
//     for VMs that are gone.
//
// Every event the service sees — decodes, cache hits and misses, state
// creation and eviction, the live-session high-water mark — is exported
// through internal/obs, so the premise is measured rather than asserted.
package session

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"d2x/internal/d2x/d2xenc"
	"d2x/internal/minic"
	"d2x/internal/obs"
)

// XBreakpoint is one DSL-level breakpoint: a DSL location expanded to the
// generated lines it corresponds to. Breakpoints belong to the session
// that set them; IDs are per-session, like a debugger's.
type XBreakpoint struct {
	ID       int
	File     string
	Line     int
	GenLines []int

	// Plan is the cached expansion this breakpoint was installed from.
	// GenLines is a copy, never an alias: the breakpoint is recycled
	// through the session freelist while the plan stays cached.
	Plan *BreakPlan
}

// BreakPlan is the build-derived expansion of one DSL breakpoint
// location: the deduped sorted generated lines plus the interned break
// and clear scripts the debugger executes to install and remove them.
// A plan is computed once per (file, line) per session and cached on
// the State (see PlanFor/AddPlan) — the lexer, macro, and string work
// of resolving a spec is paid on the first xbreak only, which is what
// takes the xbreak+xdel round trip below its allocation budget. Plans
// are immutable once cached.
type BreakPlan struct {
	File     string
	Line     int
	GenLines []int

	// BreakScript and ClearScript are the newline-joined stock-debugger
	// command strings ("break gen.c:N" / "clear gen.c:N", one per
	// generated line) the macro layer evals.
	BreakScript string
	ClearScript string
}

// breakKey keys the per-session plan cache. A struct key, so lookups
// allocate nothing.
type breakKey struct {
	file string
	line int
}

// maxPlanCache bounds the per-session plan cache. When full it is
// cleared wholesale (like the runtime's expression caches): a session
// that resolves hundreds of distinct locations is a fuzzer, not a
// debugging human, and re-resolving is merely the cold-path cost.
const maxPlanCache = 256

// State is the command state of one debug session, keyed by the session's
// debuggee VM. A debug session executes commands one at a time from its
// paused debugger, so the fields need no lock of their own — only the
// sharded registry that stores states is shared between sessions. A
// state is created on the session's first use and dropped by Release
// when its debugger closes; it never outlives the session.
type State struct {
	// ID identifies this session in trace events and diagnostics,
	// assigned once at creation.
	ID int64

	// SelXFrame is the selected extended frame (xframe), reset to the
	// top whenever a command arrives with a new rip.
	SelXFrame int
	LastRIP   int64
	HaveRIP   bool

	// CmdActive reports that a frame-bearing D2X command is currently
	// executing on this session, and CurRSP holds its frame ID. An
	// explicit flag, not a sentinel value: frame ID 0 is a valid frame
	// (the first frame a VM creates), so "CurRSP == 0" cannot mean
	// "no command running".
	CmdActive bool
	CurRSP    int64

	XBPs   []*XBreakpoint
	NextID int

	// FuelBudget overrides the runtime's default instruction budget for
	// guarded rtv-handler evaluation in this session (0 = use the
	// runtime default). Handlers the effects analysis proved safe run
	// unguarded and ignore it.
	FuelBudget int64

	// Journal is the execution-journal handle of this session's process
	// record (a *journal.Journal, stored as any so this package does not
	// depend on the recorder). The debugger owns the recording and stops
	// it when it closes; the d2x layer publishes the handle here so
	// tooling can reach it through the session state.
	Journal any

	// ScratchLines is the reusable generated-line scratch of the xbreak
	// command path (candidate collection, dedupe, sort). It is
	// touched only by this session's single command stream and is always
	// rewritten from length zero, so stale contents cannot leak between
	// commands; keeping its capacity is what makes repeat commands
	// allocation-free.
	ScratchLines []int

	// bpFree recycles breakpoints deleted by xdel — object and GenLines
	// capacity both — so a set/delete round trip stops allocating once
	// warm. Owned by the session's single command stream, like
	// ScratchLines; their fields are fully rewritten on reuse.
	bpFree []*XBreakpoint

	// plans caches the BreakPlan of every DSL location this session has
	// resolved, keyed by (file, line). Owned by the session's single
	// command stream.
	plans map[breakKey]*BreakPlan
}

// GetBP pops a recycled breakpoint — GenLines emptied, capacity kept —
// or allocates a fresh one. Callers overwrite every field.
//
//d2x:noalloc
func (st *State) GetBP() *XBreakpoint {
	if n := len(st.bpFree); n > 0 {
		bp := st.bpFree[n-1]
		st.bpFree[n-1] = nil
		st.bpFree = st.bpFree[:n-1]
		bp.GenLines = bp.GenLines[:0]
		return bp
	}
	return &XBreakpoint{} //d2xvet:ignore noalloc freelist miss allocates once; every round trip after reuses it
}

// PutBP recycles a deleted breakpoint's storage for the next xbreak.
// The breakpoint must already be unlinked from XBPs.
//
//d2x:noalloc amortized
func (st *State) PutBP(bp *XBreakpoint) {
	bp.Plan = nil
	st.bpFree = append(st.bpFree, bp)
}

// PlanFor returns the cached expansion of a DSL location, or nil if
// this session has not resolved it yet.
//
//d2x:noalloc
func (st *State) PlanFor(file string, line int) *BreakPlan {
	return st.plans[breakKey{file, line}]
}

// AddPlan caches a freshly computed expansion. The cache is bounded;
// when full it is cleared wholesale rather than evicted piecemeal.
func (st *State) AddPlan(p *BreakPlan) {
	if st.plans == nil {
		st.plans = make(map[breakKey]*BreakPlan, 8)
	} else if len(st.plans) >= maxPlanCache {
		clear(st.plans)
	}
	st.plans[breakKey{p.File, p.Line}] = p
}

// metrics is the service's observability handle set, resolved once at
// New so the hot paths never touch the registry.
type metrics struct {
	decodes      *obs.Counter
	decodeErrs   *obs.Counter
	tablesHit    *obs.Counter
	tablesMiss   *obs.Counter
	stateCreates *obs.Counter
	stateEvicts  *obs.Counter
	live         *obs.Gauge
	decodeLat    *obs.Histogram
	fusedHit     *obs.Counter
	fusedMiss    *obs.Counter
	fusedBuilds  *obs.Counter
	fusedLat     *obs.Histogram
}

func newMetrics() metrics {
	return metrics{
		decodes:      obs.GetCounter("session.tables.decodes"),
		decodeErrs:   obs.GetCounter("session.tables.decode_errors"),
		tablesHit:    obs.GetCounter("session.tables.hit"),
		tablesMiss:   obs.GetCounter("session.tables.miss"),
		stateCreates: obs.GetCounter("session.state.creates"),
		stateEvicts:  obs.GetCounter("session.state.evicts"),
		live:         obs.GetGauge("session.live"),
		decodeLat:    obs.GetHistogram("session.tables.decode"),
		fusedHit:     obs.GetCounter("session.fused.hit"),
		fusedMiss:    obs.GetCounter("session.fused.miss"),
		fusedBuilds:  obs.GetCounter("session.fused.builds"),
		fusedLat:     obs.GetHistogram("session.fused.build"),
	}
}

// ShardCount is the number of independent locks the state registry is
// split across. A power of two; 32 shards keep lock contention invisible
// even with a thousand concurrent sessions (the d2xserve load harness is
// the regression test for that claim).
const ShardCount = 32

// shard is one slice of the state registry: a lock and the states of
// the VMs that hash here.
type shard struct {
	mu     sync.Mutex
	states map[*minic.VM]*State
}

// Service shares one build's decoded D2X tables across its debug
// sessions and tracks each session's command state. All methods are safe
// for concurrent use by multiple sessions.
type Service struct {
	// tables is the published decode. Reads are a single atomic load —
	// the shared-tables fast path takes no lock whatsoever.
	tables atomic.Pointer[d2xenc.Tables]

	// fused is the published fused resolution index, derived from one
	// (tables, debug-info) pair and shared read-only by every session,
	// under the same atomic-pointer discipline as tables.
	fused atomic.Pointer[Fused]

	// decodeMu serialises the slow paths that publish shared data: the
	// table decode and the fused-index build. It is never taken on a hit
	// path and never nests with a shard lock.
	decodeMu sync.Mutex
	decodes  int

	shards [ShardCount]shard

	nextSessID atomic.Int64
	m          metrics
}

// New returns an empty service.
func New() *Service {
	s := &Service{m: newMetrics()}
	for i := range s.shards {
		s.shards[i].states = map[*minic.VM]*State{}
	}
	return s
}

// shardFor picks the shard owning a VM's state. VMs have no dense ID, so
// the key is the VM's identity (its address), spread with a Fibonacci
// hash — heap addresses share low bits (alignment) and high bits (arena),
// and the multiply mixes both into the top bits we index by.
//
//d2x:noalloc
func (s *Service) shardFor(vm *minic.VM) *shard {
	h := uint64(uintptr(unsafe.Pointer(vm))) * 0x9E3779B97F4A7C15
	return &s.shards[h>>(64-5)] // top 5 bits: ShardCount == 32
}

// Tables returns the build's decoded D2X tables, decoding them out of
// vm's memory on first use. Every session shares the same immutable
// decode. Failures are not cached: one VM's tables, which its program
// or a debugger user may have overwritten, must not poison sessions that
// ask later.
//
//d2x:noalloc
func (s *Service) Tables(vm *minic.VM) (*d2xenc.Tables, error) {
	if t := s.tables.Load(); t != nil {
		s.m.tablesHit.Inc()
		return t, nil
	}
	return s.decodeTables(vm) //d2xvet:ignore noalloc miss path decodes once per build, off the steady state
}

// decodeTables is the Tables miss path: decode vm's memory under
// decodeMu and publish the result. Split from Tables so the hit path
// above stays within the //d2x:noalloc contract.
func (s *Service) decodeTables(vm *minic.VM) (*d2xenc.Tables, error) {
	s.m.tablesMiss.Inc()
	s.decodeMu.Lock()
	defer s.decodeMu.Unlock()
	if t := s.tables.Load(); t != nil {
		// Another session decoded while we waited for the lock.
		return t, nil
	}
	start := obs.Now()
	t, err := d2xenc.Decode(vm)
	if err != nil {
		s.m.decodeErrs.Inc()
		obs.Emit(obs.Event{Kind: "decode", Name: "tables", Err: err.Error()})
		return nil, err
	}
	s.m.decodeLat.Since(start)
	s.m.decodes.Inc()
	s.decodes++
	obs.Emit(obs.Event{Kind: "decode", Name: "tables", Detail: "shared decode published"})
	s.tables.Store(t)
	return t, nil
}

// getOrCreate returns vm's state, creating it on first use. Caller holds
// sh.mu.
func (s *Service) getOrCreate(sh *shard, vm *minic.VM) *State {
	st := sh.states[vm]
	if st == nil {
		st = &State{ID: s.nextSessID.Add(1), NextID: 1}
		sh.states[vm] = st
		s.m.stateCreates.Inc()
		// Delta, not Set: the gauge is process-wide and several builds'
		// services may feed it concurrently.
		s.m.live.Add(1)
		obs.Emit(obs.Event{Kind: "session", Name: "create", Session: st.ID})
	}
	return st
}

// State returns the command state of vm's session, creating it on first
// use. Every D2X command and batch looks its state up here: one shard
// lock, no allocation once the state exists. The state belongs to the
// session's single command stream, and Release runs on that same stream
// when the debugger closes, so nothing else can tear it mid-command.
//
//d2x:noalloc
func (s *Service) State(vm *minic.VM) *State {
	sh := s.shardFor(vm)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.getOrCreate(sh, vm) //d2xvet:ignore noalloc state creation happens once per session; every later lookup is a map hit
}

// Lookup returns the command state of vm's session without creating one.
//
//d2x:noalloc
func (s *Service) Lookup(vm *minic.VM) (*State, bool) {
	sh := s.shardFor(vm)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.states[vm]
	return st, ok
}

// Release evicts the command state of vm's session. Idempotent; the
// shared tables stay, since they belong to the build, not the session.
func (s *Service) Release(vm *minic.VM) {
	sh := s.shardFor(vm)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.states[vm]
	if !ok {
		return
	}
	delete(sh.states, vm)
	s.m.stateEvicts.Inc()
	s.m.live.Add(-1)
	obs.Emit(obs.Event{Kind: "session", Name: "evict", Session: st.ID})
}

// Sessions reports how many sessions currently hold state.
func (s *Service) Sessions() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.states)
		sh.mu.Unlock()
	}
	return n
}

// Decodes reports how many times the tables were decoded from a debuggee:
// 1 after any session ran a table-backed command, no matter how many
// sessions there are.
func (s *Service) Decodes() int {
	s.decodeMu.Lock()
	defer s.decodeMu.Unlock()
	return s.decodes
}

// AllBreakpoints returns the DSL breakpoints of every live session,
// ordered by ID (per-session creation order; IDs may repeat across
// sessions).
func (s *Service) AllBreakpoints() []*XBreakpoint {
	var out []*XBreakpoint
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, st := range sh.states {
			out = append(out, st.XBPs...)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
