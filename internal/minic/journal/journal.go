// Package journal records minic VM execution so it can run backwards.
//
// The design is the classic deterministic-replay one (rr, GDB process
// record): because the VM is single-goroutine, round-robin scheduled and
// input-free, execution is a pure function of a state snapshot, so the
// journal only needs snapshots plus a log of where execution stood.
// Restoring to position N restores the nearest snapshot at or before N
// and re-executes the gap with program output suppressed; re-execution
// is byte-identical to the original run, which the replay differential
// tests pin. Snapshots are taken at a fixed spacing and at the stops the
// debugger reports (CheckpointStop), where rewinds land.
//
// Positions count scheduled instructions, and the VM keeps that count
// itself (minic.VM.Scheduled), so the log need not hold one record per
// instruction. It holds one per statement boundary instead: the VM fires
// the journal's hook only before a statement-start instruction, which is
// the only kind of instruction reverse-step and reverse-continue ever
// land on. On the Fig4 run that is about one instruction in ten. Records
// are fixed-size and append into pooled chunks, so steady-state recording
// allocates nothing (truncated or stopped journals return their chunks
// to a shared pool — the same ring/pool discipline internal/obs uses for
// its histograms). The package deliberately depends only on
// internal/minic — it is VM machinery, usable by the stock debugger with
// no D2X knowledge.
//
// Two fidelity caveats, both shared with GDB's recorder: the journal
// sees scheduled instructions only, so synthetic calls the debugger
// injects at a stop (`call`, rtv_handlers) are not part of history; and
// debugger-applied mutations (`set var`) at a past stop are not replayed
// — callers should force a Checkpoint after mutating, which the
// debugger's `set` command does.
package journal

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"unsafe"

	"d2x/internal/minic"
)

// chunkShift sizes the record chunks: 1<<12 records x 16 bytes = 64 KiB
// per chunk, about 40K instructions of history on the Fig4 run.
const (
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// rec is one statement boundary: where execution stood just before the
// statement-start instruction at a position ran. 16 bytes, fixed size,
// no pointers. The bytes each record writes are most of what recording
// costs (EXPERIMENTS.md), so the position shares a word with the frame
// depth, which the VM holds to 10,000 frames, and the function and pc are
// one program-wide instruction index (minic.FuncCode.Base).
type rec struct {
	at     uint64 // position<<depthBits | depth
	thread int32
	ip     uint32
}

// depthBits is the share of rec.at that holds the depth. It leaves 48
// bits for positions: recording ends (as Stop ends it) after maxStep
// scheduled instructions, weeks of execution at the VM's speed.
const (
	depthBits = 16
	maxStep   = 1<<(64-depthBits) - 1
)

func (r *rec) step() int64 { return int64(r.at >> depthBits) }

type chunk [chunkSize]rec

// chunkPool recycles record chunks across truncations, journals and
// sessions. Chunks are pointer-free and every record slot is fully
// rewritten before it is readable (reads stop at the last record
// logged), so reused chunks
// need no zeroing — which is the point: new(chunk) pays a 96 KiB memclr
// that recording at full speed should not.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// Rec is the exported view of one statement boundary.
type Rec struct {
	Step      int64 // position: scheduled instructions before this one
	Thread    int   // thread ID about to run it
	FuncIndex int   // function containing it
	PC        int   // instruction index within the function
	Depth     int   // frame depth of the thread at that moment
}

// Options configures a journal.
type Options struct {
	// SnapshotEvery is the scheduled-instruction cadence between full
	// snapshots. Larger values record faster and replay slower. 0 means
	// DefaultSnapshotEvery.
	SnapshotEvery int64
}

// DefaultSnapshotEvery is the snapshot cadence when Options leaves it 0.
// A full snapshot is O(live heap) — on the Fig4 workload it costs about
// as much as running a few tens of thousands of instructions — so the
// spacing is what keeps recording inside its 15% overhead budget: at
// half a million instructions between snapshots the cadence cost
// amortizes below 5%, and the worst-case rewind replays the gap in well
// under a second (the replay loop runs at full VM speed with output
// discarded).
const DefaultSnapshotEvery = 1 << 19

// Stats is recording telemetry for `info record` and the overhead
// experiments.
type Stats struct {
	Steps       int64 // recorded scheduled instructions (current history extent)
	Snapshots   int   // live snapshots, including the base
	Replays     int64 // RestoreTo invocations
	ReplaySteps int64 // instructions re-executed across all replays
	RecordBytes int64 // bytes held by the statement-record chunks
}

type checkpoint struct {
	step int64
	snap *minic.Snapshot
}

// Journal records one VM. Not safe for concurrent use — like the VM it
// records, it belongs to a single-goroutine debug session.
type Journal struct {
	vm *minic.VM

	// The hot-path cursor. cur/pos shadow chunks[len(chunks)-1] and the
	// offset of the next record within it, so the append is one pointer
	// indexing instead of two bounds-checked slice lookups; pos ==
	// chunkSize forces grow. nextSnap is the position from which the
	// next cadence snapshot is due; once recording has ended it is 0, so
	// that a hook call still under way only returns.
	cur      *chunk
	pos      int
	nextSnap int64

	base   int64 // vm.Scheduled() at position 0
	end    int64 // the position Stop froze
	every  int64
	chunks []*chunk
	snaps  []checkpoint // ascending by step; snaps[0] is the base at step 0
	active bool
	stats  Stats
}

// Attach starts recording vm. The VM must be started: the base snapshot
// is the state at attach, so restoring to step 0 lands exactly where a
// debugger's first stop does.
func Attach(vm *minic.VM, opts Options) (*Journal, error) {
	if !vm.Started() {
		return nil, fmt.Errorf("journal: VM not started")
	}
	every := opts.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	j := &Journal{vm: vm, every: every, active: true, pos: chunkSize, nextSnap: every, base: vm.Scheduled()}
	j.snaps = append(j.snaps, checkpoint{step: 0, snap: vm.TakeSnapshot()})
	vm.SetStepHook(j.record)
	return j, nil
}

// Step returns the current position: the number of scheduled
// instructions between the base snapshot and the VM's present state.
//
//d2x:noalloc
func (j *Journal) Step() int64 {
	if !j.active {
		return j.end
	}
	return j.vm.Scheduled() - j.base
}

// Active reports whether the journal is still recording.
func (j *Journal) Active() bool { return j.active }

// Stats returns a copy of the recording telemetry.
func (j *Journal) Stats() Stats {
	s := j.stats
	s.Steps = j.Step()
	s.Snapshots = len(j.snaps)
	s.RecordBytes = int64(len(j.chunks)) * int64(unsafe.Sizeof(chunk{}))
	return s
}

// Stop detaches the journal from the VM and releases its history. The
// journal cannot be restarted; attach a new one.
func (j *Journal) Stop() {
	if !j.active {
		return
	}
	j.end = j.Step()
	j.active = false
	j.nextSnap = 0
	j.vm.SetStepHook(nil)
	for _, c := range j.chunks {
		chunkPool.Put(c)
	}
	j.chunks, j.snaps, j.cur = nil, nil, nil
}

// record is the hot path, installed as the VM's statement-boundary
// hook. It runs once per scheduled statement-start instruction while
// recording is on, with the thread about to run it, its top frame and
// the VM's position.
//
//d2x:hotpath
//d2x:noalloc
func (j *Journal) record(t *minic.Thread, f *minic.Frame, pos int64) {
	// The hook fires before the instruction at position step executes,
	// so right now the VM state IS position step — the only moment a
	// cadence snapshot for it can be taken.
	step := pos - j.base
	if step >= j.nextSnap && !j.due(step) { //d2xvet:ignore noalloc cadence snapshots are off the per-statement path
		return
	}
	if j.pos == chunkSize {
		j.grow() //d2xvet:ignore noalloc chunk growth is pooled and amortized over 4096 records
	}
	j.cur[j.pos] = rec{at: uint64(step)<<depthBits | uint64(len(t.Frames)), thread: int32(t.ID), ip: uint32(f.Code.Base + f.PC)}
	j.pos++
}

// due takes the cadence snapshot due at position step and reports
// whether recording goes on. It ends, as Stop ends it, at a position
// too large for a record.
func (j *Journal) due(step int64) bool {
	if !j.active {
		return false
	}
	if step > maxStep {
		j.Stop()
		return false
	}
	j.checkpoint(step)
	return true
}

// grow opens the chunk holding the next record.
func (j *Journal) grow() {
	j.cur = chunkPool.Get().(*chunk)
	j.chunks = append(j.chunks, j.cur)
	j.pos = 0
}

// checkpoint takes a snapshot at position step unless one is already
// recorded there (a checkpoint at a stop is followed by the hook at the
// same position when execution resumes), and schedules the next cadence
// snapshot for the following multiple of `every`.
func (j *Journal) checkpoint(step int64) {
	if j.snaps[len(j.snaps)-1].step < step {
		j.snaps = append(j.snaps, checkpoint{step: step, snap: j.vm.TakeSnapshot()})
	}
	j.nextSnap = min(step-step%j.every+j.every, maxStep+1)
}

// StopCheckpointGap is the least history, in scheduled instructions,
// that CheckpointStop wants between the latest snapshot and a stop it
// snapshots. A snapshot at a stop makes a later rewind to that stop a
// restore with nothing to replay, but it costs a copy of the arrays
// changed since the previous snapshot (tens of microseconds on Fig4),
// and stepping stops every few instructions. The gap bounds both sides:
// at most one stop snapshot per 16K instructions of history, however
// the user steps, and a rewind to any stop replays fewer than 16K
// instructions, since a stop goes unsnapshotted only when a snapshot
// lies closer behind it.
const StopCheckpointGap = 1 << 14

// CheckpointStop snapshots the current position, where the debugger has
// stopped, unless the latest snapshot lies fewer than StopCheckpointGap
// scheduled instructions back.
func (j *Journal) CheckpointStop() {
	if !j.active {
		return
	}
	if step := j.Step(); step-j.snaps[len(j.snaps)-1].step >= StopCheckpointGap {
		j.checkpoint(step)
	}
}

// Checkpoint forces a full snapshot at the current position, replacing
// one already taken there. The debugger calls this after mutating the
// debuggee at a stop (`set var`), so that replays crossing the stop see
// the mutated state exactly as the forward run did.
func (j *Journal) Checkpoint() {
	if !j.active {
		return
	}
	step := j.Step()
	if last := &j.snaps[len(j.snaps)-1]; last.step == step {
		last.snap = j.vm.TakeSnapshot()
		return
	}
	j.checkpoint(step)
}

// records returns the number of statement records logged.
func (j *Journal) records() int { return (len(j.chunks)-1)<<chunkShift + j.pos }

// at returns record k.
func (j *Journal) at(k int) *rec { return &j.chunks[k>>chunkShift][k&chunkMask] }

// before returns the number of records logged before position pos.
func (j *Journal) before(pos int64) int {
	return sort.Search(j.records(), func(k int) bool { return j.at(k).step() >= pos })
}

// RestoreTo rewinds (or fast-forwards within history) the VM to its
// exact state after `target` scheduled instructions: the nearest
// snapshot at or before target is restored and the gap re-executed by
// the VM's forward run loop (RunUntil) with program output suppressed,
// so replay emits nothing the forward run already printed. History
// beyond target is discarded — resuming forward from there
// deterministically regenerates it (and its output), unless the caller
// mutates the debuggee first, which is the point of rewinding.
func (j *Journal) RestoreTo(target int64) error {
	if !j.active {
		return fmt.Errorf("journal: not recording")
	}
	if step := j.Step(); target < 0 || target > step {
		return fmt.Errorf("journal: step %d outside recorded history [0, %d]", target, step)
	}
	// Nearest checkpoint at or before target (snaps is ascending and
	// snaps[0].step == 0).
	ci := 0
	for i := len(j.snaps) - 1; i >= 0; i-- {
		if j.snaps[i].step <= target {
			ci = i
			break
		}
	}
	cp := j.snaps[ci]
	j.snaps = j.snaps[:ci+1]
	j.nextSnap = min(cp.step-cp.step%j.every+j.every, maxStep+1)

	// Truncate the log to the records before target, recycling whole
	// chunks, and point the append cursor at the first free slot (pos
	// == chunkSize makes the next record pull a chunk from the pool).
	n := j.before(target)
	keep := (n + chunkMask) >> chunkShift
	for len(j.chunks) > keep {
		last := len(j.chunks) - 1
		chunkPool.Put(j.chunks[last])
		j.chunks = j.chunks[:last]
	}
	if keep > 0 {
		j.cur = j.chunks[keep-1]
		j.pos = n - (keep-1)<<chunkShift
	} else {
		j.cur = nil
		j.pos = chunkSize
	}

	vm := j.vm
	vm.SetStepHook(nil)
	out := vm.Output
	vm.Output = io.Discard
	err := vm.RestoreSnapshot(cp.snap)
	if gap := target - j.Step(); err == nil && gap > 0 && vm.RunUntil(gap, nil) < gap {
		err = fmt.Errorf("journal: replay stalled at step %d of %d", j.Step(), target)
	}
	vm.Output = out
	vm.SetStepHook(j.record)
	if err != nil {
		return err
	}
	j.stats.Replays++
	j.stats.ReplaySteps += target - cp.step
	return nil
}

// SeekBack scans the statement log backwards from position `from`
// (exclusive) for the most recent boundary satisfying pred. ok is false
// when no logged boundary matches. The scan does not touch the VM; pair
// it with RestoreTo(r.Step).
func (j *Journal) SeekBack(from int64, pred func(Rec) bool) (r Rec, ok bool) {
	for k := j.before(from) - 1; k >= 0; k-- {
		x := j.at(k)
		fn, pc := j.vm.Prog.FuncAt(int(x.ip))
		r = Rec{Step: x.step(), Thread: int(x.thread), FuncIndex: fn, PC: pc, Depth: int(x.at & (1<<depthBits - 1))}
		if pred(r) {
			return r, true
		}
	}
	return Rec{}, false
}
