package debugger

// Process record and reverse execution (GDB's `record` / `reverse-step` /
// `reverse-continue`). These are stock debugger features — GDB has had
// them since 7.0 — so they live here, not in any D2X layer; D2X's
// reverse-xbt macro composes them through `call`/`eval` exactly like the
// forward macros. The machinery stays behind the small Recorder surface
// (Hanson's portable-debugger lesson): the debugger never sees snapshots
// or logs, only statement boundaries it can scan and positions it can
// restore.

import (
	"fmt"
	"strconv"
	"strings"

	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/minic/journal"
)

// Recorder is what the debugger needs from an execution recorder: a
// position counter, a backwards scan over the statement boundaries
// execution crossed, and exact restoration to any position. Positions
// count scheduled debuggee instructions; synthetic calls the debugger
// injects at a stop are not history.
type Recorder interface {
	// Step returns the current position (instructions recorded between
	// attach and the debuggee's present state).
	Step() int64
	// SeekBack scans the statement boundaries before position from,
	// newest first, and returns the position of the first one match
	// accepts. match sees where execution stood just before the
	// boundary's statement-start instruction ran. ok is false when none
	// matches.
	SeekBack(from int64, match func(thread, funcIndex, pc, depth int) bool) (step int64, ok bool)
	// RestoreTo rewinds the debuggee to its exact state at position
	// step, discarding later history (forward execution regenerates it
	// deterministically).
	RestoreTo(step int64) error
	// Checkpoint forces a full snapshot at the current position, so a
	// mutation applied at this stop survives replays across it.
	Checkpoint()
	// Active reports whether recording is still on.
	Active() bool
	// Stop ends recording and releases all history.
	Stop()
	// Info returns telemetry for `info record`: instructions logged,
	// snapshots held, and bytes of instruction log.
	Info() (steps int64, snapshots int, bytes int64)
}

// journalRecorder adapts the VM execution journal to the Recorder
// surface.
type journalRecorder struct{ j *journal.Journal }

// NewJournalRecorder wraps a VM execution journal as a Recorder. Layers
// that keep the journal handle elsewhere (the D2X session service stores
// it on per-VM state) attach the journal themselves and hand the wrapped
// recorder to the debugger through SetRecorderFactory.
func NewJournalRecorder(j *journal.Journal) Recorder { return journalRecorder{j} }

func (r journalRecorder) Step() int64 { return r.j.Step() }

func (r journalRecorder) SeekBack(from int64, match func(thread, funcIndex, pc, depth int) bool) (int64, bool) {
	rec, ok := r.j.SeekBack(from, func(rec journal.Rec) bool {
		return match(rec.Thread, rec.FuncIndex, rec.PC, rec.Depth)
	})
	return rec.Step, ok
}

func (r journalRecorder) RestoreTo(step int64) error { return r.j.RestoreTo(step) }
func (r journalRecorder) Checkpoint()                { r.j.Checkpoint() }
func (r journalRecorder) Active() bool               { return r.j.Active() }
func (r journalRecorder) Stop()                      { r.j.Stop() }

func (r journalRecorder) Info() (int64, int, int64) {
	s := r.j.Stats()
	return s.Steps, s.Snapshots, s.RecordBytes
}

// SetRecorderFactory overrides how `record` builds a recorder for the
// debuggee. The default attaches a fresh VM execution journal; the D2X
// session layer installs a factory that parks the journal handle on the
// per-VM session state so recording survives session eviction.
func (d *Debugger) SetRecorderFactory(f func(*minic.VM) (Recorder, error)) {
	d.recorderFactory = f
}

// ActiveRecorder returns the live recorder, or nil when recording is off.
func (d *Debugger) ActiveRecorder() Recorder {
	if d.recorder != nil && d.recorder.Active() {
		return d.recorder
	}
	return nil
}

// StartRecording turns on process record at the current stop. The base
// snapshot is taken here, so position 0 is this stop — module
// initialisers and instructions already executed are not in history.
func (d *Debugger) StartRecording() error {
	if !d.started {
		return fmt.Errorf("the program is not being run")
	}
	if d.ActiveRecorder() != nil {
		return fmt.Errorf("process record is already started")
	}
	factory := d.recorderFactory
	if factory == nil {
		factory = func(vm *minic.VM) (Recorder, error) {
			j, err := journal.Attach(vm, journal.Options{})
			if err != nil {
				return nil, err
			}
			return NewJournalRecorder(j), nil
		}
	}
	rec, err := factory(d.proc.VM)
	if err != nil {
		return err
	}
	d.recorder = rec
	return nil
}

// StopRecording turns process record off and deletes the history.
func (d *Debugger) StopRecording() error {
	if d.ActiveRecorder() == nil {
		return fmt.Errorf("process record is not started")
	}
	d.recorder.Stop()
	d.recorder = nil
	return nil
}

// requireRecorder gates the reverse commands. Unlike checkRunning it
// accepts an exited program: with history recorded, running backwards
// out of the exit is exactly what reverse execution is for.
func (d *Debugger) requireRecorder() (Recorder, error) {
	if !d.started {
		return nil, fmt.Errorf("the program is not being run")
	}
	rec := d.ActiveRecorder()
	if rec == nil {
		return nil, fmt.Errorf(`process record is not started (use "record")`)
	}
	return rec, nil
}

// reverseStopAt restores position step and rebuilds the debugger's stop
// state there. Thread and frame pointers from before the rewind are
// stale afterwards; everything is re-resolved by ID.
func (d *Debugger) reverseStopAt(rec Recorder, step int64, reason StopReason, bp *Breakpoint) (Stop, error) {
	if err := rec.RestoreTo(step); err != nil {
		return Stop{}, err
	}
	vm := d.proc.VM
	t := vm.NextThread()
	if t == nil || t.Top() == nil {
		// Position 0 of an already-finished recording, or a stop on a
		// thread mid-teardown: report it like an exit.
		d.skipValid = false
		d.lastStop = Stop{Reason: StopExited}
		return d.lastStop, nil
	}
	top := t.Top()
	d.stopAt(t, reason, bp, dwarfish.Addr{FuncIndex: top.FuncIndex, PC: top.PC})
	return d.lastStop, nil
}

// ReverseStep runs the selected thread backwards to the previous source
// line (GDB `reverse-step`): the most recent statement boundary of that
// thread whose line or frame depth differs from the current one.
func (d *Debugger) ReverseStep() (Stop, error) {
	rec, err := d.requireRecorder()
	if err != nil {
		return Stop{}, err
	}
	t := d.SelectedThread()
	if t == nil {
		return Stop{}, fmt.Errorf("no thread selected")
	}
	startDepth := len(t.Frames)
	startLine := -1
	if t.Top() != nil {
		if _, line, ok := d.lineAt(0); ok {
			startLine = line
		}
	}
	target, ok := rec.SeekBack(rec.Step(), func(th, fn, pc, depth int) bool {
		if th != t.ID {
			return false
		}
		_, line, ok := d.proc.Info.LineFor(dwarfish.Addr{FuncIndex: fn, PC: pc})
		return ok && (depth != startDepth || line != startLine)
	})
	if !ok {
		d.printf("No more reverse-execution history.\n")
		return d.reverseStopAt(rec, 0, StopStep, nil)
	}
	return d.reverseStopAt(rec, target, StopStep, nil)
}

// ReverseContinue runs backwards to the most recent breakpoint hit (GDB
// `reverse-continue`), honouring breakpoint conditions by evaluating
// them in the restored state. With no breakpoint in history it rewinds
// to the beginning of the recording.
func (d *Debugger) ReverseContinue() (Stop, error) {
	rec, err := d.requireRecorder()
	if err != nil {
		return Stop{}, err
	}
	vm := d.proc.VM
	scanFrom := rec.Step()
	for {
		var (
			addr dwarfish.Addr
			thID int
		)
		target, ok := rec.SeekBack(scanFrom, func(th, fn, pc, _ int) bool {
			a := dwarfish.Addr{FuncIndex: fn, PC: pc}
			if d.breakpointAt(a) == nil {
				return false
			}
			addr, thID = a, th
			return true
		})
		if !ok {
			d.printf("No more reverse-execution history.\n")
			return d.reverseStopAt(rec, 0, StopStep, nil)
		}
		if err := rec.RestoreTo(target); err != nil {
			return Stop{}, err
		}
		bp := d.breakpointAt(addr)
		t := vm.ThreadByID(thID)
		if bp == nil || t == nil {
			scanFrom = target
			continue
		}
		if bp.Cond != "" && !d.condTrue(t, bp.Cond) {
			scanFrom = target
			continue
		}
		bp.Hits++
		d.stopAt(t, StopBreakpoint, bp, addr)
		return d.lastStop, nil
	}
}

// RecordGoto rewinds (or replays forward, within history) to an absolute
// recorded position (GDB `record goto`).
func (d *Debugger) RecordGoto(step int64) (Stop, error) {
	rec, err := d.requireRecorder()
	if err != nil {
		return Stop{}, err
	}
	if step < 0 || step > rec.Step() {
		return Stop{}, fmt.Errorf("step %d is outside recorded history [0, %d]", step, rec.Step())
	}
	return d.reverseStopAt(rec, step, StopStep, nil)
}

// cmdRecord dispatches `record`, `record stop` and `record goto N`.
func (d *Debugger) cmdRecord(rest string) error {
	what, arg := splitCommand(rest)
	switch what {
	case "":
		if err := d.StartRecording(); err != nil {
			return err
		}
		d.printf("Process record is started.\n")
		return nil
	case "stop":
		if err := d.StopRecording(); err != nil {
			return err
		}
		d.printf("Process record is stopped and all execution logs are deleted.\n")
		return nil
	case "goto":
		step, err := strconv.ParseInt(strings.TrimSpace(arg), 10, 64)
		if err != nil {
			return fmt.Errorf(`usage: record goto <step>`)
		}
		stop, err := d.RecordGoto(step)
		if err != nil {
			return err
		}
		d.reportStop(stop)
		return nil
	}
	return fmt.Errorf(`undefined record command: %q (try "record", "record stop", "record goto N")`, what)
}

// infoRecord prints `info record`.
func (d *Debugger) infoRecord() {
	rec := d.ActiveRecorder()
	if rec == nil {
		d.printf("No recording is currently active.\n")
		return
	}
	steps, snaps, bytes := rec.Info()
	d.printf("Active record target: execution journal\n")
	d.printf("Instruction log: %d instructions (%d KiB), %d snapshots.\n", steps, bytes/1024, snaps)
}
