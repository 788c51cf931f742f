package debugger

// Process record and reverse execution (GDB's `record` / `reverse-step` /
// `reverse-continue`). These are stock debugger features — GDB has had
// them since 7.0 — so they live here, not in any D2X layer; D2X's
// reverse-xbt macro composes them through `call`/`eval` exactly like the
// forward macros. The recorder is the VM's execution journal: the
// debugger scans its statement boundaries and restores positions, and
// never touches its snapshots or logs.

import (
	"fmt"
	"strconv"
	"strings"

	"d2x/internal/dwarfish"
	"d2x/internal/minic/journal"
)

// OnRecord sets the hook run each time `record` attaches a journal.
// The layer that attaches runtime services to a session uses it to
// publish the journal handle; the debugger still owns the recording.
func (d *Debugger) OnRecord(fn func(*journal.Journal)) { d.onRecord = fn }

// ActiveRecorder returns the live execution journal, or nil when
// recording is off. Journal positions count scheduled debuggee
// instructions; synthetic calls the debugger injects at a stop are not
// history.
func (d *Debugger) ActiveRecorder() *journal.Journal {
	if d.journal != nil && d.journal.Active() {
		return d.journal
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
	j, err := journal.Attach(d.proc.VM, journal.Options{})
	if err != nil {
		return err
	}
	d.journal = j
	if d.onRecord != nil {
		d.onRecord(j)
	}
	return nil
}

// StopRecording turns process record off and deletes the history.
func (d *Debugger) StopRecording() error {
	if d.ActiveRecorder() == nil {
		return fmt.Errorf("process record is not started")
	}
	d.journal.Stop()
	d.journal = nil
	return nil
}

// requireRecorder gates the reverse commands. Unlike checkRunning it
// accepts an exited program: with history recorded, running backwards
// out of the exit is exactly what reverse execution is for.
func (d *Debugger) requireRecorder() (*journal.Journal, error) {
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
func (d *Debugger) reverseStopAt(rec *journal.Journal, step int64, reason StopReason, bp *Breakpoint) (Stop, error) {
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
	target, ok := rec.SeekBack(rec.Step(), func(r journal.Rec) bool {
		if r.Thread != t.ID {
			return false
		}
		_, line, ok := d.proc.Info.LineFor(dwarfish.Addr{FuncIndex: r.FuncIndex, PC: r.PC})
		return ok && (r.Depth != startDepth || line != startLine)
	})
	if !ok {
		d.printf("No more reverse-execution history.\n")
		return d.reverseStopAt(rec, 0, StopStep, nil)
	}
	return d.reverseStopAt(rec, target.Step, StopStep, nil)
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
		target, ok := rec.SeekBack(scanFrom, func(r journal.Rec) bool {
			return d.breakpointAt(dwarfish.Addr{FuncIndex: r.FuncIndex, PC: r.PC}) != nil
		})
		if !ok {
			d.printf("No more reverse-execution history.\n")
			return d.reverseStopAt(rec, 0, StopStep, nil)
		}
		if err := rec.RestoreTo(target.Step); err != nil {
			return Stop{}, err
		}
		addr := dwarfish.Addr{FuncIndex: target.FuncIndex, PC: target.PC}
		bp := d.breakpointAt(addr)
		t := vm.ThreadByID(target.Thread)
		if bp == nil || t == nil {
			scanFrom = target.Step
			continue
		}
		if bp.Cond != "" && !d.condTrue(t, bp.Cond) {
			scanFrom = target.Step
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
	st := rec.Stats()
	d.printf("Active record target: execution journal\n")
	d.printf("Instruction log: %d instructions (%d KiB), %d snapshots.\n", st.Steps, st.RecordBytes/1024, st.Snapshots)
}
