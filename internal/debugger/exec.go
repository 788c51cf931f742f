package debugger

import (
	"fmt"

	"d2x/internal/dwarfish"
	"d2x/internal/minic"
)

// resumeMode selects how far a resume runs.
type resumeMode int

const (
	modeContinue resumeMode = iota
	modeStepInto
	modeStepOver
	modeStepOut
)

const defaultMaxSteps = 500_000_000

// Run starts the program and continues to the first stop. It mirrors GDB's
// `run`.
func (d *Debugger) Run() (Stop, error) {
	if d.started {
		return Stop{}, fmt.Errorf("the program is already running")
	}
	if err := d.proc.VM.Start(); err != nil {
		return Stop{}, err
	}
	d.started = true
	if ts := d.proc.VM.Threads(); len(ts) > 0 {
		d.selThreadID = ts[0].ID
	}
	return d.resume(modeContinue)
}

// Continue resumes until the next stop.
func (d *Debugger) Continue() (Stop, error) {
	if err := d.checkRunning(); err != nil {
		return Stop{}, err
	}
	return d.resume(modeContinue)
}

// StepInto advances the selected thread by one source line, entering
// calls (GDB `step`).
func (d *Debugger) StepInto() (Stop, error) {
	if err := d.checkRunning(); err != nil {
		return Stop{}, err
	}
	return d.resume(modeStepInto)
}

// StepOver advances the selected thread by one source line without
// entering calls (GDB `next`).
func (d *Debugger) StepOver() (Stop, error) {
	if err := d.checkRunning(); err != nil {
		return Stop{}, err
	}
	return d.resume(modeStepOver)
}

// StepOut runs until the selected frame returns (GDB `finish`).
func (d *Debugger) StepOut() (Stop, error) {
	if err := d.checkRunning(); err != nil {
		return Stop{}, err
	}
	return d.resume(modeStepOut)
}

func (d *Debugger) checkRunning() error {
	if !d.started {
		return fmt.Errorf("the program is not being run")
	}
	if d.lastStop.Reason == StopExited {
		return fmt.Errorf("the program has exited")
	}
	return nil
}

// resume runs the debuggee through the VM's run loop. All threads
// advance in the VM's deterministic round-robin; stop conditions are
// evaluated before each statement-start instruction, the same
// granularity a line-table-driven native debugger achieves.
func (d *Debugger) resume(mode resumeMode) (Stop, error) {
	vm := d.proc.VM

	stepThread := d.SelectedThread()
	var startDepth, startLine int
	if stepThread != nil && stepThread.Top() != nil {
		startDepth = len(stepThread.Frames)
		_, startLine, _ = d.lineAt(0)
	}

	stopped := false
	n := vm.RunUntil(defaultMaxSteps, func(t *minic.Thread) bool {
		stopped = d.stopHere(t, mode, stepThread, startDepth, startLine)
		return stopped
	})
	if stopped {
		// A reverse command that lands on this stop later restores it
		// rather than replaying up to it.
		if j := d.ActiveRecorder(); j != nil {
			j.CheckpointStop()
		}
		return d.lastStop, nil
	}
	switch ft := vm.Faulted(); {
	case ft != nil:
		d.selThreadID = ft.ID
		d.selFrame = 0
		d.skipValid = false
		d.lastStop = Stop{Reason: StopFault, Thread: ft, Fault: ft.Fault}
		return d.lastStop, nil
	case vm.Done():
		d.skipValid = false
		d.lastStop = Stop{Reason: StopExited}
		return d.lastStop, nil
	case n == defaultMaxSteps:
		return Stop{}, fmt.Errorf("debugger: resume exceeded %d instructions", defaultMaxSteps)
	}
	return Stop{}, fmt.Errorf("debugger: deadlock: no runnable threads")
}

// stopHere is resume's stop callback: it decides, before thread t runs
// the statement-start instruction it is at, whether execution stops
// there, and if so records the stop.
func (d *Debugger) stopHere(t *minic.Thread, mode resumeMode, stepThread *minic.Thread, startDepth, startLine int) bool {
	top := t.Top()
	addr := dwarfish.Addr{FuncIndex: top.FuncIndex, PC: top.PC}

	// Skip exactly one re-check at the address we stopped at.
	if d.skipValid && t.ID == d.skipThread && addr == d.skipAddr {
		d.skipValid = false
		return false
	}

	if bp := d.breakpointAt(addr); bp != nil {
		if bp.Cond != "" && !d.condTrue(t, bp.Cond) {
			// Condition false: execute past the site silently.
			return false
		}
		bp.Hits++
		d.stopAt(t, StopBreakpoint, bp, addr)
		return true
	}
	if len(d.watchpoints) > 0 {
		if w, old, now := d.watchInContext(t); w != nil {
			d.stopAt(t, StopWatchpoint, nil, addr)
			d.lastStop.Watch = w
			d.lastStop.WatchOld = old
			d.lastStop.WatchNew = now
			return true
		}
	}
	if mode != modeContinue && t == stepThread {
		depth := len(t.Frames)
		_, line, _ := d.proc.Info.LineFor(addr)
		stopped := false
		switch mode {
		case modeStepInto:
			stopped = depth != startDepth || line != startLine
		case modeStepOver:
			stopped = (depth == startDepth && line != startLine) || depth < startDepth
		case modeStepOut:
			stopped = depth < startDepth
		}
		if stopped {
			d.stopAt(t, StopStep, nil, addr)
			return true
		}
	}
	return false
}

// condTrue evaluates a breakpoint condition in the context of the thread
// that hit the site.
func (d *Debugger) condTrue(t *minic.Thread, cond string) bool {
	savedT, savedF := d.selThreadID, d.selFrame
	d.selThreadID, d.selFrame = t.ID, 0
	v, err := d.EvalExpr(cond)
	d.selThreadID, d.selFrame = savedT, savedF
	if err != nil {
		// An unevaluable condition stops, with the error surfaced, rather
		// than silently never firing — GDB behaves the same way.
		d.printf("Error in breakpoint condition: %v\n", err)
		return true
	}
	return v.Bool()
}

// watchInContext checks watchpoints in the context of the running thread.
func (d *Debugger) watchInContext(t *minic.Thread) (*Watchpoint, minic.Value, minic.Value) {
	savedT, savedF := d.selThreadID, d.selFrame
	d.selThreadID, d.selFrame = t.ID, 0
	w, old, now := d.checkWatchpoints()
	d.selThreadID, d.selFrame = savedT, savedF
	return w, old, now
}

func (d *Debugger) stopAt(t *minic.Thread, reason StopReason, bp *Breakpoint, addr dwarfish.Addr) {
	d.selThreadID = t.ID
	d.selFrame = 0
	d.skipThread = t.ID
	d.skipAddr = addr
	d.skipValid = true
	d.lastStop = Stop{Reason: reason, Breakpoint: bp, Thread: t}
}

// CallValue invokes a function in the debuggee while it is paused and
// returns its result — the debugger feature (GDB `call`) that D2X's whole
// runtime design exploits. Program functions and host-linked natives are
// both callable, as both are "functions linked into the executable".
//
// Natives run through the VM's recycled NativeCall frames (see
// minic.NativeCall for what a handler may keep).
func (d *Debugger) CallValue(name string, args []minic.Value) (minic.Value, error) {
	vm := d.proc.VM
	if fi := vm.Prog.FuncIndex(name); fi >= 0 {
		for i, p := range vm.Prog.Funcs[fi].Params {
			if i >= len(args) {
				break
			}
			v, ok := minic.StoreValue(p.Type, args[i])
			if !ok {
				return minic.NullVal(), fmt.Errorf("argument %d of %s: cannot use %s as %s", i+1, name, args[i].Kind, p.Type)
			}
			args[i] = v
		}
		return vm.CallFunctionGuarded(name, args, d.evalGuard)
	}
	if nat, _, ok := vm.Prog.Natives.Lookup(name); ok {
		if n := len(nat.Sig.Params); len(args) < n || len(args) > n && !nat.Variadic {
			return minic.NullVal(), fmt.Errorf("%s requires %d arguments, have %d", name, n, len(args))
		}
		for i, p := range nat.Sig.Params {
			v, ok := minic.StoreValue(p, args[i])
			if !ok {
				return minic.NullVal(), fmt.Errorf("argument %d of %s: cannot use %s as %s", i+1, name, args[i].Kind, p)
			}
			args[i] = v
		}
		return vm.CallNative(nat, d.SelectedThread(), args)
	}
	return minic.NullVal(), fmt.Errorf("no symbol %q in current context", name)
}

// misfit reports whether v may not go where the program keeps a value of
// kind want, for set var on a location whose declared type the evaluator
// does not know (StoreValue checks the others), as the checker would
// reject it: a float or a string where an int or a bool lives, which the
// VM reads through Value.I, holding a float's bits and a string's
// length; and a pointer, array or struct where any of the four lives,
// which would also let an array contain itself.
func misfit(want minic.ValueKind, v minic.Value) bool {
	switch want {
	case minic.VInt, minic.VBool:
		return v.Kind == minic.VFloat || v.Kind == minic.VStr || isRef(v.Kind)
	case minic.VFloat, minic.VStr:
		return isRef(v.Kind)
	}
	return false
}

func isRef(k minic.ValueKind) bool {
	return k == minic.VPtr || k == minic.VArr || k == minic.VStruct
}
