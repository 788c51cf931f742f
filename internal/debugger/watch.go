package debugger

import (
	"fmt"
	"strings"

	"d2x/internal/minic"
)

// This file adds the debugger features beyond the paper's minimum:
// conditional breakpoints, watchpoints, automatic display expressions, and
// a disassembler view. None of them know anything about D2X — they are
// the kind of stock-debugger functionality the paper's design composes
// with "orthogonally" (§4.2).

// Watchpoint stops execution when an expression's value changes.
type Watchpoint struct {
	ID    int
	Expr  string
	last  minic.Value
	valid bool
}

// AddWatchpoint installs a watchpoint on the expression. The expression is
// evaluated in the context of whichever thread is about to run, so global
// expressions are the reliable use case (as with GDB software watchpoints).
func (d *Debugger) AddWatchpoint(expr string) (*Watchpoint, error) {
	if _, err := d.EvalExpr(expr); err != nil && d.started {
		return nil, fmt.Errorf("cannot watch %q: %w", expr, err)
	}
	w := &Watchpoint{ID: d.nextBP, Expr: expr}
	d.nextBP++
	if v, err := d.EvalExpr(expr); err == nil {
		w.last = v
		w.valid = true
	}
	d.watchpoints = append(d.watchpoints, w)
	return w, nil
}

// DeleteWatchpoint removes a watchpoint by ID.
func (d *Debugger) DeleteWatchpoint(id int) error {
	for i, w := range d.watchpoints {
		if w.ID == id {
			d.watchpoints = append(d.watchpoints[:i], d.watchpoints[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("no watchpoint number %d", id)
}

// defaultEvalFuel bounds the implicit evaluations the debugger performs
// on its own (watchpoint checks, auto-display refreshes). User-initiated
// `call` and `print` stay on the VM's full synthetic budget.
const defaultEvalFuel int64 = 5_000_000

// guardedEval evaluates an expression with the implicit-evaluation guard
// installed: any debuggee function the expression calls runs under a
// fuel budget and a write barrier, so a stop-path evaluation can neither
// hang the debugger nor mutate the program being debugged.
func (d *Debugger) guardedEval(expr string) (minic.Value, error) {
	d.evalGuard = &minic.Guard{Fuel: defaultEvalFuel, BlockWrites: true}
	defer func() { d.evalGuard = nil }()
	return d.EvalExpr(expr)
}

// checkWatchpoints evaluates all watchpoints and returns the first one
// whose value changed, with old and new values.
func (d *Debugger) checkWatchpoints() (*Watchpoint, minic.Value, minic.Value) {
	for _, w := range d.watchpoints {
		v, err := d.guardedEval(w.Expr)
		if err != nil {
			// Expression not evaluable in this context (e.g. a local of a
			// returned frame); skip, like GDB's scope handling.
			continue
		}
		if !w.valid {
			w.last = v
			w.valid = true
			continue
		}
		if !minic.ValuesEqual(w.last, v) {
			old := w.last
			w.last = v
			return w, old, v
		}
	}
	return nil, minic.Value{}, minic.Value{}
}

// cmdWatch implements `watch EXPR`.
func (d *Debugger) cmdWatch(rest string) error {
	if strings.TrimSpace(rest) == "" {
		return fmt.Errorf("watch requires an expression")
	}
	w, err := d.AddWatchpoint(rest)
	if err != nil {
		return err
	}
	d.printf("Watchpoint %d: %s\n", w.ID, w.Expr)
	return nil
}

// cmdUnwatch implements `unwatch N`.
func (d *Debugger) cmdUnwatch(rest string) error {
	var id int
	if _, err := fmt.Sscanf(rest, "%d", &id); err != nil {
		return fmt.Errorf("bad watchpoint number %q", rest)
	}
	if err := d.DeleteWatchpoint(id); err != nil {
		return err
	}
	d.printf("Deleted watchpoint %d\n", id)
	return nil
}

// displayEntry is one auto-display expression.
type displayEntry struct {
	ID   int
	Expr string
}

// cmdDisplay implements `display EXPR` / bare `display`.
func (d *Debugger) cmdDisplay(rest string) error {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		d.showDisplays()
		return nil
	}
	d.displayCnt++
	d.displays = append(d.displays, displayEntry{ID: d.displayCnt, Expr: rest})
	d.showDisplays()
	return nil
}

// cmdUndisplay implements `undisplay N`.
func (d *Debugger) cmdUndisplay(rest string) error {
	var id int
	if _, err := fmt.Sscanf(rest, "%d", &id); err != nil {
		return fmt.Errorf("bad display number %q", rest)
	}
	for i, e := range d.displays {
		if e.ID == id {
			d.displays = append(d.displays[:i], d.displays[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("no display number %d", id)
}

// showDisplays prints every display expression's current value; called
// after each stop.
func (d *Debugger) showDisplays() {
	for _, e := range d.displays {
		v, err := d.guardedEval(e.Expr)
		if err != nil {
			d.printf("%d: %s = <error: %v>\n", e.ID, e.Expr, err)
			continue
		}
		d.printf("%d: %s = %s\n", e.ID, e.Expr, minic.FormatValue(v))
	}
}

// cmdDisas implements `disas [func]`: bytecode of the named function or of
// the selected frame's function.
func (d *Debugger) cmdDisas(rest string) error {
	dis := minic.NewDisassembler(d.proc.VM.Prog)
	name := strings.TrimSpace(rest)
	if name == "" {
		f := d.SelectedFrame()
		if f == nil {
			return fmt.Errorf("no frame selected; name a function")
		}
		d.printf("%s", dis.FuncByIndex(f.FuncIndex))
		return nil
	}
	if d.proc.VM.Prog.FuncIndex(name) < 0 {
		return fmt.Errorf("no function %q", name)
	}
	d.printf("%s", dis.Func(name))
	return nil
}
