package minic_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"d2x/internal/examplebuilds"
	"d2x/internal/minic"
	"d2x/internal/progen"
)

// Run-loop oracle. The scheduler oracle steps one instruction at a time,
// so it cannot see a loop that runs many instructions per pick. These
// tests run one VM through RunUntil, with budgets from 1 to unlimited, a
// stop that fires at some statement starts and a step hook installed,
// and a second VM through StepInstr, checking every step of the second
// against refSchedule and emulating its stop and hook calls. After each
// RunUntil the two must agree on every count, the cursor, every thread,
// frame and slot, and the globals, and the stop and hook calls must
// match call for call.

// stepwiseBudgets are the budgets a script byte selects; 0 is unlimited.
var stepwiseBudgets = []int64{1, 2, 3, 17, 1000, 0}

// faultingWorkers faults two workers of one parallel_for; the parent
// then waits forever.
const faultingWorkers = `
global int total = 0;
func int main() {
	parallel_for (int i = 0; i < 20; i++) {
		int d = 1;
		if (i == 9 || i == 10) {
			d = 0;
		}
		atomic_add(&total, 100 / d);
	}
	return total;
}`

type stepwiseProgram struct {
	name    string
	prog    *minic.Program
	restore bool // snapshot both VMs mid fan-out and restore them later
}

var (
	stepwiseOnce  sync.Once
	stepwiseProgs []stepwiseProgram
	stepwiseErr   error
)

// stepwisePrograms compiles the oracle's programs once: the nested and
// faulting parallel_for programs, the nested one again with a snapshot
// restored mid fan-out, the racy callee of TestCallMatchesRun, the
// example builds and the progen slice of the scheduler oracle.
func stepwisePrograms(tb testing.TB) []stepwiseProgram {
	tb.Helper()
	stepwiseOnce.Do(func() {
		add := func(name, src string, restore bool) {
			prog, err := minic.Compile("oracle.c", src, nil)
			if err != nil && stepwiseErr == nil {
				stepwiseErr = fmt.Errorf("%s: %v", name, err)
			}
			stepwiseProgs = append(stepwiseProgs, stepwiseProgram{name, prog, restore})
		}
		add("nested parallel_for", nestedParFor, false)
		add("faulting workers", faultingWorkers, false)
		add("snapshot mid fan-out", nestedParFor, true)
		add("racy callee", racyCallee, false)
		for _, name := range examplebuilds.Names() {
			b, err := examplebuilds.Build(name)
			if err != nil {
				stepwiseErr = fmt.Errorf("%s: %v", name, err)
				return
			}
			stepwiseProgs = append(stepwiseProgs, stepwiseProgram{name: name, prog: b.Program})
		}
		for i := 0; i < 40; i++ {
			spec := progen.Generate(1, i)
			p, err := progen.Render(spec)
			if err != nil {
				stepwiseErr = fmt.Errorf("%s: render: %v", spec.Name(), err)
				return
			}
			b, err := p.Build(false)
			if err != nil {
				stepwiseErr = fmt.Errorf("%s: build: %v", spec.Name(), err)
				return
			}
			stepwiseProgs = append(stepwiseProgs, stepwiseProgram{name: spec.Name(), prog: b.Program})
		}
	})
	if stepwiseErr != nil {
		tb.Fatal(stepwiseErr)
	}
	return stepwiseProgs
}

// boundary is one stop or hook call: the thread, its position, and the
// cursor and VM step count it saw, which must be exact there.
type boundary struct {
	thread int
	pos    int64
	cursor int
	steps  int64
}

func boundaryOf(vm *minic.VM, t *minic.Thread) boundary {
	return boundary{t.ID, vm.Scheduled(), vm.SchedCursor(), vm.Steps}
}

// stepwiseScript turns script bytes into the harness's choices. Round r
// of RunUntil gets the budget stepwiseBudgets[script[r%n] % 6]; stop
// fires at position p when script[p%n] < 16, once per position, so a
// stopped run can resume. An empty script gives unlimited budgets and
// no stops.
type stepwiseScript []byte

func (s stepwiseScript) budget(round int) int64 {
	if len(s) == 0 {
		return 0
	}
	return stepwiseBudgets[int(s[round%len(s)])%len(stepwiseBudgets)]
}

func (s stepwiseScript) stopAt(pos int64) bool {
	return len(s) > 0 && s[pos%int64(len(s))] < 16
}

// stmtStart reports whether t's next instruction starts a statement,
// where the run loop calls stop and the step hook.
func stmtStart(t *minic.Thread) bool {
	f := t.Top()
	return f != nil && f.PC >= 0 && f.PC < len(f.Code.Instrs) && f.Code.Instrs[f.PC].StmtStart
}

// stepwiseRun is one comparison: fast runs through RunUntil, ref through
// StepInstr. Each side logs its stop and hook calls.
type stepwiseRun struct {
	script      stepwiseScript
	fast, ref   *minic.VM
	stoppedFast int64 // position of fast's last stop, or -1
	stoppedRef  int64
	fastStops   []boundary
	fastHooks   []boundary
	refStops    []boundary
	refHooks    []boundary
}

func newStepwiseRun(prog *minic.Program, script stepwiseScript) (*stepwiseRun, error) {
	r := &stepwiseRun{script: script, stoppedFast: -1, stoppedRef: -1}
	r.fast = minic.NewVM(prog, nil)
	r.ref = minic.NewVM(prog, nil)
	if err := r.fast.Start(); err != nil {
		return nil, err
	}
	if err := r.ref.Start(); err != nil {
		return nil, err
	}
	r.fast.SetStepHook(func(t *minic.Thread, f *minic.Frame, pos int64) {
		b := boundaryOf(r.fast, t)
		if f != t.Top() || pos != b.pos {
			b.thread = -1 // the hook was not handed t's top frame and the VM's position
		}
		r.fastHooks = append(r.fastHooks, b)
	})
	return r, nil
}

// runFast runs one round of RunUntil and reports the instructions run
// and whether stop ended it.
func (r *stepwiseRun) runFast(budget int64) (int64, bool) {
	stopped := false
	n := r.fast.RunUntil(budget, func(t *minic.Thread) bool {
		pos := r.fast.Scheduled()
		r.fastStops = append(r.fastStops, boundaryOf(r.fast, t))
		stopped = pos != r.stoppedFast && r.script.stopAt(pos)
		if stopped {
			r.stoppedFast = pos
		}
		return stopped
	})
	return n, stopped
}

// runRef runs the same round one StepInstr at a time, checking each pick
// and cursor against refSchedule and making the stop and hook calls the
// run loop must make.
func (r *stepwiseRun) runRef(budget int64) (int64, bool, error) {
	var n int64
	for budget <= 0 || n < budget {
		if r.ref.Faulted() != nil {
			break
		}
		want, wantIdx := refSchedule(r.ref)
		if want == nil {
			break
		}
		if stmtStart(want) {
			pos := r.ref.Scheduled()
			r.refStops = append(r.refStops, boundaryOf(r.ref, want))
			if pos != r.stoppedRef && r.script.stopAt(pos) {
				r.stoppedRef = pos
				return n, true, nil
			}
			r.refHooks = append(r.refHooks, boundaryOf(r.ref, want))
		}
		if ran := r.ref.StepInstr(); ran != want {
			return n, false, fmt.Errorf("StepInstr ran thread %d, reference thread %d", threadID(ran), want.ID)
		}
		if got := r.ref.SchedCursor(); got != wantIdx {
			return n, false, fmt.Errorf("cursor %d after thread %d, reference %d", got, want.ID, wantIdx)
		}
		n++
	}
	return n, false, nil
}

// compare checks that the two VMs are in the same state and have seen
// the same stop and hook calls since the last compare.
func (r *stepwiseRun) compare() error {
	if err := sameBoundaries("stop", r.fastStops, r.refStops); err != nil {
		return err
	}
	if err := sameBoundaries("hook", r.fastHooks, r.refHooks); err != nil {
		return err
	}
	r.fastStops, r.refStops = r.fastStops[:0], r.refStops[:0]
	r.fastHooks, r.refHooks = r.fastHooks[:0], r.refHooks[:0]
	return sameState(r.fast, r.ref)
}

// sameState checks that a and b are in the same state: the counts, the
// cursor, every thread, frame and slot, and the globals. b is the
// reference.
func sameState(a, b *minic.VM) error {
	if a.Steps != b.Steps || a.Scheduled() != b.Scheduled() || a.SchedCursor() != b.SchedCursor() {
		return fmt.Errorf("Steps/Scheduled/cursor %d/%d/%d, reference %d/%d/%d",
			a.Steps, a.Scheduled(), a.SchedCursor(), b.Steps, b.Scheduled(), b.SchedCursor())
	}
	if a.Done() != b.Done() || threadID(a.Faulted()) != threadID(b.Faulted()) {
		return fmt.Errorf("done %v faulted %d, reference done %v faulted %d",
			a.Done(), threadID(a.Faulted()), b.Done(), threadID(b.Faulted()))
	}
	ta, tb := a.Threads(), b.Threads()
	if len(ta) != len(tb) {
		return fmt.Errorf("%d threads, reference %d", len(ta), len(tb))
	}
	for i, x := range ta {
		y := tb[i]
		if x.ID != y.ID || x.State != y.State || len(x.Frames) != len(y.Frames) {
			return fmt.Errorf("thread %d %s with %d frames, reference thread %d %s with %d frames",
				x.ID, x.State, len(x.Frames), y.ID, y.State, len(y.Frames))
		}
		if (x.Fault == nil) != (y.Fault == nil) || x.Fault != nil && x.Fault.Error() != y.Fault.Error() {
			return fmt.Errorf("thread %d fault %v, reference %v", x.ID, x.Fault, y.Fault)
		}
		for j, f := range x.Frames {
			g := y.Frames[j]
			if f.FuncIndex != g.FuncIndex || f.PC != g.PC {
				return fmt.Errorf("thread %d frame %d: %s pc %d, reference %s pc %d", x.ID, j, f.Fn.Name, f.PC, g.Fn.Name, g.PC)
			}
			for k := range f.Code.NumSlots {
				c, d := f.Slot(k), g.Slot(k)
				if c == nil || d == nil {
					return fmt.Errorf("thread %d frame %d (%s) slot %d missing", x.ID, j, f.Fn.Name, k)
				}
				if !samePrint(c.V, d.V, 0) {
					return fmt.Errorf("thread %d frame %d (%s) slot %d = %s, reference %s",
						x.ID, j, f.Fn.Name, k, minic.FormatValue(c.V), minic.FormatValue(d.V))
				}
			}
		}
	}
	for i := range a.Globals {
		if x, y := a.Globals[i].V, b.Globals[i].V; !samePrint(x, y, 0) {
			return fmt.Errorf("global %s = %s, reference %s", a.Prog.Globals[i].Name, minic.FormatValue(x), minic.FormatValue(y))
		}
	}
	return nil
}

// samePrint reports whether FormatValue prints x and y the same, without
// building the strings: the same kind and scalar, and references
// compared to FormatValue's depth and element limits. Values of two VMs
// never share references, and equal strings need not share bytes, so
// they cannot be compared with ==.
func samePrint(x, y minic.Value, depth int) bool {
	if x.Kind != y.Kind {
		return false
	}
	switch x.Kind {
	case minic.VInt, minic.VBool:
		return x.I == y.I
	case minic.VFloat:
		return minic.FormatValue(x) == minic.FormatValue(y)
	case minic.VStr:
		return x.S() == y.S()
	case minic.VPtr:
		p, q := x.Ptr(), y.Ptr()
		if p == nil || q == nil || depth >= 3 {
			return (p == nil) == (q == nil)
		}
		return samePrint(p.V, q.V, depth+1)
	case minic.VArr:
		p, q := x.Arr(), y.Arr()
		if p == nil || q == nil || depth >= 3 {
			return (p == nil) == (q == nil)
		}
		if len(p.Cells) != len(q.Cells) {
			return false
		}
		for i := range min(len(p.Cells), 32) {
			if !samePrint(p.Cells[i].V, q.Cells[i].V, depth+1) {
				return false
			}
		}
	case minic.VStruct:
		p, q := x.Struct(), y.Struct()
		if p == nil || q == nil || depth >= 3 {
			return (p == nil) == (q == nil)
		}
		for i := range p.Fields {
			if !samePrint(p.Fields[i].V, q.Fields[i].V, depth+1) {
				return false
			}
		}
	}
	return true
}

func sameBoundaries(what string, got, want []boundary) error {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("%s call %d saw %+v, stepwise %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d %s calls, stepwise %d", len(got), what, len(want))
	}
	return nil
}

// matchStepwise runs p on both sides under script, round by round,
// until RunUntil can make no more progress, comparing after each round.
func matchStepwise(p stepwiseProgram, script stepwiseScript) error {
	r, err := newStepwiseRun(p.prog, script)
	if err != nil {
		return err
	}
	var snapFast, snapRef *minic.Snapshot
	restoreAt := -1
	for round := 0; ; round++ {
		budget := script.budget(round)
		if p.restore && snapFast == nil {
			budget = 17 // small rounds, so one ends mid fan-out
		}
		n, stopped := r.runFast(budget)
		m, refStopped, err := r.runRef(budget)
		if err != nil {
			return fmt.Errorf("round %d (budget %d), stepwise step %d: %v", round, budget, m, err)
		}
		if n != m || stopped != refStopped {
			return fmt.Errorf("round %d (budget %d): RunUntil ran %d (stopped %v), stepwise %d (stopped %v)",
				round, budget, n, stopped, m, refStopped)
		}
		if err := r.compare(); err != nil {
			return fmt.Errorf("after round %d (budget %d, %d run): %v", round, budget, n, err)
		}
		if p.restore && snapFast == nil && liveThreads(r.fast) >= 3 {
			snapFast, snapRef = r.fast.TakeSnapshot(), r.ref.TakeSnapshot()
			restoreAt = round + 5
		}
		done := n == 0 && !stopped
		if snapFast != nil && (round == restoreAt || done) {
			if err := r.fast.RestoreSnapshot(snapFast); err != nil {
				return err
			}
			if err := r.ref.RestoreSnapshot(snapRef); err != nil {
				return err
			}
			snapFast, restoreAt = nil, -1
			p.restore = false
			if err := r.compare(); err != nil {
				return fmt.Errorf("after the restore: %v", err)
			}
			continue
		}
		if done {
			break
		}
	}
	if p.restore {
		return fmt.Errorf("the run never had 3 live threads to snapshot")
	}
	if !r.fast.Done() && r.fast.Faulted() == nil {
		return fmt.Errorf("the run ended blocked")
	}
	return nil
}

func liveThreads(vm *minic.VM) int {
	n := 0
	for _, t := range vm.Threads() {
		if t.State == minic.ThreadReady || t.State == minic.ThreadWaiting {
			n++
		}
	}
	return n
}

// stepwiseSeedScripts are the scripts TestRunUntilMatchesStepwise runs
// every program under: none (unlimited, no stops) and seeded mixes of
// budgets and stops.
func stepwiseSeedScripts() []stepwiseScript {
	scripts := []stepwiseScript{nil}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := make(stepwiseScript, 37)
		rng.Read(s)
		scripts = append(scripts, s)
	}
	return scripts
}

func TestRunUntilMatchesStepwise(t *testing.T) {
	for _, p := range stepwisePrograms(t) {
		for i, script := range stepwiseSeedScripts() {
			if err := matchStepwise(p, script); err != nil {
				t.Errorf("%s, script %d: %v", p.name, i, err)
			}
		}
	}
}

// FuzzRunUntil runs the same comparison with the program and the script
// taken from the input: its first byte picks the program, the rest is
// the script.
func FuzzRunUntil(f *testing.F) {
	progs := stepwisePrograms(f)
	for i := range progs {
		for _, script := range stepwiseSeedScripts() {
			f.Add(append([]byte{byte(i)}, script...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		p := progs[int(data[0])%len(progs)]
		if err := matchStepwise(p, stepwiseScript(data[1:])); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
	})
}
