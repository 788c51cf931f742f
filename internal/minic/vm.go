package minic

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// ThreadState is the lifecycle state of one logical VM thread.
type ThreadState int

const (
	ThreadReady ThreadState = iota
	ThreadWaiting
	ThreadDone
	ThreadFaulted
)

func (s ThreadState) String() string {
	switch s {
	case ThreadReady:
		return "ready"
	case ThreadWaiting:
		return "waiting"
	case ThreadDone:
		return "done"
	case ThreadFaulted:
		return "faulted"
	}
	return fmt.Sprintf("ThreadState(%d)", int(s))
}

// Frame is one function activation. Slots are individually heap-allocated
// cells so that pointers into frames (and parallel_for's by-reference
// captures) stay valid for the frame's lifetime. After the frame returns,
// the VM may recycle it, cells included, for a later call of the same
// function (see FuncCode.reuseFrames), like a reused stack slot.
type Frame struct {
	ID        int
	FuncIndex int
	Fn        *FuncDecl
	Code      *FuncCode
	PC        int
	Slots     []*Cell
	stack     []Value
}

// Line returns the source line of the instruction the frame is about to
// execute (for the top frame) or is executing a call from (inner frames).
func (f *Frame) Line() int { return f.Code.LineOf(f.PC) }

// SlotByName returns the cell for the named local, or nil. This is a
// convenience used by tests; the debugger goes through the debug info
// instead, as a real debugger would.
func (f *Frame) SlotByName(name string) *Cell {
	for i, n := range f.Fn.SlotNames {
		if n == name && i < len(f.Slots) {
			return f.Slots[i]
		}
	}
	return nil
}

// parRange drives one logical thread's share of a parallel_for: the thread
// repeatedly pushes helper frames until the index range is exhausted.
type parRange struct {
	next, end int64
	helper    int
	captured  []*Cell
}

// Thread is one logical thread of execution.
type Thread struct {
	ID       int
	Frames   []*Frame
	State    ThreadState
	Fault    error
	Result   Value // set when the root function returns a value
	parent   *Thread
	children int
	par      *parRange
	// guard is the Guard of the synthetic call the thread runs for, when
	// that Guard blocks writes; the instructions that write check it.
	guard *Guard
	idx   int // position in its scheduler's threads, the program order
}

// Top returns the innermost frame, or nil for a finished thread.
//
//d2x:noalloc
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// VM executes a compiled Program. It is single-goroutine and cooperatively
// scheduled: logical threads interleave at instruction granularity in a
// deterministic round-robin, so data races in generated code are
// observable and reproducible — the property GraphIt's push schedule
// (atomicAdd vs plain +=) depends on. Every execution goes through one
// run loop (run): the debuggee's on the VM's scheduler, a synthetic call
// (debugger `call`) on a scheduler of its own, so a call interleaves its
// threads exactly as the program would.
type VM struct {
	Prog    *Program
	Globals []Cell
	Output  io.Writer

	// NumWorkers is the number of logical threads a parallel_for fans out
	// to (the analogue of OMP_NUM_THREADS). Default 4.
	NumWorkers int

	// Steps counts executed instructions, scheduled and synthetic; a
	// deterministic clock for the overhead experiments.
	Steps int64

	// SynthBudget caps the instructions of one synchronous CallFunction
	// (debugger `call`), so a buggy rtv_handler cannot hang the debugger.
	SynthBudget int64

	// sched runs the debuggee's threads. Its instruction count is the
	// position the execution journal records, which synthetic calls do
	// not advance, and its hook the journal's recorder.
	sched        scheduler
	nextThreadID int
	nextFrameID  int
	started      bool

	// spawned collects the threads the executing instruction's
	// parallel_for created; step drains it into the running scheduler.
	spawned []*Thread
	// natFree recycles NativeCall frames. A handler may re-enter the VM
	// and call further natives, so it is a freelist, not a single slot.
	natFree []*NativeCall
	// schedFree recycles the schedulers of synthetic calls, which nest
	// the same way.
	schedFree []*scheduler
	// frameFree holds, per function index, returned frames with re-zeroed
	// slots that newFrame recycles. Only functions whose FuncCode has
	// reuseFrames set put frames here.
	frameFree [][]*Frame

	// Native is the per-process data of the host-linked native library,
	// the static data a linked library keeps in the inferior (D2X-R keeps
	// a debug session's command state here). The VM never reads it, and
	// TakeSnapshot and RestoreSnapshot leave it alone.
	Native any
}

// scheduler interleaves a set of threads round-robin. threads keeps every
// thread added to it, finished ones included, in program order, for `info
// threads` and for the cursor; runq holds the unfinished (ready or
// waiting) ones in the same order, so a pick costs O(live threads)
// however many parallel_for workers have come and gone. The next thread
// to run is the first ready one at or after cursor in threads, wrapping
// around.
type scheduler struct {
	threads []*Thread
	runq    []*Thread
	cursor  int
	// fault is the first faulted thread in program order.
	fault *Thread
	// steps counts the instructions run on this scheduler.
	steps int64
	// hook, when set, observes every statement-start instruction just
	// before it executes (the execution journal records through it).
	// Only the debuggee's scheduler has one, so synthetic calls are
	// invisible to it. The hook runs before the cursor and steps
	// advance, so a snapshot taken inside it captures a state from which
	// the same thread is deterministically re-selected on replay.
	hook func(*Thread)
	// turns is the rotation runTurns works through between picks.
	turns []turn
}

// NewVM prepares a VM for the program with its globals at their initial
// values.
func NewVM(prog *Program, output io.Writer) *VM {
	if output == nil {
		output = io.Discard
	}
	vm := &VM{
		Prog:        prog,
		Output:      output,
		NumWorkers:  4,
		SynthBudget: 200_000_000,
		frameFree:   make([][]*Frame, len(prog.Funcs)),
	}
	vm.Globals = make([]Cell, len(prog.Globals))
	for i, g := range prog.Globals {
		vm.Globals[i].V = initValue(g)
	}
	return vm
}

// initValue is the value global g holds when a VM starts. An array
// literal gives every VM an array of its own.
func initValue(g *GlobalDecl) Value {
	switch x := g.Init.(type) {
	case nil:
		return ZeroValue(g.Type)
	case *ArrayLit:
		a := &ArrayObj{Elem: g.Type.Elem, Cells: make([]Cell, len(x.Elems))}
		for i, e := range x.Elems {
			a.Cells[i].V = constValue(e, g.Type.Elem)
		}
		return ArrVal(a)
	}
	return constValue(g.Init, g.Type)
}

// constValue evaluates a checked constant literal stored to a location
// of type t, converting an int to float as castIfNeeded does for locals.
func constValue(e Expr, t *Type) Value {
	v := literalValue(e)
	if t.Kind == TFloat && v.Kind == VInt {
		return FloatVal(float64(v.I))
	}
	return v
}

// literalValue evaluates a literal, or a negated one, as written.
func literalValue(e Expr) Value {
	switch x := e.(type) {
	case *IntLit:
		return IntVal(x.Value)
	case *FloatLit:
		return FloatVal(x.Value)
	case *BoolLit:
		return BoolVal(x.Value)
	case *StringLit:
		return StrVal(x.Value)
	case *NullLit:
		return NullVal()
	case *UnaryExpr:
		v := literalValue(x.X)
		switch v.Kind {
		case VInt:
			return IntVal(-v.I)
		case VFloat:
			return FloatVal(-v.F())
		}
	}
	return NullVal()
}

// GlobalCell returns the storage cell of the named global, or nil. Natives
// (the D2X runtime among them) use this to read "inferior memory".
func (vm *VM) GlobalCell(name string) *Cell {
	if i, ok := vm.Prog.GlobalByName[name]; ok {
		return &vm.Globals[i]
	}
	return nil
}

// Threads returns every scheduled thread, finished ones included, in
// program order.
func (vm *VM) Threads() []*Thread { return vm.sched.threads }

// SchedCursor returns the round-robin cursor: the index into Threads at
// which the scheduler starts looking for the next ready thread. The
// scheduler oracle tests check it against the reference scan.
func (vm *VM) SchedCursor() int { return vm.sched.cursor }

// Scheduled returns the number of scheduled instructions executed so
// far. Unlike Steps it does not count synthetic calls, and a snapshot
// restore rewinds it; the execution journal's positions are offsets of
// it.
//
//d2x:noalloc
func (vm *VM) Scheduled() int64 { return vm.sched.steps }

// ThreadByID returns the thread with the given ID, or nil.
func (vm *VM) ThreadByID(id int) *Thread {
	for _, t := range vm.sched.threads {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// FrameByID resolves a frame ID (the VM's analogue of a stack pointer
// value) to the live frame of a scheduled thread, or nil after the frame
// has returned. It walks the threads' stacks: D2X-R resolves one frame
// per handler call, far fewer lookups than the calls and returns a
// registry would have to track.
func (vm *VM) FrameByID(id int) *Frame {
	for _, t := range vm.sched.threads {
		for _, f := range t.Frames {
			if f.ID == id {
				return f
			}
		}
	}
	return nil
}

// newFrame activates function funcIndex with args in its first slots. It
// recycles a returned frame of the function when one is free, which
// returnFrame left with re-zeroed slots and an empty operand stack.
func (vm *VM) newFrame(funcIndex int, args []Value) (*Frame, error) {
	fd := vm.Prog.Funcs[funcIndex]
	fc := vm.Prog.Code[funcIndex]
	if len(args) != len(fd.Params) {
		return nil, fmt.Errorf("call to %s with %d args, want %d", fd.Name, len(args), len(fd.Params))
	}
	var f *Frame
	if free := vm.frameFree[funcIndex]; len(free) > 0 {
		f = free[len(free)-1]
		free[len(free)-1] = nil
		vm.frameFree[funcIndex] = free[:len(free)-1]
		f.PC = 0
	} else {
		f = &Frame{
			FuncIndex: funcIndex,
			Fn:        fd,
			Code:      fc,
			Slots:     make([]*Cell, fc.NumSlots),
			stack:     make([]Value, 0, fc.MaxStack),
		}
		backing := make([]Cell, fc.NumSlots)
		for i := range f.Slots {
			f.Slots[i] = &backing[i]
		}
		zeroSlots(f)
	}
	f.ID = vm.nextFrameID
	vm.nextFrameID++
	for i, a := range args {
		f.Slots[i].V = a
	}
	return f, nil
}

// zeroSlots gives every slot of f the zero value of its declared type.
func zeroSlots(f *Frame) {
	types := f.Fn.SlotTypes
	for i, c := range f.Slots {
		if i < len(types) {
			c.V = ZeroValue(types[i])
		} else {
			c.V = Value{}
		}
	}
}

func (vm *VM) newThread(parent *Thread) *Thread {
	t := &Thread{ID: vm.nextThreadID, parent: parent}
	vm.nextThreadID++
	return t
}

// Start sets up the main thread. No code runs before main: globals,
// array-literal tables included, already hold their initial values.
func (vm *VM) Start() error {
	if vm.started {
		return fmt.Errorf("minic: VM already started")
	}
	mainIdx := vm.Prog.FuncIndex("main")
	if mainIdx < 0 {
		return fmt.Errorf("minic: program has no main function")
	}
	frame, err := vm.newFrame(mainIdx, nil)
	if err != nil {
		return err
	}
	t := vm.newThread(nil)
	t.Frames = []*Frame{frame}
	vm.sched.add(t)
	vm.started = true
	return nil
}

// add appends a new thread to the program order and the run queue.
// Threads are born ready and with the largest index, so the run queue
// stays sorted by idx.
func (s *scheduler) add(t *Thread) {
	t.idx = len(s.threads)
	s.threads = append(s.threads, t)
	s.runq = append(s.runq, t)
}

// Started reports whether Start has run (the main thread exists).
func (vm *VM) Started() bool { return vm.started }

// SetStepHook installs (or, with nil, removes) the statement-boundary
// observer: it fires before every scheduled instruction that starts a
// source statement. At most one hook is supported; installing a new one
// replaces the old. The hook must not run or mutate the VM — taking a
// snapshot is the intended use.
func (vm *VM) SetStepHook(fn func(*Thread)) { vm.sched.hook = fn }

// Done reports whether every scheduled thread has finished.
func (vm *VM) Done() bool { return len(vm.sched.runq) == 0 }

// Faulted returns the first faulted thread in program order, or nil.
func (vm *VM) Faulted() *Thread { return vm.sched.fault }

// pick returns the run-queue position of the thread the scheduler runs
// next, or -1 when nothing is ready: the first ready thread at or after
// the cursor in program order, wrapping around.
//
//d2x:noalloc
func (s *scheduler) pick() int {
	rq := s.runq
	start := 0
	for start < len(rq) && rq[start].idx < s.cursor {
		start++
	}
	for i := start; i < len(rq); i++ {
		if rq[i].State == ThreadReady {
			return i
		}
	}
	for i := 0; i < start; i++ {
		if rq[i].State == ThreadReady {
			return i
		}
	}
	return -1
}

// NextThread returns the thread the debuggee's scheduler runs next, or
// nil when every thread is finished or blocked. It advances no state.
func (vm *VM) NextThread() *Thread {
	if at := vm.sched.pick(); at >= 0 {
		return vm.sched.runq[at]
	}
	return nil
}

// StepInstr executes exactly one instruction on the debuggee's next ready
// thread, through the run loop, and returns the thread that ran (nil when
// nothing is ready). Unlike RunUntil it steps past an earlier fault, so a
// debugger can still run the surviving threads. Faults mark the thread
// Faulted rather than returning an error, so a debugger can inspect the
// fault site; RunToCompletion converts them to errors.
func (vm *VM) StepInstr() *Thread {
	s := &vm.sched
	at := s.pick()
	if at < 0 {
		return nil
	}
	t := s.runq[at]
	vm.runTurns(s, at, s.steps+1, nil)
	return t
}

// RunUntil runs the debuggee until one of these happens, and returns the
// number of instructions it ran:
//   - stop, called before each statement-start instruction with the
//     thread about to run it, returns true (that instruction has not run)
//   - a thread faults
//   - every thread is done or blocked
//   - exactly budget instructions have run (a budget ≤ 0 is no limit)
//
// stop may be nil. It may make synthetic calls, but must not otherwise
// run or mutate the VM.
func (vm *VM) RunUntil(budget int64, stop func(*Thread) bool) int64 {
	return vm.run(&vm.sched, budget, stop)
}

// run is the VM's one run loop: RunUntil on the scheduler s. It picks a
// thread only when the set of ready threads may have changed, and
// runTurns runs the ready threads in between.
//
//d2x:hotpath
//d2x:noalloc
func (vm *VM) run(s *scheduler, budget int64, stop func(*Thread) bool) int64 {
	start := s.steps
	end := int64(math.MaxInt64)
	if budget > 0 {
		end = start + budget
	}
	for s.fault == nil && s.steps < end {
		at := s.pick()
		if at < 0 || !vm.runTurns(s, at, end, stop) {
			break
		}
	}
	return s.steps - start
}

// turn is one entry of a scheduler's rotation: a ready thread, its
// run-queue position and the cursor it leaves behind when it runs.
type turn struct {
	t        *Thread
	at, next int
}

// rotation lists in s.turns the ready threads from run-queue position at
// onward in run-queue order, wrapping: the order in which pick chooses
// them for as long as no thread becomes ready or stops being ready.
//
//d2x:noalloc amortized
func (s *scheduler) rotation(at int) []turn {
	ts := s.turns[:0]
	for i := range s.runq {
		j := at + i
		if j >= len(s.runq) {
			j -= len(s.runq)
		}
		if t := s.runq[j]; t.State == ThreadReady {
			next := t.idx + 1
			if next == len(s.threads) {
				next = 0
			}
			ts = append(ts, turn{t: t, at: j, next: next})
		}
	}
	s.turns = ts
	return ts
}

// runTurns runs the ready threads of s from run-queue position at onward
// one instruction per turn, in pick's round-robin order, a lone thread
// every turn, until the steps count of s reaches end, stop returns true
// (runTurns then returns false), or a thread finishes, blocks, spawns or
// faults: from then on pick may choose differently. The cursor and both
// step counts advance with every instruction, so they are exact whenever
// stop, the hook or a native runs, and when runTurns returns.
//
// The common opcodes run here; execInstr runs the rest.
//
//d2x:hotpath
//d2x:noalloc amortized
func (vm *VM) runTurns(s *scheduler, at int, end int64, stop func(*Thread) bool) bool {
	turns := s.rotation(at)
	k := 0
	t := turns[0].t
	f := t.Top()
	for s.steps < end {
		var err error
		switch {
		case f == nil:
			t.State = ThreadDone
		case uint(f.PC) >= uint(len(f.Code.Instrs)):
			err = vm.faultf(f, f.PC, "program counter out of range (%d)", f.PC) //d2xvet:ignore noalloc fault path
		default:
			pc := f.PC
			in := &f.Code.Instrs[pc]
			if in.StmtStart {
				if stop != nil && stop(t) {
					return false
				}
				if s.hook != nil {
					s.hook(t)
				}
			}
			f.PC = pc + 1
			if len(f.stack) < in.pops() {
				err = vm.faultf(f, pc, "operand stack underflow at %s", in.Op) //d2xvet:ignore noalloc fault path
				break
			}
			switch in.Op {
			case OpConst:
				f.stack = append(f.stack, f.Code.Consts[in.A])

			case OpLoadLocal:
				f.stack = append(f.stack, f.Slots[in.A].V)

			case OpStoreLocal:
				n := len(f.stack) - 1
				f.Slots[in.A].V = f.stack[n]
				f.stack = f.stack[:n]

			case OpLoadGlobal:
				f.stack = append(f.stack, vm.Globals[in.A].V)

			case OpJmp:
				f.PC = in.A

			case OpJmpFalse:
				n := len(f.stack) - 1
				if !f.stack[n].Bool() {
					f.PC = in.A
				}
				f.stack = f.stack[:n]

			case OpBin:
				n := len(f.stack) - 2
				x, y := f.stack[n], f.stack[n+1]
				f.stack = f.stack[:n]
				op := Kind(in.A)
				var v Value
				if op == Plus && x.Kind == VInt && y.Kind == VInt {
					v = IntVal(x.I + y.I)
				} else if op == Lt && x.Kind == VInt && y.Kind == VInt {
					v = BoolVal(x.I < y.I)
				} else if v, err = evalBin(op, x, y); err != nil { //d2xvet:ignore noalloc a string + allocates its result, a fault its error
					err = vm.faultf(f, pc, "%s", err)
					break
				}
				f.stack = append(f.stack, v)

			case OpIndexLoad, OpIndexAddr:
				n := len(f.stack) - 2
				arr, i := f.stack[n].Arr(), f.stack[n+1].I
				f.stack = f.stack[:n]
				if arr == nil || uint64(i) >= uint64(len(arr.Cells)) {
					err = vm.indexFault(f, pc, arr, i) //d2xvet:ignore noalloc fault path
					break
				}
				if in.Op == OpIndexLoad {
					f.stack = append(f.stack, arr.Cells[i].V)
				} else {
					f.stack = append(f.stack, PtrVal(&arr.Cells[i]))
				}

			case OpFieldLoad, OpFieldAddr:
				n := len(f.stack) - 1
				obj := f.stack[n].Struct()
				if p := f.stack[n].Ptr(); p != nil {
					obj = p.V.Struct()
				}
				f.stack = f.stack[:n]
				if obj == nil {
					err = vm.faultf(f, pc, "field access on null struct") //d2xvet:ignore noalloc fault path
					break
				}
				if in.Op == OpFieldLoad {
					f.stack = append(f.stack, obj.Fields[in.A].V)
				} else {
					f.stack = append(f.stack, PtrVal(&obj.Fields[in.A]))
				}

			default:
				err = vm.execInstr(t, f, in, pc) //d2xvet:ignore noalloc calls allocate the callee frame, parallel_for its workers, natives what they build
				f = t.Top()
			}
		}
		s.cursor = turns[k].next
		s.steps++
		vm.Steps++
		if err != nil || t.State != ThreadReady || len(vm.spawned) > 0 {
			vm.settle(s, turns[k].at, err)
			return true
		}
		if len(turns) > 1 {
			if k++; k == len(turns) {
				k = 0
			}
			t = turns[k].t
			f = t.Top()
		}
	}
	return true
}

// settle applies what the instruction just run at run-queue position at
// of s changed: a fault is recorded, a finished thread leaves the run
// queue, and the workers a parallel_for spawned join it.
//
//d2x:noalloc
func (vm *VM) settle(s *scheduler, at int, err error) {
	t := s.runq[at]
	if err != nil {
		t.State = ThreadFaulted
		t.Fault = err
		if s.fault == nil || t.idx < s.fault.idx {
			s.fault = t
		}
	}
	if t.State == ThreadDone || t.State == ThreadFaulted {
		s.retire(at)
	}
	if len(vm.spawned) > 0 {
		vm.adoptSpawned(s) //d2xvet:ignore noalloc a parallel_for's fan-out appends its workers once, not per instruction
	}
}

// retire drops the finished thread at run-queue position at, keeping the
// rest in program order.
//
//d2x:noalloc
func (s *scheduler) retire(at int) {
	rq := s.runq
	copy(rq[at:], rq[at+1:])
	rq[len(rq)-1] = nil
	s.runq = rq[:len(rq)-1]
}

// adoptSpawned schedules on s the workers the last instruction spawned,
// emptying the spawn buffer without releasing its capacity.
func (vm *VM) adoptSpawned(s *scheduler) {
	for _, c := range vm.spawned {
		s.add(c)
	}
	clear(vm.spawned)
	vm.spawned = vm.spawned[:0]
}

// RunToCompletion drives the scheduler until the program finishes or
// faults. A budget ≤ 0 means no limit; a positive budget is exact — the
// error fires as soon as budget instructions have executed with work
// still pending, and a program that finishes in exactly budget
// instructions succeeds.
func (vm *VM) RunToCompletion(budget int64) error {
	n := vm.RunUntil(budget, nil)
	if t := vm.Faulted(); t != nil {
		return fmt.Errorf("thread %d faulted: %w", t.ID, t.Fault)
	}
	if vm.Done() {
		return nil
	}
	if budget > 0 && n == budget {
		return fmt.Errorf("minic: step budget of %d exceeded", budget)
	}
	return fmt.Errorf("minic: deadlock: no runnable threads")
}

// Run compiles the whole lifecycle: Start plus RunToCompletion.
func (vm *VM) Run() error {
	if !vm.started {
		if err := vm.Start(); err != nil {
			return err
		}
	}
	return vm.RunToCompletion(0)
}

// CallFunction synchronously executes a function to completion on a
// synthetic thread while the rest of the VM stays frozen. This implements
// the debugger's `call` command — the single debugger feature the paper's
// whole design rests on — and is also used by D2X-R to evaluate
// rtv_handlers. Reentrant: a native called this way may call back in.
func (vm *VM) CallFunction(name string, args []Value) (Value, error) {
	return vm.CallFunctionGuarded(name, args, nil)
}

// Guard constrains a synthetic (debugger-initiated) call. It is the
// runtime twin of the effects analysis: when a handler could not be
// proven safe statically, the caller supplies a Guard and the VM fences
// the call instead of trusting it.
type Guard struct {
	// Fuel caps the instruction count of the call (and everything it
	// spawns). 0 means no extra cap beyond the VM-wide SynthBudget; a
	// positive value tightens it.
	Fuel int64
	// BlockWrites rejects every store to debuggee-visible memory before
	// it executes: global stores, stores through pointers (live frames,
	// heap objects), and calls to natives registered WritesMemory.
	// Stores to the synthetic call's own local slots remain allowed.
	BlockWrites bool
	// Stats, when non-nil, receives the call's guard telemetry: fuel
	// actually burned and which fence (if any) stopped it. The VM only
	// writes into it — observability layers above decide what to do
	// with the numbers, keeping this package free of any obs dependency.
	Stats *GuardStats
}

// GuardStats is the per-call telemetry a Guard collects when its Stats
// field is set. One struct per call: guards are built per invocation, so
// no synchronisation is needed.
type GuardStats struct {
	// FuelUsed is the number of instructions the call executed before
	// returning or being stopped, the one a fault or the write barrier
	// stopped included.
	FuelUsed int64
	// WriteDenied reports that the write barrier stopped the call.
	WriteDenied bool
	// FuelExhausted reports that the fuel cap stopped the call.
	FuelExhausted bool
}

// Sentinel errors for guard violations; callers match with errors.Is to
// degrade the result instead of failing the session.
var (
	ErrFuelExhausted = errors.New("fuel exhausted")
	ErrWriteBarrier  = errors.New("write to debuggee blocked")
)

// CallFunctionGuarded is CallFunction under an optional Guard (nil
// behaves exactly like CallFunction).
func (vm *VM) CallFunctionGuarded(name string, args []Value, g *Guard) (Value, error) {
	fi := vm.Prog.FuncIndex(name)
	if fi < 0 {
		return NullVal(), fmt.Errorf("minic: no function %q in program", name)
	}
	return vm.callSynthetic(fi, args, g)
}

// callSynthetic runs a function to completion on a synthetic thread, on
// a scheduler of its own and through the same run loop as the debuggee,
// under the guard (if any).
func (vm *VM) callSynthetic(fi int, args []Value, g *Guard) (Value, error) {
	frame, err := vm.newFrame(fi, args)
	if err != nil {
		return NullVal(), err
	}
	root := vm.newThread(nil)
	root.Frames = []*Frame{frame}
	if g != nil && g.BlockWrites {
		root.guard = g
	}
	s := vm.getScheduler()
	defer vm.putScheduler(s)
	s.add(root)
	limit := vm.SynthBudget
	fuelLimited := false
	if g != nil && g.Fuel > 0 && g.Fuel < limit {
		limit = g.Fuel
		fuelLimited = true
	}
	vm.run(s, limit, nil)
	stats := GuardStats{FuelUsed: s.steps}
	name := vm.Prog.Funcs[fi].Name
	switch {
	case s.fault != nil:
		err = s.fault.Fault
		if stats.WriteDenied = errors.Is(err, ErrWriteBarrier); !stats.WriteDenied {
			err = fmt.Errorf("in %s: %w", name, err)
		}
	case root.State == ThreadDone:
	case s.steps < limit:
		err = fmt.Errorf("minic: call to %s deadlocked", name)
	case fuelLimited:
		stats.FuelExhausted = true
		err = fmt.Errorf("minic: call to %s: %w after %d instructions", name, ErrFuelExhausted, limit)
	default:
		err = fmt.Errorf("minic: call to %s exceeded instruction budget", name)
	}
	if g != nil && g.Stats != nil {
		*g.Stats = stats
	}
	if err != nil {
		return NullVal(), err
	}
	return root.Result, nil
}

// getScheduler returns an empty scheduler for a synthetic call.
func (vm *VM) getScheduler() *scheduler {
	if n := len(vm.schedFree); n > 0 {
		s := vm.schedFree[n-1]
		vm.schedFree = vm.schedFree[:n-1]
		return s
	}
	return &scheduler{}
}

// putScheduler empties a synthetic call's scheduler, keeping its
// capacity, and parks it for the next call.
func (vm *VM) putScheduler(s *scheduler) {
	clear(s.threads)
	clear(s.runq)
	clear(s.turns)
	*s = scheduler{threads: s.threads[:0], runq: s.runq[:0], turns: s.turns[:0]}
	vm.schedFree = append(vm.schedFree, s)
}

// frameLocalCell reports whether cell is a local slot of one of t's own
// frames — memory private to the guarded call, invisible to the
// debuggee once the call returns.
func frameLocalCell(t *Thread, cell *Cell) bool {
	for _, fr := range t.Frames {
		for _, s := range fr.Slots {
			if s == cell {
				return true
			}
		}
	}
	return false
}

// faultf builds a runtime fault of the instruction at pc in f, and leaves
// f's PC on that instruction, so that the error, the debugger's fault
// stop and its backtrace all name the faulting line. The format may wrap
// an error with %w.
func (vm *VM) faultf(f *Frame, pc int, format string, args ...any) error {
	f.PC = pc
	return fmt.Errorf("%s:%d: in %s: "+format,
		append([]any{vm.Prog.SourceName, f.Line(), f.Fn.Name}, args...)...)
}

// indexFault is the fault of an index instruction at pc in f on arr at
// index i: arr is nil or i is out of its range.
func (vm *VM) indexFault(f *Frame, pc int, arr *ArrayObj, i int64) error {
	if arr == nil {
		return vm.faultf(f, pc, "indexing a null array")
	}
	return vm.faultf(f, pc, "array index %d out of range [0, %d)", i, len(arr.Cells))
}

func (f *Frame) push(v Value) { f.stack = append(f.stack, v) }

// pop removes and returns the top operand. runTurns checks the depth an
// instruction needs before running it, so pop itself does not.
func (f *Frame) pop() Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

// execInstr executes the instruction in at pc of t's top frame f, one of
// the opcodes runTurns does not run itself. runTurns has already checked
// the operand depth and advanced f.PC. Threads a parallel_for spawns are
// left in vm.spawned for the caller to schedule.
func (vm *VM) execInstr(t *Thread, f *Frame, in *Instr, pc int) error {
	switch in.Op {
	case OpNop:

	case OpAddrLocal:
		f.push(PtrVal(f.Slots[in.A]))

	case OpStoreGlobal:
		if t.guard != nil {
			return vm.faultf(f, pc, "%w: store to global %s", ErrWriteBarrier, vm.Prog.Globals[in.A].Name)
		}
		vm.Globals[in.A].V = f.pop()

	case OpAddrGlobal:
		f.push(PtrVal(&vm.Globals[in.A]))

	case OpLoadInd:
		p := f.pop().Ptr()
		if p == nil {
			return vm.faultf(f, pc, "null pointer dereference")
		}
		f.push(p.V)

	case OpStoreInd:
		v := f.pop()
		p := f.pop().Ptr()
		// Compound assignment and ++/-- on plain locals also lower to
		// OpStoreInd, so a guarded call may store to a frame slot of its
		// own thread. Anything else — global cells, array backing
		// stores, debuggee frames reached through pointers — is denied.
		// (Locally-allocated arrays are denied too: allocation
		// provenance is a static property, proven by
		// internal/minic/effects, which then runs the handler with no
		// guard at all.)
		if t.guard != nil && (p == nil || !frameLocalCell(t, p)) {
			return vm.faultf(f, pc, "%w: store through pointer", ErrWriteBarrier)
		}
		if p == nil {
			return vm.faultf(f, pc, "null pointer store")
		}
		p.V = v

	case OpUn:
		x := f.pop()
		switch Kind(in.A) {
		case Minus:
			if x.Kind == VFloat {
				f.push(FloatVal(-x.F()))
			} else {
				f.push(IntVal(-x.I))
			}
		case Not:
			f.push(BoolVal(!x.Bool()))
		default:
			return vm.faultf(f, pc, "bad unary operator %s", Kind(in.A))
		}

	case OpJmpTrue:
		if f.pop().Bool() {
			f.PC = in.A
		}

	case OpCall:
		// The arguments are read in place, as a window on the caller's
		// operand stack, and copied into the callee's slots.
		base := len(f.stack) - in.B
		callee, err := vm.newFrame(in.A, f.stack[base:])
		f.stack = f.stack[:base]
		if err != nil {
			return vm.faultf(f, pc, "%s", err)
		}
		if len(t.Frames) >= 10000 {
			return vm.faultf(f, pc, "call stack overflow (10000 frames)")
		}
		t.Frames = append(t.Frames, callee)

	case OpCallNative:
		nat := vm.Prog.Natives.At(in.A)
		if nat.WritesMemory && t.guard != nil {
			return vm.faultf(f, pc, "%w: call to writing native %s", ErrWriteBarrier, nat.Name)
		}
		top := len(f.stack)
		base := top - in.B
		res, err := vm.CallNative(nat, t, f.stack[base:top:top])
		f.stack = f.stack[:base]
		if err != nil {
			return vm.faultf(f, pc, "%s: %s", nat.Name, err)
		}
		if nat.pushesResult() {
			f.push(res)
		}

	case OpRet:
		vm.returnFrame(t, NullVal(), false)

	case OpRetVal:
		vm.returnFrame(t, f.pop(), true)

	case OpPop:
		f.stack = f.stack[:len(f.stack)-1]

	case OpDup:
		f.push(f.stack[len(f.stack)-1])

	case OpNewArr:
		n := f.pop()
		if n.I < 0 {
			return vm.faultf(f, pc, "negative array size %d", n.I)
		}
		if n.I > 1<<28 {
			return vm.faultf(f, pc, "array size %d too large", n.I)
		}
		f.push(ArrVal(NewArray(f.Code.Types[in.A], int(n.I))))

	case OpNewStruct:
		f.push(StructVal(NewStruct(f.Code.StructRefs[in.A])))

	case OpCastInt:
		v := f.pop()
		switch v.Kind {
		case VFloat:
			f.push(IntVal(int64(v.F())))
		case VBool, VInt:
			f.push(IntVal(v.I))
		default:
			return vm.faultf(f, pc, "cannot convert %s to int", v.Kind)
		}

	case OpCastFloat:
		v := f.pop()
		switch v.Kind {
		case VInt:
			f.push(FloatVal(float64(v.I)))
		case VFloat:
			f.push(v)
		default:
			return vm.faultf(f, pc, "cannot convert %s to float", v.Kind)
		}

	case OpCastBool:
		f.push(BoolVal(f.pop().Bool()))

	case OpParFor:
		hi := f.pop()
		lo := f.pop()
		vm.spawnParFor(t, f, f.Code.ParFors[in.A], lo.I, hi.I)

	default:
		return vm.faultf(f, pc, "unknown opcode %s", in.Op)
	}
	return nil
}

// CallNative invokes a native on behalf of thread t. The NativeCall the
// handler receives is recycled once it returns (see NativeCall).
func (vm *VM) CallNative(nat *Native, t *Thread, args []Value) (Value, error) {
	var nc *NativeCall
	if n := len(vm.natFree); n > 0 {
		nc = vm.natFree[n-1]
		vm.natFree = vm.natFree[:n-1]
	} else {
		nc = &NativeCall{}
	}
	nc.VM, nc.Thread, nc.Args = vm, t, args
	res, err := nat.Handler(nc)
	*nc = NativeCall{}
	vm.natFree = append(vm.natFree, nc)
	return res, err
}

// returnFrame pops the top frame; pushes the result into the caller or
// finishes the thread (continuing its parallel_for range, if any). A
// frame whose slots nothing can reach any more goes to the free list,
// its slots and operand stack cleared now so that it keeps nothing they
// held alive.
func (vm *VM) returnFrame(t *Thread, v Value, hasValue bool) {
	top := t.Top()
	t.Frames = t.Frames[:len(t.Frames)-1]
	if top.Code.reuseFrames {
		zeroSlots(top)
		clear(top.stack[:cap(top.stack)])
		top.stack = top.stack[:0]
		vm.frameFree[top.FuncIndex] = append(vm.frameFree[top.FuncIndex], top)
	}
	if len(t.Frames) > 0 {
		if hasValue {
			t.Top().push(v)
		}
		return
	}
	// Root frame returned.
	if t.par != nil && t.par.next < t.par.end {
		frame := vm.parForFrame(t.par)
		t.Frames = []*Frame{frame}
		t.par.next++
		return
	}
	if hasValue {
		t.Result = v
	}
	t.State = ThreadDone
	if t.parent != nil {
		t.parent.children--
		if t.parent.children == 0 && t.parent.State == ThreadWaiting {
			t.parent.State = ThreadReady
		}
	}
}

// parForFrame builds a helper frame for the next index of a parallel range:
// slot 0 holds the index; the following slots alias the captured cells of
// the spawning frame.
func (vm *VM) parForFrame(pr *parRange) *Frame {
	fd := vm.Prog.Funcs[pr.helper]
	fc := vm.Prog.Code[pr.helper]
	f := &Frame{
		ID:        vm.nextFrameID,
		FuncIndex: pr.helper,
		Fn:        fd,
		Code:      fc,
		Slots:     make([]*Cell, fc.NumSlots),
		stack:     make([]Value, 0, fc.MaxStack),
	}
	vm.nextFrameID++
	// The index and the helper's own locals share one backing array;
	// the captured slots alias the spawning frame's cells.
	own := make([]Cell, fc.NumSlots-len(pr.captured))
	own[0].V = IntVal(pr.next)
	f.Slots[0] = &own[0]
	for i, cell := range pr.captured {
		f.Slots[1+i] = cell
	}
	for i, k := 1+len(pr.captured), 1; i < fc.NumSlots; i, k = i+1, k+1 {
		f.Slots[i] = &own[k]
		if i < len(fd.SlotTypes) {
			own[k].V = ZeroValue(fd.SlotTypes[i])
		}
	}
	return f
}

// spawnParFor fans the index range [lo, hi) out over up to NumWorkers
// logical threads, left in vm.spawned, and blocks t until they all
// complete.
func (vm *VM) spawnParFor(t *Thread, f *Frame, info ParForInfo, lo, hi int64) {
	if lo >= hi {
		return
	}
	captured := make([]*Cell, len(info.Captured))
	for i, slot := range info.Captured {
		captured[i] = f.Slots[slot]
	}
	workers := int64(vm.NumWorkers)
	if workers < 1 {
		workers = 1
	}
	span := hi - lo
	if workers > span {
		workers = span
	}
	chunk := (span + workers - 1) / workers
	spawned := 0
	for w := int64(0); w < workers; w++ {
		start := lo + w*chunk
		end := start + chunk
		if end > hi {
			end = hi
		}
		if start >= end {
			continue
		}
		child := vm.newThread(t)
		child.guard = t.guard
		child.par = &parRange{next: start, end: end, helper: info.Helper, captured: captured}
		child.Frames = []*Frame{vm.parForFrame(child.par)}
		child.par.next++
		vm.spawned = append(vm.spawned, child)
		spawned++
	}
	t.children = spawned
	t.State = ThreadWaiting
}

func evalBin(op Kind, x, y Value) (Value, error) {
	switch op {
	case Plus:
		if x.Kind == VStr && y.Kind == VStr {
			return StrVal(x.S() + y.S()), nil
		}
		if x.Kind == VFloat || y.Kind == VFloat {
			return FloatVal(x.AsFloat() + y.AsFloat()), nil
		}
		return IntVal(x.I + y.I), nil
	case Minus:
		if x.Kind == VFloat || y.Kind == VFloat {
			return FloatVal(x.AsFloat() - y.AsFloat()), nil
		}
		return IntVal(x.I - y.I), nil
	case Star:
		if x.Kind == VFloat || y.Kind == VFloat {
			return FloatVal(x.AsFloat() * y.AsFloat()), nil
		}
		return IntVal(x.I * y.I), nil
	case Slash:
		if x.Kind == VFloat || y.Kind == VFloat {
			d := y.AsFloat()
			if d == 0 {
				return Value{}, fmt.Errorf("floating point division by zero")
			}
			return FloatVal(x.AsFloat() / d), nil
		}
		if y.I == 0 {
			return Value{}, fmt.Errorf("integer division by zero")
		}
		return IntVal(x.I / y.I), nil
	case Percent:
		if y.I == 0 {
			return Value{}, fmt.Errorf("integer modulo by zero")
		}
		return IntVal(x.I % y.I), nil
	case Shl:
		if y.I < 0 || y.I > 63 {
			return Value{}, fmt.Errorf("shift amount %d out of range", y.I)
		}
		return IntVal(x.I << uint(y.I)), nil
	case Shr:
		if y.I < 0 || y.I > 63 {
			return Value{}, fmt.Errorf("shift amount %d out of range", y.I)
		}
		return IntVal(x.I >> uint(y.I)), nil
	case Eq:
		return BoolVal(ValuesEqual(x, y)), nil
	case Neq:
		return BoolVal(!ValuesEqual(x, y)), nil
	case Lt, Le, Gt, Ge:
		var cmp int
		switch {
		case x.Kind == VStr && y.Kind == VStr:
			cmp = strings.Compare(x.S(), y.S())
		case x.Kind == VFloat || y.Kind == VFloat:
			a, b := x.AsFloat(), y.AsFloat()
			switch {
			case a < b:
				cmp = -1
			case a > b:
				cmp = 1
			}
		default:
			switch {
			case x.I < y.I:
				cmp = -1
			case x.I > y.I:
				cmp = 1
			}
		}
		switch op {
		case Lt:
			return BoolVal(cmp < 0), nil
		case Le:
			return BoolVal(cmp <= 0), nil
		case Gt:
			return BoolVal(cmp > 0), nil
		default:
			return BoolVal(cmp >= 0), nil
		}
	case AndAnd:
		return BoolVal(x.Bool() && y.Bool()), nil
	case OrOr:
		return BoolVal(x.Bool() || y.Bool()), nil
	}
	return Value{}, fmt.Errorf("bad binary operator %s", op)
}

// EvalBinary exposes the VM's binary-operator semantics for tools (the
// debugger's expression evaluator) that must match program behaviour
// exactly. Their operands are unchecked, so it first rejects the
// arithmetic and ordering operands the checker rejects: evalBin would
// read their I as an int, and I holds a float's bits and a string's
// length.
func EvalBinary(op Kind, x, y Value) (Value, error) {
	switch op {
	case Plus, Lt, Le, Gt, Ge:
		if x.Kind == VStr && y.Kind == VStr {
			break
		}
		fallthrough
	case Minus, Star, Slash:
		if (x.Kind != VInt && x.Kind != VFloat) || (y.Kind != VInt && y.Kind != VFloat) {
			return Value{}, fmt.Errorf("invalid operands to %s: %s and %s", op, x.Kind, y.Kind)
		}
	case Percent, Shl, Shr:
		if x.Kind != VInt || y.Kind != VInt {
			return Value{}, fmt.Errorf("operands of %s must be int, have %s and %s", op, x.Kind, y.Kind)
		}
	}
	return evalBin(op, x, y)
}
