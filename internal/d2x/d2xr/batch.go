// The typed command layer. A BatchOp is one D2X command with its inputs
// as plain values, and execOp is the one executor every command runs
// through: the Table 2 natives lift a debugger call's arguments into a
// BatchOp (see nativeCommand), and ExecBatch runs N of them at once.
//
// The natives exist because an unmodified debugger can only reach D2X-R
// through `call`/`eval` — every query pays macro substitution,
// expression parsing, and a native-call frame before any D2X work
// happens, and returns its answer as a command string the debugger
// re-parses. That is the right interface for a human at a REPL and the
// wrong one for a debug service pushing thousands of commands per
// second: per-message protocol overhead, not evaluation, dominates once
// the debugger and debuggee are decoupled (Hanson, "A
// Machine-Independent Debugger—Revisited"). ExecBatch is the
// coarser-grained operation: N sub-commands under one session pin into
// one render buffer. Results are byte-identical to the equivalent
// single-command sequence — CI proves it differentially over every
// example build and a progen corpus slice.
package d2xr

import (
	"fmt"

	"d2x/internal/d2x/session"
	"d2x/internal/minic"
	"d2x/internal/obs"
)

// BatchKind selects the command a BatchOp executes.
type BatchKind uint8

const (
	BatchXBT BatchKind = iota
	BatchXFrame
	BatchXList
	BatchXVars
	BatchXBreak
	BatchXDel
)

func (k BatchKind) String() string {
	if int(k) < len(cmdObs) {
		return cmdObs[k].name
	}
	return fmt.Sprintf("BatchKind(%d)", int(k))
}

// BatchOp is one sub-command of a batch: the same inputs the native
// entry points receive, without the string protocol around them.
type BatchOp struct {
	Kind BatchKind
	RIP  int64  // encoded instruction pointer ($rip); unused by xdel
	RSP  int64  // paused frame id ($rsp) for the frame-bearing commands
	Arg  string // spec / frame id / variable name, command-dependent
}

// BatchOpResult is one sub-command's outcome: its rendered output is
// BatchResults.Buf[Lo:Hi], Script is the debugger command script xbreak
// and xdel return (empty otherwise), and Err isolates a failed
// sub-command without aborting the batch.
type BatchOpResult struct {
	Lo, Hi int
	Script string
	Err    error
}

// BatchResults is the reusable result buffer of ExecBatch: one output
// buffer shared by every sub-command plus one result record per op.
// Reusing the same BatchResults across calls makes the steady state
// allocation-free.
type BatchResults struct {
	Buf []byte
	Ops []BatchOpResult
}

// Output returns the rendered output span of sub-command i.
//
//d2x:noalloc
func (res *BatchResults) Output(i int) []byte { return res.Buf[res.Ops[i].Lo:res.Ops[i].Hi] }

// ExecBatch executes a batch of D2X commands under a single session
// pin: one Checkout/Checkin pair instead of N, one render buffer
// instead of N pooled round trips, and no VM native-call frames at all.
// Sub-commands execute in order through execOp, the executor the native
// entry points use, so a batch leaves the session in the same state the
// equivalent command sequence would, and each sub-command's output
// bytes match the single path's. A failing sub-command records its
// error in its BatchOpResult and contributes no output; later
// sub-commands still run.
//
//d2x:hotpath
func (r *Runtime) ExecBatch(vm *minic.VM, ops []BatchOp, res *BatchResults) {
	st := r.svc.Checkout(vm)
	defer r.svc.Checkin(vm, st)
	start := obs.NowNanos()
	res.Buf = res.Buf[:0]
	res.Ops = res.Ops[:0]
	for _, op := range ops {
		lo := len(res.Buf)
		b, script, err := r.execOp(st, vm, op, res.Buf)
		if err != nil {
			b = b[:lo]
		}
		res.Buf = b
		res.Ops = append(res.Ops, BatchOpResult{Lo: lo, Hi: len(res.Buf), Script: script, Err: err})
	}
	batchObs.calls.Inc(uint64(st.ID))
	batchOps.Add(uint64(st.ID), int64(len(ops)))
	ev := obs.Event{Kind: "cmd", Name: "batch", Session: st.ID}
	if start != 0 {
		durNS := obs.NowNanos() - start
		batchObs.lat.ObserveNS(durNS)
		ev.DurNS = durNS
		ev.Time = obs.WallNanos(start + durNS)
	}
	obs.Emit(ev)
}

// execOp runs one D2X command on a checked-out session state, appending
// its output to b: the single executor behind the native entry points
// and ExecBatch. It performs the per-command session bookkeeping —
// resetting the selected extended frame when execution moved, and, for
// the commands that receive $rsp, marking the command active so nested
// rtv-handler calls can locate the paused frame — dispatches to the
// command's append core, and counts the call and any error. On error
// the append cores return b unchanged.
//
//d2x:hotpath
func (r *Runtime) execOp(st *session.State, vm *minic.VM, op BatchOp, b []byte) ([]byte, string, error) {
	if int(op.Kind) >= len(cmdObs) {
		return b, "", fmt.Errorf("d2x: unknown batch op kind %d", op.Kind)
	}
	if op.Kind != BatchXDel {
		if !st.HaveRIP || op.RIP != st.LastRIP {
			st.SelXFrame = 0
		}
		st.LastRIP = op.RIP
		st.HaveRIP = true
	}
	var script string
	var err error
	switch op.Kind {
	case BatchXBT, BatchXFrame, BatchXList, BatchXVars:
		st.CurRSP = op.RSP
		st.CmdActive = true
		switch op.Kind {
		case BatchXBT:
			b, err = r.appendXBT(vm, op.RIP, b)
		case BatchXFrame:
			b, err = r.appendXFrameCmd(st, vm, op.RIP, op.Arg, b)
		case BatchXList:
			b, err = r.appendXList(st, vm, op.RIP, b)
		case BatchXVars:
			b, err = r.appendXVars(st, vm, op.RIP, op.Arg, b)
		}
		st.CmdActive = false
	case BatchXBreak:
		b, script, err = r.appendXBreak(st, vm, op.RIP, op.Arg, b)
	case BatchXDel:
		b, script, err = appendXDel(st, op.Arg, b)
	}
	m := &cmdObs[op.Kind]
	m.calls.Inc(uint64(st.ID))
	if err != nil {
		m.errs.Inc(uint64(st.ID))
	}
	return b, script, err
}

// SessionPin holds one session's state checked out across a whole
// multi-command batch. Checkout/Checkin nest, so the per-command pins
// the native entry points take simply stack on top of this one; while the
// pin is held, Invalidate defers the session's Reset and Release keeps
// the state object alive — the batch is atomic with respect to both.
type SessionPin struct {
	svc *session.Service
	vm  *minic.VM
	st  *session.State
}

// PinSession checks out vm's session state for a batch. Callers must
// call Unpin exactly once; the zero SessionPin unpins as a no-op, so a
// pin can be stored unconditionally.
//
//d2x:noalloc
func (r *Runtime) PinSession(vm *minic.VM) SessionPin {
	return SessionPin{svc: r.svc, vm: vm, st: r.svc.Checkout(vm)}
}

// Unpin releases the batch pin; the deferred Reset of an Invalidate
// that arrived mid-batch is applied here (by the last Checkin).
//
//d2x:noalloc
func (p SessionPin) Unpin() {
	if p.svc != nil {
		p.svc.Checkin(p.vm, p.st)
	}
}

// State returns the pinned session state (nil for the zero pin).
//
//d2x:noalloc
func (p SessionPin) State() *session.State { return p.st }
