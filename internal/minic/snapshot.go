package minic

import "fmt"

// Snapshot is a deep copy of a VM's execution state: threads, frames,
// operand stacks, globals, and every heap object reachable from them,
// plus the scheduler cursor and the ID counters. Restoring a snapshot
// and re-running is deterministic (the VM is single-goroutine round-robin
// with no external input), which is the property the execution journal's
// reverse execution rests on. A snapshot shares only immutable program
// metadata (FuncDecl, FuncCode, Type, StructDef) with the live VM. It
// does not hold VM.Native: a native library's data is not execution
// state, and a restore keeps it as it is.
type Snapshot struct {
	steps        int64
	sched        int64
	cursor       int
	nextThreadID int
	nextFrameID  int
	started      bool
	globals      []Cell
	threads      []*Thread
}

// Steps returns the VM instruction counter at the time the snapshot was
// taken.
func (s *Snapshot) Steps() int64 { return s.steps }

// TakeSnapshot deep-copies the VM's current execution state. It must not
// be called from inside instruction execution; the journal calls it from
// the step hook (before the instruction runs) or at a debugger stop.
func (vm *VM) TakeSnapshot() *Snapshot {
	dst := make([]Cell, len(vm.Globals))
	return &Snapshot{
		steps:        vm.Steps,
		sched:        vm.sched.steps,
		cursor:       vm.sched.cursor,
		nextThreadID: vm.nextThreadID,
		nextFrameID:  vm.nextFrameID,
		started:      vm.started,
		globals:      dst,
		threads:      copyVMState(vm.Globals, vm.sched.threads, dst),
	}
}

// RestoreSnapshot replaces the VM's execution state with a deep copy of
// the snapshot (the snapshot itself stays intact and can be restored
// again). Globals are overwritten in place so &vm.Globals[i] pointers
// held by natives or the debugger stay valid. Program identity must
// match: a snapshot only restores onto the VM it was taken from (or an
// identical program).
func (vm *VM) RestoreSnapshot(s *Snapshot) error {
	if len(s.globals) != len(vm.Globals) {
		return fmt.Errorf("minic: snapshot has %d globals, VM has %d", len(s.globals), len(vm.Globals))
	}
	sc := &vm.sched
	sc.threads = copyVMState(s.globals, s.threads, vm.Globals)
	// The restored frames are new copies that join the free lists as
	// they return, so drop the frames parked before: repeated restores
	// must not grow the lists beyond the frames one run keeps live.
	clear(vm.frameFree)
	clear(sc.runq)
	sc.runq = sc.runq[:0]
	clear(sc.turns)
	sc.fault = nil
	for _, t := range sc.threads {
		switch t.State {
		case ThreadReady, ThreadWaiting:
			sc.runq = append(sc.runq, t)
		case ThreadFaulted:
			if sc.fault == nil {
				sc.fault = t
			}
		}
	}
	sc.steps = s.sched
	sc.cursor = s.cursor
	vm.Steps = s.steps
	vm.nextThreadID = s.nextThreadID
	vm.nextFrameID = s.nextFrameID
	vm.started = s.started
	return nil
}

// stateCopier performs one aliasing-preserving deep copy of a VM object
// graph. The copy runs in phases so that pointers into the interior of a
// container (a VPtr to &ArrayObj.Cells[i], a struct field cell, a global)
// are translated to the corresponding interior cell of the copied
// container rather than to a detached duplicate:
//
//  1. register the root cells whose copies have fixed homes (globals);
//  2. discover the reachable graph: every container, copied the moment
//     it is first seen, and every cell reachable other than as a
//     container interior (frame slots, parallel_for captures, pointer
//     targets);
//  3. map each pointer target that is a container interior to the
//     copied container's cell — only when a pointer was found, so the
//     common pointer-free state pays no per-element map entry — and give
//     every other discovered cell a standalone copy;
//  4. fill every mapped cell, container interior and non-cell value
//     (operand stacks, thread results) by translating through the maps.
//
// The VM guarantees that a frame slot or global cell is never the
// interior of an array or struct (slots come from newFrame/parForFrame
// backing cells, globals from vm.Globals), so root registration in phase
// 1 cannot conflict with container discovery in phase 2.
type stateCopier struct {
	cells   map[*Cell]*Cell // nil until phase 3 for non-global cells
	arrs    map[*ArrayObj]*ArrayObj
	structs map[*StructObj]*StructObj
	// Discovery order; each is also a worklist whose tail is unscanned.
	cellQ   []*Cell
	arrQ    []*ArrayObj
	structQ []*StructObj
	ptrs    int // pointer targets first seen as pointers (maybe interiors)
}

// copyVMState deep-copies (globals, threads) into (dstGlobals, returned
// threads). dstGlobals must have the same length as globals; its cells
// are overwritten in place.
func copyVMState(globals []Cell, threads []*Thread, dstGlobals []Cell) []*Thread {
	c := &stateCopier{
		cells:   make(map[*Cell]*Cell, len(globals)+64),
		arrs:    map[*ArrayObj]*ArrayObj{},
		structs: map[*StructObj]*StructObj{},
	}

	// Phase 1: globals are roots with fixed destinations.
	for i := range globals {
		c.cells[&globals[i]] = &dstGlobals[i]
		c.cellQ = append(c.cellQ, &globals[i])
	}

	// Phase 2: discover everything reachable from threads.
	for _, t := range threads {
		for _, f := range t.Frames {
			for _, slot := range f.Slots {
				c.addCell(slot)
			}
			for _, v := range f.stack {
				c.discover(v)
			}
		}
		if t.par != nil {
			for _, cap := range t.par.captured {
				c.addCell(cap)
			}
		}
		c.discover(t.Result)
	}
	c.drain()

	// Phase 3: interior pointer targets, then standalone copies.
	if c.ptrs > 0 {
		c.mapInteriors()
	}
	for _, old := range c.cellQ {
		if c.cells[old] == nil {
			c.cells[old] = &Cell{}
		}
	}

	// Phase 4: fill.
	for _, old := range c.cellQ {
		c.cells[old].V = c.translate(old.V)
	}
	for _, old := range c.arrQ {
		na := c.arrs[old]
		for i := range old.Cells {
			na.Cells[i].V = c.translate(old.Cells[i].V)
		}
	}
	for _, old := range c.structQ {
		ns := c.structs[old]
		for i := range old.Fields {
			ns.Fields[i].V = c.translate(old.Fields[i].V)
		}
	}
	tmap := make(map[*Thread]*Thread, len(threads))
	out := make([]*Thread, len(threads))
	for i, t := range threads {
		tmap[t] = &Thread{}
		out[i] = tmap[t]
	}
	for i, t := range threads {
		nt := out[i]
		nt.ID = t.ID
		nt.State = t.State
		nt.Fault = t.Fault
		nt.Result = c.translate(t.Result)
		nt.parent = tmap[t.parent] // nil maps to nil
		nt.children = t.children
		nt.idx = t.idx
		if t.par != nil {
			pr := &parRange{next: t.par.next, end: t.par.end, helper: t.par.helper}
			pr.captured = make([]*Cell, len(t.par.captured))
			for j, cap := range t.par.captured {
				pr.captured[j] = c.cells[cap]
			}
			nt.par = pr
		}
		if len(t.Frames) > 0 {
			nt.Frames = make([]*Frame, len(t.Frames))
			for j, f := range t.Frames {
				nf := &Frame{
					ID:        f.ID,
					FuncIndex: f.FuncIndex,
					Fn:        f.Fn,
					Code:      f.Code,
					PC:        f.PC,
				}
				nf.Slots = make([]*Cell, len(f.Slots))
				for k, slot := range f.Slots {
					nf.Slots[k] = c.cells[slot]
				}
				if len(f.stack) > 0 {
					nf.stack = make([]Value, len(f.stack))
					for k, v := range f.stack {
						nf.stack[k] = c.translate(v)
					}
				}
				nt.Frames[j] = nf
			}
		}
	}
	return out
}

// addCell registers a cell reachable other than as a container
// interior, reporting whether it was new.
func (c *stateCopier) addCell(cell *Cell) bool {
	if cell == nil {
		return false
	}
	if _, ok := c.cells[cell]; ok {
		return false
	}
	c.cells[cell] = nil
	c.cellQ = append(c.cellQ, cell)
	return true
}

// discover registers what one value references: a container is copied
// (empty) and queued for scanning on first sight, a pointer's target
// cell is registered. Scanning is iterative (drain), so deep structures
// such as long linked lists cannot overflow the stack.
func (c *stateCopier) discover(v Value) {
	switch v.Kind {
	case VArr:
		a := v.Arr()
		if a == nil || c.arrs[a] != nil {
			return
		}
		c.arrs[a] = &ArrayObj{Elem: a.Elem, Cells: make([]Cell, len(a.Cells))}
		c.arrQ = append(c.arrQ, a)
	case VStruct:
		s := v.Struct()
		if s == nil || c.structs[s] != nil {
			return
		}
		c.structs[s] = &StructObj{Def: s.Def, Fields: make([]Cell, len(s.Fields))}
		c.structQ = append(c.structQ, s)
	case VPtr:
		if c.addCell(v.Ptr()) {
			c.ptrs++
		}
	}
}

// drain scans every queued cell and container until nothing new turns
// up.
func (c *stateCopier) drain() {
	ci, ai, si := 0, 0, 0
	for ci < len(c.cellQ) || ai < len(c.arrQ) || si < len(c.structQ) {
		for ; ci < len(c.cellQ); ci++ {
			c.discover(c.cellQ[ci].V)
		}
		for ; ai < len(c.arrQ); ai++ {
			for i := range c.arrQ[ai].Cells {
				c.discover(c.arrQ[ai].Cells[i].V)
			}
		}
		for ; si < len(c.structQ); si++ {
			for i := range c.structQ[si].Fields {
				c.discover(c.structQ[si].Fields[i].V)
			}
		}
	}
}

// mapInteriors points every registered cell that lies inside a copied
// container at the copy's corresponding cell. A pointer into a
// container the copy never reached keeps a standalone copy.
func (c *stateCopier) mapInteriors() {
	for _, old := range c.arrQ {
		na := c.arrs[old]
		for i := range old.Cells {
			if nc, ok := c.cells[&old.Cells[i]]; ok && nc == nil {
				c.cells[&old.Cells[i]] = &na.Cells[i]
			}
		}
	}
	for _, old := range c.structQ {
		ns := c.structs[old]
		for i := range old.Fields {
			if nc, ok := c.cells[&old.Fields[i]]; ok && nc == nil {
				c.cells[&old.Fields[i]] = &ns.Fields[i]
			}
		}
	}
}

// translate rewrites a value's object references through the completed
// identity maps. Scalars (including strings, which are immutable) pass
// through unchanged.
func (c *stateCopier) translate(v Value) Value {
	switch v.Kind {
	case VArr:
		if a := v.Arr(); a != nil {
			return ArrVal(c.arrs[a])
		}
	case VStruct:
		if s := v.Struct(); s != nil {
			return StructVal(c.structs[s])
		}
	case VPtr:
		if p := v.Ptr(); p != nil {
			return PtrVal(c.cells[p])
		}
	}
	return v
}
