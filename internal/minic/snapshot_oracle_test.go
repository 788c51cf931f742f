package minic_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"d2x/internal/minic"
)

// Snapshot-sharing oracle. A snapshot shares the copies of unchanged
// arrays with the snapshot the VM took or restored before it, so a
// chain of snapshots is a web of shared copies. These tests take such a
// chain at seeded statement starts of one run, restore its snapshots in
// a seeded order, and after each restore compare the whole VM state, and
// every array reachable from it cell by cell, against a fresh VM run to
// the same position. After each restore they also run on a seeded
// number of instructions, snapshot there, run on, and restore and check
// that snapshot, which shares with the one just restored.

// chainSnapshots is how many statement starts a chain picks.
const chainSnapshots = 6

func TestSnapshotChainMatchesFreshRun(t *testing.T) {
	for i, p := range stepwisePrograms(t) {
		if err := matchSnapshotChain(p.prog, int64(i+1)); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

func matchSnapshotChain(prog *minic.Program, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	vm := minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		return err
	}
	var starts []int64
	vm.RunUntil(0, func(*minic.Thread) bool {
		starts = append(starts, vm.Scheduled())
		return false
	})
	if len(starts) == 0 {
		return fmt.Errorf("the run has no statement start")
	}
	picks := map[int64]bool{}
	for range chainSnapshots {
		picks[starts[rng.Intn(len(starts))]] = true
	}

	type taken struct {
		pos  int64
		snap *minic.Snapshot
	}
	var chain []taken
	vm = minic.NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		return err
	}
	for {
		stopped := false
		vm.RunUntil(0, func(*minic.Thread) bool {
			pos := vm.Scheduled()
			stopped = picks[pos]
			delete(picks, pos) // resuming calls stop here again
			return stopped
		})
		if !stopped {
			break
		}
		chain = append(chain, taken{vm.Scheduled(), vm.TakeSnapshot()})
	}
	if len(picks) > 0 {
		return fmt.Errorf("the chain's run missed %d of its statement starts", len(picks))
	}

	for _, k := range rng.Perm(len(chain)) {
		c := chain[k]
		if err := vm.RestoreSnapshot(c.snap); err != nil {
			return err
		}
		if err := matchFresh(vm, prog, c.pos); err != nil {
			return fmt.Errorf("snapshot %d of %d, at %d: %v", k, len(chain), c.pos, err)
		}
		vm.RunUntil(1+rng.Int63n(200), nil)
		pos, s := vm.Scheduled(), vm.TakeSnapshot()
		vm.RunUntil(1+rng.Int63n(200), nil)
		if err := vm.RestoreSnapshot(s); err != nil {
			return err
		}
		if err := matchFresh(vm, prog, pos); err != nil {
			return fmt.Errorf("snapshot taken at %d after restoring snapshot %d: %v", pos, k, err)
		}
	}
	return nil
}

// matchFresh compares vm with a fresh VM of prog run to position pos.
func matchFresh(vm *minic.VM, prog *minic.Program, pos int64) error {
	ref := minic.NewVM(prog, nil)
	if err := ref.Start(); err != nil {
		return err
	}
	if pos > 0 {
		ref.RunUntil(pos, nil)
	}
	if err := sameState(vm, ref); err != nil {
		return err
	}
	return sameArrays(vm, ref)
}

// sameArrays walks what a's and b's globals and frame slots reach, in
// step, and compares every array cell and struct field by value: scalars
// bit for bit, references by where they lead, so that an array aliased
// twice in a is aliased the same way in b. sameState has already checked
// that the two have the same threads and frames. b is the reference.
func sameArrays(a, b *minic.VM) error {
	w := &arrayWalk{
		arrs:    map[*minic.ArrayObj]*minic.ArrayObj{},
		structs: map[*minic.StructObj]*minic.StructObj{},
		cells:   map[*minic.Cell]*minic.Cell{},
	}
	for i := range a.Globals {
		if err := w.cell(&a.Globals[i], &b.Globals[i]); err != nil {
			return fmt.Errorf("global %s: %v", a.Prog.Globals[i].Name, err)
		}
	}
	tb := b.Threads()
	for i, t := range a.Threads() {
		for j, f := range t.Frames {
			for k := range f.Code.NumSlots {
				if err := w.cell(f.Slot(k), tb[i].Frames[j].Slot(k)); err != nil {
					return fmt.Errorf("thread %d frame %d (%s) slot %d: %v", t.ID, j, f.Fn.Name, k, err)
				}
			}
		}
	}
	return w.drain()
}

// arrayWalk pairs each object a reaches with the reference's.
type arrayWalk struct {
	arrs    map[*minic.ArrayObj]*minic.ArrayObj
	structs map[*minic.StructObj]*minic.StructObj
	cells   map[*minic.Cell]*minic.Cell
	queue   [][2]minic.Value // reference pairs whose targets are unvisited
}

// pair records that p corresponds to q and reports whether p is new.
func pair[T comparable](m map[T]T, p, q T) (bool, error) {
	var none T
	if (p == none) != (q == none) {
		return false, errors.New("null against non-null")
	}
	if p == none {
		return false, nil
	}
	if r, ok := m[p]; ok {
		if r != q {
			return false, errors.New("aliases another object than in the reference")
		}
		return false, nil
	}
	m[p] = q
	return true, nil
}

// cell pairs two cells and compares their values.
func (w *arrayWalk) cell(x, y *minic.Cell) error {
	if _, err := pair(w.cells, x, y); err != nil {
		return err
	}
	return w.value(x.V, y.V)
}

// value compares a scalar at once and queues a reference whose target
// is new.
func (w *arrayWalk) value(x, y minic.Value) error {
	if x.Kind != y.Kind {
		return fmt.Errorf("%s, reference %s", minic.FormatValue(x), minic.FormatValue(y))
	}
	var fresh bool
	var err error
	switch x.Kind {
	case minic.VArr:
		fresh, err = pair(w.arrs, x.Arr(), y.Arr())
	case minic.VStruct:
		fresh, err = pair(w.structs, x.Struct(), y.Struct())
	case minic.VPtr:
		fresh, err = pair(w.cells, x.Ptr(), y.Ptr())
	case minic.VStr:
		if x.S() != y.S() {
			err = fmt.Errorf("%q, reference %q", x.S(), y.S())
		}
	default:
		if x.I != y.I {
			err = fmt.Errorf("%s, reference %s", minic.FormatValue(x), minic.FormatValue(y))
		}
	}
	if fresh {
		w.queue = append(w.queue, [2]minic.Value{x, y})
	}
	return err
}

// drain visits the queued targets until none is left.
func (w *arrayWalk) drain() error {
	for len(w.queue) > 0 {
		x, y := w.queue[len(w.queue)-1][0], w.queue[len(w.queue)-1][1]
		w.queue = w.queue[:len(w.queue)-1]
		switch x.Kind {
		case minic.VArr:
			p, q := x.Arr(), y.Arr()
			if len(p.Cells) != len(q.Cells) {
				return fmt.Errorf("an array of %d cells, reference %d", len(p.Cells), len(q.Cells))
			}
			for i := range p.Cells {
				if err := w.cell(&p.Cells[i], &q.Cells[i]); err != nil {
					return fmt.Errorf("cell %d of an array of %d: %v", i, len(p.Cells), err)
				}
			}
		case minic.VStruct:
			p, q := x.Struct(), y.Struct()
			for i := range p.Fields {
				if err := w.cell(&p.Fields[i], &q.Fields[i]); err != nil {
					return fmt.Errorf("field %s of a %s: %v", p.Def.Fields[i].Name, p.Def.Name, err)
				}
			}
		case minic.VPtr:
			if err := w.value(x.Ptr().V, y.Ptr().V); err != nil {
				return fmt.Errorf("through a pointer: %v", err)
			}
		}
	}
	return nil
}
