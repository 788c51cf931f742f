package minic

import (
	"errors"
	"testing"
)

// startProgram compiles src and starts a VM without running main, the
// state a debugger holds when it calls handlers synchronously.
func startProgram(t *testing.T, src string) *VM {
	t.Helper()
	prog, err := Compile("guard_test.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	return vm
}

// checkCallFramesGone checks that FrameByID resolves none of the frames
// an aborted call created: IDs from first on. An aborted call must not
// leave frame IDs that the debugger (or a d2x_find_stack_var in a later
// call) could still resolve.
func checkCallFramesGone(t *testing.T, vm *VM, first int) {
	t.Helper()
	if first == vm.nextFrameID {
		t.Fatal("the call created no frames")
	}
	for id := first; id < vm.nextFrameID; id++ {
		if vm.FrameByID(id) != nil {
			t.Errorf("frame %d of the aborted call still resolves", id)
		}
	}
}

func TestGuardBlocksGlobalWrite(t *testing.T) {
	vm := startProgram(t, `
global int g = 7;
func int bump() {
	g = g + 1;
	return g;
}
func int main() { return 0; }`)
	first := vm.nextFrameID

	_, err := vm.CallFunctionGuarded("bump", nil, &Guard{BlockWrites: true})
	if !errors.Is(err, ErrWriteBarrier) {
		t.Fatalf("err = %v, want ErrWriteBarrier", err)
	}
	if got := vm.GlobalCell("g").V.I; got != 7 {
		t.Errorf("g = %d after blocked call, want 7 (untouched)", got)
	}
	checkCallFramesGone(t, vm, first)

	// The same call without a guard succeeds and performs the write.
	res, err := vm.CallFunctionGuarded("bump", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 8 || vm.GlobalCell("g").V.I != 8 {
		t.Errorf("unguarded bump: res=%d g=%d, want 8/8", res.I, vm.GlobalCell("g").V.I)
	}
}

func TestGuardBlocksPointerStore(t *testing.T) {
	vm := startProgram(t, `
global int g = 1;
func void poke(int* p) { *p = 9; }
func int main() { return 0; }`)
	cell := vm.GlobalCell("g")
	_, err := vm.CallFunctionGuarded("poke", []Value{PtrVal(cell)}, &Guard{BlockWrites: true})
	if !errors.Is(err, ErrWriteBarrier) {
		t.Fatalf("err = %v, want ErrWriteBarrier", err)
	}
	if cell.V.I != 1 {
		t.Errorf("g = %d, want 1", cell.V.I)
	}
}

// TestGuardAllowsPointerStoreToOwnLocal: a store through a pointer that
// targets a local of the guarded call itself (here, a caller's slot two
// frames down) is private memory and must pass the barrier.
func TestGuardAllowsPointerStoreToOwnLocal(t *testing.T) {
	vm := startProgram(t, `
func void poke(int* p) { *p = 9; }
func int outer() {
	int x = 0;
	poke(&x);
	return x;
}
func int main() { return 0; }`)
	res, err := vm.CallFunctionGuarded("outer", nil, &Guard{BlockWrites: true})
	if err != nil {
		t.Fatalf("store into own local blocked: %v", err)
	}
	if res.I != 9 {
		t.Errorf("outer() = %d, want 9", res.I)
	}
}

func TestGuardBlocksWritingNative(t *testing.T) {
	vm := startProgram(t, `
global int g = 0;
func void bump() { atomic_add(&g, 1); }
func int main() { return 0; }`)
	_, err := vm.CallFunctionGuarded("bump", nil, &Guard{BlockWrites: true})
	if !errors.Is(err, ErrWriteBarrier) {
		t.Fatalf("err = %v, want ErrWriteBarrier", err)
	}
	if got := vm.GlobalCell("g").V.I; got != 0 {
		t.Errorf("g = %d, want 0", got)
	}
}

func TestGuardAllowsLocalsAndReads(t *testing.T) {
	vm := startProgram(t, `
global int g = 5;
func int mix(int n) {
	int acc = 0;
	for (int i = 0; i < 4; i++) {
		acc = acc + i * n;
	}
	return acc + g;
}
func int main() { return 0; }`)
	res, err := vm.CallFunctionGuarded("mix", []Value{IntVal(3)}, &Guard{Fuel: 100_000, BlockWrites: true})
	if err != nil {
		t.Fatalf("guarded pure call failed: %v", err)
	}
	// 0+3+6+9 + 5
	if res.I != 23 {
		t.Errorf("mix(3) = %d, want 23", res.I)
	}
}

// TestGuardConservativeOnLocalArrays documents the division of labor:
// the runtime barrier cannot see allocation provenance, so it blocks
// even stores into a locally-allocated array. The static analysis is
// what proves such handlers safe — and then no guard is attached.
func TestGuardConservativeOnLocalArrays(t *testing.T) {
	vm := startProgram(t, `
func int fill() {
	int[] buf = new int[4];
	buf[0] = 1;
	return buf[0];
}
func int main() { return 0; }`)
	_, err := vm.CallFunctionGuarded("fill", nil, &Guard{BlockWrites: true})
	if !errors.Is(err, ErrWriteBarrier) {
		t.Fatalf("err = %v, want ErrWriteBarrier (barrier is conservative)", err)
	}
	res, err := vm.CallFunctionGuarded("fill", nil, nil)
	if err != nil || res.I != 1 {
		t.Fatalf("unguarded fill: res=%v err=%v", res, err)
	}
}

func TestGuardFuelExhaustion(t *testing.T) {
	vm := startProgram(t, `
func int spin() {
	int i = 0;
	while (true) { i = i + 1; }
	return i;
}
func int main() { return 0; }`)
	first := vm.nextFrameID
	_, err := vm.CallFunctionGuarded("spin", nil, &Guard{Fuel: 10_000})
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
	checkCallFramesGone(t, vm, first)
}

// TestGuardFuelDoesNotRelaxSynthBudget: a guard fuel above the VM-wide
// budget must not raise the cap, and the resulting error is the plain
// budget message, not ErrFuelExhausted.
func TestGuardFuelDoesNotRelaxSynthBudget(t *testing.T) {
	vm := startProgram(t, `
func int spin() {
	while (true) { }
	return 0;
}
func int main() { return 0; }`)
	vm.SynthBudget = 5_000
	_, err := vm.CallFunctionGuarded("spin", nil, &Guard{Fuel: 1_000_000})
	if err == nil {
		t.Fatal("expected an error")
	}
	if errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err = %v; VM budget overruns must not report as guard fuel", err)
	}
}

// TestGuardStatsTelemetry: a Guard with Stats attached reports the fuel
// actually burned and which fence stopped the call — the raw numbers the
// observability layer exports.
func TestGuardStatsTelemetry(t *testing.T) {
	vm := startProgram(t, `
global int g = 1;
func int ok() {
	int i = 0;
	while (i < 10) { i = i + 1; }
	return i;
}
func int writer() { g = 2; return g; }
func int spin() {
	while (true) { }
	return 0;
}
func int main() { return 0; }`)

	// Clean completion: fuel used is positive, no fences tripped.
	st := &GuardStats{}
	if _, err := vm.CallFunctionGuarded("ok", nil, &Guard{Fuel: 10_000, Stats: st}); err != nil {
		t.Fatal(err)
	}
	if st.FuelUsed <= 0 || st.WriteDenied || st.FuelExhausted {
		t.Errorf("clean call stats = %+v", st)
	}

	// Write barrier: denied flag set, fuel reflects work before the stop.
	st = &GuardStats{}
	_, err := vm.CallFunctionGuarded("writer", nil, &Guard{BlockWrites: true, Stats: st})
	if !errors.Is(err, ErrWriteBarrier) {
		t.Fatalf("err = %v, want ErrWriteBarrier", err)
	}
	if !st.WriteDenied || st.FuelExhausted {
		t.Errorf("barrier stats = %+v", st)
	}

	// Fuel exhaustion: exhausted flag set, fuel used is at the cap.
	st = &GuardStats{}
	_, err = vm.CallFunctionGuarded("spin", nil, &Guard{Fuel: 1_000, Stats: st})
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
	if !st.FuelExhausted || st.WriteDenied || st.FuelUsed < 1_000 {
		t.Errorf("fuel stats = %+v", st)
	}
}

// TestGuardAllowsStoreToCapturedLocal checks the write barrier against a
// parallel_for's captures: a guarded call's workers may store through a
// pointer to a local of the call's own frame that they captured, which
// is memory private to the call, like a store to their own locals.
func TestGuardAllowsStoreToCapturedLocal(t *testing.T) {
	vm := startProgram(t, `
func int count() {
	int x = 0;
	parallel_for (int i = 0; i < 3; i++) {
		int* p = &x;
		*p = *p + 1;
	}
	return x;
}
func int main() { return 0; }`)
	vm.NumWorkers = 1
	res, err := vm.CallFunctionGuarded("count", nil, &Guard{BlockWrites: true})
	if err != nil {
		t.Fatalf("guarded call: %v", err)
	}
	if res.Kind != VInt || res.I != 3 {
		t.Errorf("count() = %s, want 3", FormatValue(res))
	}
}
