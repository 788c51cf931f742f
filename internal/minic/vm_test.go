package minic

import (
	"strings"
	"testing"
	"unsafe"
)

// runProgram compiles and runs src, returning the VM and its captured
// output. Fails the test on any error.
func runProgram(t *testing.T, src string) (*VM, string) {
	t.Helper()
	vm, out, err := tryRunProgram(src)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return vm, out
}

func tryRunProgram(src string) (*VM, string, error) {
	prog, err := Compile("test.c", src, nil)
	if err != nil {
		return nil, "", err
	}
	var buf strings.Builder
	vm := NewVM(prog, &buf)
	err = vm.Run()
	return vm, buf.String(), err
}

func TestArithmeticAndPrintf(t *testing.T) {
	_, out := runProgram(t, `
func int main() {
	int a = 6;
	int b = 7;
	printf("%d\n", a * b);
	float x = 1;
	printf("%f\n", x / 2);
	printf("%s %b %v\n", "hi", true, a);
	return 0;
}`)
	want := "42\n0.5\nhi true 6\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestPowerBySquaring(t *testing.T) {
	// The exact shape BuildIt generates for power_15 (paper Figure 8).
	vm, _ := runProgram(t, `
func int power_15(int arg0) {
	int res_1 = 1;
	int x_2 = arg0;
	res_1 = res_1 * x_2;
	x_2 = x_2 * x_2;
	res_1 = res_1 * x_2;
	x_2 = x_2 * x_2;
	res_1 = res_1 * x_2;
	x_2 = x_2 * x_2;
	res_1 = res_1 * x_2;
	x_2 = x_2 * x_2;
	return res_1;
}
global int result = 0;
func int main() {
	result = power_15(3);
	return 0;
}`)
	got := vm.GlobalCell("result").V.I
	if got != 14348907 { // 3^15
		t.Errorf("power_15(3) = %d, want 14348907", got)
	}
}

func TestControlFlow(t *testing.T) {
	_, out := runProgram(t, `
func int main() {
	int total = 0;
	for (int i = 0; i < 10; i++) {
		if (i % 2 == 0) {
			continue;
		}
		if (i == 9) {
			break;
		}
		total += i;
	}
	int j = 0;
	while (j < 3) {
		j++;
	}
	printf("%d %d\n", total, j);
	return 0;
}`)
	if out != "16 3\n" { // 1+3+5+7
		t.Errorf("output = %q, want %q", out, "16 3\n")
	}
}

func TestArraysAndStructs(t *testing.T) {
	_, out := runProgram(t, `
struct point { int x; int y; }
func int main() {
	int[] a = new int[5];
	for (int i = 0; i < len(a); i++) {
		a[i] = i * i;
	}
	point* p = new point;
	p->x = a[3];
	p->y = a[4];
	printf("%d %d %d\n", p->x, p->y, len(a));
	return 0;
}`)
	if out != "9 16 5\n" {
		t.Errorf("output = %q, want %q", out, "9 16 5\n")
	}
}

func TestPointers(t *testing.T) {
	_, out := runProgram(t, `
func void bump(int* p) {
	*p = *p + 1;
}
func int main() {
	int v = 41;
	bump(&v);
	printf("%d\n", v);
	int[] arr = new int[3];
	int* q = &arr[1];
	*q = 7;
	printf("%d\n", arr[1]);
	return 0;
}`)
	if out != "42\n7\n" {
		t.Errorf("output = %q, want %q", out, "42\n7\n")
	}
}

func TestStringOps(t *testing.T) {
	_, out := runProgram(t, `
func int main() {
	string s = "is_dense(";
	s += to_str(true);
	s += ") [";
	s = s + to_str(1) + "," + to_str(2) + ",";
	printf("%s]\n", s);
	printf("%d\n", str_len("hello"));
	return 0;
}`)
	if out != "is_dense(true) [1,2,]\n5\n" {
		t.Errorf("output = %q", out)
	}
}

func TestRecursion(t *testing.T) {
	vm, out := runProgram(t, `
func int fib(int n) {
	if (n < 2) {
		return n;
	}
	return fib(n - 1) + fib(n - 2);
}
func int main() {
	printf("%d\n", fib(15));
	return 0;
}`)
	if out != "610\n" {
		t.Errorf("fib output = %q, want 610", out)
	}
	// Recycling fib's returned frames must not change the instruction
	// count.
	if vm.Steps != 19732 {
		t.Errorf("Steps = %d, want 19732", vm.Steps)
	}
	if n := len(vm.frameFree[vm.Prog.FuncIndex("fib")]); n == 0 {
		t.Error("fib's returned frames were not kept for reuse")
	}
}

// TestReusedFrameIsFresh: the second call of a function gets the first
// call's frame back, with a new ID and its slots zeroed, so a local not
// yet assigned reads as zero, not as the last call's value.
func TestReusedFrameIsFresh(t *testing.T) {
	prog, err := Compile("test.c", `
func int sq(int x) {
	int y = x * x;
	return y;
}
func int main() {
	int a = sq(3);
	int b = sq(4);
	return a + b;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	var first *Frame
	var firstID int
	for !vm.Done() {
		top := vm.NextThread().Top()
		if top.Fn.Name == "sq" && top.PC == 0 {
			if first == nil {
				first, firstID = top, top.ID
			} else {
				if top != first || top.ID == firstID {
					t.Errorf("second call: frame %p ID %d, first %p ID %d; want the same frame with a new ID", top, top.ID, first, firstID)
				}
				if y := top.SlotByName("y").V; y != IntVal(0) {
					t.Errorf("unassigned local y = %+v on the reused frame, want 0", y)
				}
				if x := top.SlotByName("x").V; x != IntVal(4) {
					t.Errorf("argument x = %+v, want 4", x)
				}
			}
		}
		vm.StepInstr()
	}
	if got := vm.sched.threads[0].Result.I; got != 25 {
		t.Errorf("main returned %d, want 25", got)
	}
}

// TestFrameReuseSparesAddressedLocals: a function that takes a local's
// address never has its frames recycled, so the pointer it returns
// keeps reading the local's last value across later calls.
func TestFrameReuseSparesAddressedLocals(t *testing.T) {
	vm, out := runProgram(t, `
global int* p;
global int* q;
func int* keep(int v) {
	int x = v;
	x = x + 1;
	return &x;
}
func int other(int a) {
	int y = a * 2;
	return y;
}
func int main() {
	p = keep(41);
	q = keep(99);
	int s = 0;
	for (int i = 0; i < 10; i++) {
		s = s + other(i);
	}
	printf("%d %d %d\n", *p, *q, s);
	return 0;
}`)
	if want := "42 100 90\n"; out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
	if n := len(vm.frameFree[vm.Prog.FuncIndex("keep")]); n != 0 {
		t.Errorf("%d frames of keep kept for reuse, want none", n)
	}
}

func TestParallelForSum(t *testing.T) {
	// atomic_add keeps the parallel accumulation correct regardless of
	// thread interleaving.
	vm, _ := runProgram(t, `
global int total = 0;
func int main() {
	parallel_for (int i = 0; i < 1000; i++) {
		atomic_add(&total, i);
	}
	return 0;
}`)
	if got := vm.GlobalCell("total").V.I; got != 499500 {
		t.Errorf("parallel sum = %d, want 499500", got)
	}
}

func TestParallelForRace(t *testing.T) {
	// A plain += compiles to a load/add/store sequence that interleaves
	// across logical threads: with a single shared counter, updates must
	// be lost. This is the GraphIt push-schedule data race the paper's
	// atomicAdd specialisation exists to fix (Figure 2).
	vm, _ := runProgram(t, `
global int total = 0;
func int main() {
	parallel_for (int i = 0; i < 1000; i++) {
		total += 1;
	}
	return 0;
}`)
	got := vm.GlobalCell("total").V.I
	if got >= 1000 {
		t.Errorf("racy sum = %d, expected lost updates (< 1000)", got)
	}
	if got <= 0 {
		t.Errorf("racy sum = %d, expected some updates to land", got)
	}
}

func TestParallelForCapture(t *testing.T) {
	_, out := runProgram(t, `
func int main() {
	int[] data = new int[64];
	int bias = 5;
	parallel_for (int i = 0; i < 64; i++) {
		data[i] = i + bias;
	}
	int total = 0;
	for (int i = 0; i < 64; i++) {
		total += data[i];
	}
	printf("%d\n", total);
	return 0;
}`)
	if out != "2336\n" { // sum(0..63) + 64*5
		t.Errorf("output = %q, want 2336", out)
	}
}

func TestNestedParallelFor(t *testing.T) {
	vm, _ := runProgram(t, `
global int total = 0;
func int main() {
	parallel_for (int i = 0; i < 8; i++) {
		parallel_for (int j = 0; j < 8; j++) {
			atomic_add(&total, 1);
		}
	}
	return 0;
}`)
	if got := vm.GlobalCell("total").V.I; got != 64 {
		t.Errorf("nested parallel total = %d, want 64", got)
	}
}

func TestCallFunctionSynchronous(t *testing.T) {
	prog, err := Compile("test.c", `
func int double_it(int x) {
	return x * 2;
}
func int main() {
	return 0;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := vm.CallFunction("double_it", []Value{IntVal(21)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 42 {
		t.Errorf("double_it(21) = %d, want 42", res.I)
	}
}

func TestArrayLiteralGlobalBeforeMain(t *testing.T) {
	vm, _ := runProgram(t, `
global int[] table = {10, 20, 30};
global int sum = 0;
func int main() {
	sum = table[0] + table[1] + table[2];
	return 0;
}`)
	if got := vm.GlobalCell("sum").V.I; got != 60 {
		t.Errorf("sum = %d, want 60", got)
	}
}

func TestRuntimeFaults(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div-by-zero", `func int main() { int a = 1; int b = 0; int c = a / b; return c; }`, "division by zero"},
		{"null-deref", `func int main() { int* p = null; return *p; }`, "null pointer"},
		{"oob", `func int main() { int[] a = new int[2]; return a[5]; }`, "out of range"},
		{"null-array", `func int main() { int[] a = null; return a[0]; }`, "null array"},
		{"assert", `func int main() { assert(false, "boom"); return 0; }`, "boom"},
		{"neg-size", `func int main() { int[] a = new int[0 - 3]; return 0; }`, "negative array size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := tryRunProgram(tc.src)
			if err == nil {
				t.Fatalf("expected fault containing %q, got success", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("fault = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undef-var", `func int main() { return x; }`, "undefined identifier"},
		{"undef-func", `func int main() { foo(); return 0; }`, "undefined function"},
		{"type-mismatch", `func int main() { int a = "s"; return a; }`, "cannot initialise"},
		{"bad-cond", `func int main() { if (1) { } return 0; }`, "must be bool"},
		{"dup-func", `func void f() { } func void f() { } func int main() { return 0; }`, "duplicate function"},
		{"bad-args", `func void f(int a) { } func int main() { f(); return 0; }`, "requires 1 arguments"},
		{"break-outside", `func int main() { break; return 0; }`, "break outside loop"},
		{"bad-field", `struct s { int a; } func int main() { s* p = new s; return p->b; }`, "no field"},
		{"void-var", `func int main() { void v; return 0; }`, "cannot have type void"},
		{"string-mod", `func int main() { string s = "a"; s = s % "b"; return 0; }`, "must be int"},
		{"arraylit-non-array", `global int x = {1}; func int main() { return 0; }`, "array literal cannot initialise int global"},
		{"arraylit-non-literal", `global int y = 1; global int[] x = {1, y}; func int main() { return 0; }`, "element 1 of global \"x\" must be a constant literal"},
		{"arraylit-wrong-type", `global int[] x = {1, "a"}; func int main() { return 0; }`, "cannot initialise element 1 of int[] global \"x\" with string"},
		{"arraylit-local", `func int main() { int[] a = {1}; return 0; }`, "expected expression, found {"},
		{"arraylit-trailing-comma", `global int[] x = {1,}; func int main() { return 0; }`, "expected expression, found }"},
		{"dollar-ident", `func int main() { int $x = 1; return $x; }`, `identifier "$x": '$' and ':' are reserved for the debugger`},
		{"colon-ident", `func int a::b() { return 0; } func int main() { return a::b(); }`, `identifier "a::b": '$' and ':' are reserved`},
		{"colon-field", `struct s { int a:b; } func int main() { return 0; }`, `identifier "a:b": '$' and ':' are reserved`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile("test.c", tc.src, nil)
			if err == nil {
				t.Fatalf("expected compile error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestAtomicMinAndCas(t *testing.T) {
	vm, _ := runProgram(t, `
global int best = 1000;
global int flag = 0;
global int winners = 0;
func int main() {
	parallel_for (int i = 0; i < 100; i++) {
		atomic_min(&best, 100 - i);
		if (cas(&flag, 0, 1)) {
			atomic_add(&winners, 1);
		}
	}
	return 0;
}`)
	if got := vm.GlobalCell("best").V.I; got != 1 {
		t.Errorf("atomic_min result = %d, want 1", got)
	}
	if got := vm.GlobalCell("winners").V.I; got != 1 {
		t.Errorf("cas winners = %d, want exactly 1", got)
	}
}

func TestFrameRegistry(t *testing.T) {
	prog, err := Compile("test.c", `
func int inner(int x) {
	return x + 1;
}
func int main() {
	return inner(1);
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	// Step until we are inside inner, then check that FrameByID maps
	// IDs to live frames.
	for i := 0; i < 100; i++ {
		th := vm.NextThread()
		if th == nil {
			break
		}
		if top := th.Top(); top != nil && top.Fn.Name == "inner" {
			if vm.FrameByID(top.ID) != top {
				t.Fatalf("FrameByID(%d) did not return the live frame", top.ID)
			}
			if cell := top.SlotByName("x"); cell == nil || cell.V.I != 1 {
				t.Fatalf("slot x = %v, want 1", cell)
			}
			return
		}
		vm.StepInstr()
	}
	t.Fatal("never reached inner()")
}

func TestStepsCounterAdvances(t *testing.T) {
	vm, _ := runProgram(t, `func int main() { int a = 0; for (int i = 0; i < 100; i++) { a += i; } return a; }`)
	if vm.Steps < 100 {
		t.Errorf("Steps = %d, expected at least 100", vm.Steps)
	}
}

func TestImplicitIntToFloat(t *testing.T) {
	_, out := runProgram(t, `
global float g = 1;
global float[] w = {1, 2.5, -3};
func float halve(float x) {
	return x / 2;
}
func int main() {
	float a = 3;
	printf("%f %f\n", a / 2, halve(5));
	printf("%f %f %f %f\n", g / 2, w[0] / 2, w[1], w[2] / 2);
	return 0;
}`)
	if want := "1.5 2.5\n0.5 0.5 2.5 -1.5\n"; out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

// TestArrayLiteralGlobalsPerVM: every VM of a Program starts from its own
// copy of an array literal, and a snapshot restore brings back an element
// written after the snapshot.
func TestArrayLiteralGlobalsPerVM(t *testing.T) {
	prog, err := Compile("test.c", `
global int[] t = {1, 2, 3};
global string[] names = {"a", "b\n"};
func int main() {
	t[1] = 99;
	names[0] = "z";
	return 0;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewVM(prog, nil), NewVM(prog, nil)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	elem := func(vm *VM, name string, i int) Value { return vm.GlobalCell(name).V.Arr().Cells[i].V }
	if got := elem(a, "t", 1).I; got != 99 {
		t.Errorf("t[1] after the run = %d, want 99", got)
	}
	if got, got2 := elem(b, "t", 1).I, elem(b, "names", 0).S(); got != 2 || got2 != "a" {
		t.Errorf("the other VM's t[1], names[0] = %d, %q; want 2, \"a\"", got, got2)
	}
	if got := elem(b, "names", 1).S(); got != "b\n" {
		t.Errorf("names[1] = %q", got)
	}

	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	snap := b.TakeSnapshot()
	if err := b.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if got := elem(b, "t", 1).I; got != 99 {
		t.Fatalf("t[1] after the run = %d, want 99", got)
	}
	if err := b.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got, got2 := elem(b, "t", 1).I, elem(b, "names", 0).S(); got != 2 || got2 != "a" {
		t.Errorf("t[1], names[0] after restore = %d, %q; want 2, \"a\"", got, got2)
	}
}

func TestShortCircuit(t *testing.T) {
	_, out := runProgram(t, `
global int calls = 0;
func bool touch() {
	calls += 1;
	return true;
}
func int main() {
	bool a = false && touch();
	bool b = true || touch();
	printf("%b %b %d\n", a, b, calls);
	return 0;
}`)
	if out != "false true 0\n" {
		t.Errorf("short-circuit output = %q", out)
	}
}

func TestCallFunctionWithParallelFor(t *testing.T) {
	// A synchronous debugger-style call into a function that itself fans
	// out a parallel_for: the synthetic scheduler must run the spawned
	// children to completion while the main program stays frozen.
	prog, err := Compile("test.c", `
global int acc = 0;
func int fan(int n) {
	acc = 0;
	parallel_for (int i = 0; i < n; i++) {
		atomic_add(&acc, i);
	}
	return acc;
}
func int main() {
	int x = 0;
	x = x + 1;
	return x;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	vm.StepInstr() // main is mid-flight
	res, err := vm.CallFunction("fan", []Value{IntVal(100)})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 4950 {
		t.Errorf("fan(100) = %d, want 4950", res.I)
	}
	// The frozen main thread is untouched and completes normally.
	if err := vm.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
}

// TestCallHelperDirectly checks that a parallel_for helper called
// directly, as a debugger `call` may, gets cells of its own for its
// by-reference params: its capture opcodes then read and write the
// frame's slots, and the caller's arguments stay as they were.
func TestCallHelperDirectly(t *testing.T) {
	prog, err := Compile("test.c", `
global int out = 0;
func int main() {
	int k = 5;
	parallel_for (int i = 0; i < 4; i++) {
		k = k + i;
		out = k;
	}
	return k;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	helper := prog.Funcs[prog.FuncIndex("main$par0")]
	if helper.Captured != 1 {
		t.Fatalf("main$par0 captures %d params, want 1", helper.Captured)
	}
	args := []Value{IntVal(3), IntVal(10)}
	if _, err := vm.CallFunction("main$par0", args); err != nil {
		t.Fatal(err)
	}
	if got := vm.GlobalCell("out").V.I; got != 13 {
		t.Errorf("out = %d after main$par0(3, 10), want 13", got)
	}
	if args[1].I != 10 {
		t.Errorf("the call's argument became %d", args[1].I)
	}
	ref := NewVM(prog, nil)
	for _, v := range []*VM{vm, ref} {
		if err := v.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := vm.Threads()[0].Result.I, ref.Threads()[0].Result.I; got != want {
		t.Errorf("main() = %d after the direct call, want %d", got, want)
	}
}

// TestFinishedWorkersKeepNothing checks that a finished parallel_for
// worker holds neither its range, with the capture list, nor its
// parent, so a snapshot copies none of the cells they would reach.
func TestFinishedWorkersKeepNothing(t *testing.T) {
	prog, err := Compile("test.c", `
global int total = 0;
func int main() {
	int bias = 2;
	for (int r = 0; r < 3; r++) {
		parallel_for (int i = 0; i < 40; i++) {
			atomic_add(&total, i + bias);
		}
	}
	return total;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	for len(vm.Threads()) < 9 {
		if vm.StepInstr() == nil {
			t.Fatal("program finished before the second parallel_for")
		}
	}
	done := 0
	for _, th := range vm.Threads() {
		if th.State != ThreadDone {
			continue
		}
		done++
		if th.par != nil || th.parent != nil {
			t.Errorf("finished thread %d keeps its range or parent", th.ID)
		}
	}
	if done < 4 {
		t.Fatalf("%d finished workers, want the first parallel_for's 4", done)
	}
	for _, th := range vm.TakeSnapshot().threads {
		if th.State == ThreadDone && (th.par != nil || th.parent != nil || len(th.Frames) > 0) {
			t.Errorf("snapshot of finished thread %d holds a range, parent or frame", th.ID)
		}
	}
}

func TestCallFunctionBudget(t *testing.T) {
	prog, err := Compile("test.c", `
func int spin() {
	int i = 0;
	while (true) {
		i += 1;
	}
	return i;
}
func int main() { return 0; }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, nil)
	vm.SynthBudget = 10_000
	if err := vm.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.CallFunction("spin", nil); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("runaway call: %v", err)
	}
}

func TestWorkerCountAffectsChunks(t *testing.T) {
	src := `
global int[] owner;
func int main() {
	owner = new int[16];
	parallel_for (int i = 0; i < 16; i++) {
		owner[i] = thread_id();
	}
	return 0;
}`
	distinct := func(workers int) int {
		prog, err := Compile("test.c", src, nil)
		if err != nil {
			t.Fatal(err)
		}
		vm := NewVM(prog, nil)
		vm.NumWorkers = workers
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		ids := map[int64]bool{}
		arr := vm.GlobalCell("owner").V.Arr()
		for i := range arr.Cells {
			ids[arr.Cells[i].V.I] = true
		}
		return len(ids)
	}
	if got := distinct(1); got != 1 {
		t.Errorf("1 worker used %d threads", got)
	}
	if got := distinct(4); got != 4 {
		t.Errorf("4 workers used %d threads", got)
	}
	if got := distinct(32); got != 16 { // clamped to the range
		t.Errorf("32 workers over 16 items used %d threads", got)
	}
}

// TestValueLayout pins the size of a Value and a Cell, which every push,
// pop, slot access and snapshot copies, and the two traps of a Value's
// shared I word: no accessor, Bool or printf's %d reads a float's bits or
// a string's length, and equal strings are equal through ValuesEqual
// even when their bytes are not shared.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 24 {
		t.Errorf("Value is %d bytes, want at most 24", n)
	}
	if n := unsafe.Sizeof(Cell{}); n > 24 {
		t.Errorf("Cell is %d bytes, want at most 24", n)
	}
	f, str := FloatVal(1.5), StrVal("hello")
	if f.F() != 1.5 || str.S() != "hello" || IntVal(7).I != 7 {
		t.Errorf("payloads: %v %q %d", f.F(), str.S(), IntVal(7).I)
	}
	if f.Bool() || str.Bool() || !IntVal(2).Bool() || !BoolVal(true).Bool() {
		t.Error("Bool reads a float's bits or a string's length, or misses a true int or bool")
	}
	if f.S() != "" || str.F() != 0 || f.Ptr() != nil || str.Arr() != nil || IntVal(1).Struct() != nil {
		t.Error("an accessor reads the payload of another kind")
	}
	if !ValuesEqual(StrVal("ab"), StrVal(strings.Clone("ab"))) || ValuesEqual(StrVal("ab"), StrVal("ba")) {
		t.Error("ValuesEqual compares string bytes by pointer")
	}
	if got, err := FormatPrintf("%d %d %d|%s|", []Value{f, str, IntVal(3), IntVal(4)}); err != nil || got != "0 0 3||" {
		t.Errorf("printf of mismatched kinds = %q, %v; want %q", got, err, "0 0 3||")
	}
}

// TestFuncAt checks that every instruction's program-wide index maps
// back to its function and pc, and that an index past the last maps to
// none.
func TestFuncAt(t *testing.T) {
	prog, err := Compile("test.c", `
func int sq(int v) { return v * v; }
func int main() {
	int s = 0;
	parallel_for (int i = 0; i < 4; i++) { s = s + sq(i); }
	return s;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for fi, fc := range prog.Code {
		for pc := range fc.Instrs {
			if gf, gpc := prog.FuncAt(fc.Base + pc); gf != fi || gpc != pc {
				t.Errorf("FuncAt(%d) = %d, %d, want %d, %d", fc.Base+pc, gf, gpc, fi, pc)
			}
			n++
		}
	}
	if fi, _ := prog.FuncAt(n); fi != -1 {
		t.Errorf("FuncAt(%d) = function %d past the last instruction", n, fi)
	}
}
