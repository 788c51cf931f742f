package minic

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func optimizeSource(t *testing.T, src string) (string, int) {
	t.Helper()
	f, err := Parse("opt.c", src)
	if err != nil {
		t.Fatal(err)
	}
	n := Optimize(f)
	return Print(f), n
}

func TestConstantFolding(t *testing.T) {
	out, n := optimizeSource(t, `
func int main() {
	int a = 2 + 3 * 4;
	int b = (10 - 4) / 3;
	int c = 7 % 4;
	int d = 1 << 6;
	float f = 1.5 * 2.0;
	bool p = 3 < 4 && true;
	string s = "ab" + "cd";
	return a;
}`)
	if n == 0 {
		t.Fatal("no folds applied")
	}
	for _, want := range []string{"= 14;", "= 2;", "= 3;", "= 64;", "= 3.0;", "= true;", `= "abcd";`} {
		if !strings.Contains(out, want) {
			t.Errorf("folded output missing %q:\n%s", want, out)
		}
	}
}

// TestFoldKeepsFaultsAndMixedKinds checks the literal pairs the folder
// leaves alone: those the VM faults on, which must fault at run time;
// those of two kinds, which Check rejects after the optimiser runs; and
// operators it does not fold on their kind.
func TestFoldKeepsFaultsAndMixedKinds(t *testing.T) {
	for _, e := range []string{"1 / 0", "1 % 0", "1 << 64", "1 >> -1", "1.5 / 0.0", "1 + 2.5", `"a" + 1`, "true + 1", "1.5 < 2.5", `"a" == "a"`, "1 && 2", "true < false"} {
		if out, _ := optimizeSource(t, "func int main() { x = "+e+"; return 0; }"); !strings.Contains(out, "x = "+e+";") {
			t.Errorf("%s was rewritten:\n%s", e, out)
		}
	}
}

func TestAlgebraicSimplification(t *testing.T) {
	out, _ := optimizeSource(t, `
func int f(int x) {
	int a = x + 0;
	int b = x * 1;
	int c = 0 + x;
	int d = x * 0;
	int e = x / 1;
	return a + b + c + d + e;
}`)
	for _, want := range []string{"int a = x;", "int b = x;", "int c = x;", "int d = 0;", "int e = x;"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMulZeroKeepsSideEffects(t *testing.T) {
	// x*0 with a call inside must NOT be dropped.
	out, _ := optimizeSource(t, `
func int g() {
	return 1;
}
func int main() {
	int a = g() * 0;
	return a;
}`)
	if !strings.Contains(out, "g() * 0") {
		t.Errorf("call folded away:\n%s", out)
	}
	// Division folding must not hide a trap.
	out2, _ := optimizeSource(t, `func int main() { int a = 1 / 0; return a; }`)
	if !strings.Contains(out2, "1 / 0") {
		t.Errorf("divide-by-zero folded:\n%s", out2)
	}
}

func TestBranchPruning(t *testing.T) {
	out, _ := optimizeSource(t, `
func int main() {
	int a = 0;
	if (true) {
		a = 1;
	} else {
		a = 2;
	}
	if (1 > 2) {
		a = 3;
	}
	while (false) {
		a = 4;
	}
	return a;
}`)
	if strings.Contains(out, "a = 2;") || strings.Contains(out, "a = 3;") || strings.Contains(out, "a = 4;") {
		t.Errorf("dead branches survive:\n%s", out)
	}
	if !strings.Contains(out, "a = 1;") {
		t.Errorf("live branch pruned:\n%s", out)
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	out, _ := optimizeSource(t, `
func int main() {
	return 1;
	return 2;
}`)
	if strings.Contains(out, "return 2;") {
		t.Errorf("unreachable return survives:\n%s", out)
	}
}

// TestDeadCodeCountExact pins the rewrite count for dead-code removal:
// three statements after the return means exactly three rewrites, even
// though they are dropped as one truncation.
func TestDeadCodeCountExact(t *testing.T) {
	_, n := optimizeSource(t, `
func int main() {
	return 1;
	int a = 2;
	int b = 3;
	return a + b;
}`)
	if n != 3 {
		t.Errorf("rewrite count = %d, want 3 (one per dropped statement)", n)
	}

	// A lone return at the end of the block drops nothing and must not
	// inflate the count.
	_, n = optimizeSource(t, `
func int main() {
	int a = 4;
	return a;
}`)
	if n != 0 {
		t.Errorf("rewrite count = %d, want 0 for clean function", n)
	}
}

// TestOptimizeRunsDeclaredOrder pins the contract debugify depends on:
// the declared pass order (Passes) is exactly what Optimize executes —
// whole rounds of the declared sequence, nothing reordered, skipped, or
// injected.
func TestOptimizeRunsDeclaredOrder(t *testing.T) {
	declared := Passes()
	var names []string
	seen := map[string]bool{}
	for _, p := range declared {
		if p.Name == "" {
			t.Fatal("declared pass with empty name")
		}
		if seen[p.Name] {
			t.Fatalf("pass %q declared twice", p.Name)
		}
		seen[p.Name] = true
		names = append(names, p.Name)
	}

	f, err := Parse("order.c", `
func int main() {
	int a = 2 + 3;
	if (1 > 2) {
		a = 0;
	}
	int b = a * 1;
	return a + b;
	int dead = 9;
}`)
	if err != nil {
		t.Fatal(err)
	}
	n, trace := OptimizeTraced(f)
	if n == 0 {
		t.Fatal("optimizer applied no rewrites to a clearly optimisable program")
	}
	if len(trace) == 0 || len(trace)%len(declared) != 0 {
		t.Fatalf("trace length %d is not a whole number of declared rounds (%d passes)",
			len(trace), len(declared))
	}
	for i, got := range trace {
		if want := names[i%len(names)]; got != want {
			t.Fatalf("pass %d: Optimize ran %q, declared order says %q (trace %v)",
				i, got, want, trace)
		}
	}
	if len(trace) < 2*len(declared) {
		t.Fatalf("expected at least two rounds (work round + clean round), got trace %v", trace)
	}
}

// TestPassByName resolves every declared pass and rejects unknown names.
func TestPassByName(t *testing.T) {
	for _, p := range Passes() {
		got, ok := PassByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Fatalf("PassByName(%q) = (%v, %v)", p.Name, got.Name, ok)
		}
	}
	if _, ok := PassByName("no-such-pass"); ok {
		t.Fatal("PassByName accepted an unknown pass")
	}
}

// TestPassesAreIndependent checks each pass only performs its own
// rewrite family: fold-constants alone must not prune branches, and
// prune-branches alone must not fold.
func TestPassesAreIndependent(t *testing.T) {
	src := `
func int main() {
	int a = 2 + 3;
	if (false) {
		a = 7;
	}
	return a;
}`
	fold := func(t *testing.T, name string) string {
		f, err := Parse("ind.c", src)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := PassByName(name)
		if !ok {
			t.Fatalf("no pass %q", name)
		}
		p.Run(f)
		return Print(f)
	}
	foldOut := fold(t, "fold-constants")
	if !strings.Contains(foldOut, "= 5;") {
		t.Errorf("fold-constants did not fold 2+3:\n%s", foldOut)
	}
	if !strings.Contains(foldOut, "a = 7;") {
		t.Errorf("fold-constants pruned a branch:\n%s", foldOut)
	}
	pruneOut := fold(t, "prune-branches")
	if strings.Contains(pruneOut, "a = 7;") {
		t.Errorf("prune-branches left the constant-false branch:\n%s", pruneOut)
	}
	if !strings.Contains(pruneOut, "2 + 3") {
		t.Errorf("prune-branches folded constants:\n%s", pruneOut)
	}
}

func TestCompileOptimizedRuns(t *testing.T) {
	prog, folds, err := CompileOptimized("opt.c", `
func int main() {
	int unrolled = 3 * 3 * 3 * 3;
	if (2 > 1) {
		unrolled += 0 + 19;
	}
	printf("%d\n", unrolled);
	return 0;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if folds == 0 {
		t.Error("no folds recorded")
	}
	var sb strings.Builder
	vm := NewVM(prog, &sb)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "100\n" {
		t.Errorf("output = %q, want 100", sb.String())
	}
}

// TestOptimizerPreservesSemantics is the optimiser's property test: for
// random integer expression trees, the optimised program computes the same
// value as the unoptimised one.
func TestOptimizerPreservesSemantics(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genExpr(r, 5)
		src := "func int main() { int result = " + exprString(tree) + "; return result; }"

		run := func(optimize bool) (int64, bool) {
			var prog *Program
			var err error
			if optimize {
				prog, _, err = CompileOptimized("p.c", src, nil)
			} else {
				prog, err = Compile("p.c", src, nil)
			}
			if err != nil {
				return 0, false
			}
			vm := NewVM(prog, nil)
			if err := vm.Run(); err != nil {
				return 0, false
			}
			return vm.Threads()[0].Result.I, true
		}
		plain, okPlain := run(false)
		opt, okOpt := run(true)
		if okPlain != okOpt {
			// A run-time trap (div by zero) must be preserved, not folded
			// away or introduced.
			t.Logf("seed %d: trap behaviour diverged (plain ok=%v, opt ok=%v)\nsrc: %s",
				seed, okPlain, okOpt, src)
			return false
		}
		if okPlain && plain != opt {
			t.Logf("seed %d: plain %d != optimised %d\nsrc: %s", seed, plain, opt, src)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDisassembler(t *testing.T) {
	prog, err := Compile("d.c", `
global int g = 5;
struct pt {
	int x;
}
func int helper(int a) {
	return a + g;
}
func int main() {
	int[] arr = new int[4];
	pt* p = new pt;
	parallel_for (int i = 0; i < 4; i++) {
		atomic_add(&arr[i], i);
	}
	return helper(arr[0]) + p->x;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	dis := NewDisassembler(prog)
	out := dis.Func("main")
	for _, want := range []string{"main:", "newarr", "newstruct", " pt", "parfor", "call", "helper", "; line"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	helperOut := dis.Func("helper")
	if !strings.Contains(helperOut, "loadg") || !strings.Contains(helperOut, " g") {
		t.Errorf("helper disassembly:\n%s", helperOut)
	}
	if out := dis.Func("nosuch"); !strings.Contains(out, "no function") {
		t.Errorf("missing-function disassembly: %q", out)
	}
}
