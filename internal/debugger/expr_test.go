package debugger

import (
	"strings"
	"testing"

	"d2x/internal/minic"
)

// exprFixtureSrc is the program the expression tests pause in, at line
// 13.
const exprFixtureSrc = `global int g = 10;
global float gf = 2.5;
struct box { int v; }
func int main() {
	int a = 6;
	int b = 7;
	bool flag = true;
	string s = "hi";
	box* p = new box;
	p->v = 3;
	int[] arr = new int[4];
	arr[1] = 9;
	printf("done\n");
	return 0;
}
`

func exprFixture(t *testing.T) *Debugger {
	t.Helper()
	d, _ := attach(t, exprFixtureSrc)
	mustExec(t, d, "break gen.c:13", "run")
	return d
}

// binaryCases hold expressions on exprFixture and what print shows.
var binaryCases = []struct {
	expr string
	want string
}{
	{"a + b", "13"},
	{"a * b", "42"},
	{"b - a", "1"},
	{"b / a", "1"},
	{"b % a", "1"},
	{"a < b", "true"},
	{"a >= b", "false"},
	{"a == 6", "true"},
	{"a != 6", "false"},
	{"a + b * 2", "20"},       // precedence
	{"(a + b) * 2", "26"},     // grouping
	{"flag && a < b", "true"}, // logical
	{"flag || a > b", "true"},
	{"g + a", "16"},         // global + local
	{"gf * 2", "5"},         // float math
	{"p->v + arr[1]", "12"}, // postfix mixes
	{"-a + b", "1"},         // unary in binary
	{"s + s", `"hihi"`},     // string concat
	{"a << 2", "24"},        // shift, as in the program
	{"1e3", "1000"},         // exponent float
	{"1e3 / 16", "62.5"},
	{`"x\ry"`, `"x\ry"`}, // escapes the program reads
	{`"x\0y"`, `"x\x00y"`},
}

// shortCircuitCases hold expressions on TestShortCircuit's program,
// whose right operands must not run, and what print shows.
var shortCircuitCases = []struct{ expr, want string }{
	{"a || bump()", "true"},
	{"false && bump()", "false"},
	{"p != null && *p > 3", "false"},
	{"p == null || *p > 3", "true"},
	{"arr != null && arr[2] == 1", "false"},
	{"false && (bump() || *p > 3)", "false"},
	{"a && !a && bump()", "false"},
}

// typeErrorExprs are expressions on exprFixture that the checker would
// reject in a program, and typeOKCases ones it accepts.
var (
	typeErrorExprs = []string{`s + 1`, `s - s`, `gf % 2`, `a % gf`, `s < a`, `min_int(gf, 1)`, `min_int(s, 1)`, `min_int(&a, 1)`, `str_len(arr)`, `str_len()`, `min_int(1, 2, 3)`}
	typeOKCases    = []struct{ expr, want string }{
		{"gf && flag", "false"},
		{"s || false", "false"},
		{"!gf", "true"},
		{"a || gf", "true"},
	}
)

// refMisfits are assignments on exprFixture of a pointer, array or
// struct where an int or a bool lives, and the error set var gives.
var refMisfits = []struct{ assign, lhs, err string }{
	{"arr[0] = &a", "arr[0]", "cannot assign pointer to int"},
	{"a = p", "a", "cannot assign struct to int"},
	{"flag = &g", "flag", "cannot assign pointer to bool"},
	{"arr[2] = arr", "arr[2]", "cannot assign array to int"},
}

// typeMisfits are assignments on exprFixture of a scalar the checker
// rejects for the location's declared type, and the error set var gives.
var typeMisfits = []struct{ assign, lhs, err string }{
	{"s = 5", "s", "cannot assign int to string"},
	{"flag = 2", "flag", "cannot assign int to bool"},
	{"p = 5", "p", "cannot assign int to box*"},
}

// The assignment and the eval arguments the program's tokens split
// differently from a scan for = and commas.
const (
	tokenAssign   = `arr[str_len("a=b")] = 5`
	tokenEvalArgs = `"echo %s %s", "a\",b", "c"`
)

// exprSeeds returns the expressions, assignments and eval arguments of
// this file's tests.
func exprSeeds() []string {
	seeds := append([]string{"a = b * 2 + 1", "arr[0] = a + 1", "a = 1.5", tokenAssign, tokenEvalArgs}, badExprs...)
	seeds = append(seeds, typeErrorExprs...)
	for _, c := range append(refMisfits, typeMisfits...) {
		seeds = append(seeds, c.assign)
	}
	seeds = append(seeds, "gf = 3", "gf / 2")
	for _, c := range binaryCases {
		seeds = append(seeds, c.expr)
	}
	for _, c := range shortCircuitCases {
		seeds = append(seeds, c.expr)
	}
	for _, c := range typeOKCases {
		seeds = append(seeds, c.expr)
	}
	return seeds
}

// badExprs are expressions on exprFixture that must fail.
var badExprs = []string{
	"a / 0", // trap semantics preserved
	"a % 0",
	"a +",    // incomplete
	"* a *",  // malformed
	"a ==",   // incomplete comparison
	`"a\qb"`, // an escape the program rejects
	"1.",     // tokens the program rejects
	"--a",
}

func TestBinaryExpressions(t *testing.T) {
	d := exprFixture(t)
	for _, tc := range binaryCases {
		v, err := d.EvalExpr(tc.expr)
		if err != nil {
			t.Errorf("%q: %v", tc.expr, err)
			continue
		}
		if got := minic.FormatValue(v); got != tc.want {
			t.Errorf("%q = %s, want %s", tc.expr, got, tc.want)
		}
	}
}

func TestBinaryExpressionErrors(t *testing.T) {
	d := exprFixture(t)
	for _, expr := range badExprs {
		if _, err := d.EvalExpr(expr); err == nil {
			t.Errorf("%q accepted", expr)
		}
	}
}

func TestCallInsideBinaryExpr(t *testing.T) {
	d, _ := attach(t, `func int twice(int x) {
	return x * 2;
}
func int main() {
	int a = 5;
	printf("done\n");
	return 0;
}
`)
	mustExec(t, d, "break gen.c:6", "run")
	v, err := d.EvalExpr("twice(a) + 1")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 11 {
		t.Errorf("twice(a) + 1 = %d, want 11", v.I)
	}
	// str_len is a native; natives participate in expressions too.
	v, err = d.EvalExpr(`str_len("abcd") * 10`)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 40 {
		t.Errorf("native in expression = %d, want 40", v.I)
	}
}

func TestSetWithComputedRHS(t *testing.T) {
	d := exprFixture(t)
	mustExec(t, d, "set var a = b * 2 + 1")
	if v, _ := d.EvalExpr("a"); v.I != 15 {
		t.Errorf("a = %d, want 15", v.I)
	}
	mustExec(t, d, "set var arr[0] = a + 1")
	if v, _ := d.EvalExpr("arr[0]"); v.I != 16 {
		t.Errorf("arr[0] = %d, want 16", v.I)
	}
	// The assignment's = is a token: one inside a string is not it.
	mustExec(t, d, "set var "+tokenAssign)
	if v, _ := d.EvalExpr("arr[3]"); v.I != 5 {
		t.Errorf("arr[3] = %d, want 5", v.I)
	}
}

// TestEvalArgumentsAreTokens checks that eval reads its format and
// arguments as mini-C tokens: a comma or an escaped quote inside a
// string argument splits nothing.
func TestEvalArgumentsAreTokens(t *testing.T) {
	d := exprFixture(t)
	var out strings.Builder
	d.out = &out
	mustExec(t, d, "eval "+tokenEvalArgs)
	if got := out.String(); got != "a\",b c\n" {
		t.Errorf("eval echoed %q, want %q", got, "a\",b c\n")
	}
}

func TestConditionUsingComplexExpr(t *testing.T) {
	d, out := attach(t, `global int hits = 0;
func int main() {
	for (int i = 0; i < 20; i++) {
		hits += 1;
	}
	printf("%d\n", hits);
	return 0;
}
`)
	mustExec(t, d, "break gen.c:4 if i % 7 == 3 && i > 5", "run")
	if v, _ := d.EvalExpr("i"); v.I != 10 {
		t.Errorf("first stop i = %d, want 10", v.I)
	}
	mustExec(t, d, "continue")
	if v, _ := d.EvalExpr("i"); v.I != 17 {
		t.Errorf("second stop i = %d, want 17", v.I)
	}
	mustExec(t, d, "continue")
	if !strings.Contains(out.String(), "20\n") {
		t.Errorf("program did not finish:\n%s", out.String())
	}
}

// TestShortCircuit checks that && and || skip their right operand when
// the left one decides, as the compiled program does: the skipped
// operand calls, dereferences and indexes nothing.
func TestShortCircuit(t *testing.T) {
	d, out := attach(t, `global int calls = 0;
func bool bump() {
	calls = calls + 1;
	return true;
}
func int main() {
	bool a = true;
	int* p = null;
	int[] arr = null;
	bool r = a || bump();
	printf("calls=%d\n", calls);
	return 0;
}
`)
	mustExec(t, d, "break gen.c:11", "run")
	for _, c := range shortCircuitCases {
		v, err := d.EvalExpr(c.expr)
		if err != nil {
			t.Errorf("%q: %v", c.expr, err)
			continue
		}
		if got := minic.FormatValue(v); got != c.want {
			t.Errorf("%q = %s, want %s", c.expr, got, c.want)
		}
	}
	mustExec(t, d, "print a || bump()", "print false && bump()")
	if v, _ := d.EvalExpr("calls"); v.I != 0 {
		t.Errorf("calls = %d after the short-circuited prints, want 0", v.I)
	}
	mustExec(t, d, "continue")
	if !strings.Contains(out.String(), "calls=0\n") {
		t.Errorf("the program's own count moved:\n%s", out.String())
	}
}

// TestUncheckedOperandsMatchChecker checks that the debugger rejects, as
// the checker rejects in a program, operands whose int reading would see
// a float's bits or a string's length, a float, a string, a pointer or an
// array passed where the program keeps an int or a string, and a native
// call with the wrong argument count.
func TestUncheckedOperandsMatchChecker(t *testing.T) {
	d := exprFixture(t)
	for _, expr := range typeErrorExprs {
		if v, err := d.EvalExpr(expr); err == nil {
			t.Errorf("%q = %s, want a type error", expr, minic.FormatValue(v))
		}
	}
	for _, c := range typeOKCases {
		v, err := d.EvalExpr(c.expr)
		if err != nil {
			t.Errorf("%q: %v", c.expr, err)
			continue
		}
		if got := minic.FormatValue(v); got != c.want {
			t.Errorf("%q = %s, want %s", c.expr, got, c.want)
		}
	}
	if err := d.Execute("set var a = 1.5"); err == nil {
		t.Error("set var a = 1.5 stored a float in an int")
	}
	if v, _ := d.EvalExpr("a"); v.Kind != minic.VInt || v.I != 6 {
		t.Errorf("a = %s after the rejected set, want 6", minic.FormatValue(v))
	}
}

// TestSetVarRejectsReferences checks that set var, as the checker,
// rejects a pointer, array or struct stored where an int or a bool
// lives, and leaves the location as it was.
func TestSetVarRejectsReferences(t *testing.T) {
	testSetVarRejects(t, refMisfits)
}

// TestSetVarStoresAsProgram checks that set var stores what the
// program's own store would: an int into a float global becomes a float,
// so that / divides as floats, and a scalar of another type than the
// location's declared one is rejected, as the checker rejects it.
func TestSetVarStoresAsProgram(t *testing.T) {
	d := exprFixture(t)
	mustExec(t, d, "set var gf = 3")
	if v, err := d.EvalExpr("gf / 2"); err != nil || minic.FormatValue(v) != "1.5" {
		t.Errorf("gf / 2 after set var gf = 3: %s, %v, want 1.5", minic.FormatValue(v), err)
	}
	testSetVarRejects(t, typeMisfits)
}

func testSetVarRejects(t *testing.T, misfits []struct{ assign, lhs, err string }) {
	t.Helper()
	d := exprFixture(t)
	for _, c := range misfits {
		before, err := d.EvalExpr(c.lhs)
		if err != nil {
			t.Fatal(err)
		}
		err = d.Execute("set var " + c.assign)
		if err == nil || err.Error() != c.err {
			t.Errorf("set var %s: error %v, want %q", c.assign, err, c.err)
		}
		if v, _ := d.EvalExpr(c.lhs); minic.FormatValue(v) != minic.FormatValue(before) {
			t.Errorf("set var %s: %s = %s, want %s", c.assign, c.lhs, minic.FormatValue(v), minic.FormatValue(before))
		}
	}
}
