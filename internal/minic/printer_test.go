package minic

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPrintRoundTrip(t *testing.T) {
	src := `struct frontier_t {
	bool is_dense;
	int num_vertices;
	int[] dense_vertex_set;
	bool[] bool_map;
}

global int[] nrank;
global float damp = 0.85;

func void updateEdge_1(int s, int d) {
	atomic_add(&nrank[d], 1);
}

func int main() {
	int x = 1;
	float y = 2.5;
	string s = "a\nb";
	if (x == 1 && y > 2.0) {
		x += 3;
	} else if (x < 0) {
		x--;
	} else {
		x = -x;
	}
	while (x > 0) {
		x -= 1;
		if (x == 2) {
			break;
		}
		continue;
	}
	for (int i = 0; i < 10; i++) {
		x = x + i * 2;
	}
	parallel_for (int i = 0; i < 10; i++) {
		atomic_add(&nrank[i], i);
	}
	frontier_t* f = new frontier_t;
	f->is_dense = true;
	int[] arr = new int[10];
	arr[0] = int(y);
	updateEdge_1(x, arr[0]);
	return x;
}
`
	f1, err := Parse("a.c", src)
	if err != nil {
		t.Fatal(err)
	}
	out1 := Print(f1)
	f2, err := Parse("a.c", out1)
	if err != nil {
		t.Fatalf("reparse of printed output failed: %v\noutput:\n%s", err, out1)
	}
	out2 := Print(f2)
	if out1 != out2 {
		t.Errorf("print is not a fixed point.\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
}

// genExpr builds a random well-formed integer expression of bounded depth.
// Used by the property test: printing must preserve evaluation.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		return &IntLit{Value: int64(r.Intn(50) + 1)}
	}
	ops := []Kind{Plus, Minus, Star, Slash, Percent}
	op := ops[r.Intn(len(ops))]
	return &BinaryExpr{
		Op: op,
		X:  genExpr(r, depth-1),
		Y:  genExpr(r, depth-1),
	}
}

// TestPrinterPreservesEvaluation is a property-based test: for random
// expression trees, the printed form must reparse and evaluate to the same
// value the original tree evaluates to. This catches precedence and
// parenthesisation bugs in the printer.
func TestPrinterPreservesEvaluation(t *testing.T) {
	evalTree := func(e Expr) (int64, bool) {
		var rec func(Expr) (int64, bool)
		rec = func(e Expr) (int64, bool) {
			switch x := e.(type) {
			case *IntLit:
				return x.Value, true
			case *BinaryExpr:
				a, ok := rec(x.X)
				if !ok {
					return 0, false
				}
				b, ok := rec(x.Y)
				if !ok {
					return 0, false
				}
				switch x.Op {
				case Plus:
					return a + b, true
				case Minus:
					return a - b, true
				case Star:
					return a * b, true
				case Slash:
					if b == 0 {
						return 0, false
					}
					return a / b, true
				case Percent:
					if b == 0 {
						return 0, false
					}
					return a % b, true
				}
			}
			return 0, false
		}
		return rec(e)
	}

	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genExpr(r, 4)
		want, ok := evalTree(tree)
		if !ok {
			return true // division by zero in the tree; skip
		}
		src := "func int main() { int result = " + exprString(tree) + "; return result; }"
		prog, err := Compile("gen.c", src, nil)
		if err != nil {
			t.Logf("seed %d: compile error: %v\nsrc: %s", seed, err, src)
			return false
		}
		vm := NewVM(prog, nil)
		if err := vm.Run(); err != nil {
			t.Logf("seed %d: run error: %v", seed, err)
			return false
		}
		got := vm.sched.threads[0].Result.I
		if got != want {
			t.Logf("seed %d: got %d want %d\nsrc: %s", seed, got, want, src)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLexerPropertyIdentifiers checks that any identifier-shaped string
// round-trips through the lexer as a single IDENT token (or keyword),
// the debugger's $rip and ns::fn spellings included.
func TestLexerPropertyIdentifiers(t *testing.T) {
	letters := "abcdefghijklmnopqrstuvwxyz_ABCDEFGHIJKLMNOPQRSTUVWXYZ$"
	cont := "abcdefghijklmnopqrstuvwxyz0123456789_:"
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 1
		var b strings.Builder
		b.WriteByte(letters[r.Intn(len(letters))])
		for i := 1; i < n; i++ {
			b.WriteByte(cont[r.Intn(len(cont))])
		}
		name := b.String()
		toks, err := Lex(nil, "t.c", name)
		if err != nil {
			return false
		}
		if len(toks) != 2 { // token + EOF
			return false
		}
		if _, isKw := keywords[name]; isKw {
			return toks[0].Kind != IDENT
		}
		return toks[0].Kind == IDENT && toks[0].Text == name
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStringLiteralRoundTrip: quoting then lexing any byte string (without
// exotic bytes) yields the original value.
func TestStringLiteralRoundTrip(t *testing.T) {
	check := func(s string) bool {
		// The mini-C escape set covers ASCII; restrict the property to it.
		for i := 0; i < len(s); i++ {
			if s[i] > 126 || (s[i] < 32 && s[i] != '\n' && s[i] != '\t' && s[i] != '\r' && s[i] != 0) {
				return true
			}
		}
		toks, err := Lex(nil, "t.c", quoteMiniC(s))
		if err != nil {
			t.Logf("lex error for %q: %v", s, err)
			return false
		}
		return len(toks) == 2 && toks[0].Kind == STRINGLIT && toks[0].Text == s
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
