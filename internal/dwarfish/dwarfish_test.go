package dwarfish

import (
	"math/rand"
	"testing"
	"testing/quick"

	"d2x/internal/minic"
)

const sampleSrc = `func int add(int a, int b) {
	int sum = a + b;
	return sum;
}
func int main() {
	int x = add(1, 2);
	int y = add(x, 3);
	return y;
}
`

func buildSample(t *testing.T) (*minic.Program, *Info) {
	t.Helper()
	prog, err := minic.Compile("gen.c", sampleSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog, Build(prog)
}

func TestBuildFunctions(t *testing.T) {
	_, info := buildSample(t)
	add := info.FuncByName("add")
	if add == nil {
		t.Fatal("no debug record for add")
	}
	if add.DeclLine != 1 {
		t.Errorf("add.DeclLine = %d, want 1", add.DeclLine)
	}
	if v, ok := add.VarByName("sum"); !ok || v.Type != "int" || v.Param {
		t.Errorf("sum var = %+v, ok=%v", v, ok)
	}
	if v, ok := add.VarByName("a"); !ok || !v.Param || v.Slot != 0 {
		t.Errorf("a var = %+v, ok=%v", v, ok)
	}
	if info.FuncByName("missing") != nil {
		t.Error("FuncByName returned a record for a missing function")
	}
}

func TestLineMapping(t *testing.T) {
	_, info := buildSample(t)
	add := info.FuncByName("add")
	// Line 2 is `int sum = a + b;` — it must have at least one statement PC
	// and LineOf must invert it.
	pcs := add.StmtPCs(2)
	if len(pcs) == 0 {
		t.Fatal("no statement PCs for line 2")
	}
	for _, pc := range pcs {
		if got := add.LineOf(pc); got != 2 {
			t.Errorf("LineOf(%d) = %d, want 2", pc, got)
		}
	}
	file, line, ok := info.LineFor(Addr{FuncIndex: add.FuncIndex, PC: pcs[0]})
	if !ok || file != "gen.c" || line != 2 {
		t.Errorf("LineFor = %q:%d ok=%v", file, line, ok)
	}
}

func TestSitesForLine(t *testing.T) {
	_, info := buildSample(t)
	sites := info.SitesForLine(6) // `int y = add(x, 3);`
	if len(sites) != 1 {
		t.Fatalf("sites for line 6 = %d, want 1", len(sites))
	}
	if sites[0].Func != "main" {
		t.Errorf("site func = %q, want main", sites[0].Func)
	}
	if got := info.SitesForLine(9999); len(got) != 0 {
		t.Errorf("sites for absent line = %v", got)
	}
}

func TestSitesForFunc(t *testing.T) {
	_, info := buildSample(t)
	sites := info.SitesForFunc("add")
	if len(sites) != 1 || sites[0].Line != 2 {
		t.Fatalf("entry site for add = %+v, want line 2", sites)
	}
	if got := info.SitesForFunc("nope"); got != nil {
		t.Errorf("sites for absent func = %v", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, info := buildSample(t)
	blob := info.Encode()
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.File != info.File || len(back.Funcs) != len(info.Funcs) {
		t.Fatalf("decoded shape mismatch: %+v", back)
	}
	for i := range info.Funcs {
		a, b := info.Funcs[i], back.Funcs[i]
		if a.Name != b.Name || a.FuncIndex != b.FuncIndex || a.DeclLine != b.DeclLine {
			t.Errorf("func %d header mismatch: %+v vs %+v", i, a, b)
		}
		if len(a.Vars) != len(b.Vars) || len(a.Lines) != len(b.Lines) {
			t.Fatalf("func %d table size mismatch", i)
		}
		for j := range a.Vars {
			if a.Vars[j] != b.Vars[j] {
				t.Errorf("var %d/%d mismatch: %+v vs %+v", i, j, a.Vars[j], b.Vars[j])
			}
		}
		for j := range a.Lines {
			if a.Lines[j] != b.Lines[j] {
				t.Errorf("line %d/%d mismatch: %+v vs %+v", i, j, a.Lines[j], b.Lines[j])
			}
		}
	}
}

// TestAddrEncodingProperty: EncodeAddr/DecodeAddr are inverses for all
// plausible function indexes and PCs.
func TestAddrEncodingProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Addr{FuncIndex: r.Intn(1 << 20), PC: r.Intn(1 << 28)}
		return DecodeAddr(EncodeAddr(a)) == a
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLineTableProperty: for every instruction of every function in a real
// compiled program, LineOf agrees with the compiler's own line record.
func TestLineTableProperty(t *testing.T) {
	prog, info := buildSample(t)
	for idx := range prog.Funcs {
		fc := prog.Code[idx]
		fi := info.FuncByIndex(idx)
		if fi == nil {
			t.Fatalf("no debug info for func %d", idx)
		}
		for pc, in := range fc.Instrs {
			if got := fi.LineOf(pc); got != in.Line {
				t.Errorf("%s pc %d: LineOf = %d, compiler line = %d", fi.Name, pc, got, in.Line)
			}
		}
	}
}

func TestVarShadowingPrefersInnermost(t *testing.T) {
	src := `func int main() {
	int v = 1;
	if (v == 1) {
		int x = 2;
		v = x;
	}
	int x = 3;
	return v + x;
}
`
	prog, err := minic.Compile("gen.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := Build(prog)
	mainFn := info.FuncByName("main")
	v, ok := mainFn.VarByName("x")
	if !ok {
		t.Fatal("no var x")
	}
	// Two `x` slots exist; the record must pick the later (higher) slot.
	count := 0
	for _, rec := range mainFn.Vars {
		if rec.Name == "x" {
			count++
			if rec.Slot > v.Slot {
				t.Errorf("VarByName returned slot %d, a later one %d exists", v.Slot, rec.Slot)
			}
		}
	}
	if count != 2 {
		t.Fatalf("expected 2 x records, found %d", count)
	}
}
