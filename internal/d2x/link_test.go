package d2x

import (
	"strings"
	"testing"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/minic"
)

func TestLinkRejectsBadGeneratedCode(t *testing.T) {
	if _, err := Link("bad.c", "func int main() { syntax error", nil, LinkOptions{}); err == nil {
		t.Error("broken generated code linked")
	}
	// A type error after table splicing also fails cleanly.
	ctx := d2xc.NewContext()
	if _, err := Link("bad.c", "func int main() { return \"str\"; }", ctx, LinkOptions{}); err == nil {
		t.Error("type-broken generated code linked")
	}
}

func TestLinkExtraNatives(t *testing.T) {
	called := false
	build, err := Link("p.c", `func int main() {
	probe();
	return 0;
}`, nil, LinkOptions{
		Natives: func(n *minic.Natives) {
			n.Register(&minic.Native{
				Name: "probe",
				Sig:  minic.Signature{Result: minic.VoidType},
				Handler: func(call *minic.NativeCall) (minic.Value, error) {
					called = true
					return minic.NullVal(), nil
				},
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := build.Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("DSL-supplied native never invoked")
	}
}

func TestWithoutD2XHasNoRuntime(t *testing.T) {
	build, err := Link("p.c", "func int main() { return 0; }", nil, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if build.Runtime != nil {
		t.Error("runtime attached to a plain build")
	}
	if _, _, ok := build.Program.Natives.Lookup("d2x_runtime_command_xbt"); ok {
		t.Error("D2X natives linked into a plain build")
	}
	if strings.Contains(build.Source, "__d2x") {
		t.Error("tables in a plain build")
	}
}

func TestExtraMacrosLoadAndValidate(t *testing.T) {
	ctx := d2xc.NewContext()
	build, err := Link("p.c", `func void my_ext() {
	printf("ext!\n");
}
func int main() {
	return 0;
}`, ctx, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	build.ExtraMacros = "define myext\n  call my_ext()\nend\n"
	var out strings.Builder
	d, err := build.NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Execute("myext"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ext!") {
		t.Errorf("extension output:\n%s", out.String())
	}
	// A malformed macro file fails session construction.
	build.ExtraMacros = "define broken\n"
	if _, err := build.NewSession(nil); err == nil {
		t.Error("malformed ExtraMacros accepted")
	}
}

func TestRunReportsFault(t *testing.T) {
	build, err := Link("p.c", `func int main() {
	int[] a = new int[1];
	return a[5];
}`, nil, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := build.Run(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("fault: %v", err)
	}
}

func TestOptimizedBuildStillDebuggable(t *testing.T) {
	// Generated code full of foldable expressions, with D2X records on
	// every line. After optimisation the program must still run, and the
	// extended stack must still resolve at a surviving statement.
	ctx := d2xc.NewContext()
	e := d2xc.NewEmitter(ctx)
	e.Emitln("func int main() {")
	if err := e.BeginSection(); err != nil {
		t.Fatal(err)
	}
	ctx.PushSourceLoc("opt.dsl", 1, "main")
	e.Emitln("\tint a = 2 + 3 * 4;")
	ctx.PushSourceLoc("opt.dsl", 2, "main")
	e.Emitln("\tif (1 < 2) {")
	e.Emitln("\t\ta = a + 0;")
	e.Emitln("\t}")
	ctx.PushSourceLoc("opt.dsl", 3, "main")
	e.Emitln("%s", "\tprintf(\"%d\\n\", a);")
	ctx.PushSourceLoc("opt.dsl", 4, "main")
	e.Emitln("\treturn 0;")
	if err := e.EndSection(); err != nil {
		t.Fatal(err)
	}
	e.Emitln("}")

	build, err := Link("opt.c", e.String(), ctx, LinkOptions{
		Optimize: true,
		FileResolver: func(path string) (string, error) {
			return "dsl line 1\ndsl line 2\ndsl line 3\ndsl line 4\n", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	d, err := build.NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"break opt.c:2", "run", "xbt"} {
		if err := d.Execute(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	if !strings.Contains(out.String(), "#0 in main at opt.dsl:1") {
		t.Errorf("xbt after optimisation:\n%s", out.String())
	}
	if err := d.Execute("continue"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "14\n") {
		t.Errorf("optimised program output:\n%s", out.String())
	}
}
