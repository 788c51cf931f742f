package debugger

import (
	"strings"
	"testing"
)

// TestCapturedVariableInHelperFrame checks print, set var and the frame's
// variable listing on a variable a parallel_for helper captured, which
// the helper's debug info lists among its params: paused in the worker's
// helper frame, they read and write the spawner's cell.
func TestCapturedVariableInHelperFrame(t *testing.T) {
	d, out := attach(t, `func int main() {
	int k = 5;
	parallel_for (int i = 0; i < 1; i++) {
		printf("in %d\n", k);
	}
	printf("out %d\n", k);
	return k;
}
`)
	mustExec(t, d, "break gen.c:4", "run")
	if f := d.SelectedFrame(); f == nil || f.Fn.Name != "main$par0" {
		t.Fatalf("stopped in %v, want the parallel_for helper", f)
	}
	out.Reset()
	mustExec(t, d, "print k", "set var k = 40", "info args")
	if got, want := out.String(), "$1 = 5\ni = 0\nk = 40\n"; got != want {
		t.Errorf("print, set var and info args:\n%s\nwant:\n%s", got, want)
	}
	spawner := d.proc.VM.Threads()[0].Top()
	if v := spawner.SlotByName("k").V; v.I != 40 {
		t.Errorf("main's k = %d after set var in the helper, want 40", v.I)
	}
	out.Reset()
	mustExec(t, d, "delete", "continue")
	if got := out.String(); !strings.Contains(got, "in 40\nout 40\n") {
		t.Errorf("the program printed %q, want its k as set", got)
	}
}
