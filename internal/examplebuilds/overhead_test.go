package examplebuilds

import (
	"testing"

	"d2x/internal/minic"
)

// TestZeroOverheadInstructionCounts makes §3.2's claim exact: the D2X
// tables are data, so the with-D2X and without-D2X builds of every
// example execute the same instructions from NewVM to exit.
func TestZeroOverheadInstructionCounts(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			var steps [2]int64
			for i, withD2X := range []bool{true, false} {
				b, err := buildMode(name, false, withD2X)
				if err != nil {
					t.Fatalf("building %s (D2X %v): %v", name, withD2X, err)
				}
				if (b.Runtime != nil) != withD2X {
					t.Fatalf("%s (D2X %v): runtime linked = %v", name, withD2X, b.Runtime != nil)
				}
				vm := minic.NewVM(b.Program, nil)
				if err := vm.Run(); err != nil {
					t.Fatalf("running %s (D2X %v): %v", name, withD2X, err)
				}
				steps[i] = vm.Steps
			}
			if steps[0] != steps[1] {
				t.Errorf("%s executes %d instructions with D2X, %d without", name, steps[0], steps[1])
			}
			t.Logf("%s: %d instructions", name, steps[0])
		})
	}
}
