package loc

import (
	"fmt"
	"strings"
)

// Row is one line of a rendered evaluation table.
type Row struct {
	Component string
	Value     string
}

// Table is a rendered evaluation table, paper-style.
type Table struct {
	Title string
	Rows  []Row
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	width := 0
	for _, r := range t.Rows {
		if len(r.Component) > width {
			width = len(r.Component)
		}
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s  %s\n", width, r.Component, r.Value)
	}
	return b.String()
}

// Table3 reproduces the paper's Table 3: GraphIt's size, the D2X delta,
// and the D2X library components.
func Table3(root string) (*Table, error) {
	graphit, err := Count(root, "graphit")
	if err != nil {
		return nil, err
	}
	d2xc, err := Count(root, "d2xc")
	if err != nil {
		return nil, err
	}
	d2xr, err := Count(root, "d2xr")
	if err != nil {
		return nil, err
	}
	macros, err := Count(root, "macros")
	if err != nil {
		return nil, err
	}
	total := d2xc.Total + d2xr.Total + macros.Total
	return &Table{
		Title: "Table 3: lines of code changed in GraphIt and size of D2X (this reproduction)",
		Rows: []Row{
			{"GraphIt DSL Compiler and Runtime", fmt.Sprintf("%d", graphit.NonDelta())},
			{"Delta for adding D2X support", fmt.Sprintf("%d (in %d d2x_* files + %d marked hunks)", graphit.Delta, graphit.DeltaFiles, graphit.Hunks)},
			{"GraphIt percentage change", fmt.Sprintf("%.1f%%", graphit.DeltaPercent())},
			{"D2X-C", fmt.Sprintf("%d", d2xc.Total)},
			{"D2X-R", fmt.Sprintf("%d", d2xr.Total)},
			{"D2X helper macros", fmt.Sprintf("%d", macros.Total)},
			{"D2X total", fmt.Sprintf("%d", total)},
		},
	}, nil
}

// Table4 reproduces the paper's Table 4: BuildIt's size and its delta.
func Table4(root string) (*Table, error) {
	buildit, err := Count(root, "buildit")
	if err != nil {
		return nil, err
	}
	return &Table{
		Title: "Table 4: lines of code changed in BuildIt (this reproduction)",
		Rows: []Row{
			{"BuildIt DSL compiler framework", fmt.Sprintf("%d", buildit.NonDelta())},
			{"Delta for adding D2X support", fmt.Sprintf("%d (in %d d2x_* files + %d marked hunks)", buildit.Delta, buildit.DeltaFiles, buildit.Hunks)},
			{"BuildIt percentage change", fmt.Sprintf("%.1f%%", buildit.DeltaPercent())},
		},
	}, nil
}
