package harness

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsTinyScale runs the entire registry end to end at the
// smallest scale — the harness's integration test. Besides not crashing,
// every table must have coherent geometry and parseable numeric cells.
func TestAllExperimentsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~200 small simulations")
	}
	h := tinyHarness()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(h)
			if err != nil {
				t.Fatal(err)
			}
			if table.ID != e.ID {
				t.Errorf("table ID %q, want %q", table.ID, e.ID)
			}
			if len(table.Headers) == 0 || len(table.Rows) == 0 {
				t.Fatalf("empty table %q", e.ID)
			}
			for i, row := range table.Rows {
				if len(row) > len(table.Headers) {
					t.Errorf("row %d has %d cells for %d headers", i, len(row), len(table.Headers))
				}
			}
			// Render and CSV must not panic and must include the id/title.
			table.Render(io.Discard)
			var sb strings.Builder
			table.CSV(&sb)
			if !strings.Contains(sb.String(), table.Headers[0]) {
				t.Error("CSV lost the header row")
			}
		})
	}
}

// TestSpeedupColumnsArePositive sanity-checks the figures that report
// speedups: every speedup cell must parse as a positive float in a sane
// band (0.2x .. 5x for this simulator).
func TestSpeedupColumnsArePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs small simulations")
	}
	h := tinyHarness()
	fig9, err := h.Fig9BAWS()
	if err != nil {
		t.Fatal(err)
	}
	fig12, err := h.Fig12WarpSched()
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		table *Table
		cols  []int
	}{
		{fig9, []int{1, 2}},
		{fig12, []int{1, 2}},
	}
	for _, c := range checks {
		for _, row := range c.table.Rows {
			for _, col := range c.cols {
				if col >= len(row) || row[col] == "" {
					continue
				}
				v, err := strconv.ParseFloat(row[col], 64)
				if err != nil {
					t.Errorf("%s: cell %q not numeric", c.table.ID, row[col])
					continue
				}
				if v < 0.2 || v > 5 {
					t.Errorf("%s: speedup %v out of sane band", c.table.ID, v)
				}
			}
		}
	}
}

func TestOracleNeverBelowOne(t *testing.T) {
	if testing.Short() {
		t.Skip("runs small simulations")
	}
	h := tinyHarness()
	// The oracle includes the occupancy maximum itself, so its speedup is
	// >= 1 by construction.
	names := []string{"vadd", "spmv"}
	best, lim := make([]float64, len(names)), make([]int, len(names))
	if _, err := h.experiment(func(r *resolver) *Table {
		for i, n := range names {
			best[i], lim[i] = h.oracle(r, n)
		}
		return &Table{}
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if best[i] < 0.999 {
			t.Errorf("%s oracle %.3f < 1", n, best[i])
		}
		if lim[i] < 1 || lim[i] > 8 {
			t.Errorf("%s oracle limit %d", n, lim[i])
		}
	}
}
