package harness

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"gpusched/internal/workloads"
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
	r := h.resolve()
	for _, n := range []string{"vadd", "spmv"} {
		best, lim := h.oracle(r, n)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if best < 0.999 {
			t.Errorf("%s oracle %.3f < 1", n, best)
		}
		if lim < 1 || lim > 8 {
			t.Errorf("%s oracle limit %d", n, lim)
		}
	}
}

// TestBCSLocalityShape pins the paper's second result at a scale CI affords
// (ROADMAP item 2(a)): BCS+BAWS speeds the locality set up by at least 5% in
// geomean and saves at least 5% of DRAM reads on every stencil-family kernel;
// BCS under plain GTO still wins, and BAWS adds to it. The gain exists only
// while the request crossbar pushes back within a cycle — the baseline has to
// suffer the contention that gang dispatch relieves.
func TestBCSLocalityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 small-scale simulations")
	}
	h := New(Options{Scale: workloads.ScaleSmall})
	cell := func(tab *Table, row string, col int) float64 {
		t.Helper()
		for _, r := range tab.Rows {
			if r[0] == row {
				v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
				if err != nil {
					t.Fatalf("%s[%s][%d] = %q: %v", tab.ID, row, col, r[col], err)
				}
				return v
			}
		}
		t.Fatalf("%s has no row %q", tab.ID, row)
		return 0
	}
	fig8, err := h.Fig8BCS()
	if err != nil {
		t.Fatal(err)
	}
	if g := cell(fig8, "geomean", 1); g < 1.05 {
		t.Errorf("fig8 geomean speedup %.3f, want >= 1.05", g)
	}
	for _, n := range []string{"stencil", "hotspot", "conv2d", "pathfinder", "srad"} {
		if saved := cell(fig8, n, 4); saved < 5 {
			t.Errorf("fig8 %s: DRAM reads saved %.1f%%, want >= 5%%", n, saved)
		}
	}
	fig9, err := h.Fig9BAWS()
	if err != nil {
		t.Fatal(err)
	}
	gto, baws := cell(fig9, "geomean", 1), cell(fig9, "geomean", 2)
	if gto <= 1 {
		t.Errorf("fig9 BCS+GTO geomean %.3f, want > 1", gto)
	}
	if baws < gto {
		t.Errorf("fig9 BCS+BAWS geomean %.3f below BCS+GTO %.3f", baws, gto)
	}
}
