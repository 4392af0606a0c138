package harness

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gpusched/internal/workloads"
)

// committedTable reads experiment id's table from results/<id>.csv.
func committedTable(t *testing.T, id string) *Table {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tab, err := ReadCSV(id, f)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestClaimsHoldOnCommittedResults evaluates every claim on the committed
// full-scale CSVs, without simulating.
func TestClaimsHoldOnCommittedResults(t *testing.T) {
	for _, c := range Claims() {
		if err := c.Check(committedTable(t, c.Table)); err != nil {
			t.Error(err)
		}
	}
}

// TestClaimsCatchViolations: each claim fails on its committed table with
// one cell changed against it.
func TestClaimsCatchViolations(t *testing.T) {
	breaks := map[string]struct{ row, col, val string }{
		"fig3-optimum-below-max": {"conv2d", "best@", "5 (1.30x)"},
		"fig5-lcs-floor":         {"sgemm", "LCS", "0.960"},
		"fig5-lcs-gain":          {"geomean", "LCS", "0.999"},
		"fig5-lcs-memory":        {"geomean (mem-intensive)", "LCS", "1.030"},
		"fig8-bcs-gain":          {"geomean", "speedup", "1.040"},
		"fig8-dram-saved":        {"srad", "DRAM reads saved", "4.9%"},
		"fig9-bcs-gto-gain":      {"geomean", "BCS+GTO", "1.000"},
		"fig9-baws-over-gto":     {"geomean", "BCS+BAWS", "1.040"},
		"fig10-mixed-order":      {"geomean", "mixed", "1.001"},
		"fig13-lcs-robust":       {"vadd", "LCS", "0.800"},
	}
	for _, c := range Claims() {
		b, ok := breaks[c.Name]
		if !ok {
			t.Errorf("%s: no violating edit to test it with", c.Name)
			continue
		}
		tab := committedTable(t, c.Table)
		ci := slices.Index(tab.Headers, b.col)
		row := slices.IndexFunc(tab.Rows, func(cells []string) bool { return cells[0] == b.row })
		if ci < 0 || row < 0 {
			t.Fatalf("%s: no cell %s/%s in %s", c.Name, b.row, b.col, c.Table)
		}
		tab.Rows[row][ci] = b.val
		if c.Check(tab) == nil {
			t.Errorf("%s holds with %s/%s = %s", c.Name, b.row, b.col, b.val)
		}
	}
}

// TestBCSLocalityShape checks the paper's second result at a scale CI
// affords: fig8 and fig9 rendered at ScaleSmall must satisfy every claim on
// those tables. The gain exists only while the request crossbar pushes back
// within a cycle — the baseline has to suffer the contention that gang
// dispatch relieves.
func TestBCSLocalityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 small-scale simulations")
	}
	h := New(Options{Scale: workloads.ScaleSmall})
	tables := map[string]*Table{}
	for _, id := range []string{"fig8", "fig9"} {
		e, _ := ByID(id)
		tab, err := e.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		tables[id] = tab
	}
	for _, c := range Claims() {
		if tab, ok := tables[c.Table]; ok {
			if err := c.Check(tab); err != nil {
				t.Error(err)
			}
		}
	}
}
