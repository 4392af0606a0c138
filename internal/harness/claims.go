package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Claim is one of the paper's shape claims as a predicate over one
// experiment's table. It reads only what the table's CSV holds, so it
// judges the committed results/*.csv as well as a fresh run.
type Claim struct {
	// Name identifies the claim; its prefix is the figure it is about.
	Name string
	// Text states the claim, with the full-scale numbers it rests on.
	Text string
	// Table is the ID of the experiment whose table the claim reads.
	Table string

	check func(r *reader) error
}

// Check evaluates the claim on t: nil when it holds, otherwise what breaks
// it, a missing row or number included.
func (c Claim) Check(t *Table) error {
	if t.ID != c.Table {
		return fmt.Errorf("%s: reads %s, given %s", c.Name, c.Table, t.ID)
	}
	r := &reader{t: t}
	err := c.check(r)
	if r.err != nil {
		err = r.err
	}
	if err != nil {
		return fmt.Errorf("%s: %w", c.Name, err)
	}
	return nil
}

// Claims returns the claims table, in figure order.
func Claims() []Claim {
	return []Claim{
		{
			Name:  "fig3-optimum-below-max",
			Text:  "max CTAs/SM does not maximize performance: spmv, conv2d and stencil peak at 2 of 8, 3 of 5 and 1 of 6 CTAs/SM",
			Table: "fig3",
			check: func(r *reader) error {
				for _, w := range []string{"spmv", "conv2d", "stencil"} {
					// best@ reads "2 (1.36x)"; a limit past the occupancy
					// maximum reads "-".
					lim, _, _ := strings.Cut(r.cell(w, "best@"), " ")
					best, err := strconv.Atoi(lim)
					if err != nil {
						return fmt.Errorf("%s best@: %v", w, err)
					}
					top := 0
					for l := 1; l <= 8; l++ {
						if r.cell(w, strconv.Itoa(l)) != "-" {
							top = l
						}
					}
					if best >= top {
						return fmt.Errorf("%s peaks at %d of %d CTAs/SM", w, best, top)
					}
				}
				return nil
			},
		},
		{
			Name:  "fig5-lcs-floor",
			Text:  "LCS costs at most 3% on any kernel (worst: sgemm 0.988)",
			Table: "fig5",
			check: func(r *reader) error {
				for _, w := range r.kernels() {
					if v := r.num(w, "LCS"); v < 0.97 {
						return fmt.Errorf("LCS %.3f on %s", v, w)
					}
				}
				return nil
			},
		},
		{
			Name:  "fig5-lcs-gain",
			Text:  "LCS speeds the suite up (geomean 1.034)",
			Table: "fig5",
			check: func(r *reader) error {
				return above("LCS geomean", r.num("geomean", "LCS"), 1)
			},
		},
		{
			Name:  "fig5-lcs-memory",
			Text:  "LCS gains more on the memory-intensive kernels (geomean 1.064) than on all (1.034)",
			Table: "fig5",
			check: func(r *reader) error {
				return above("LCS memory-intensive geomean",
					r.num("geomean (mem-intensive)", "LCS"), r.num("geomean", "LCS"))
			},
		},
		{
			Name:  "fig8-bcs-gain",
			Text:  "BCS+BAWS speeds the locality kernels up by at least 5% (geomean 1.077)",
			Table: "fig8",
			check: func(r *reader) error {
				if v := r.num("geomean", "speedup"); v < 1.05 {
					return fmt.Errorf("BCS geomean %.3f, want >= 1.05", v)
				}
				return nil
			},
		},
		{
			Name:  "fig8-dram-saved",
			Text:  "BCS saves at least 5% of DRAM reads on every stencil-family kernel (stencil 19.8%, hotspot 9.7%, conv2d 12.6%, pathfinder 12.2%, srad 9.6%)",
			Table: "fig8",
			check: func(r *reader) error {
				for _, w := range []string{"stencil", "hotspot", "conv2d", "pathfinder", "srad"} {
					if v := r.num(w, "DRAM reads saved"); v < 5 {
						return fmt.Errorf("%s saves %.1f%% of DRAM reads, want >= 5%%", w, v)
					}
				}
				return nil
			},
		},
		{
			Name:  "fig9-bcs-gto-gain",
			Text:  "BCS speeds the locality kernels up under plain GTO too (BCS+GTO geomean 1.047)",
			Table: "fig9",
			check: func(r *reader) error {
				return above("BCS+GTO geomean", r.num("geomean", "BCS+GTO"), 1)
			},
		},
		{
			Name:  "fig9-baws-over-gto",
			Text:  "under BCS, the block-aware warp scheduler beats GTO (geomean 1.077 vs 1.047)",
			Table: "fig9",
			check: func(r *reader) error {
				return above("BCS+BAWS geomean", r.num("geomean", "BCS+BAWS"), r.num("geomean", "BCS+GTO"))
			},
		},
		{
			Name:  "fig10-mixed-order",
			Text:  "concurrent kernels: mixed (1.033) >= spatial (1.005) >= sequential (geomeans)",
			Table: "fig10",
			check: func(r *reader) error {
				mixed, spatial, seq := r.num("geomean", "mixed"), r.num("geomean", "spatial"), r.num("geomean", "sequential")
				if mixed < spatial || spatial < seq {
					return fmt.Errorf("geomeans mixed %.3f, spatial %.3f, sequential %.3f", mixed, spatial, seq)
				}
				return nil
			},
		},
		{
			Name:  "fig13-lcs-robust",
			Text:  "LCS's worst kernel (0.988) is above DYNCTA's (0.813)",
			Table: "fig13",
			check: func(r *reader) error {
				worst := func(col string) float64 {
					m := 0.0
					for i, w := range r.kernels() {
						if v := r.num(w, col); i == 0 || v < m {
							m = v
						}
					}
					return m
				}
				return above("LCS worst case", worst("LCS"), worst("DYNCTA"))
			},
		},
	}
}

// above reports an error unless v > floor.
func above(what string, v, floor float64) error {
	if v > floor {
		return nil
	}
	return fmt.Errorf("%s %.3f, want > %.3f", what, v, floor)
}

// ReadCSV parses a table Table.CSV wrote. The CSV holds no title or notes.
func ReadCSV(id string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: empty CSV", id)
	}
	return &Table{ID: id, Headers: recs[0], Rows: recs[1:]}, nil
}

// reader looks cells up by row key (first column) and header. It keeps the
// first failed lookup in err; later lookups return zero values.
type reader struct {
	t   *Table
	err error
}

// cell returns the cell in the row keyed row, under header col.
func (r *reader) cell(row, col string) string {
	ci := slices.Index(r.t.Headers, col)
	for _, cells := range r.t.Rows {
		if ci > 0 && ci < len(cells) && cells[0] == row {
			return cells[ci]
		}
	}
	if r.err == nil {
		r.err = fmt.Errorf("%s has no cell %s/%s", r.t.ID, row, col)
	}
	return ""
}

// num is cell parsed as a number; a percentage ("19.8%") reads as 19.8.
func (r *reader) num(row, col string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.cell(row, col), "%"), 64)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("%s %s/%s: %v", r.t.ID, row, col, err)
	}
	return v
}

// kernels returns the per-workload row keys: every row but the geomeans.
func (r *reader) kernels() []string {
	var out []string
	for _, cells := range r.t.Rows {
		if !strings.HasPrefix(cells[0], "geomean") {
			out = append(out, cells[0])
		}
	}
	return out
}
