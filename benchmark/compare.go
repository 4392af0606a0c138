package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set struct {
		Runs []*record `json:"runs"`
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set.Runs, nil
}

// side is one file's runs of one workload.
type side []*record

// values returns the metric's value in every run, and the widest spread
// seen: between runs when there are at least four, else between the
// quartiles of the samples inside a run, as a share of the median.
func (s side) values(metric string) (vals []float64, spread float64) {
	for _, r := range s {
		sum := r.EndToEnd[metric]
		vals = append(vals, sum.Median)
		if sum.Median != 0 {
			spread = max(spread, (sum.Q3-sum.Q1)/sum.Median)
		}
	}
	if len(vals) >= 4 {
		spread = ratio(quantile(vals, 0.75)-quantile(vals, 0.25), median(vals))
	}
	return vals, spread
}

// verdict judges one end-to-end metric of one workload: b against the
// base a. worse is the share of a's median by which b's median is worse.
// Where the spread is wider than the bound the metric cannot be called
// either way, unless every run of b reads better than every run of a.
func verdict(d metricDef, a, b []float64, spread float64) (worse float64, v string) {
	worse = ratio(median(b)-median(a), median(a))
	allBetter := quantile(b, 1) < quantile(a, 0)
	if d.Better == "higher" {
		worse = -worse
		allBetter = quantile(b, 0) > quantile(a, 1)
	}
	switch {
	case spread > d.Bound && allBetter:
		return worse, "PASS"
	case spread > d.Bound:
		return worse, "UNRESOLVED"
	case worse > d.Bound:
		return worse, "FAIL"
	}
	return worse, "PASS"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// B's ratio to A, the bound and a verdict, then checks that what is
// simulated — counts and result digests — is identical. Traced runs are
// not end-to-end sets and are refused. The exit status is 1 on any FAIL.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	sides := map[string]*[2]side{}
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "gpubench: %v\n", err)
			return 2
		}
		if len(recs) == 0 {
			fmt.Fprintf(stderr, "gpubench: %s holds no run\n", path)
			return 2
		}
		for _, r := range recs {
			if r.Traced {
				fmt.Fprintf(stderr, "gpubench: %s holds a traced run of %s; end-to-end metrics are compared from untraced runs only\n", path, r.Workload)
				return 2
			}
			if sides[r.Workload] == nil {
				sides[r.Workload] = &[2]side{}
			}
			sides[r.Workload][i] = append(sides[r.Workload][i], r)
		}
	}

	failed := false
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "spread", "bound", "verdict")
	for _, w := range allWorkloads {
		pair := sides[w.name]
		if pair == nil {
			continue
		}
		a, b := pair[0], pair[1]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(stdout, "%-12s only in one file: FAIL\n", w.name)
			failed = true
			continue
		}
		for _, d := range endToEnd {
			va, sa := a.values(d.Name)
			vb, sb := b.values(d.Name)
			spread := max(sa, sb)
			_, v := verdict(d, va, vb, spread)
			if v == "FAIL" {
				failed = true
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.6g %14.6g %8.4f %7.4f %7.4f  %s\n",
				w.name, d.Name, median(va), median(vb), ratio(median(vb), median(va)), spread, d.Bound, v)
		}
		for _, r := range append(append(side(nil), a...), b...) {
			if !r.Correct {
				fmt.Fprintf(stdout, "%-12s a run with seed %d failed its checks: FAIL\n", w.name, r.Seed)
				failed = true
			}
		}
		// What is simulated must not differ at all. The work a block of
		// fleet-serve delivers varies with the repeats its schedule draws,
		// so there only the digest, of the outcome behind every key, is held
		// to it.
		ra, rb := a[0], b[0]
		exact := "identical"
		if ra.Digest != rb.Digest || (w.name != "fleet-serve" && (ra.PassCycles != rb.PassCycles || ra.PassInstr != rb.PassInstr)) {
			exact = "DIFFERENT"
			failed = true
		}
		fmt.Fprintf(stdout, "%-12s simulated: digest %.12s vs %.12s", w.name, ra.Digest, rb.Digest)
		if w.name != "fleet-serve" {
			fmt.Fprintf(stdout, ", %.0f vs %.0f cycles, %.0f vs %.0f instructions per pass", ra.PassCycles, rb.PassCycles, ra.PassInstr, rb.PassInstr)
		}
		fmt.Fprintf(stdout, ": %s\n", exact)
	}
	if failed {
		return 1
	}
	return 0
}
