package main

import (
	"strings"
	"testing"
)

func TestRunRequiresWorkloads(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("run() = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage") {
		t.Errorf("stderr %q missing usage line", errb.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "nope", "vadd"},
		{"-warp", "nope", "vadd"},
		{"no-such-workload"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestSweepTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	var out, errb strings.Builder
	if code := run([]string{"-size", "tiny", "-cores", "4", "vadd"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"vadd", "limit", "best:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sweep output missing %q in:\n%s", want, out.String())
		}
	}
}

// goldenOverlay is ctasweep's whole stdout for a tiny sweep with an LCS
// overlay. The simulator is deterministic, so any byte that moves here is
// a change in what the tool reports, not noise.
const goldenOverlay = `vadd (CUDA SDK vectorAdd)
  limit  cycles     IPC      L1 hit   DRAM q    bar
  1      3192       0.96     0.0%     38        ####
  2      2849       1.08     0.0%     76        ####
  3      2655       1.16     0.0%     134       #####
  4      2617       1.17     0.0%     155       #####
  5      2854       1.08     0.0%     156       ####
  6      3485       0.88     0.0%     172       ####
  (occupancy limit 6 CTAs/SM, bound by threads)
  best: 4 CTAs/SM at IPC 1.17 (33.2% over max occupancy)
  lcs: IPC 0.88 in 3485 cycles (75.1% of sweep best)

spmv (Parboil spmv (CSR, banded sparsity))
  limit  cycles     IPC      L1 hit   DRAM q    bar
  1      9376       0.59     72.1%    65        ##
  2      6139       0.90     62.2%    93        ####
  3      5692       0.97     59.1%    110       ####
  4      5609       0.98     57.5%    112       ####
  5      5503       1.00     48.5%    107       ####
  6      5456       1.01     41.2%    118       ####
  7      5940       0.93     30.7%    120       ####
  8      6161       0.89     26.6%    118       ####
  (occupancy limit 8 CTAs/SM, bound by cta-slots)
  best: 6 CTAs/SM at IPC 1.01 (12.9% over max occupancy)
  lcs: IPC 0.89 in 6161 cycles (88.6% of sweep best)

`

// TestGoldenOverlay pins ctasweep's full stdout, byte for byte, for two
// workloads (one bound by threads, one by CTA slots) with a -sched overlay.
func TestGoldenOverlay(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-size", "tiny", "-cores", "4", "-sched", "lcs", "vadd", "spmv"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errb.String())
	}
	if out.String() != goldenOverlay {
		t.Errorf("stdout:\n%s\nwant:\n%s", out.String(), goldenOverlay)
	}
}
