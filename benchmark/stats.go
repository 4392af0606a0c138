package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics. v need not be sorted; it is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// summary is what the run record keeps for one sampled quantity.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(v []float64, keepSamples bool) summary {
	s := summary{Median: median(v), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75), N: len(v)}
	if keepSamples {
		s.Samples = v
	}
	return s
}

// tailPercentile picks the highest of the conventional percentiles that
// still has at least ten of the n samples beyond it, so the reported tail
// is a measured value and not the maximum under another name. With fewer
// than twenty samples only the median qualifies.
func tailPercentile(n int) int {
	best := 50
	for _, p := range []int{90, 95, 99} {
		if n*(100-p) >= 10*100 {
			best = p
		}
	}
	return best
}
