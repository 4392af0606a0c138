// Package detmap exercises the detmap analyzer: range-over-map and
// maps.Keys/Values are flagged unless the iteration is sorted afterwards,
// wrapped in slices.Sorted, or justified with //gpulint:allow detmap.
package detmap

import (
	"maps"
	"slices"
	"sort"
)

func sumFlagged(m map[string]int) int {
	total := 0
	for _, v := range m { // want "range over map m has nondeterministic order"
		total += v
	}
	return total
}

func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m { // sorted later in this block: allowed
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sumJustified(m map[string]int) int {
	total := 0
	//gpulint:allow detmap integer addition commutes; only the sum is observable
	for _, v := range m {
		total += v
	}
	return total
}

func keysFlagged(m map[string]int) []string {
	return slices.Collect(maps.Keys(m)) // want "maps.Keys yields keys in nondeterministic order"
}

func keysSorted(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m)) // wrapped directly in slices.Sorted: allowed
}

func valuesSorted(m map[string]int) []int {
	return slices.Sorted(maps.Values(m))
}

func stale(m map[string]int) int {
	//gpulint:allow detmap nothing on the next line iterates a map // want "unused //gpulint:allow suppression"
	return len(m)
}

//gpulint:frobnicate not a real directive // want "unknown directive //gpulint:frobnicate"
func typo() {}

func unknownAllow() {
	//gpulint:allow frobnicator misspelled analyzer name // want "names unknown analyzer \"frobnicator\""
	_ = 0
}
