//go:build !race

package sim_test

// raceEnabled reports a -race build, in which a sync.Pool drops a quarter of
// what is put into it.
const raceEnabled = false
