package core

// Limited is the static-throttling dispatcher used by the motivation and
// oracle experiments: baseline round-robin placement, but no core ever
// holds more than Limit CTAs of kernel 0. Sweeping Limit from 1 to the
// occupancy maximum produces the paper's IPC-vs-CTA-count curves, and the
// best point of that sweep is the "oracle static" LCS is judged against.
// It embeds RoundRobin, not the LCS family's throttle, so a static run
// reports no limit decisions.
type Limited struct {
	RoundRobin
	// Limit caps kernel 0's resident CTAs per core (0 = uncapped). It is
	// read at the first Tick.
	Limit int
	limit []int // Limit on every core
}

// NewLimited returns a dispatcher capping kernel 0 at limit CTAs per core.
func NewLimited(limit int) *Limited { return &Limited{Limit: limit} }

// Tick implements Dispatcher.
func (l *Limited) Tick(m Machine) {
	if len(l.limit) != m.NumCores() {
		l.limit = make([]int, m.NumCores())
		for i := range l.limit {
			l.limit[i] = l.Limit
		}
	}
	l.fill(m, l.limit)
}
