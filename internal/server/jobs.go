package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"gpusched/internal/sim"
)

// Submission outcomes a handler must distinguish.
var (
	// ErrQueueFull means the bounded admission queue rejected the job;
	// the client should back off and retry (HTTP 429).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrShuttingDown means the daemon is draining and admits no new work
	// (HTTP 503).
	ErrShuttingDown = errors.New("server: shutting down")
)

// State is a job's lifecycle position. Jobs move
// queued -> running -> done|failed, with canceled reachable from either
// non-terminal state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one lifecycle notification, streamed to clients as a
// Server-Sent Event. Seq increases by one per event of a job, starting
// at 1 (the queued event), so clients can detect gaps after a reconnect.
type Event struct {
	Seq   int    `json:"seq"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Cycles is the simulated makespan, set on the done event.
	Cycles uint64 `json:"cycles,omitempty"`
}

// Job is one asynchronous simulation submission.
type Job struct {
	// ID is the daemon-assigned handle ("job-7").
	ID string
	// seq is the admission order (the number in ID). List sorts by it:
	// created timestamps can collide within clock resolution, and breaking
	// such ties by map iteration order made /v1/jobs ordering flap between
	// requests.
	seq uint64
	// Key is the request's canonical cache identity; jobs with equal keys
	// deduplicate inside sim.Service.
	Key string
	// Req is the submitted simulation request.
	Req sim.Request

	timeout time.Duration

	mu sync.Mutex
	//gpulint:guardedby mu
	state State
	//gpulint:guardedby mu
	outcome *sim.Outcome
	//gpulint:guardedby mu
	err error
	//gpulint:guardedby mu
	created time.Time
	//gpulint:guardedby mu
	started time.Time
	//gpulint:guardedby mu
	finished time.Time
	//gpulint:guardedby mu
	cancel context.CancelFunc
	//gpulint:guardedby mu
	events []Event
	// changed is closed and replaced on every publish.
	//gpulint:guardedby mu
	changed chan struct{}
}

// publishLocked appends a lifecycle event and wakes every waiter.
// Callers hold j.mu.
func (j *Job) publishLocked(e Event) {
	e.Seq = len(j.events) + 1
	j.events = append(j.events, e)
	close(j.changed)
	j.changed = make(chan struct{})
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// EventsSince returns a copy of the events after index from, a channel
// that closes on the next publish, and whether the job was terminal as of
// this snapshot (in which case the returned events end with the terminal
// event and no further ones will arrive).
func (j *Job) EventsSince(from int) (evs []Event, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	return append([]Event(nil), j.events[from:]...), j.changed, j.state.Terminal()
}

// markRunning transitions queued -> running and installs the cancel
// function. It reports false when the job was canceled while queued, in
// which case the runner must skip it.
func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.publishLocked(Event{State: StateRunning})
	return true
}

// finish records the simulation outcome and returns the terminal state:
// done on success, canceled when the job's context was canceled, failed on
// a per-job deadline or a simulation error.
func (j *Job) finish(out sim.Outcome, err error) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		o := out
		j.outcome = &o
		j.publishLocked(Event{State: StateDone, Cycles: out.Result.Cycles})
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.err = fmt.Errorf("job deadline (%v) exceeded", j.timeout)
		j.publishLocked(Event{State: StateFailed, Error: j.err.Error()})
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.err = err
		j.publishLocked(Event{State: StateCanceled, Error: "canceled"})
	default:
		j.state = StateFailed
		j.err = err
		j.publishLocked(Event{State: StateFailed, Error: err.Error()})
	}
	return j.state
}

// cancelJob cancels a queued or running job (idempotently: terminal jobs
// are left alone). queuedCancel reports a direct queued -> canceled
// transition, which the Manager must count itself because the job never
// reaches a runner's finish path.
func (j *Job) cancelJob() (queuedCancel bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.finished = time.Now()
		j.err = context.Canceled
		j.publishLocked(Event{State: StateCanceled, Error: "canceled"})
		return true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return false
}

// jobView is the JSON rendering of a job.
type jobView struct {
	ID       string       `json:"id"`
	Key      string       `json:"key"`
	State    State        `json:"state"`
	Request  sim.Request  `json:"request"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	Error    string       `json:"error,omitempty"`
	Outcome  *sim.Outcome `json:"outcome,omitempty"`
}

// view snapshots the job for JSON responses.
func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:      j.ID,
		Key:     j.Key,
		State:   j.state,
		Request: j.Req,
		Created: j.created,
		Outcome: j.outcome,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// Manager owns the job table, the bounded admission queue, and the runner
// pool that feeds jobs into a sim.Service. The queue is the backpressure
// mechanism: when it is full, Submit fails with ErrQueueFull instead of
// letting a burst of clients grow the daemon without bound.
type Manager struct {
	cfg    Config
	queue  chan *Job
	wg     sync.WaitGroup
	cycles *histogram

	// runSim is sim.Service.Run; tests substitute a deterministic stand-in
	// to hold jobs in chosen states without racing real simulations.
	runSim func(context.Context, sim.Request) (sim.Outcome, error)

	stopReaper chan struct{}

	mu sync.Mutex
	//gpulint:guardedby mu
	jobs map[string]*Job
	//gpulint:guardedby mu
	nextID uint64
	//gpulint:guardedby mu
	closed bool
	//gpulint:guardedby mu
	running int
	//gpulint:guardedby mu
	counts struct {
		submitted, rejected, done, failed, canceled uint64
	}
}

// newManager builds and starts a Manager: cfg.Workers runner goroutines
// plus the TTL reaper.
func newManager(svc *sim.Service, cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ResultTTL <= 0 {
		cfg.ResultTTL = 15 * time.Minute
	}
	m := &Manager{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueDepth),
		cycles:     newHistogram(cycleBuckets),
		runSim:     svc.Run,
		stopReaper: make(chan struct{}),
		jobs:       make(map[string]*Job),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	go m.reaper()
	return m
}

// Submit admits one job or fails fast: ErrQueueFull when the admission
// queue is at capacity, ErrShuttingDown once Shutdown began. A timeout of
// zero takes cfg.DefaultTimeout; cfg.MaxTimeout (when set) caps whatever
// the client asked for.
func (m *Manager) Submit(req sim.Request, timeout time.Duration) (*Job, error) {
	if timeout <= 0 {
		timeout = m.cfg.DefaultTimeout
	}
	if m.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > m.cfg.MaxTimeout) {
		timeout = m.cfg.MaxTimeout
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	m.nextID++
	job := &Job{
		ID:      fmt.Sprintf("job-%d", m.nextID),
		seq:     m.nextID,
		Key:     req.Key(),
		Req:     req,
		timeout: timeout,
		state:   StateQueued,
		created: time.Now(),
		changed: make(chan struct{}),
		events:  []Event{{Seq: 1, State: StateQueued}},
	}
	select {
	case m.queue <- job:
		m.jobs[job.ID] = job
		m.counts.submitted++
		return job, nil
	default:
		m.counts.rejected++
		return nil, ErrQueueFull
	}
}

// Get returns a tracked job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every tracked job in admission order. Sorting by the
// monotone admission sequence (not the created timestamp) keeps the order
// total even when two submissions land on the same clock reading.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	return jobs
}

// Cancel cancels a queued or running job. found reports whether the ID is
// tracked; the returned state is the job's state after the cancel took
// effect on the queued path (running jobs report canceled asynchronously,
// once the simulation observes its context).
func (m *Manager) Cancel(id string) (state State, found bool) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return "", false
	}
	if job.cancelJob() {
		m.mu.Lock()
		m.counts.canceled++
		m.mu.Unlock()
	}
	return job.State(), true
}

// runner drains the admission queue until Shutdown closes it.
func (m *Manager) runner() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// runJob executes one job under its own cancelable (and possibly
// deadlined) context, then folds the terminal state into the counters and
// the cycle histogram.
func (m *Manager) runJob(job *Job) {
	//gpulint:allow ctxflow a job outlives the request that submitted it; Cancel and the job timeout bound it instead
	base := context.Background()
	ctx, cancel := context.WithCancel(base)
	if job.timeout > 0 {
		ctx, cancel = context.WithTimeout(base, job.timeout)
	}
	defer cancel()
	if !job.markRunning(cancel) {
		return // canceled while queued; already counted
	}
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
	out, err := m.runSim(ctx, job.Req)
	state := job.finish(out, err)
	m.mu.Lock()
	m.running--
	switch state {
	case StateDone:
		m.counts.done++
	case StateFailed:
		m.counts.failed++
	case StateCanceled:
		m.counts.canceled++
	}
	m.mu.Unlock()
	if state == StateDone {
		m.cycles.observe(float64(out.Result.Cycles))
	}
}

// reaper prunes expired terminal jobs on a timer so a long-lived daemon's
// job table stays bounded by traffic x TTL.
func (m *Manager) reaper() {
	tick := m.cfg.ResultTTL / 4
	if tick < time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.stopReaper:
			return
		case <-t.C:
			m.reap(time.Now())
		}
	}
}

// reap drops terminal jobs older than the result TTL as of now, returning
// how many it removed.
func (m *Manager) reap(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	//gpulint:ordered-irrelevant every expired job is deleted regardless of visit order
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && now.Sub(j.finished) > m.cfg.ResultTTL
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
			n++
		}
	}
	return n
}

// Shutdown stops admission and drains: queued jobs still run, runners
// exit when the queue is empty. If ctx expires before the drain
// completes, every live job is canceled and Shutdown waits for the
// runners to observe that before returning ctx.Err().
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	alreadyClosed := m.closed
	m.closed = true
	if !alreadyClosed {
		close(m.queue)
		close(m.stopReaper)
	}
	m.mu.Unlock()
	if alreadyClosed {
		return nil
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, j := range m.List() {
			if j.cancelJob() {
				m.mu.Lock()
				m.counts.canceled++
				m.mu.Unlock()
			}
		}
		<-done
		return ctx.Err()
	}
}

// managerStats is a point-in-time snapshot for /metrics.
type managerStats struct {
	Queued, Running      int
	QueueDepth, QueueCap int
	Tracked              int
	Submitted, Rejected  uint64
	Done, Failed         uint64
	Canceled             uint64
}

// stats snapshots the counters and derives the live-state gauges.
func (m *Manager) stats() managerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := managerStats{
		Running:    m.running,
		QueueDepth: len(m.queue),
		QueueCap:   cap(m.queue),
		Tracked:    len(m.jobs),
		Submitted:  m.counts.submitted,
		Rejected:   m.counts.rejected,
		Done:       m.counts.done,
		Failed:     m.counts.failed,
		Canceled:   m.counts.canceled,
	}
	//gpulint:ordered-irrelevant counting jobs in a state is order-free
	for _, j := range m.jobs {
		if j.State() == StateQueued {
			st.Queued++
		}
	}
	return st
}
