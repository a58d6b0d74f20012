package policy

import "coscale/internal/perf"

// SlackBook tracks per-program slack across epochs, keyed by *software
// thread* rather than core (§3.3: "To deal with context switching, CoScale
// can maintain the performance slack independently for each software
// thread"). When the OS migrates a thread, its slack follows it; controllers
// pass the thread currently on each core via Observation.ThreadIDs.
//
// All coordinated policies share this bookkeeping; the Uncoordinated policy
// deliberately deviates from it (see uncoordinated.go).
type SlackBook struct {
	// Reserve pads each epoch's recorded wall time (seconds), persistently
	// withholding headroom for transition dead time and model drift so
	// the measured bound is never grazed.
	Reserve float64

	gamma    float64
	byThread map[int]*perf.Slack
}

// NewSlackBook creates a tracker at bound gamma, withholding reserve seconds
// of slack per epoch. n is advisory (initial capacity); threads are created
// on first reference.
func NewSlackBook(n int, gamma, reserve float64) *SlackBook {
	return &SlackBook{
		Reserve:  reserve,
		gamma:    gamma,
		byThread: make(map[int]*perf.Slack, n),
	}
}

// Reset forgets every thread's accumulated slack, returning the book to its
// freshly constructed state (Reserve and gamma are kept). Benchmarks and
// repeated bit-identical runs use it to rewind a controller without
// reallocating its bookkeeping.
func (b *SlackBook) Reset() {
	clear(b.byThread)
}

// Thread returns (creating if needed) the tracker for one software thread.
func (b *SlackBook) Thread(id int) *perf.Slack {
	s, ok := b.byThread[id]
	if !ok {
		s = perf.NewSlack(b.gamma)
		b.byThread[id] = s
	}
	return s
}

// AvailableFor returns accumulated slack in seconds for the threads
// currently scheduled on each core (threads[i] = thread on core i).
func (b *SlackBook) AvailableFor(threads []int) []float64 {
	return b.AvailableInto(nil, threads)
}

// AvailableInto is AvailableFor writing into dst, reusing dst's backing
// array when its capacity suffices. The allocation-free form used by
// CoScale's decision hot path (see DESIGN.md §7).
//
//hot:path
func (b *SlackBook) AvailableInto(dst []float64, threads []int) []float64 {
	dst = perf.Grow(dst, len(threads))
	for i, id := range threads {
		dst[i] = b.Thread(id).Available()
	}
	return dst
}

// RecordEpochFor accounts one finished epoch for the scheduled threads:
// actual is the epoch wall time; tMax[i] is the estimated time the
// instructions committed on core i would have taken at the reference
// (maximum) frequencies.
func (b *SlackBook) RecordEpochFor(threads []int, tMax []float64, actual float64) {
	for i, id := range threads {
		b.Thread(id).Record(tMax[i], actual+b.Reserve)
	}
}

// identity returns [0, 1, ..., n).
func identity(n int) []int {
	//hot:alloc-ok result escapes: callers keep the returned mapping
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TMaxForEpoch estimates, for each core, how long the instructions it
// committed during the observed epoch would have taken at the reference
// steps (coreSteps/memStep — pass all zeros for the all-max reference).
// This is the "estimating what performance would have been achieved had the
// cores and the memory subsystem operated at maximum frequency" step of §3.
func TMaxForEpoch(cfg Config, epoch Observation, coreSteps []int, memStep int) []float64 {
	ev := NewEvaluator(cfg, epoch)
	return ev.TMaxInto(nil, coreSteps, memStep)
}

// ZeroSteps returns an all-zero (maximum frequency) step vector of length n.
//
//lint:ignore hotprop result escapes: callers keep the returned step vector
func ZeroSteps(n int) []int { return make([]int, n) }

// managed is the state the slack-accounting comparison policies (MemScale,
// CPUOnly, Semi-coordinated, Offline) share: the slack book, a table-mode
// evaluator reset on every Decide and Observe, and the scratch both reuse,
// so their steady-state epochs allocate nothing (DESIGN.md §7). A
// Decision's CoreSteps alias steps until the next Decide.
type managed struct {
	cfg   Config
	slack *SlackBook
	ev    *Evaluator

	eval     Eval      // memSearch and joint-verification scratch
	zeros    []int     // all-max step vector, never written after sizing
	steps    []int     // the returned Decision's CoreSteps
	identity []int     // thread mapping when an observation carries none
	avail    []float64 // per-thread slack
	limits   []float64 // per-core slowdown limits
	tmax     []float64 // all-max reference times for slack accounting
}

func newManaged(cfg Config) managed {
	return managed{
		cfg:   cfg,
		slack: NewSlackBook(cfg.NCores, cfg.Gamma, cfg.Reserve),
		ev:    &Evaluator{UseTables: true},
		zeros: make([]int, cfg.NCores),
	}
}

// threadsFor is Observation.CoreThreads without allocating the identity
// mapping.
//
//hot:path
func (m *managed) threadsFor(obs Observation) []int {
	if obs.ThreadIDs != nil {
		return obs.ThreadIDs
	}
	m.identity = perf.Grow(m.identity, len(obs.Cores))
	for i := range m.identity {
		m.identity[i] = i
	}
	return m.identity
}

// reset points the evaluator at obs and returns the per-core slowdown
// limits its accumulated slack allows (Config.Limits).
//
//hot:path
func (m *managed) reset(obs Observation) []float64 {
	m.ev.Reset(m.cfg, obs)
	m.avail = m.slack.AvailableInto(m.avail, m.threadsFor(obs))
	m.limits = m.cfg.LimitsInto(m.limits, m.avail)
	return m.limits
}

// tmaxFor returns the all-max reference times of epoch's committed
// instructions (TMaxForEpoch on the policy's own evaluator), the slack
// accounting input of every Observe.
//
//hot:path
func (m *managed) tmaxFor(epoch Observation) []float64 {
	m.ev.Reset(m.cfg, epoch)
	m.tmax = m.ev.TMaxInto(m.tmax, m.zeros, 0)
	return m.tmax
}
