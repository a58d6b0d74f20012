package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"coscale/internal/core"
	"coscale/internal/perf"
	"coscale/internal/policy"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Parent links a span to the call that caused it;
// spans of one request, cell or pass share their root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID (0 when untraced).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// record is one decision as the controller saw it, kept for replaying the
// evaluator and solver layers outside the control loop.
type record struct {
	cfg policy.Config
	obs policy.Observation
	dec policy.Decision
}

// probe gathers what a timing wrapper measures across every policy it
// wraps. It is shared by concurrent lanes, so it locks.
type probe struct {
	tr      *tracer
	maxRecs int // decisions to keep for layer replays (0 = none)

	mu        sync.Mutex
	decide    dist // CoScale-family Decide host time, ns
	observe   dist // CoScale-family Observe host time, ns
	moves     int64
	evals     int64
	coreEvals int64
	searches  int64
	recs      []record
}

// addRecord keeps a copy of one decision. It copies with append rather than
// the Clone methods: it runs inside the engine's hot epoch loop, where the
// repository's hot-path lint forbids make().
func (p *probe) addRecord(cfg policy.Config, obs policy.Observation, d policy.Decision) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recs) >= p.maxRecs {
		return
	}
	obs.CoreSteps = append([]int(nil), obs.CoreSteps...)
	obs.ThreadIDs = append([]int(nil), obs.ThreadIDs...)
	obs.Cores = append([]policy.CoreObs(nil), obs.Cores...)
	d.CoreSteps = append([]int(nil), d.CoreSteps...)
	p.recs = append(p.recs, record{cfg: cfg, obs: obs, dec: d})
}

// merge adds o's measurements and records to p.
func (p *probe) merge(o *probe) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.decide = append(p.decide, o.decide...)
	p.observe = append(p.observe, o.observe...)
	p.moves += o.moves
	p.evals += o.evals
	p.coreEvals += o.coreEvals
	p.searches += o.searches
	p.recs = append(p.recs, o.recs...)
}

// timedPolicy wraps a controller so its Decide and Observe calls are timed
// from outside. It changes no decision: both calls are delegated
// unchanged.
type timedPolicy struct {
	inner  policy.Policy
	stats  interface{ SearchStats() core.SearchStats }
	cfg    policy.Config
	p      *probe
	parent int
	// policyNs sums host time inside the policy for this wrapper, so the
	// engine's own time is the run's time minus this.
	policyNs float64
}

// wrap returns pol timed into p. Oracle policies keep their OraclePolicy
// identity: the engine type-asserts it to feed oracle observations, so a
// plain wrapper would silently change the Offline controller.
func wrap(pol policy.Policy, cfg policy.Config, p *probe, parent int) *timedPolicy {
	tp := &timedPolicy{inner: pol, cfg: cfg, p: p, parent: parent}
	tp.stats, _ = pol.(interface{ SearchStats() core.SearchStats })
	return tp
}

// asPolicy returns the wrapper as the policy the engine should run.
func (t *timedPolicy) asPolicy() policy.Policy {
	if op, ok := t.inner.(policy.OraclePolicy); ok {
		return &timedOracle{t, op}
	}
	return t
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) Decide(obs policy.Observation) policy.Decision {
	id := t.p.tr.open("policy.Decide", t.parent)
	//lint:ignore dettaint wall time feeds only the benchmark's timings; the decision is delegated unchanged
	start := time.Now()
	d := t.inner.Decide(obs)
	ns := float64(time.Since(start).Nanoseconds())
	t.p.tr.close(id)
	t.policyNs += ns
	if t.stats != nil {
		s := t.stats.SearchStats()
		t.p.mu.Lock()
		t.p.decide.add(ns)
		t.p.moves += int64(s.Moves)
		t.p.evals += int64(s.Evals)
		t.p.coreEvals += int64(s.CoreEvals)
		t.p.searches++
		t.p.mu.Unlock()
	}
	if t.p.maxRecs > 0 {
		t.p.addRecord(t.cfg, obs, d)
	}
	return d
}

func (t *timedPolicy) Observe(epoch policy.Observation) {
	id := t.p.tr.open("policy.Observe", t.parent)
	//lint:ignore dettaint wall time feeds only the benchmark's timings; the observation is delegated unchanged
	start := time.Now()
	t.inner.Observe(epoch)
	ns := float64(time.Since(start).Nanoseconds())
	t.p.tr.close(id)
	t.policyNs += ns
	if t.stats != nil {
		t.p.mu.Lock()
		t.p.observe.add(ns)
		t.p.mu.Unlock()
	}
}

// timedOracle carries the wrapped policy's OraclePolicy assertion through
// the timing wrapper.
type timedOracle struct {
	*timedPolicy
	op policy.OraclePolicy
}

func (t *timedOracle) WantsOracle() bool { return t.op.WantsOracle() }

// layerStats is what the layer replays measure.
type layerStats struct {
	resetNs, evalNs, solveNs dist
	iters                    []float64
}

// replayLayers re-runs the recorded decisions' evaluator and solver work,
// timing each call from outside: Evaluator.Reset and EvaluateInto on the
// observation and the decision the controller took, and Solver.SolveInto
// on the observed per-core statistics at that decision's frequencies. Every
// record is replayed until each layer has at least want samples.
func replayLayers(recs []record, want int) (layerStats, error) {
	var ls layerStats
	if len(recs) == 0 {
		return ls, fmt.Errorf("no recorded decisions to replay")
	}
	ev := &policy.Evaluator{UseTables: true}
	var e policy.Eval
	var res perf.Result
	solvers := map[int]*perf.Solver{}
	var stats []perf.CoreStats
	var hz []float64
	for len(ls.solveNs) < want {
		for _, r := range recs {
			start := time.Now()
			ev.Reset(r.cfg, r.obs)
			ls.resetNs.since(start)
			start = time.Now()
			ev.EvaluateInto(&e, r.dec.CoreSteps, r.dec.MemStep)
			ls.evalNs.since(start)

			sv := solvers[r.cfg.Mem.Channels]
			if sv == nil {
				sv = perf.NewSolver(r.cfg.Mem)
				solvers[r.cfg.Mem.Channels] = sv
			}
			stats, hz = stats[:0], hz[:0]
			for i, c := range r.obs.Cores {
				stats = append(stats, c.Stats)
				hz = append(hz, r.cfg.CoreLadder.Hz(r.dec.CoreSteps[i]))
			}
			start = time.Now()
			sv.SolveInto(&res, stats, hz, r.cfg.MemLadder.Hz(r.dec.MemStep))
			ls.solveNs.since(start)
			ls.iters = append(ls.iters, float64(res.Iterations))
		}
	}
	return ls, nil
}

// allocBytes returns the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
