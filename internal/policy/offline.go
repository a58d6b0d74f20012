package policy

import "coscale/internal/perf"

// Offline is the idealized upper bound of §3.2 (alternative 5): it is fed a
// perfect trace of each upcoming epoch (the engine passes oracle
// observations instead of profiling-window ones) and searches all core and
// memory frequency settings. The nominally exponential M·C^N space is
// searched exactly by exploiting the model's per-core separability: for
// each memory frequency, the fixed-latency core sweep (coreSearch) over
// every per-core step boundary enumerates every Pareto-relevant combination
// (see DESIGN.md §4); a short fixed-point on the shared memory latency
// accounts for the traffic coupling. Offline remains epoch-by-epoch greedy,
// so it is an upper bound for CoScale, not a true oracle.
type Offline struct {
	managed
	cand    []int // the sweep's steps for the current round
	memBest []int // best verified steps for the current memory step
}

// NewOffline returns the Offline policy, or the configuration's validation
// error.
func NewOffline(cfg Config) (*Offline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Offline{managed: newManaged(cfg)}, nil
}

// Name implements Policy.
func (p *Offline) Name() string { return "Offline" }

// WantsOracle implements OraclePolicy.
func (p *Offline) WantsOracle() bool { return true }

// Decide implements Policy. obs must be an oracle observation of the
// upcoming epoch. The decision's CoreSteps alias the policy's scratch until
// the next Decide.
//
//hot:path
func (p *Offline) Decide(obs Observation) Decision {
	limits := p.reset(obs)
	p.steps = perf.Grow(p.steps, p.cfg.NCores)
	clear(p.steps)
	bestMem, bestSER := 0, p.ev.baseline.SER
	for m := 0; m < p.cfg.MemLadder.Steps(); m++ {
		ser, ok := p.bestForMem(m, limits)
		if ok && ser < bestSER {
			bestMem, bestSER = m, ser
			copy(p.steps, p.memBest)
		}
	}
	return Decision{CoreSteps: p.steps, MemStep: bestMem}
}

// Observe implements Policy: end-of-epoch slack accounting against the
// all-max reference.
//
//hot:path
func (p *Offline) Observe(epoch Observation) {
	p.slack.RecordEpochFor(p.threadsFor(epoch), p.tmaxFor(epoch), epoch.Window)
}

// bestForMem finds the best core assignment for one memory step, iterating
// the shared-latency fixed point twice and verifying the winner with the
// full joint model. The steps are left in p.memBest; the result is their
// SER and whether any round verified.
//
//hot:path
func (p *Offline) bestForMem(m int, limits []float64) (float64, bool) {
	ev := p.ev
	ev.EvaluateInto(&p.eval, p.zeros, m)
	latency := p.eval.MemLoad.Latency

	bestSER, found := 0.0, false
	for round := 0; round < 2; round++ {
		var ok bool
		p.cand, ok = coreSearch(p.cand, ev, m, latency, ev.BaselineTPI(), limits)
		if !ok {
			break
		}
		ev.EvaluateInto(&p.eval, p.cand, m) // joint verification
		if !WithinBound(p.eval, limits) {
			// The fixed-latency estimate was optimistic; tighten by
			// raising the latency estimate and retrying once.
			latency = p.eval.MemLoad.Latency
			continue
		}
		if !found || p.eval.SER < bestSER {
			bestSER, found = p.eval.SER, true
			p.memBest = perf.Grow(p.memBest, len(p.cand))
			copy(p.memBest, p.cand)
		}
		latency = p.eval.MemLoad.Latency
	}
	return bestSER, found
}
