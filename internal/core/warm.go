package core

import (
	"math"

	"coscale/internal/perf"
	"coscale/internal/policy"
)

// Warm-start incremental search (DESIGN.md §14).
//
// The cold search redoes, every epoch, the same walk the previous epoch
// already made: server workloads spend most epochs inside stable phases
// where the counters — and therefore the accepted configuration — barely
// move. Behind Options.WarmStart the controller keeps two kinds of memory
// between epochs:
//
//   - warmTab, a (core, step)-indexed table of marginal snapshots. Every
//     time the scan kernel scores a core the result is recorded together
//     with the counter signature it was scored under (CPI, memory traffic
//     per instruction, modelled memory latency). Observed IPS is kept out
//     of the signatures deliberately: it tracks the applied frequency, so
//     the controller's own decisions would read as phase changes. A snapshot is reused
//     only while the current signature still matches its anchor within
//     PhaseEpsilon, so staleness cannot accumulate across epochs: drifting
//     cores are re-scored and their anchor refreshed.
//   - the previous decision (c.last, already kept for transitions) as the
//     warm seed, plus the previous epoch's per-core counter signature for
//     the phase detector.
//
// A warm decision first classifies the epoch (phaseStable): if too many
// cores moved, or the aggregate memory traffic/latency shifted, the phase
// broke and the cold search runs. On a stable phase the walk seeds from the
// previous solution, re-validated against THIS epoch's slowdown bound with
// one full-model evaluation — warm-starting never trusts last epoch's
// feasibility — and the eligibility list is assembled from the snapshot
// table, re-scoring only cores whose counters moved. The walk then descends
// exactly as the cold search would.
//
// Bound-safety argument: the seed is accepted only if the full evaluator
// proves it inside the scaled limits; every committed move of the descent
// runs the same full evaluation and the WithinBoundScaled backstop breaks
// the walk on any violation before `best` advances. A stale reused marginal
// can therefore only misorder the walk (costing optimality, bounded by the
// ablation's energy gate), never violate the slowdown bound.
//
// Determinism: the snapshot table is written by the same kernel that
// computes the scan outputs — one slot per (core, step), each scan item
// touching exactly one core, so sharded lanes write disjoint slots — and
// the warm list is assembled serially in core-index order. The decision
// sequence stays a pure function of (trace, options) at any lane count,
// and Reset clears the table and the phase signature so replays are
// bit-identical to a fresh controller.

// defaultPhaseEpsilon is the phase detector's relative counter-delta
// threshold when Options.PhaseEpsilon is zero. 5% absorbs sampling noise
// within a program phase while real phase transitions in the trace mixes
// move CPI/MPKI by far more.
const defaultPhaseEpsilon = 0.05

// Snapshot states of a warmTab entry.
const (
	warmNone         = uint8(iota) // never scored (or cleared by Reset)
	warmEligible                   // scored inside the bound: dTPI, dPower, tpiNext valid
	warmBoundLimited               // scored over the bound: tpiNext valid, dPower never computed
)

// warmEntry is one (core, step) cell of the marginal snapshot table: the
// kernel's outputs plus the counter signature they were scored under.
type warmEntry struct {
	dTPI    float64 // seconds/instruction added by one step down
	dPower  float64 // watts saved by one step down (warmEligible only)
	tpiNext float64 // predicted TPI after the step (for bound rechecks)
	sigCPI  float64 // CoreStats.CPIBase at scoring time
	sigMPI  float64 // CoreStats.MemPerInstr at scoring time
	sigLat  float64 // modelled memory latency at scoring time
	flags   uint8
}

// initWarm sizes the warm-start state so the warm path allocates nothing in
// steady state. Called from NewWithOptions.
func (c *CoScale) initWarm() {
	if !c.opts.WarmStart {
		return
	}
	c.warmRec = true
	c.phaseEps = c.opts.PhaseEpsilon
	if c.phaseEps <= 0 {
		c.phaseEps = defaultPhaseEpsilon
	}
	n := c.cfg.NCores
	c.warmStride = c.cfg.CoreLadder.Steps()
	c.warmTab = make([]warmEntry, n*c.warmStride)
	c.prevCPI = make([]float64, n)
	c.prevMPI = make([]float64, n)
}

// resetWarm forgets everything warm-started decisions could carry across a
// Reset: the snapshot table and the phase signature. Without this a replay
// after Reset would reuse snapshots the fresh run has not scored yet.
func (c *CoScale) resetWarm() {
	if !c.opts.WarmStart {
		return
	}
	c.prevValid = false
	clear(c.warmTab)
}

// relDelta is the symmetric relative difference |a-b| / max(|a|, |b|):
// 0 when both are zero, 1 when one of them is.
//
//hot:path
func relDelta(a, b float64) float64 {
	m := math.Abs(a)
	if bb := math.Abs(b); bb > m {
		m = bb
	}
	//lint:ignore floateq exact both-zero gate: two literal-zero counters are identical, and any nonzero m is a safe divisor
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// decideWarm is the WarmStart decision flow: classify the epoch, try the
// warm seed on a stable phase, fall back to the cold search otherwise. The
// one-hot outcome counters are documented on SearchStats.
//
//hot:path
func (c *CoScale) decideWarm(obs policy.Observation) policy.Decision {
	stable := c.phaseStable(obs)
	c.snapshotPhase(obs)
	if stable {
		if d, ok := c.searchWarm(c.ev); ok {
			c.stats.WarmHits = 1
			return d
		}
		c.stats.WarmFallbacks = 1
	}
	c.stats.ColdSearches = 1
	d, _ := c.search(c.ev)
	return d
}

// phaseStable classifies the new epoch against the previous Decide's
// signature: stable means the previous solution's shape still applies. The
// aggregate memory traffic/latency shift and the fraction of cores whose
// per-core signature moved are both phase breaks — a quarter of the cores
// changing is a program phase transition, not sampling noise.
//
//hot:path
func (c *CoScale) phaseStable(obs policy.Observation) bool {
	n := c.cfg.NCores
	if !c.prevValid || len(obs.Cores) != n {
		return false
	}
	eps := c.phaseEps
	if relDelta(c.prevMemRate, obs.MemRate) > eps ||
		relDelta(c.prevMemLat, obs.MemLatency) > eps {
		return false
	}
	moved := 0
	for i := range obs.Cores {
		co := &obs.Cores[i]
		if relDelta(c.prevCPI[i], co.Stats.CPIBase) > eps ||
			relDelta(c.prevMPI[i], co.Stats.MemPerInstr) > eps {
			moved++
		}
	}
	return moved*4 <= n
}

// snapshotPhase records this epoch's counter signature for the next
// Decide's phase classification.
//
//hot:path
func (c *CoScale) snapshotPhase(obs policy.Observation) {
	n := len(obs.Cores)
	c.prevCPI = perf.Grow(c.prevCPI, n)
	c.prevMPI = perf.Grow(c.prevMPI, n)
	for i := range obs.Cores {
		co := &obs.Cores[i]
		c.prevCPI[i] = co.Stats.CPIBase
		c.prevMPI[i] = co.Stats.MemPerInstr
	}
	c.prevMemRate = obs.MemRate
	c.prevMemLat = obs.MemLatency
	c.prevValid = true
}

// recordWarm snapshots a just-scored marginal into the (core, step) slot,
// anchored to the counter signature it was scored under. Race-free under
// sharded scans: every scan item maps to exactly one core, so lanes write
// disjoint slots.
//
//hot:path
func (c *CoScale) recordWarm(i, step int, tpiCur, tpiNext, dPower float64, flags uint8) {
	sc := &c.sc
	e := &c.warmTab[i*c.warmStride+step]
	e.dTPI = tpiNext - tpiCur
	e.dPower = dPower
	e.tpiNext = tpiNext
	e.sigCPI = sc.stats[i].CPIBase
	e.sigMPI = sc.stats[i].MemPerInstr
	e.sigLat = sc.lat
	e.flags = flags
}

// searchWarm seeds the walk from the previous accepted configuration. The
// seed is re-validated with the full evaluator against this epoch's limits;
// a violation returns ok = false and the caller falls back to the cold
// search. On acceptance the walk descends exactly as the cold search would
// — the savings come from the kernel-level snapshot reuse (warmReuse),
// which serves both the initial eligibility rebuild at the seed and the
// repair scans of the descent's tail from the table.
//
//hot:path
func (c *CoScale) searchWarm(ev *policy.Evaluator) (policy.Decision, bool) {
	n := c.cfg.NCores
	if len(c.last.CoreSteps) != n {
		return policy.Decision{}, false
	}
	st := &c.st
	st.steps = perf.Grow(st.steps, n)
	copy(st.steps, c.last.CoreSteps)
	st.memStep = c.last.MemStep
	c.stats.Evals++
	ev.EvaluateInto(&st.cur, st.steps, st.memStep)
	if !policy.WithinBoundScaled(st.cur, c.scaled) {
		return policy.Decision{}, false
	}
	st.memValid, st.coreValid = false, false
	d, _ := c.descend(ev, st)
	return d, true
}

// warmReuse is the scan kernel's cross-epoch memoization: if the (core,
// step) snapshot's counter signature still matches the current counters
// within PhaseEpsilon, the recorded marginal is served instead of re-scored
// — after rechecking the slowdown bound against THIS epoch's limits using
// the snapshot's predicted post-step TPI, so stale eligibility can never
// leak through. Cores recorded as bound-limited skip for free while they
// stay ineligible; one that becomes eligible again is not handled here
// (its dPower was never computed) and falls through to a full re-score,
// which refreshes the snapshot anchor. Deterministic at any lane count:
// the reuse decision is a pure per-item function of the table and the
// scan snapshot, and it writes nothing.
//
//hot:path
func (c *CoScale) warmReuse(i, step int, pos int32) (coreMarg, bool) {
	sc := &c.sc
	e := &c.warmTab[i*c.warmStride+step]
	eps := c.phaseEps
	if e.flags == warmNone ||
		relDelta(e.sigCPI, sc.stats[i].CPIBase) > eps ||
		relDelta(e.sigMPI, sc.stats[i].MemPerInstr) > eps ||
		relDelta(e.sigLat, sc.lat) > eps {
		return coreMarg{}, false
	}
	if e.tpiNext/sc.base[i] > c.scaled[i] {
		return coreMarg{core: -1}, true
	}
	if e.flags == warmEligible {
		return coreMarg{
			core:   int32(i),
			pos:    pos,
			dTPI:   e.dTPI,
			dPerf:  e.dTPI / sc.base[i],
			dPower: e.dPower,
		}, true
	}
	return coreMarg{}, false
}
