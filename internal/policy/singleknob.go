package policy

import (
	"math"
	"sort"

	"coscale/internal/perf"
)

// This file implements the two single-knob policies of §3.2 — "MemScale"
// (memory-subsystem DVFS only) and "CPUOnly" (per-core DVFS only) — plus the
// exact single-knob searches they and the Uncoordinated/Semi-coordinated
// managers are built from. Both policies assume the unmanaged component
// behaves in the next epoch exactly as in the profiling phase.

// memSearch exhaustively evaluates memory steps with cores pinned at
// coreSteps, returning the step with the lowest SER whose predicted
// slowdowns (measured against refTPI) stay within limits. Returns the
// current step when nothing better is feasible. e is the caller's scratch
// evaluation.
//
//hot:path
func memSearch(ev *Evaluator, e *Eval, coreSteps []int, refTPI, limits []float64) int {
	bestStep, bestSER := 0, math.Inf(1)
	for m := 0; m < ev.Cfg.MemLadder.Steps(); m++ {
		ev.EvaluateInto(e, coreSteps, m)
		if !withinRef(e, refTPI, limits) {
			continue
		}
		ser := serAgainst(ev, e)
		if ser < bestSER {
			bestSER, bestStep = ser, m
		}
	}
	return bestStep
}

// coreSweep is the scratch of the fixed-latency core sweep, owned by the
// Evaluator so a policy's steady-state decisions allocate nothing. slow and
// reach are flat per-core rows: entry i*steps+s is core i at ladder step s.
// The *At columns hold the per-core terms of each core's current pick.
type coreSweep struct {
	slow  []float64 // TPI/refTPI, the slowdown every candidate D is compared with
	reach []float64 // min(slow[s:]) over the row's non-NaN entries; NaN if none
	cands []float64 // candidate D values

	pick   []int     // highest step whose slowdown fits the threshold; -1 if none (step 0 runs)
	scaled []float64 // limits[i]·(1+1e-12), withinRef's bound
	slowAt []float64 // TPI/refTPI at the pick
	timeAt []float64 // TPI/baseline TPI at the pick; 0 without a baseline
	memAt  []float64 // MemPerInstr/TPI at the pick; 0 where the rate skips the core
	l2At   []float64 // IPS·L2PerInstr at the pick
	powAt  []float64 // core power at the pick

	bestSER float64 // SER of the chosen steps; +Inf when nothing was feasible
}

// coreSearch performs the exact CPU-only search: because each core's CPI is
// independent of the others' frequencies once memory latency is held fixed,
// searching "all possible combinations of core frequencies" (§3.2) reduces
// to sweeping the worst-allowed slowdown D over every per-core step
// boundary and letting each core pick its lowest frequency within D. The
// steps minimizing predicted SER within limits are written to dst (all-max,
// with ok false, when no candidate is feasible). CPUOnly, the Uncoordinated
// and Semi-coordinated CPU managers and Offline's per-memory-step search
// all run this one sweep. ev must be on the table path (UseTables).
//
// Each candidate's prediction is the fixed-latency model — TPI from the
// StepTable at latency, memory rate, core and L2 power summed in ascending
// core order into System.TotalFromCPU, SER against the all-max baseline —
// operation for operation, so its bits are those of a full evaluation of
// the candidate (DESIGN.md §4). Candidates arrive in ascending D, so each
// core's pick only rises: a pick is found by walking forward over the
// row's suffix minima (reach), and its per-core terms are derived once,
// when the core moves to it. A candidate then costs one pass over the
// cores, and one whose steps equal the last scored candidate's is skipped.
//
//hot:path
func coreSearch(dst []int, ev *Evaluator, memStep int, latency float64, refTPI, limits []float64) ([]int, bool) {
	n := len(refTPI)
	steps := ev.Cfg.CoreLadder.Steps()
	sw := &ev.sweep
	sw.slow = perf.Grow(sw.slow, n*steps)
	sw.reach = perf.Grow(sw.reach, n*steps)
	sw.cands = perf.Grow(sw.cands, n*steps+1)[:0]
	sw.pick = perf.Grow(sw.pick, n)
	sw.scaled = perf.Grow(sw.scaled, n)
	sw.slowAt = perf.Grow(sw.slowAt, n)
	sw.timeAt = perf.Grow(sw.timeAt, n)
	sw.memAt = perf.Grow(sw.memAt, n)
	sw.l2At = perf.Grow(sw.l2At, n)
	sw.powAt = perf.Grow(sw.powAt, n)
	for i := 0; i < n; i++ {
		row := sw.slow[i*steps : i*steps+steps]
		bound := limits[i] * (1 + 1e-12)
		for s := range row {
			sd := ev.tbl.TPIAt(i, s, latency) / refTPI[i]
			row[s] = sd
			if sd <= bound {
				sw.cands = append(sw.cands, sd)
			}
		}
		reach := sw.reach[i*steps : i*steps+steps]
		r := math.NaN()
		for s := steps - 1; s >= 0; s-- {
			if v := row[s]; v < r || math.IsNaN(r) {
				r = v
			}
			reach[s] = r
		}
		sw.scaled[i] = bound
		sw.pick[i] = -1
		sw.load(ev, i, 0, latency, refTPI)
	}
	sw.cands = append(sw.cands, 1)
	sort.Float64s(sw.cands)

	dst = perf.Grow(dst, n)
	clear(dst)
	sw.bestSER = math.Inf(1)
	found := false
	moved := true // some pick changed since the last scored candidate
	prev := math.NaN()
	for _, d := range sw.cands {
		//lint:ignore floateq exact dedup of sorted candidates; a tolerance would merge distinct settings
		if d == prev {
			continue
		}
		prev = d
		for i := 0; i < n; i++ {
			// The pick is the highest step with slow <= min(d, limits[i])·(1+1e-12).
			// reach is non-decreasing along the row, and reach[s] fits the
			// bound exactly when some step at or above s does, so the steps
			// that fit are a prefix and the pick is its last element.
			lim := limits[i]
			if d < lim {
				lim = d
			}
			bound := lim * (1 + 1e-12)
			reach := sw.reach[i*steps : i*steps+steps]
			p := sw.pick[i]
			for p+1 < steps && reach[p+1] <= bound {
				p++
			}
			if p != sw.pick[i] {
				sw.pick[i] = p
				sw.load(ev, i, p, latency, refTPI)
				moved = true
			}
		}
		if !moved {
			continue
		}
		moved = false
		if ser, ok := sw.score(ev, memStep, refTPI); ok && ser < sw.bestSER {
			sw.bestSER, found = ser, true
			for i, p := range sw.pick {
				dst[i] = max(p, 0)
			}
		}
	}
	return dst, found
}

// load derives core i's terms at step s: the values the fixed-latency
// evaluation computes for that core, by the same expressions.
//
//hot:path
func (sw *coreSweep) load(ev *Evaluator, i, s int, latency float64, refTPI []float64) {
	tpi := ev.tbl.TPIAt(i, s, latency)
	sw.slowAt[i] = tpi / refTPI[i]
	t := 0.0
	if b := ev.baseline.TPI[i]; b > 0 {
		t = tpi / b
	}
	sw.timeAt[i] = t
	ips, mem := 0.0, 0.0
	if tpi > 0 && !math.IsInf(tpi, 0) {
		ips = 1 / tpi
		mem = ev.stats[i].MemPerInstr / tpi
	}
	sw.memAt[i] = mem
	sw.l2At[i] = ips * ev.l2pi[i]
	sw.powAt[i] = ev.ptbl.PowerAt(s, i, ips)
}

// score returns the SER of the current picks against the all-max baseline,
// or false when a core's slowdown against refTPI exceeds its limit — the
// withinRef and serAgainst of a full evaluation. The rate, power and time
// factor accumulate in ascending core order; a skipped core's memory term
// is +0, and adding +0 to a sum that started at +0 changes no bit. A core
// without a baseline has time factor 0, which never raises the maximum.
//
//hot:path
func (sw *coreSweep) score(ev *Evaluator, memStep int, refTPI []float64) (float64, bool) {
	for i, r := range refTPI {
		if r > 0 && sw.slowAt[i] > sw.scaled[i] {
			return 0, false
		}
	}
	memRate, cpu, l2Rate, t := 0.0, 0.0, 0.0, 0.0
	for i := range refTPI {
		memRate += sw.memAt[i]
		cpu += sw.powAt[i]
		l2Rate += sw.l2At[i]
		if r := sw.timeAt[i]; r > t {
			t = r
		}
	}
	if t <= 0 {
		t = 1
	}
	u := ev.memUsage(ev.plat.MemHz[memStep], ev.plat.MemV[memStep], memRate, ev.obs.UtilBus)
	total := ev.Cfg.Power.TotalFromCPU(cpu, l2Rate, u).Total
	return t * total / ev.baseline.Power.Total, true
}

// withinRef checks per-core TPI against limits relative to refTPI (which may
// differ from the evaluator's all-max baseline for the Uncoordinated
// managers).
//
//hot:path
func withinRef(e *Eval, refTPI, limits []float64) bool {
	for i, tpi := range e.TPI {
		if refTPI[i] <= 0 {
			continue
		}
		if tpi/refTPI[i] > limits[i]*(1+1e-12) {
			return false
		}
	}
	return true
}

// serAgainst computes the SER of e against the evaluator's all-max baseline.
//
//hot:path
func serAgainst(ev *Evaluator, e *Eval) float64 {
	b := &ev.baseline
	t := 0.0
	for i, tpi := range e.TPI {
		if b.TPI[i] > 0 {
			if r := tpi / b.TPI[i]; r > t {
				t = r
			}
		}
	}
	if t <= 0 {
		t = 1
	}
	return t * e.Power.Total / b.Power.Total
}

// MemScale is the memory-only DVFS policy (§3.2 alternative 1).
type MemScale struct{ managed }

// NewMemScale returns the MemScale policy, or the configuration's
// validation error.
func NewMemScale(cfg Config) (*MemScale, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MemScale{newManaged(cfg)}, nil
}

// Name implements Policy.
func (p *MemScale) Name() string { return "MemScale" }

// Decide implements Policy: exhaustive search over memory frequencies with
// the cores untouched (they stay at maximum frequency). The decision's
// CoreSteps alias the policy's scratch until the next Decide.
//
//hot:path
func (p *MemScale) Decide(obs Observation) Decision {
	limits := p.reset(obs)
	m := memSearch(p.ev, &p.eval, obs.CoreSteps, p.ev.BaselineTPI(), limits)
	p.steps = perf.Grow(p.steps, len(obs.CoreSteps))
	copy(p.steps, obs.CoreSteps)
	return Decision{CoreSteps: p.steps, MemStep: m}
}

// Observe implements Policy: end-of-epoch slack accounting against the
// all-max reference.
//
//hot:path
func (p *MemScale) Observe(epoch Observation) {
	p.slack.RecordEpochFor(p.threadsFor(epoch), p.tmaxFor(epoch), epoch.Window)
}

// CPUOnly is the CPU-only DVFS policy (§3.2 alternative 2).
type CPUOnly struct{ managed }

// NewCPUOnly returns the CPUOnly policy, or the configuration's validation
// error.
func NewCPUOnly(cfg Config) (*CPUOnly, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CPUOnly{newManaged(cfg)}, nil
}

// Name implements Policy.
func (p *CPUOnly) Name() string { return "CPUOnly" }

// Decide implements Policy: the exact all-combinations core search with
// memory pinned at maximum frequency. The decision's CoreSteps alias the
// policy's scratch until the next Decide.
//
//hot:path
func (p *CPUOnly) Decide(obs Observation) Decision {
	limits := p.reset(obs)
	p.steps, _ = coreSearch(p.steps, p.ev, obs.MemStep, obs.MemLatency, p.ev.BaselineTPI(), limits)
	return Decision{CoreSteps: p.steps, MemStep: obs.MemStep}
}

// Observe implements Policy: end-of-epoch slack accounting against the
// all-max reference.
//
//hot:path
func (p *CPUOnly) Observe(epoch Observation) {
	p.slack.RecordEpochFor(p.threadsFor(epoch), p.tmaxFor(epoch), epoch.Window)
}
