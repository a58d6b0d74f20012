package policy

// The pre-table implementation of the comparison policies, kept verbatim as
// the reference the production code is checked against: the fixed-latency
// core sweep scored every candidate with a freshly allocated
// EvaluateFixedLatency over a direct-path evaluator, Offline carried its own
// copy of that sweep (dSweep), and every Decide/Observe built a NewEvaluator.
// Production now scores candidates from per-(core, step) terms over a
// policy-owned table evaluator (singleknob.go); sweep_test.go requires the
// two to agree bit for bit.

import (
	"math"
	"sort"

	"coscale/internal/memsys"
)

// refEvaluateFixedLatency is the deleted Evaluator.EvaluateFixedLatency.
func refEvaluateFixedLatency(ev *Evaluator, coreSteps []int, memStep int, latency float64) Eval {
	hz := ev.coreHz(coreSteps)
	e := Eval{TPI: make([]float64, len(ev.stats)), Slowdown: make([]float64, len(ev.stats))}
	for i, s := range ev.stats {
		e.TPI[i] = s.TPI(hz[i], latency)
	}
	e.MemLoad = memsys.Load{Latency: latency, XiBus: 1, XiBank: 1, UtilBus: ev.obs.UtilBus}
	ev.finish(&e, coreSteps, hz, memStep, refMemRate(&e, ev))
	return e
}

func refMemRate(e *Eval, ev *Evaluator) float64 {
	rate := 0.0
	for i, tpi := range e.TPI {
		if tpi > 0 && !math.IsInf(tpi, 0) {
			rate += ev.stats[i].MemPerInstr / tpi
		}
	}
	return rate
}

// refAssembleSteps picks, for each core, the lowest frequency whose
// slowdown stays within min(d, limits[i]).
func refAssembleSteps(slow [][]float64, limits []float64, d float64) []int {
	steps := make([]int, len(slow))
	for i := range slow {
		lim := limits[i]
		if d < lim {
			lim = d
		}
		pick := 0
		for s := len(slow[i]) - 1; s >= 0; s-- {
			if slow[i][s] <= lim*(1+1e-12) {
				pick = s
				break
			}
		}
		steps[i] = pick
	}
	return steps
}

func refWithinRef(e Eval, refTPI, limits []float64) bool {
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

func refSerAgainst(ev *Evaluator, e Eval) float64 {
	b := ev.Baseline()
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

// refSweep is the deleted coreSearch/dSweep body (the two were line-for-line
// copies apart from the not-found result). It returns the chosen steps
// (nil when no candidate was feasible) and their SER.
func refSweep(ev *Evaluator, memStep int, latency float64, refTPI, limits []float64) ([]int, float64) {
	n := len(refTPI)
	ladder := ev.Cfg.CoreLadder
	stats := ev.Stats()
	slow := make([][]float64, n)
	var candidates []float64
	for i := 0; i < n; i++ {
		slow[i] = make([]float64, ladder.Steps())
		for s := 0; s < ladder.Steps(); s++ {
			sd := stats[i].TPI(ladder.Hz(s), latency) / refTPI[i]
			slow[i][s] = sd
			if sd <= limits[i]*(1+1e-12) {
				candidates = append(candidates, sd)
			}
		}
	}
	candidates = append(candidates, 1)
	sort.Float64s(candidates)

	var best []int
	bestSER := math.Inf(1)
	prev := math.NaN()
	for _, d := range candidates {
		//lint:ignore floateq exact dedup of sorted candidates; a tolerance would merge distinct settings
		if d == prev {
			continue
		}
		prev = d
		steps := refAssembleSteps(slow, limits, d)
		e := refEvaluateFixedLatency(ev, steps, memStep, latency)
		if !refWithinRef(e, refTPI, limits) {
			continue
		}
		if ser := refSerAgainst(ev, e); ser < bestSER {
			bestSER, best = ser, steps
		}
	}
	return best, bestSER
}

// refCoreSearch is the deleted coreSearch: all-max when nothing is feasible.
func refCoreSearch(ev *Evaluator, memStep int, latency float64, refTPI, limits []float64) []int {
	if best, _ := refSweep(ev, memStep, latency, refTPI, limits); best != nil {
		return best
	}
	return ZeroSteps(len(refTPI))
}

func refMemSearch(ev *Evaluator, coreSteps []int, refTPI, limits []float64) int {
	bestStep, bestSER := 0, math.Inf(1)
	for m := 0; m < ev.Cfg.MemLadder.Steps(); m++ {
		e := ev.Evaluate(coreSteps, m)
		if !refWithinRef(e, refTPI, limits) {
			continue
		}
		ser := refSerAgainst(ev, e)
		if ser < bestSER {
			bestSER, bestStep = ser, m
		}
	}
	return bestStep
}

// refPolicy is the pre-table form of the five comparison policies, one
// type switched on name so the replay test can run each beside its
// production counterpart.
type refPolicy struct {
	name  string
	cfg   Config
	slack *SlackBook
	epoch int
}

// ReferencePolicy returns the pre-table implementation of the named
// comparison policy ("MemScale", "CPUOnly", "Uncoordinated",
// "Semi-coordinated", "Semi-coordinated-OoP" or "Offline").
func ReferencePolicy(name string, cfg Config) Policy {
	return &refPolicy{name: name, cfg: cfg, slack: NewSlackBook(cfg.NCores, cfg.Gamma, cfg.Reserve)}
}

func (p *refPolicy) Name() string { return p.name }

func (p *refPolicy) Decide(obs Observation) Decision {
	ev := NewEvaluator(p.cfg, obs)
	limits := p.cfg.Limits(p.slack.AvailableFor(obs.CoreThreads()))
	base := ev.Baseline().TPI
	switch p.name {
	case "MemScale":
		m := refMemSearch(ev, obs.CoreSteps, base, limits)
		return Decision{CoreSteps: append([]int(nil), obs.CoreSteps...), MemStep: m}
	case "CPUOnly":
		return Decision{CoreSteps: refCoreSearch(ev, obs.MemStep, obs.MemLatency, base, limits), MemStep: obs.MemStep}
	case "Uncoordinated":
		n := p.cfg.NCores
		cpuRef := ev.Evaluate(ZeroSteps(n), obs.MemStep)
		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1 + p.cfg.Gamma
		}
		coreSteps := refCoreSearch(ev, obs.MemStep, cpuRef.MemLoad.Latency, cpuRef.TPI, uniform)
		memRef := ev.Evaluate(obs.CoreSteps, 0)
		return Decision{CoreSteps: coreSteps, MemStep: refMemSearch(ev, obs.CoreSteps, memRef.TPI, uniform)}
	case "Semi-coordinated", "Semi-coordinated-OoP":
		p.epoch++
		coreSteps := refCoreSearch(ev, obs.MemStep, obs.MemLatency, base, limits)
		memStep := refMemSearch(ev, obs.CoreSteps, base, limits)
		if p.name == "Semi-coordinated-OoP" {
			if p.epoch%2 == 1 {
				memStep = obs.MemStep
			} else {
				coreSteps = append([]int(nil), obs.CoreSteps...)
			}
		}
		return Decision{CoreSteps: coreSteps, MemStep: memStep}
	case "Offline":
		return p.offline(ev, limits)
	}
	panic("unknown reference policy " + p.name)
}

func (p *refPolicy) offline(ev *Evaluator, limits []float64) Decision {
	best := Decision{CoreSteps: ZeroSteps(p.cfg.NCores), MemStep: 0}
	bestSER := ev.Baseline().SER
	for m := 0; m < p.cfg.MemLadder.Steps(); m++ {
		base := ev.Baseline().TPI
		latency := ev.Evaluate(ZeroSteps(p.cfg.NCores), m).MemLoad.Latency
		var bestSteps []int
		var bestEval Eval
		found := false
		for round := 0; round < 2; round++ {
			steps, _ := refSweep(ev, m, latency, base, limits)
			if steps == nil {
				break
			}
			e := ev.Evaluate(steps, m)
			if !WithinBound(e, limits) {
				latency = e.MemLoad.Latency
				continue
			}
			if !found || e.SER < bestEval.SER {
				bestSteps, bestEval, found = steps, e, true
			}
			latency = e.MemLoad.Latency
		}
		if found && bestEval.SER < bestSER {
			bestSER = bestEval.SER
			best = Decision{CoreSteps: bestSteps, MemStep: m}
		}
	}
	return best
}

func (p *refPolicy) Observe(epoch Observation) {
	if p.name == "Uncoordinated" {
		return
	}
	p.slack.RecordEpochFor(epoch.CoreThreads(), TMaxForEpoch(p.cfg, epoch, ZeroSteps(p.cfg.NCores), 0), epoch.Window)
}

// WantsOracle mirrors Offline's oracle request.
func (p *refPolicy) WantsOracle() bool { return p.name == "Offline" }
