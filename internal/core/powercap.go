package core

import (
	"errors"
	"fmt"
	"math"

	"coscale/internal/perf"
	"coscale/internal/policy"
)

// ErrCapInfeasible reports a power budget below the platform's minimum
// achievable power: even with every core and the memory bus at their lowest
// frequency the predicted power exceeds the cap. The decision returned
// alongside it is the all-minimum-frequency clamp — the closest physically
// reachable point — so callers can actuate it while surfacing the violation.
var ErrCapInfeasible = errors.New("core: power cap infeasible")

// capError is ErrCapInfeasible carrying the cap and the floor it was
// detected against.
type capError struct{ capW, floorW float64 }

func (e *capError) Error() string {
	return fmt.Sprintf("%v: cap %g W below minimum achievable %g W", ErrCapInfeasible, e.capW, e.floorW)
}

func (e *capError) Unwrap() error { return ErrCapInfeasible }

// PowerCap is the §2.3 extension the paper sketches: "CoScale can be readily
// extended to cap power with appropriate changes to its decision algorithm".
// Instead of minimizing SER within a performance bound, PowerCap sheds the
// cheapest watts until a full-system power budget is met (and still honours
// the per-program slack bound when it can).
//
// The change is confined to the walk's stop rule. A PowerCap owns a serial
// CoScale controller — its slack book, Observe, evaluator and scratch — and
// runs the same Figure 2 descent, which stops at the first accepted point
// whose predicted power is at or under the cap. The walk runs inside the
// slack limits first; only when that bounded walk cannot reach the cap are
// the limits lifted (capping protects the branch circuit, so it takes
// precedence over the SLO) and the walk rerun from all-max down to the
// all-minimum floor. That unbounded walk is exactly the one a FrontierWalk
// records, so the lowest power it passes is the node's frontier floor: a cap
// below it is infeasible, and the controller clamps to all-minimum
// frequencies and surfaces ErrCapInfeasible.
type PowerCap struct {
	c *CoScale

	floorSteps []int    // the all-minimum step vector, the infeasible clamp
	err        capError // the infeasible return's error, reused
}

// NewPowerCap builds a power-capping controller with the given full-system
// budget in watts, or an error for an invalid configuration or budget.
func NewPowerCap(cfg policy.Config, capWatts float64) (*PowerCap, error) {
	c, err := NewWithOptions(cfg, Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if err := checkCap(capWatts); err != nil {
		return nil, err
	}
	c.goal, c.capW = goalCap, capWatts
	return &PowerCap{c: c}, nil
}

func checkCap(capWatts float64) error {
	if capWatts <= 0 || math.IsNaN(capWatts) {
		return fmt.Errorf("core: power cap %g W must be positive", capWatts)
	}
	return nil
}

// Name implements policy.Policy.
func (p *PowerCap) Name() string { return "CoScale-PowerCap" }

// Cap returns the configured budget in watts.
func (p *PowerCap) Cap() float64 { return p.c.capW }

// SetCap replaces the budget for subsequent decisions. This is the epoch
// rebalancing hook (internal/fastcap): one PowerCap per node persists across
// epochs while its assigned slice of the global budget moves.
func (p *PowerCap) SetCap(capWatts float64) error {
	if err := checkCap(capWatts); err != nil {
		return err
	}
	p.c.capW = capWatts
	return nil
}

// Observe implements policy.Policy: CoScale's slack accounting.
//
//hot:path
func (p *PowerCap) Observe(epoch policy.Observation) { p.c.Observe(epoch) }

// Decide implements policy.Policy: descend until the cap is met, taking the
// moves that buy the most watts per unit of performance. Infeasibility is
// swallowed — the all-minimum clamp is still the right actuation — so use
// DecideCapped when the violation itself matters.
//
//hot:path
func (p *PowerCap) Decide(obs policy.Observation) policy.Decision {
	d, _ := p.DecideCapped(obs)
	return d
}

// DecideCapped is Decide surfacing infeasibility: when the cap lies below the
// lowest power the unbounded walk reaches for this observation, the returned
// decision is the all-minimum-frequency configuration and the error wraps
// ErrCapInfeasible (carrying the cap and that floor). A feasible cap returns
// a nil error. As with CoScale.Decide, the decision and the error alias the
// controller's scratch and are valid until the next decision; retain the
// decision with Clone.
//
//hot:path
func (p *PowerCap) DecideCapped(obs policy.Observation) (policy.Decision, error) {
	c := p.c
	c.ev.Reset(c.cfg, obs)
	c.avail = c.slack.AvailableInto(c.avail, c.threadsFor(obs))
	c.limits = c.cfg.LimitsInto(c.limits, c.avail)
	c.scaled = policy.ScaleLimits(c.scaled, c.limits)
	c.stats = SearchStats{ColdSearches: 1}
	if d, ok := c.search(c.ev); ok {
		return d, nil
	}
	// The bounded walk ran out of moves above the cap: lift the limits.
	for i := range c.scaled {
		c.scaled[i] = math.Inf(1)
	}
	c.stats.ColdSearches++
	c.minW = math.Inf(1)
	if d, ok := c.search(c.ev); ok {
		return d, nil
	}
	p.floorSteps = perf.Grow(p.floorSteps, c.cfg.NCores)
	for i := range p.floorSteps {
		p.floorSteps[i] = c.cfg.CoreLadder.Steps() - 1
	}
	p.err = capError{capW: c.capW, floorW: c.minW}
	return policy.Decision{CoreSteps: p.floorSteps, MemStep: c.cfg.MemLadder.Steps() - 1}, &p.err
}

// SearchStats returns the work counters of the last decision's walks.
// ColdSearches is 2 when the walk inside the slack limits could not reach
// the cap and the limits were lifted for a second walk.
func (p *PowerCap) SearchStats() SearchStats { return p.c.stats }

// FrontierWalk runs the CoScale descent as a frontier recorder: every
// slowdown limit lifted, from the all-max point down to the all-minimum
// floor, keeping every point the walk accepts in walk order. fastcap
// Pareto-filters the record into a node's power/performance frontier. The
// zero value is ready to use; a FrontierWalk keeps its scratch across runs,
// including runs over configurations of different core counts, so repeated
// walks settle into zero allocations.
type FrontierWalk struct {
	c CoScale
	// evs holds one evaluator per platform walked, so a Builder alternating
	// between nodes never re-derives platform tables on the switch. It is
	// never pruned: a walk lives as long as the fleet it serves.
	evs []*policy.Evaluator
}

// Run walks the configuration under one observation, replacing the previous
// record, or returns the configuration's validation error.
func (w *FrontierWalk) Run(cfg policy.Config, obs policy.Observation) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(obs.Cores) != cfg.NCores {
		return fmt.Errorf("core: observation has %d cores, config %d", len(obs.Cores), cfg.NCores)
	}
	c := &w.c
	c.cfg, c.goal = cfg, goalFrontier
	ev := w.evaluator(cfg)
	ev.Reset(cfg, obs)
	c.scaled = perf.Grow(c.scaled, cfg.NCores)
	for i := range c.scaled {
		c.scaled[i] = math.Inf(1)
	}
	c.walk.reset(cfg.NCores)
	c.stats = SearchStats{ColdSearches: 1}
	c.search(ev)
	return nil
}

// evaluator returns the walk's evaluator for cfg's platform — the ladders
// and memory parameters the evaluator's platform tables derive from.
func (w *FrontierWalk) evaluator(cfg policy.Config) *policy.Evaluator {
	for _, ev := range w.evs {
		if ev.Cfg.CoreLadder == cfg.CoreLadder && ev.Cfg.MemLadder == cfg.MemLadder && ev.Cfg.Mem == cfg.Mem {
			return ev
		}
	}
	// The table path is bit-identical to the direct path (DESIGN.md §10),
	// and through cfg.Tables sibling nodes share one platform build.
	ev := &policy.Evaluator{UseTables: true}
	w.evs = append(w.evs, ev)
	return ev
}

// Watts returns each recorded point's predicted full-system power, in walk
// order. Like every slice a FrontierWalk returns, it aliases the walk's
// storage and is valid until the next Run.
func (w *FrontierWalk) Watts() []float64 { return w.c.walk.watts }

// Slow returns each recorded point's predicted worst per-core slowdown.
func (w *FrontierWalk) Slow() []float64 { return w.c.walk.slow }

// Point returns the operating point behind recorded point i.
func (w *FrontierWalk) Point(i int) (coreSteps []int, memStep int) {
	l := &w.c.walk
	return l.steps[i*l.n : (i+1)*l.n : (i+1)*l.n], l.mems[i]
}

// walkLog is the goalFrontier record: one entry per accepted point.
type walkLog struct {
	n     int // cores per point
	watts []float64
	slow  []float64
	mems  []int
	steps []int // n core steps per point, back to back
}

func (l *walkLog) reset(n int) {
	l.n = n
	l.watts, l.slow, l.mems, l.steps = l.watts[:0], l.slow[:0], l.mems[:0], l.steps[:0]
}

// record appends the walk's current point. The appends grow the log only
// until it has held the longest walk once.
//
//hot:path
func (l *walkLog) record(st *searchState) {
	l.watts = append(l.watts, st.cur.Power.Total)
	l.slow = append(l.slow, st.cur.MaxSlow)
	l.mems = append(l.mems, st.memStep)
	l.steps = append(l.steps, st.steps...)
}
