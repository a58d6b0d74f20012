package policy

// Uncoordinated applies both MemScale-style memory DVFS and CPUOnly-style
// core DVFS through two fully independent managers (§3.2 alternative 3).
//
// Each manager believes it alone influences the slack: in determining its
// budget, the CPU manager assumes the memory subsystem will stay at its
// previous-epoch frequency AND that no CPI degradation has accumulated (its
// reference is "cores at max, memory as-is", refreshed every epoch with no
// carry-over); the memory manager makes the mirror-image assumptions. Both
// then consume an entire γ allowance, so the combined slowdown can approach
// 2γ — the bound violations Figure 9 shows.
type Uncoordinated struct {
	cfg Config
	ev  *Evaluator

	// Steady-state scratch; a Decision's CoreSteps alias steps until the
	// next Decide.
	ref    Eval // the CPU manager's, then the memory manager's reference
	eval   Eval // memSearch scratch
	zeros  []int
	steps  []int
	limits []float64
}

// NewUncoordinated returns the uncoordinated two-manager policy, or the
// configuration's validation error.
func NewUncoordinated(cfg Config) (*Uncoordinated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	limits := make([]float64, cfg.NCores)
	for i := range limits {
		limits[i] = 1 + cfg.Gamma
	}
	return &Uncoordinated{
		cfg:    cfg,
		ev:     &Evaluator{UseTables: true},
		zeros:  make([]int, cfg.NCores),
		limits: limits,
	}, nil
}

// Name implements Policy.
func (p *Uncoordinated) Name() string { return "Uncoordinated" }

// Decide implements Policy.
//
//hot:path
func (p *Uncoordinated) Decide(obs Observation) Decision {
	ev := p.ev
	ev.Reset(p.cfg, obs)

	// CPU manager: reference is cores-at-max with memory at its current
	// frequency; fresh per-epoch allowance of γ per core (p.limits).
	ev.EvaluateInto(&p.ref, p.zeros, obs.MemStep)
	p.steps, _ = coreSearch(p.steps, ev, obs.MemStep, p.ref.MemLoad.Latency, p.ref.TPI, p.limits)

	// Memory manager: reference is memory-at-max with cores at their
	// current frequencies; same fresh allowance.
	ev.EvaluateInto(&p.ref, obs.CoreSteps, 0)
	memStep := memSearch(ev, &p.eval, obs.CoreSteps, p.ref.TPI, p.limits)

	// Both managers' decisions take effect simultaneously.
	return Decision{CoreSteps: p.steps, MemStep: memStep}
}

// Observe implements Policy: the managers deliberately keep no cross-epoch
// slack state ("assumes it has accumulated no CPI degradation").
func (p *Uncoordinated) Observe(Observation) {}
