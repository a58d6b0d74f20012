package policy

import "coscale/internal/perf"

// SemiCoordinated increases coordination slightly over Uncoordinated (§3.2
// alternative 4): the CPU and memory managers share one slack estimate —
// each is aware of the past CPI degradation produced by the other, so the
// performance bound holds — but each still tries to consume the entire
// remaining slack independently every epoch. Because neither accounts for
// the other's simultaneous move, the pair over-corrects in both directions,
// producing the oscillations and local minima of Figures 1, 4 and 7(c).
type SemiCoordinated struct {
	managed

	// OutOfPhase makes the managers act on alternate epochs (the §4.2.2
	// half-epoch phase-shift variant: less oscillation, earlier local
	// minima).
	OutOfPhase bool

	epoch int
}

// NewSemiCoordinated returns the semi-coordinated policy, or the
// configuration's validation error.
func NewSemiCoordinated(cfg Config) (*SemiCoordinated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SemiCoordinated{managed: newManaged(cfg)}, nil
}

// Name implements Policy.
func (p *SemiCoordinated) Name() string {
	if p.OutOfPhase {
		return "Semi-coordinated-OoP"
	}
	return "Semi-coordinated"
}

// Decide implements Policy. The decision's CoreSteps alias the policy's
// scratch until the next Decide.
//
//hot:path
func (p *SemiCoordinated) Decide(obs Observation) Decision {
	p.epoch++
	limits := p.reset(obs)
	base := p.ev.BaselineTPI()

	// Both managers measure degradation against the shared all-max
	// reference (that is the coordination), but each plans as if the
	// other component keeps its current frequency. Out of phase, the
	// memory manager sits odd epochs out and the CPU manager even ones.
	coreTurn := !p.OutOfPhase || p.epoch%2 == 1
	memTurn := !p.OutOfPhase || p.epoch%2 == 0
	memStep := obs.MemStep
	if coreTurn {
		p.steps, _ = coreSearch(p.steps, p.ev, obs.MemStep, obs.MemLatency, base, limits)
	} else {
		p.steps = perf.Grow(p.steps, len(obs.CoreSteps))
		copy(p.steps, obs.CoreSteps)
	}
	if memTurn {
		memStep = memSearch(p.ev, &p.eval, obs.CoreSteps, base, limits)
	}
	return Decision{CoreSteps: p.steps, MemStep: memStep}
}

// Observe implements Policy: end-of-epoch slack accounting against the
// all-max reference.
//
//hot:path
func (p *SemiCoordinated) Observe(epoch Observation) {
	p.slack.RecordEpochFor(p.threadsFor(epoch), p.tmaxFor(epoch), epoch.Window)
}
