package core

import (
	"errors"
	"testing"

	"coscale/internal/policy"
	"coscale/internal/power"
)

func TestPowerCapValidation(t *testing.T) {
	if _, err := NewPowerCap(testCfg(4), 0); err == nil {
		t.Error("zero cap accepted")
	}
}

func TestPowerCapName(t *testing.T) {
	p := must(NewPowerCap(testCfg(4), 200))
	if p.Name() != "CoScale-PowerCap" || p.Cap() != 200 {
		t.Errorf("Name/Cap = %s/%g", p.Name(), p.Cap())
	}
}

func TestPowerCapMeetsBudget(t *testing.T) {
	cfg := testCfg(16)
	cfg.Gamma = 0.10
	obs := synthObs(cfg, uniform(16, compute))
	ev := policy.NewEvaluator(cfg, obs)
	full := ev.Baseline().Power.Total

	for _, frac := range []float64{0.9, 0.75, 0.6} {
		cap := full * frac
		d := must(NewPowerCap(cfg, cap)).Decide(obs)
		e := ev.Evaluate(d.CoreSteps, d.MemStep)
		if e.Power.Total > cap {
			t.Errorf("cap %.0f W (%.0f%%): predicted power %.0f W over budget", cap, frac*100, e.Power.Total)
		}
	}
}

func TestPowerCapPrefersFastestCompliantPoint(t *testing.T) {
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(8, compute))
	ev := policy.NewEvaluator(cfg, obs)
	full := ev.Baseline().Power.Total

	// A generous cap should not slow the system at all.
	d := must(NewPowerCap(cfg, full*1.05)).Decide(obs)
	e := ev.Evaluate(d.CoreSteps, d.MemStep)
	if e.MaxSlow > 1.0001 {
		t.Errorf("generous cap caused slowdown %.4f", e.MaxSlow)
	}

	// A tighter cap slows things, but monotonically: a lower cap must not
	// give a faster system.
	d90 := must(NewPowerCap(cfg, full*0.9)).Decide(obs)
	d70 := must(NewPowerCap(cfg, full*0.7)).Decide(obs)
	s90 := ev.Evaluate(d90.CoreSteps, d90.MemStep).MaxSlow
	s70 := ev.Evaluate(d70.CoreSteps, d70.MemStep).MaxSlow
	if s70 < s90-1e-9 {
		t.Errorf("tighter cap produced faster system: %.4f vs %.4f", s70, s90)
	}
}

func TestPowerCapUnreachableFallsBackToMinimumPower(t *testing.T) {
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(8, memory))
	ev := policy.NewEvaluator(cfg, obs)
	d := must(NewPowerCap(cfg, 1)).Decide(obs) // 1 W: impossible
	e := ev.Evaluate(d.CoreSteps, d.MemStep)
	// Must be at or near the ladder bottoms.
	if d.MemStep != cfg.MemLadder.Steps()-1 {
		t.Errorf("memory not at bottom: step %d", d.MemStep)
	}
	for i, s := range d.CoreSteps {
		if s != cfg.CoreLadder.Steps()-1 {
			t.Errorf("core %d not at bottom: step %d", i, s)
		}
	}
	if e.Power.Total >= ev.Baseline().Power.Total {
		t.Error("fallback did not reduce power")
	}
}

func TestPowerCapInfeasibleClampsToMinimum(t *testing.T) {
	// A cap below the all-minimum-frequency power must clamp to the ladder
	// floor and surface the typed error instead of silently thrashing.
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(8, memory))
	ev := policy.NewEvaluator(cfg, obs)
	minSteps := make([]int, 8)
	for i := range minSteps {
		minSteps[i] = cfg.CoreLadder.Steps() - 1
	}
	minMem := cfg.MemLadder.Steps() - 1
	floor := ev.Evaluate(minSteps, minMem).Power.Total

	p := must(NewPowerCap(cfg, floor*0.5))
	d, err := p.DecideCapped(obs)
	if !errors.Is(err, ErrCapInfeasible) {
		t.Fatalf("DecideCapped(cap %.1f W < floor %.1f W) err = %v, want ErrCapInfeasible", floor*0.5, floor, err)
	}
	if d.MemStep != minMem {
		t.Errorf("memory not clamped to bottom: step %d", d.MemStep)
	}
	for i, s := range d.CoreSteps {
		if s != cfg.CoreLadder.Steps()-1 {
			t.Errorf("core %d not clamped to bottom: step %d", i, s)
		}
	}
	// Decide (the policy.Policy form) returns the same clamp, error swallowed.
	d2 := p.Decide(obs)
	if d2.MemStep != d.MemStep || len(d2.CoreSteps) != len(d.CoreSteps) {
		t.Error("Decide disagrees with DecideCapped on the infeasible clamp")
	}
}

func TestPowerCapFeasibleAtExactFloor(t *testing.T) {
	// The boundary: a cap exactly at (or a hair above) the minimum
	// achievable power is feasible — no error, and the cap is met.
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(8, memory))
	ev := policy.NewEvaluator(cfg, obs)
	minSteps := make([]int, 8)
	for i := range minSteps {
		minSteps[i] = cfg.CoreLadder.Steps() - 1
	}
	floor := ev.Evaluate(minSteps, cfg.MemLadder.Steps()-1).Power.Total

	p := must(NewPowerCap(cfg, floor))
	d, err := p.DecideCapped(obs)
	if err != nil {
		t.Fatalf("cap exactly at the floor reported infeasible: %v", err)
	}
	if e := ev.Evaluate(d.CoreSteps, d.MemStep); e.Power.Total > floor*(1+1e-9) {
		t.Errorf("decision power %.3f W exceeds the floor cap %.3f W", e.Power.Total, floor)
	}
}

func TestPowerCapSetCap(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewPowerCap(cfg, 300))
	if err := p.SetCap(0); err == nil {
		t.Error("SetCap(0) accepted")
	}
	if err := p.SetCap(-5); err == nil {
		t.Error("SetCap(-5) accepted")
	}
	if p.Cap() != 300 {
		t.Errorf("rejected SetCap mutated the cap: %g", p.Cap())
	}
	if err := p.SetCap(150); err != nil {
		t.Fatalf("SetCap(150): %v", err)
	}
	if p.Cap() != 150 {
		t.Errorf("Cap after SetCap = %g, want 150", p.Cap())
	}
	// The new cap governs subsequent decisions.
	obs := synthObs(cfg, uniform(4, compute))
	ev := policy.NewEvaluator(cfg, obs)
	d := p.Decide(obs)
	if e := ev.Evaluate(d.CoreSteps, d.MemStep); e.Power.Total > 150*1.001 {
		t.Errorf("decision ignores SetCap: %.1f W > 150 W", e.Power.Total)
	}
}

func TestPowerCapObserveAccumulatesSlack(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewPowerCap(cfg, 300))
	obs := synthObs(cfg, uniform(4, compute))
	obs.Window = cfg.EpochLen.Seconds()
	p.Observe(obs) // must not panic; slack bookkeeping exercised
}

func TestPowerCapRespectsCapOverSLO(t *testing.T) {
	// When the cap and the SLO conflict, the cap wins (capping exists to
	// protect the branch circuit, not the workload).
	cfg := testCfg(8)
	cfg.Gamma = 0.01 // very tight SLO
	obs := synthObs(cfg, uniform(8, compute))
	ev := policy.NewEvaluator(cfg, obs)
	full := ev.Baseline().Power.Total
	cap := full * 0.65
	d := must(NewPowerCap(cfg, cap)).Decide(obs)
	e := ev.Evaluate(d.CoreSteps, d.MemStep)
	if e.Power.Total > cap*1.001 {
		t.Errorf("cap not met under tight SLO: %.0f W > %.0f W", e.Power.Total, cap)
	}
}

func TestPowerCapWithRescaledSystem(t *testing.T) {
	// Works under non-default power calibrations too (Fig. 12/13 knobs).
	cfg := testCfg(8)
	cfg.Power = power.CalibratedSystem(8, 0.3, 0.6, 0.1)
	obs := synthObs(cfg, uniform(8, memory))
	ev := policy.NewEvaluator(cfg, obs)
	cap := ev.Baseline().Power.Total * 0.8
	d := must(NewPowerCap(cfg, cap)).Decide(obs)
	if e := ev.Evaluate(d.CoreSteps, d.MemStep); e.Power.Total > cap*1.001 {
		t.Errorf("cap not met on rescaled system: %.0f > %.0f", e.Power.Total, cap)
	}
}
