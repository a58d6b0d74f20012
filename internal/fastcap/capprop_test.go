package fastcap

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"coscale/internal/core"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/trace"
)

// TestCappingProperties is the seeded property test of the capping walk
// and the frontier walk, both the CoScale descent under another stop rule.
// Over mixes × {16, 64, 256} cores × caps spread across [floor, all-max]
// (plus caps just below the floor) it requires:
//   - a feasible cap is met exactly: predicted power ≤ cap, no tolerance;
//   - the all-minimum clamp with ErrCapInfeasible appears only below the
//     floor;
//   - when the walk inside the slack limits meets the cap (one walk), the
//     decision keeps every per-core slowdown limit;
//   - the frontier is strictly Pareto and its floor is bit-equal to
//     PowerCap's: a cap at Watts[0] is feasible and one ulp below it is not.
func TestCappingProperties(t *testing.T) {
	rng := trace.NewRand(20261017)
	mixes := []struct {
		name   string
		lo, hi float64 // per-core blend fraction range: 0 compute, 1 memory
	}{
		{"compute", 0, 0.3},
		{"mixed", 0, 1},
		{"memory", 0.7, 1},
	}
	for _, n := range []int{16, 64, 256} {
		for _, mix := range mixes {
			cfg := testCfg(n)
			perCore := make([]perf.CoreStats, n)
			for i := range perCore {
				perCore[i] = blend(mix.lo + rng.Float64()*(mix.hi-mix.lo))
			}
			obs := synthObs(cfg, perCore)
			t.Run(fmt.Sprintf("%s/%d", mix.name, n), func(t *testing.T) {
				checkCapping(t, cfg, obs)
			})
		}
	}
}

func checkCapping(t *testing.T, cfg policy.Config, obs policy.Observation) {
	n := cfg.NCores
	var b Builder
	var f Frontier
	if err := b.Build(&f, cfg, obs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < f.Len(); i++ {
		if !(f.Watts[i] > f.Watts[i-1]) || !(f.Slow[i] < f.Slow[i-1]) {
			t.Fatalf("frontier not strictly Pareto at %d: (%v W, %v) then (%v W, %v)",
				i, f.Watts[i-1], f.Slow[i-1], f.Watts[i], f.Slow[i])
		}
	}
	floor := f.MinWatts()
	ev := policy.NewEvaluator(cfg, obs)
	steps, mem := f.Point(0)
	if got := ev.Evaluate(steps, mem).Power.Total; math.Float64bits(got) != math.Float64bits(floor) {
		t.Errorf("frontier floor %v W, direct evaluation %v W: not bit-equal", floor, got)
	}
	allMin := make([]int, n)
	for i := range allMin {
		allMin[i] = cfg.CoreLadder.Steps() - 1
	}
	allMax := ev.Baseline().Power.Total
	// A fresh controller has no accumulated slack: every core's limit is
	// the bound the epoch itself allows.
	limits := cfg.Limits(make([]float64, n))

	caps := []float64{floor * 0.9, math.Nextafter(floor, 0), floor}
	for k := 1; k <= 4; k++ {
		caps = append(caps, floor+(allMax-floor)*float64(k)/5)
	}
	caps = append(caps, allMax, allMax*1.05)
	for _, capW := range caps {
		pc, err := core.NewPowerCap(cfg, capW)
		if err != nil {
			t.Fatal(err)
		}
		d, err := pc.DecideCapped(obs)
		e := ev.Evaluate(d.CoreSteps, d.MemStep)
		if capW < floor {
			if !errors.Is(err, core.ErrCapInfeasible) {
				t.Errorf("cap %v W below the floor %v W: err = %v, want ErrCapInfeasible", capW, floor, err)
			}
			if d.MemStep != cfg.MemLadder.Steps()-1 || !slices.Equal(d.CoreSteps, allMin) {
				t.Errorf("cap %v W below the floor: decision is not the all-minimum clamp", capW)
			}
			continue
		}
		if err != nil {
			t.Errorf("cap %v W at or above the floor %v W: %v", capW, floor, err)
			continue
		}
		if e.Power.Total > capW {
			t.Errorf("cap %v W: predicted power %v W over the cap", capW, e.Power.Total)
		}
		if pc.SearchStats().ColdSearches == 1 && !policy.WithinBound(e, limits) {
			t.Errorf("cap %v W: the bounded walk met the cap but the decision breaks a slack limit (worst slowdown %v)",
				capW, e.MaxSlow)
		}
	}
}
