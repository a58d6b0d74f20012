package coscale

import (
	"fmt"
	"math"
	"testing"

	"coscale/internal/core"
	"coscale/internal/experiments"
	"coscale/internal/fastcap"
	"coscale/internal/policy"
)

// must unwraps a constructor's (value, error) pair for test setup; a
// non-nil error is a broken fixture, reported by panicking (Go forbids
// f(t, g()) with a multi-valued g, so the helper cannot also take t).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestDecideZeroAllocSteadyState is the alloc-budget gate for the §3.1 search
// (DESIGN.md §7): after the first call sizes the controller's scratch —
// evaluators, search state, marginal lists — CoScale.Decide must not allocate.
// The paper's <5 µs search cost depends on the decision loop staying cheap;
// zero steady-state allocations is what this suite enforces going forward.
func TestDecideZeroAllocSteadyState(t *testing.T) {
	for _, n := range []int{16, 64} {
		cfg, obs := experiments.SearchBenchObs(n)
		cs := must(core.New(cfg))
		cs.Decide(obs) // warm-up sizes every scratch buffer
		avg := testing.AllocsPerRun(100, func() { cs.Decide(obs) })
		if avg != 0 {
			t.Errorf("%d cores: Decide allocates %.1f times per call in steady state, want 0", n, avg)
		}
	}
}

// TestPowerCapZeroAllocSteadyState extends the gate to the capping walk:
// PowerCap runs the CoScale descent with a power stop rule, so once its
// scratch is warm neither DecideCapped nor Observe (CoScale's slack
// accounting, on sim.Engine.step's path every epoch) may allocate.
func TestPowerCapZeroAllocSteadyState(t *testing.T) {
	for _, n := range []int{16, 64} {
		cfg, obs := experiments.SearchBenchObs(n)
		obs.Window = cfg.EpochLen.Seconds()
		pc := must(core.NewPowerCap(cfg, must(experiments.SearchBenchCap(cfg, obs))))
		pc.Observe(obs)
		if _, err := pc.DecideCapped(obs); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() { pc.Observe(obs) }); avg != 0 {
			t.Errorf("%d cores: PowerCap.Observe allocates %.1f times per call, want 0", n, avg)
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, err := pc.DecideCapped(obs); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%d cores: PowerCap.DecideCapped allocates %.1f times per call in steady state, want 0", n, avg)
		}
	}
}

// TestComparisonPoliciesZeroAllocSteadyState extends the gate to the five
// comparison policies of §3.2: each owns a table evaluator and its sweep
// scratch, so once warm neither Decide nor Observe may allocate.
func TestComparisonPoliciesZeroAllocSteadyState(t *testing.T) {
	for _, n := range []int{16, 64} {
		cfg, obs := experiments.SearchBenchObs(n)
		obs.Window = cfg.EpochLen.Seconds()
		oop := must(policy.NewSemiCoordinated(cfg))
		oop.OutOfPhase = true
		for _, p := range []policy.Policy{
			must(policy.NewMemScale(cfg)),
			must(policy.NewCPUOnly(cfg)),
			must(policy.NewUncoordinated(cfg)),
			must(policy.NewSemiCoordinated(cfg)),
			oop,
			must(policy.NewOffline(cfg)),
		} {
			epoch := func() {
				p.Decide(obs)
				p.Observe(obs)
			}
			epoch()
			epoch() // the out-of-phase variant alternates managers
			if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
				t.Errorf("%d cores: %s Decide+Observe allocates %.1f times per epoch in steady state, want 0", n, p.Name(), avg)
			}
		}
	}
}

// capFleet is the fleet-cap shape of the capping gates: one 16-core and
// one 32-core node sharing a platform-table cache, so a single Builder or
// Rebalancer alternates between core counts on every round.
func capFleet() ([]policy.Config, []policy.Observation) {
	tables := &policy.TableCache{}
	var cfgs []policy.Config
	var obs []policy.Observation
	for _, n := range []int{16, 32} {
		cfg, o := experiments.SearchBenchObs(n)
		cfg.Tables = tables
		cfgs, obs = append(cfgs, cfg), append(obs, o)
	}
	return cfgs, obs
}

// TestFrontierBuildZeroAllocSteadyState gates the frontier walk: a warm
// Builder serving nodes of different core counts must not allocate.
func TestFrontierBuildZeroAllocSteadyState(t *testing.T) {
	cfgs, obs := capFleet()
	var b fastcap.Builder
	fronts := make([]fastcap.Frontier, len(cfgs))
	build := func() {
		for i := range cfgs {
			if err := b.Build(&fronts[i], cfgs[i], obs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	build()
	if avg := testing.AllocsPerRun(50, build); avg != 0 {
		t.Errorf("Builder.Build allocates %.1f times per 16+32-core round in steady state, want 0", avg)
	}
}

// TestRebalancerEpochZeroAllocSteadyState gates a whole rebalancing epoch —
// frontier builds, allocation, and each node's PowerCap decision — over the
// alternating 16/32-core fleet.
func TestRebalancerEpochZeroAllocSteadyState(t *testing.T) {
	cfgs, obs := capFleet()
	r := fastcap.NewRebalancer(fastcap.Fair)
	budget := 0.0
	for i, cfg := range cfgs {
		if err := r.AddNode(fmt.Sprintf("node-%d", i), cfg); err != nil {
			t.Fatal(err)
		}
		budget += 0.8 * policy.NewEvaluator(cfg, obs[i]).Baseline().Power.Total
	}
	out := make([]fastcap.NodeEpoch, 0, len(cfgs))
	var err error
	if out, err = r.Epoch(budget, obs, out[:0]); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if out, err = r.Epoch(budget, obs, out[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Rebalancer.Epoch allocates %.1f times per epoch in steady state, want 0", avg)
	}
}

// TestDecideDeterministicUnderReuse requires scratch-buffer reuse to be
// invisible in the output: deciding twice on one controller (warm buffers)
// must produce bit-identical decisions to a freshly constructed controller
// seeing the same observation.
func TestDecideDeterministicUnderReuse(t *testing.T) {
	cfg, obs := experiments.SearchBenchObs(16)

	reused := must(core.New(cfg))
	first := reused.Decide(obs).Clone() // Decide's result aliases controller scratch
	second := reused.Decide(obs).Clone()

	fresh := must(core.New(cfg)).Decide(obs).Clone()

	check := func(name string, d policy.Decision) {
		t.Helper()
		if d.MemStep != first.MemStep {
			t.Errorf("%s: MemStep %d, want %d", name, d.MemStep, first.MemStep)
		}
		if len(d.CoreSteps) != len(first.CoreSteps) {
			t.Fatalf("%s: %d core steps, want %d", name, len(d.CoreSteps), len(first.CoreSteps))
		}
		for i := range d.CoreSteps {
			if d.CoreSteps[i] != first.CoreSteps[i] {
				t.Errorf("%s: core %d step %d, want %d", name, i, d.CoreSteps[i], first.CoreSteps[i])
			}
		}
	}
	check("second decide on reused controller", second)
	check("fresh controller", fresh)
}

// TestEvaluatorResetMatchesFresh pins the evaluator-recycling contract: a
// Reset evaluator must predict bit-identically to a freshly constructed one.
func TestEvaluatorResetMatchesFresh(t *testing.T) {
	cfg, obs := experiments.SearchBenchObs(16)
	steps := policy.ZeroSteps(cfg.NCores)
	for i := range steps {
		steps[i] = i % 3
	}

	recycled := policy.NewEvaluator(cfg, obs)
	recycled.Evaluate(steps, 2) // dirty the scratch at another operating point
	recycled.Reset(cfg, obs)
	got := recycled.Evaluate(steps, 1)

	want := policy.NewEvaluator(cfg, obs).Evaluate(steps, 1)

	if math.Float64bits(got.SER) != math.Float64bits(want.SER) {
		t.Errorf("SER = %v, want %v", got.SER, want.SER)
	}
	if math.Float64bits(got.MaxSlow) != math.Float64bits(want.MaxSlow) {
		t.Errorf("MaxSlow = %v, want %v", got.MaxSlow, want.MaxSlow)
	}
	if math.Float64bits(got.Power.Total) != math.Float64bits(want.Power.Total) {
		t.Errorf("Power.Total = %v, want %v", got.Power.Total, want.Power.Total)
	}
	for i := range want.TPI {
		if math.Float64bits(got.TPI[i]) != math.Float64bits(want.TPI[i]) {
			t.Errorf("TPI[%d] = %v, want %v", i, got.TPI[i], want.TPI[i])
		}
		if math.Float64bits(got.Slowdown[i]) != math.Float64bits(want.Slowdown[i]) {
			t.Errorf("Slowdown[%d] = %v, want %v", i, got.Slowdown[i], want.Slowdown[i])
		}
	}
}
