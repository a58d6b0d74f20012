package policy_test

import (
	"testing"

	"coscale/internal/policy"
	"coscale/internal/sim"
	"coscale/internal/workload"
)

// recorder runs an inner policy and keeps a copy of every observation the
// engine hands it, in call order.
type recorder struct {
	policy.Policy
	events []event
}

type event struct {
	decide bool // Decide (profiling window) or Observe (whole epoch)
	obs    policy.Observation
}

func (r *recorder) Decide(obs policy.Observation) policy.Decision {
	r.events = append(r.events, event{decide: true, obs: obs.Clone()})
	return r.Policy.Decide(obs)
}

func (r *recorder) Observe(epoch policy.Observation) {
	r.events = append(r.events, event{obs: epoch.Clone()})
	r.Policy.Observe(epoch)
}

// recordTrace simulates MID1 (16 cores) under the Semi-coordinated policy,
// which moves both knobs, with threads migrating every third epoch, and
// returns the observation trace and the policy configuration.
func recordTrace(t *testing.T) (policy.Config, []event) {
	t.Helper()
	mix, err := workload.Get("MID1")
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.Config{Mix: mix, InstrBudget: 250_000_000, MigrateEvery: 3}
	cfg := sc.PolicyConfig()
	inner, err := policy.NewSemiCoordinated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{Policy: inner}
	sc.Policy = rec
	eng, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return cfg, rec.events
}

// TestComparisonPoliciesReplayMatchesReference replays one recorded 16-core
// trace through each comparison policy and through its pre-table reference
// (sweepref_test.go), requiring identical decisions at every epoch.
func TestComparisonPoliciesReplayMatchesReference(t *testing.T) {
	cfg, events := recordTrace(t)
	if len(events) < 20 {
		t.Fatalf("trace has %d events, want a multi-epoch run", len(events))
	}
	oop := func() policy.Policy {
		p := must(policy.NewSemiCoordinated(cfg))
		p.OutOfPhase = true
		return p
	}
	for _, pc := range []struct {
		name string
		mk   func() policy.Policy
	}{
		{"MemScale", func() policy.Policy { return must(policy.NewMemScale(cfg)) }},
		{"CPUOnly", func() policy.Policy { return must(policy.NewCPUOnly(cfg)) }},
		{"Uncoordinated", func() policy.Policy { return must(policy.NewUncoordinated(cfg)) }},
		{"Semi-coordinated", func() policy.Policy { return must(policy.NewSemiCoordinated(cfg)) }},
		{"Semi-coordinated-OoP", oop},
		{"Offline", func() policy.Policy { return must(policy.NewOffline(cfg)) }},
	} {
		got, want := pc.mk(), policy.ReferencePolicy(pc.name, cfg)
		if got.Name() != pc.name {
			t.Fatalf("%s: production policy is named %s", pc.name, got.Name())
		}
		changes := 0 // decisions that differ from the settings in effect
		for k, ev := range events {
			if !ev.decide {
				got.Observe(ev.obs)
				want.Observe(ev.obs)
				continue
			}
			g, w := got.Decide(ev.obs), want.Decide(ev.obs)
			if g.MemStep != w.MemStep || len(g.CoreSteps) != len(w.CoreSteps) {
				t.Fatalf("%s event %d: decision %v, reference %v", pc.name, k, g, w)
			}
			changed := w.MemStep != ev.obs.MemStep
			for i := range w.CoreSteps {
				if g.CoreSteps[i] != w.CoreSteps[i] {
					t.Fatalf("%s event %d: core %d step %d, reference %d", pc.name, k, i, g.CoreSteps[i], w.CoreSteps[i])
				}
				changed = changed || w.CoreSteps[i] != ev.obs.CoreSteps[i]
			}
			if changed {
				changes++
			}
		}
		if changes == 0 {
			t.Errorf("%s never changed a setting on the trace; the replay checks nothing", pc.name)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
