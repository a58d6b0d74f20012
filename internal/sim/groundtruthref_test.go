package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"coscale/internal/cache"
	"coscale/internal/core"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// trueStatsRef is the ground truth recomputed from scratch, the way the
// engine computed it before the memo (DESIGN.md §7): every profile sampled
// directly through AppProfile.At/MPKIAt at the thread's current fraction, in
// fresh buffers. It reads the engine's state and changes none of it.
func trueStatsRef(e *Engine) trueState {
	n := len(e.profiles)
	st := trueState{
		stats:     make([]perf.CoreStats, n),
		mix:       make([]trace.InstrMix, n),
		l2PKI:     make([]float64, n),
		demandPKI: make([]float64, n),
		fillPKI:   make([]float64, n),
		wbPKI:     make([]float64, n),
	}
	fracs := make([]float64, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		th := e.perm[i]
		frac := e.instr[th] / float64(e.cfg.InstrBudget)
		frac -= math.Floor(frac)
		fracs[i] = frac
		weights[i] = e.profiles[th].At(frac).L2APKI
	}
	shares := cache.NewShareModel(e.cfg.LLCSizeMB).Shares(weights)
	for i := 0; i < n; i++ {
		p := e.profiles[e.perm[i]]
		s := p.At(fracs[i])
		mpki := p.MPKIAt(fracs[i], shares[i])
		demand, fills := mpki, 0.0
		if e.cfg.Prefetch && p.PrefetchAccuracy > 0 {
			demand = mpki * (1 - p.PrefetchCoverage)
			fills = mpki * p.PrefetchCoverage / p.PrefetchAccuracy
		}
		mlp := 1.0
		if e.cfg.OoO {
			mlp = s.MLP
		}
		wb := mpki * s.DirtyFrac
		st.stats[i] = perf.CoreStats{
			CPIBase:     s.CPIBase,
			Alpha:       s.L2APKI / 1000,
			StallL2:     cache.DefaultHitTime,
			Beta:        demand / 1000,
			MemPerInstr: (demand + fills + wb) / 1000,
			MLP:         mlp,
		}
		st.mix[i] = s.Mix
		st.l2PKI[i] = s.L2APKI
		st.demandPKI[i] = demand
		st.fillPKI[i] = fills
		st.wbPKI[i] = wb
	}
	return st
}

// trueStateBits flattens a ground-truth state into its float bit patterns.
func trueStateBits(st *trueState) []uint64 {
	var out []uint64
	f := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for i, s := range st.stats {
		m := st.mix[i]
		f(s.CPIBase, s.Alpha, s.StallL2, s.Beta, s.MemPerInstr, s.MLP,
			m.ALU, m.FPU, m.Branch, m.LoadStore,
			st.l2PKI[i], st.demandPKI[i], st.fillPKI[i], st.wbPKI[i])
	}
	return out
}

// solveBits flattens a solve result into its bit patterns.
func solveBits(r *perf.Result) []uint64 {
	out := []uint64{uint64(r.Iterations)}
	f := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	f(r.TPI...)
	f(r.IPS...)
	f(r.MemRate, r.Mem.Latency, r.Mem.XiBus, r.Mem.XiBank, r.Mem.UtilBus, r.Mem.UtilBank)
	return out
}

// checkGroundTruthMemo asserts the memo's invariant at a quiescent point
// (between steps, after New or Reset): while stOK holds and every thread is
// still inside its sampler's memoized phase — the condition under which
// trueStats answers from the memo — the memoized state equals a from-scratch
// recomputation; while solveOK holds, the memoized solve equals a fresh
// solve of that state at the current core and memory steps. It reports which
// of the two memos it checked.
func checkGroundTruthMemo(t *testing.T, e *Engine, where string) (stChecked, solveChecked bool) {
	t.Helper()
	if e.stOK && e.phasesHold() {
		stChecked = true
		ref := trueStatsRef(e)
		if !slices.Equal(trueStateBits(&e.st), trueStateBits(&ref)) {
			t.Fatalf("%s: memoized trueStats differs from a from-scratch recomputation", where)
		}
	}
	if e.solveOK {
		solveChecked = true
		hz := make([]float64, len(e.coreSteps))
		for i, s := range e.coreSteps {
			hz[i] = e.cfg.CoreLadder.Hz(s)
		}
		fresh := perf.NewSolver(e.cfg.Mem).Solve(e.st.stats, hz, e.cfg.MemLadder.Hz(e.memStep))
		if !slices.Equal(solveBits(&e.solveRes), solveBits(&fresh)) {
			t.Fatalf("%s: memoized solve differs from a fresh solve at the current steps", where)
		}
	}
	return stChecked, solveChecked
}

// TestGroundTruthMemoMatchesReference drives engines epoch by epoch — pinned
// and migrating, prefetch and OoO, an oracle policy, injected actuation
// faults, the no-DVFS baseline — and checks the memo against the reference
// after New, after every epoch, and after a Reset both at the end of a run
// and mid-run right after a migration.
func TestGroundTruthMemoMatchesReference(t *testing.T) {
	type tc struct {
		name   string
		mix    string
		policy func(policy.Config) policy.Policy
		mutate func(*Config)
	}
	coscale := func(pc policy.Config) policy.Policy { return must(core.New(pc)) }
	cases := []tc{
		{name: "baseline", mix: "MEM1"},
		{name: "baseline-migrate", mix: "MIX2", mutate: func(c *Config) { c.MigrateEvery = 1 }},
		{name: "coscale", mix: "MID1", policy: coscale},
		{name: "coscale-migrate", mix: "MIX2", policy: coscale, mutate: func(c *Config) { c.MigrateEvery = 2 }},
		{name: "coscale-prefetch-ooo", mix: "MEM2", policy: coscale, mutate: func(c *Config) {
			c.Prefetch = true
			c.OoO = true
		}},
		{name: "offline", mix: "MIX1", policy: func(pc policy.Config) policy.Policy { return must(policy.NewOffline(pc)) },
			mutate: func(c *Config) { c.MigrateEvery = 3 }},
		{name: "memscale-faults", mix: "MID2", policy: func(pc policy.Config) policy.Policy { return must(policy.NewMemScale(pc)) },
			mutate: func(c *Config) { c.Faults = faultScenario() }},
		{name: "coscale-timeline", mix: "ILP1", policy: coscale, mutate: func(c *Config) { c.RecordTimeline = true }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Mix: workload.MustGet(c.mix), InstrBudget: 100_000_000}
			if c.mutate != nil {
				c.mutate(&cfg)
			}
			var oracle bool
			newPolicy := func() {
				if c.policy == nil {
					return
				}
				p := c.policy(cfg.PolicyConfig())
				cfg.Policy = p
				if op, ok := p.(policy.OraclePolicy); ok {
					oracle = op.WantsOracle()
				}
			}
			newPolicy()
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var stChecks, solveChecks int
			check := func(where string) {
				t.Helper()
				st, sv := checkGroundTruthMemo(t, e, where)
				if st {
					stChecks++
				}
				if sv {
					solveChecks++
				}
			}
			check("after New")
			run := func(pass string, maxEpochs int) {
				for ep := 0; ep < maxEpochs && !e.allFinished(); ep++ {
					e.step(ep, oracle)
					check(fmt.Sprintf("%s after epoch %d", pass, ep))
				}
			}
			run("first pass", e.cfg.MaxEpochs)
			// A full replay, then one stopped after three epochs, which
			// is past the first migration of every migrating case.
			for _, stop := range []int{e.cfg.MaxEpochs, 3} {
				e.Reset()
				newPolicy()
				e.SetPolicy(cfg.Policy)
				check("after Reset")
				run("replay", stop)
			}
			e.Reset()
			check("after a mid-run Reset")
			// The invariant must have been exercised, not only vacuously
			// true.
			if stChecks == 0 || solveChecks == 0 {
				t.Errorf("memo checked %d (trueStats) and %d (solve) times; want both > 0", stChecks, solveChecks)
			}
		})
	}
}
