package policy

import (
	"fmt"
	"math"
	"testing"

	"coscale/internal/freq"
	"coscale/internal/perf"
	"coscale/internal/trace"
)

// sweepObs draws a random profiling observation: per-core intensities from
// compute- to memory-bound, MLP at the ==1 fast path and above it, and,
// when idle >= 0, core idle reporting all-zero counters (zero baseline TPI,
// so its slowdowns are 0/0).
func sweepObs(rng *trace.Rand, n, idle int) Observation {
	obs := Observation{
		Window:     100e-6 + rng.Float64()*400e-6,
		CoreSteps:  ZeroSteps(n),
		Cores:      make([]CoreObs, n),
		MemRate:    1e8 + rng.Float64()*4e8,
		MemLatency: 40e-9 + rng.Float64()*80e-9,
		UtilBus:    0.1 + rng.Float64()*0.6,
		BusyFrac:   0.2 + rng.Float64()*0.7,
	}
	for i := range obs.Cores {
		if i == idle {
			continue
		}
		beta := 0.0002 + rng.Float64()*0.02
		mlp := 1.0
		if rng.Float64() < 0.3 {
			mlp = 1 + rng.Float64()*3
		}
		obs.Cores[i] = CoreObs{
			Instructions: 100_000 + rng.Uint64()%2_000_000,
			Stats: perf.CoreStats{
				CPIBase:     0.9 + rng.Float64()*0.8,
				Alpha:       0.002 + rng.Float64()*0.03,
				StallL2:     7.5e-9,
				Beta:        beta,
				MemPerInstr: beta * (1.1 + rng.Float64()),
				MLP:         mlp,
			},
			L2PerInstr: 0.005 + rng.Float64()*0.03,
			Mix: trace.InstrMix{ALU: 0.2 + rng.Float64()*0.2, FPU: rng.Float64() * 0.3,
				Branch: 0.05 + rng.Float64()*0.1, LoadStore: 0.2 + rng.Float64()*0.2},
			IPS: 1e9 + rng.Float64()*3e9,
		}
	}
	return obs
}

// sweepLimits returns the limit vectors the sweep is checked under:
// unconstrained, uniformly tight (nothing below max frequency fits, and a
// sliver above it), and mixed per core.
func sweepLimits(rng *trace.Rand, n int) [][]float64 {
	inf, one, tight, mixed := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		inf[i] = math.Inf(1)
		one[i] = 1
		tight[i] = 1 + rng.Float64()*0.01
		switch rng.Uint64() % 4 {
		case 0:
			mixed[i] = math.Inf(1)
		case 1:
			mixed[i] = 1
		case 2:
			mixed[i] = 1 + rng.Float64()*0.05
		default:
			mixed[i] = 1.1 + rng.Float64()*0.3
		}
	}
	return [][]float64{inf, one, tight, mixed}
}

// TestCoreSearchBitIdenticalToReference requires the table-driven sweep to
// choose exactly the steps the per-candidate EvaluateFixedLatency sweep
// chose, with a Float64bits-equal SER, and memSearch on the table path to
// choose the reference's memory step. Seeded over core counts, ladder
// sizes, every memory step, latencies from the joint solve and from the
// observation, unconstrained/tight/mixed limits, a reference TPI other than
// the baseline (the Uncoordinated CPU manager's), and an idle core.
func TestCoreSearchBitIdenticalToReference(t *testing.T) {
	cases := []struct{ n, seeds, coreSteps int }{{4, 16, 10}, {4, 6, 4}, {16, 6, 10}, {64, 2, 10}}
	sweeps := 0
	for _, tc := range cases {
		cfg := testCfg(tc.n)
		cfg.CoreLadder = must(freq.CoreLadderN(tc.coreSteps))
		for seed := 0; seed < tc.seeds; seed++ {
			rng := trace.NewRand(uint64(1000*tc.n + 10*tc.coreSteps + seed))
			idle := -1
			if seed%2 == 1 {
				idle = int(rng.Uint64() % uint64(tc.n))
			}
			obs := sweepObs(rng, tc.n, idle)
			obs.MemStep = int(rng.Uint64() % uint64(cfg.MemLadder.Steps()))
			for i := range obs.CoreSteps {
				obs.CoreSteps[i] = int(rng.Uint64() % uint64(cfg.CoreLadder.Steps()))
			}
			refEv := NewEvaluator(cfg, obs)
			ev := &Evaluator{UseTables: true}
			ev.Reset(cfg, obs)

			zeros := ZeroSteps(tc.n)
			refs := [][]float64{refEv.Baseline().TPI, refEv.Evaluate(zeros, obs.MemStep).TPI}
			limitSets := sweepLimits(rng, tc.n)
			var dst []int
			var scratch Eval
			for li, limits := range limitSets {
				for ri, ref := range refs {
					got := memSearch(ev, &scratch, obs.CoreSteps, ref, limits)
					if want := refMemSearch(refEv, obs.CoreSteps, ref, limits); got != want {
						t.Fatalf("n=%d seed=%d limits#%d ref#%d: memSearch chose %d, reference %d",
							tc.n, seed, li, ri, got, want)
					}
				}
			}
			for m := 0; m < cfg.MemLadder.Steps(); m++ {
				lats := []float64{
					obs.MemLatency,
					refEv.Evaluate(zeros, m).MemLoad.Latency,
					refEv.Evaluate(obs.CoreSteps, m).MemLoad.Latency,
				}
				for li, limits := range limitSets {
					for ri, ref := range refs {
						ctx := func() string {
							return fmt.Sprintf("n=%d steps=%d seed=%d mem=%d limits#%d ref#%d",
								tc.n, tc.coreSteps, seed, m, li, ri)
						}
						for _, lat := range lats {
							want, wantSER := refSweep(refEv, m, lat, ref, limits)
							var ok bool
							dst, ok = coreSearch(dst, ev, m, lat, ref, limits)
							sweeps++
							if ok != (want != nil) {
								t.Fatalf("%s lat=%g: found %v, reference found %v", ctx(), lat, ok, want != nil)
							}
							if want == nil {
								want = zeros
							}
							for i := range want {
								if dst[i] != want[i] {
									t.Fatalf("%s lat=%g: core %d step %d, reference %d", ctx(), lat, i, dst[i], want[i])
								}
							}
							if math.Float64bits(ev.sweep.bestSER) != math.Float64bits(wantSER) {
								t.Fatalf("%s lat=%g: SER %v, reference %v", ctx(), lat, ev.sweep.bestSER, wantSER)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d sweeps bit-identical", sweeps)
}
