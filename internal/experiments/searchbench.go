package experiments

import (
	"time"

	"coscale/internal/fastcap"
	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/sim"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// BaselineRunConfig is the no-policy run behind the BaselineRun substrate
// benchmarks (bench_test.go and cmd/coscale-bench): the Table 1 mix with
// copies copies of each program and one memory channel per four cores, as
// on the e2ebench many-core platform. With no policy every core and the bus
// stay at maximum frequency, so a run times the simulation substrate alone.
func BaselineRunConfig(mix string, copies int, budget uint64) (sim.Config, error) {
	m, err := workload.Get(mix)
	if err != nil {
		return sim.Config{}, err
	}
	m.Copies = copies
	mem := memsys.DefaultParams()
	mem.Channels = (m.Cores() + 3) / 4
	return sim.Config{Mix: m, Mem: mem, InstrBudget: budget}, nil
}

// SearchBenchObs builds the synthetic profiling observation behind the §3.1
// search-cost benchmarks (BenchmarkSearch16/64/128Cores) and cmd/coscale-bench:
// n cores with deterministic pseudo-random memory intensities on the paper's
// default system. One definition keeps `go test -bench Search` and the
// BENCH_baseline.json generator measuring the same workload.
func SearchBenchObs(n int) (policy.Config, policy.Observation) {
	return SearchBenchObsSeed(n, 11)
}

// SearchBenchObsSeed is SearchBenchObs with the intensity-drawing seed
// exposed, for batched-decision benchmarks that want each controller in the
// batch deciding over a distinct (but still deterministic) observation.
// Seed 11 reproduces SearchBenchObs exactly.
func SearchBenchObsSeed(n int, seed uint64) (policy.Config, policy.Observation) {
	cfg := policy.Config{
		NCores:     n,
		CoreLadder: freq.DefaultCoreLadder(),
		MemLadder:  freq.DefaultMemLadder(),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(n),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
	}
	obs := policy.Observation{
		Window:    300e-6,
		CoreSteps: policy.ZeroSteps(n),
		Cores:     make([]policy.CoreObs, n),
		MemRate:   2e8, MemLatency: 60e-9, UtilBus: 0.3, BusyFrac: 0.6,
	}
	rng := trace.NewRand(seed)
	for i := range obs.Cores {
		beta := 0.0005 + rng.Float64()*0.01
		obs.Cores[i] = policy.CoreObs{
			Instructions: 1_000_000,
			Stats: perf.CoreStats{CPIBase: 1.1 + rng.Float64()*0.4, Alpha: 0.01,
				StallL2: 7.5e-9, Beta: beta, MemPerInstr: beta * 1.4, MLP: 1},
			L2PerInstr: 0.01,
			Mix:        trace.InstrMix{ALU: 0.3, FPU: 0.2, Branch: 0.1, LoadStore: 0.3},
			IPS:        2.5e9,
		}
	}
	return cfg, obs
}

// SearchBenchCap is the power budget behind the capping benchmarks
// (BenchmarkPowerCap16/64/256Cores and cmd/coscale-bench): the midpoint of
// the watts spanned by the node's frontier under SearchBenchObs, so the
// capped walk stops halfway between the all-max point and the floor.
func SearchBenchCap(cfg policy.Config, obs policy.Observation) (float64, error) {
	var b fastcap.Builder
	var f fastcap.Frontier
	if err := b.Build(&f, cfg, obs); err != nil {
		return 0, err
	}
	return (f.Watts[0] + f.Watts[f.Len()-1]) / 2, nil
}
