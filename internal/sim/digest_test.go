package sim_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"coscale/internal/experiments"
	"coscale/internal/fault"
	"coscale/internal/policy"
	"coscale/internal/sim"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// The digest table pins whole simulation results bit-for-bit at the paper's
// 100M-instruction budget, across every Table 1 class and every comparison
// policy, pinned and migrating, with the prefetcher, the OoO window, an
// injected fault scenario and a recorded timeline. Each run is replayed a
// second time on the same engine after Reset/SetPolicy, which must reproduce
// the same digest. Any change to ground truth — the substrate's trueStats,
// its fixed-point solve, the integration, the energy split — shows here as a
// changed digest.

// digestPolicies is Baseline plus the seven controllers the table covers.
var digestPolicies = []experiments.PolicyName{
	experiments.Baseline,
	experiments.CoScaleName,
	experiments.WarmName,
	experiments.MemScaleName,
	experiments.CPUOnlyName,
	experiments.UncoordName,
	experiments.SemiName,
	experiments.OfflineName,
}

// digestScenario is one row of the table.
type digestScenario struct {
	name   string
	mix    string
	pol    experiments.PolicyName
	mutate func(*sim.Config)
}

func digestScenarios() []digestScenario {
	var out []digestScenario
	add := func(name, mix string, pol experiments.PolicyName, mutate func(*sim.Config)) {
		out = append(out, digestScenario{name: name + "/" + mix + "/" + string(pol), mix: mix, pol: pol, mutate: mutate})
	}
	for _, c := range []trace.Class{trace.ILP, trace.MID, trace.MEM, trace.MIX} {
		mix := workload.ByClass(c)[0].Name
		for _, pol := range digestPolicies {
			add("pinned", mix, pol, nil)
			add("migrate3", mix, pol, func(c *sim.Config) { c.MigrateEvery = 3 })
		}
	}
	for _, pol := range []experiments.PolicyName{experiments.Baseline, experiments.CoScaleName, experiments.OfflineName} {
		add("prefetch", "MEM1", pol, func(c *sim.Config) { c.Prefetch = true })
		add("ooo", "MIX1", pol, func(c *sim.Config) { c.OoO = true })
	}
	for _, pol := range []experiments.PolicyName{experiments.CoScaleName, experiments.HardenedName} {
		add("faults", "MID1", pol, func(c *sim.Config) { c.Faults = digestFaults() })
	}
	add("timeline", "MIX2", experiments.CoScaleName, func(c *sim.Config) {
		c.RecordTimeline = true
		c.MigrateEvery = 2
	})
	return out
}

// digestFaults exercises every injection mechanism at once.
func digestFaults() *fault.Config {
	return &fault.Config{
		Seed: 0xD16E57,
		Counters: fault.CounterFaults{
			Noise:     0.05,
			Bias:      0.02,
			StaleProb: 0.1,
			DropProb:  0.02,
		},
		Actuation: fault.ActuationFaults{
			DropProb:           0.1,
			LagEpochs:          2,
			StuckProb:          0.02,
			StuckEpochs:        3,
			ThermalProb:        0.01,
			ThermalEpochs:      5,
			ThermalMinCoreStep: 4,
		},
		PowerBias: 0.05,
	}
}

// resultDigest folds every number of a Result into one FNV-1a hash of their
// exact bit patterns: epochs, wall time, the energy split, each app's
// instructions and finish time, and every timeline record.
func resultDigest(r *sim.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	put(uint64(r.Epochs))
	f(r.WallTime)
	f(r.Energy.CPU)
	f(r.Energy.L2)
	f(r.Energy.Mem)
	f(r.Energy.Rest)
	put(r.TotalInstructions)
	for _, a := range r.Apps {
		put(a.Instructions)
		f(a.FinishTime)
	}
	for _, rec := range r.Timeline {
		put(uint64(rec.Index))
		f(rec.Wall)
		f(rec.MemHz)
		f(rec.PowerW)
		for _, v := range rec.CoreHz {
			f(v)
		}
		for _, v := range rec.Slowdowns {
			f(v)
		}
	}
	return h.Sum64()
}

// runDigests runs one scenario on a fresh engine and then again after
// Reset/SetPolicy, returning both digests.
func runDigests(t *testing.T, sc digestScenario) (first, again uint64) {
	t.Helper()
	cfg := sim.Config{Mix: workload.MustGet(sc.mix), InstrBudget: 100_000_000}
	if sc.mutate != nil {
		sc.mutate(&cfg)
	}
	newPolicy := func() policy.Policy {
		p, err := experiments.NewPolicy(sc.pol, cfg.PolicyConfig())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg.Policy = newPolicy()
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	first = resultDigest(res)
	eng.Reset()
	eng.SetPolicy(newPolicy())
	res, err = eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return first, resultDigest(res)
}

// TestDigestGoldenBitIdentical replays every scenario and compares its
// digest with the captured table. On a mismatch it prints the whole
// recomputed table so an intended numerics change can be re-recorded in one
// step (and explained in CHANGES.md).
func TestDigestGoldenBitIdentical(t *testing.T) {
	scs := digestScenarios()
	got := make(map[string]uint64, len(scs))
	for _, sc := range scs {
		first, again := runDigests(t, sc)
		got[sc.name] = first
		if again != first {
			t.Errorf("%s: digest after Reset/SetPolicy %#016x, fresh engine %#016x", sc.name, again, first)
		}
		want, ok := goldenDigests[sc.name]
		switch {
		case !ok:
			t.Errorf("%s: no captured digest", sc.name)
		case want != first:
			t.Errorf("%s: digest %#016x, want %#016x", sc.name, first, want)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("%d scenarios, %d captured digests", len(got), len(goldenDigests))
	}
	if t.Failed() {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "\t%q: %#016x,\n", n, got[n])
		}
		t.Logf("recomputed table:\n%s", b.String())
	}
}

// goldenDigests was captured from the engine before the ground-truth memo
// (DESIGN.md §7) and must never change without a numerics change that
// CHANGES.md explains.
var goldenDigests = map[string]uint64{
	"faults/MID1/CoScale":            0x2700931e7eb71e16,
	"faults/MID1/CoScale-Hardened":   0x2f00fdc4e24bc026,
	"migrate3/ILP1/Baseline":         0x29caa4e6de917c74,
	"migrate3/ILP1/CPUOnly":          0x1d036cef2cc3dd96,
	"migrate3/ILP1/CoScale":          0x2b8810c441c55a1c,
	"migrate3/ILP1/CoScale-Warm":     0x2b8810c441c55a1c,
	"migrate3/ILP1/MemScale":         0xa3d1d5f9c65a3614,
	"migrate3/ILP1/Offline":          0x3d9350c34096043a,
	"migrate3/ILP1/Semi-coordinated": 0x37006a3a66704fd5,
	"migrate3/ILP1/Uncoordinated":    0xa836031c838748d4,
	"migrate3/MEM1/Baseline":         0x185a61215d696171,
	"migrate3/MEM1/CPUOnly":          0x60719db4b534db8c,
	"migrate3/MEM1/CoScale":          0x6435e7f63f4d57b4,
	"migrate3/MEM1/CoScale-Warm":     0x6300f9887665134e,
	"migrate3/MEM1/MemScale":         0x8e3082d12d1a7df5,
	"migrate3/MEM1/Offline":          0x6b38b3bcb392607a,
	"migrate3/MEM1/Semi-coordinated": 0x6855befb52581d1e,
	"migrate3/MEM1/Uncoordinated":    0x23442ff8386838a2,
	"migrate3/MID1/Baseline":         0xc1be3e02c3144915,
	"migrate3/MID1/CPUOnly":          0x61a2753bc0dc1fa4,
	"migrate3/MID1/CoScale":          0xd5d5759f77b474c5,
	"migrate3/MID1/CoScale-Warm":     0xe5511a42bd89d6af,
	"migrate3/MID1/MemScale":         0x83ee3977de3796c2,
	"migrate3/MID1/Offline":          0x48ddfd40f3acd860,
	"migrate3/MID1/Semi-coordinated": 0x3d9e4822bab0b3db,
	"migrate3/MID1/Uncoordinated":    0xa72c95d84083ef96,
	"migrate3/MIX1/Baseline":         0xd639286caa84a01f,
	"migrate3/MIX1/CPUOnly":          0xc8297cc33eb3c8a6,
	"migrate3/MIX1/CoScale":          0x4c34c202f7d51475,
	"migrate3/MIX1/CoScale-Warm":     0x450d05eb3bbd9634,
	"migrate3/MIX1/MemScale":         0xe0e38591b87936da,
	"migrate3/MIX1/Offline":          0x2232218669837b16,
	"migrate3/MIX1/Semi-coordinated": 0x32d6a1d625068ac9,
	"migrate3/MIX1/Uncoordinated":    0x235b395bec2c24eb,
	"ooo/MIX1/Baseline":              0x738e2138c02f8a37,
	"ooo/MIX1/CoScale":               0xc6302860027550ba,
	"ooo/MIX1/Offline":               0x1167d23a9f6722c7,
	"pinned/ILP1/Baseline":           0x832b13d9301e3c03,
	"pinned/ILP1/CPUOnly":            0xce36cc85044933ab,
	"pinned/ILP1/CoScale":            0xf46f74fbb5fdd3cb,
	"pinned/ILP1/CoScale-Warm":       0xf46f74fbb5fdd3cb,
	"pinned/ILP1/MemScale":           0xb6f46f42ab1a2e0e,
	"pinned/ILP1/Offline":            0xae80f2d5a1fec548,
	"pinned/ILP1/Semi-coordinated":   0x20875e8eaa2a29f8,
	"pinned/ILP1/Uncoordinated":      0xf5d40e9c52a8c46f,
	"pinned/MEM1/Baseline":           0x0da2464c35c468fd,
	"pinned/MEM1/CPUOnly":            0x2a10c21d1de72e28,
	"pinned/MEM1/CoScale":            0xdfdbb8c689237c14,
	"pinned/MEM1/CoScale-Warm":       0x7e12209856d1fa0b,
	"pinned/MEM1/MemScale":           0x993f1d440ee24ae2,
	"pinned/MEM1/Offline":            0x8f84ab0c7e2c094f,
	"pinned/MEM1/Semi-coordinated":   0x135f9b0e39b261e6,
	"pinned/MEM1/Uncoordinated":      0x57e79c02fd728866,
	"pinned/MID1/Baseline":           0xb51e9fcae0b5de74,
	"pinned/MID1/CPUOnly":            0xea5db339db961a39,
	"pinned/MID1/CoScale":            0xa5bff3a0393a2e72,
	"pinned/MID1/CoScale-Warm":       0x7c63bceb136261fb,
	"pinned/MID1/MemScale":           0x7f3d9e32ad245e52,
	"pinned/MID1/Offline":            0x32a302c229e221fd,
	"pinned/MID1/Semi-coordinated":   0x77e30234e6b75964,
	"pinned/MID1/Uncoordinated":      0xa143686eda9b6717,
	"pinned/MIX1/Baseline":           0xae420feb35a0db8e,
	"pinned/MIX1/CPUOnly":            0x57d2bad381420b25,
	"pinned/MIX1/CoScale":            0xd027ffb386eaaa86,
	"pinned/MIX1/CoScale-Warm":       0xe2c92661875d0675,
	"pinned/MIX1/MemScale":           0x0938bdfbb46646be,
	"pinned/MIX1/Offline":            0x138b7a7288da4dc1,
	"pinned/MIX1/Semi-coordinated":   0x790f2100e1b4daeb,
	"pinned/MIX1/Uncoordinated":      0xee9c0e9ae9bd202d,
	"prefetch/MEM1/Baseline":         0xb37fabc021b08cad,
	"prefetch/MEM1/CoScale":          0xb34fe2eb92850e94,
	"prefetch/MEM1/Offline":          0xe7e5cbbca38e865f,
	"timeline/MIX2/CoScale":          0xc7f6fca1fe9d3956,
}
