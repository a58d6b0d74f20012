package main

import (
	"fmt"
	"slices"
	"strings"

	"coscale/internal/experiments"
	"coscale/internal/memsys"
	"coscale/internal/server"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// Everything a workload feeds the program is derived here from the --seed
// value alone: the same seed yields identical inputs on every host, and the
// program under test never sees the seed itself.

// Stream tags keep the workloads' random streams independent, so adding a
// draw to one workload never shifts another's inputs.
const (
	streamSweep uint64 = 0x5157_4545_5000_0001
	streamMany  uint64 = 0x4d41_4e59_0000_0002
	streamFleet uint64 = 0x464c_4545_5400_0003
	streamServe uint64 = 0x5345_5256_4500_0004
)

func newRand(seed, stream uint64) *trace.Rand { return trace.NewRand(seed ^ stream) }

// appsByClass lists the registered applications of one behavioural class in
// sorted order, so draws index a deterministic list.
func appsByClass(c trace.Class) []string {
	var out []string
	for _, n := range trace.Names() {
		if trace.MustLookup(n).Class == c {
			out = append(out, n)
		}
	}
	return out
}

// drawDistinct draws k distinct names from pool (partial Fisher-Yates on a
// copy), excluding any already in taken.
func drawDistinct(r *trace.Rand, pool []string, k int, taken []string) []string {
	cand := make([]string, 0, len(pool))
	for _, p := range pool {
		if !slices.Contains(taken, p) {
			cand = append(cand, p)
		}
	}
	out := make([]string, 0, k)
	for i := 0; i < k && i < len(cand); i++ {
		j := i + int(r.Intn(uint64(len(cand)-i)))
		cand[i], cand[j] = cand[j], cand[i]
		out = append(out, cand[i])
	}
	return out
}

// composeMix draws a four-application composition for one class the way
// Table 1 builds its mixes: ILP, MID and MEM mixes take four distinct
// programs of their own class; a MIX mix takes one memory-intensive, one
// balanced, one SPEC 2006 extra and one compute-intensive program.
func composeMix(r *trace.Rand, slot string, class trace.Class, copies int) workload.Mix {
	var apps []string
	if class == trace.MIX {
		for _, c := range []trace.Class{trace.MEM, trace.MID, trace.MIX, trace.ILP} {
			apps = append(apps, drawDistinct(r, appsByClass(c), 1, apps)...)
		}
	} else {
		apps = drawDistinct(r, appsByClass(class), 4, nil)
	}
	return workload.Mix{Name: slot, Class: class, Apps: apps, Copies: copies}
}

// mixKey identifies a composed mix in runner cache keys and digests.
func mixKey(m workload.Mix) string {
	return fmt.Sprintf("%s[%s]x%d", m.Name, strings.Join(m.Apps, "+"), m.Copies)
}

// platformMem is the paper's memory system with the channel count scaled to
// keep its four cores per channel.
func platformMem(cores int) memsys.Params {
	p := memsys.DefaultParams()
	p.Channels = (cores + 3) / 4
	return p
}

// sweepVariants is how many versions of the 16-mix sweep a run rotates
// through, so a run's figures rest on more than one draw per slot.
const sweepVariants = 6

// sweepMixes returns sweepVariants sweeps, each with one seed-composed mix
// per Table 1 slot (ILP1..MIX4) drawn from the slot's class.
func sweepMixes(seed uint64) [][]workload.Mix {
	r := newRand(seed, streamSweep)
	out := make([][]workload.Mix, sweepVariants)
	for v := range out {
		for _, name := range workload.Names() {
			out[v] = append(out[v], composeMix(r, name, workload.MustGet(name).Class, 4))
		}
	}
	return out
}

// manyCoreCopies replicates each of the four programs 256 times: 1024 cores.
const manyCoreCopies = 256

// manyCoreMixCount is how many mixes the many-core workload rotates
// through, so a run's figures rest on more than one draw.
const manyCoreMixCount = 16

// manyCoreMixes returns the many-core workload's seed-composed MIX-class
// mixes.
func manyCoreMixes(seed uint64) []workload.Mix {
	r := newRand(seed, streamMany)
	out := make([]workload.Mix, manyCoreMixCount)
	for i := range out {
		out[i] = composeMix(r, fmt.Sprintf("MANY%d", i+1), trace.MIX, manyCoreCopies)
	}
	return out
}

// fleetNode is one node of the capped fleet: its mix and the offset at which
// it starts replaying its recorded observation trace.
type fleetNode struct {
	ID     string
	Mix    workload.Mix
	Offset int
}

// fleetShape fixes the fleet: a 16-core and a 32-core node of each class.
// The shape and the classes are fixed so every seed asks for the same kind
// of capping work; the seed chooses each node's programs and phase offset.
var fleetShape = []struct {
	class  trace.Class
	copies int
}{
	{trace.ILP, 4}, {trace.MID, 4}, {trace.MEM, 4}, {trace.MIX, 4},
	{trace.ILP, 8}, {trace.MID, 8}, {trace.MEM, 8}, {trace.MIX, 8},
}

// fleetCount is how many fleets a run rotates through, so a run's figures
// rest on more than one draw per node.
const fleetCount = 4

// fleetNodes draws each fleet's node compositions and phase offsets.
func fleetNodes(seed uint64) [][]fleetNode {
	r := newRand(seed, streamFleet)
	out := make([][]fleetNode, fleetCount)
	for f := range out {
		for i, sh := range fleetShape {
			out[f] = append(out[f], fleetNode{
				ID:     fmt.Sprintf("node-%02d", i),
				Mix:    composeMix(r, fmt.Sprintf("F%dN%d", f, i), sh.class, sh.copies),
				Offset: int(r.Intn(fleetTraceLen)),
			})
		}
	}
	return out
}

// Serve request space: every (mix, policy, bound, budget) the clients may
// ask for — 16 × 7 × 201 × 3 cells, more than a run can exhaust, so new
// requests stay new for the whole run. Budgets are small so a cache miss
// costs about a millisecond.
var serveBudgets = []uint64{10_000_000, 20_000_000, 30_000_000}

// serveBounds returns the bounds 5%, 5.05%, ..., 15%.
func serveBounds() []float64 {
	out := make([]float64, 201)
	for i := range out {
		out[i] = 0.05 + 0.0005*float64(i)
	}
	return out
}

// servePolicies is the Figure 8/9 set plus the baseline.
func servePolicies() []string {
	out := []string{string(experiments.Baseline)}
	for _, p := range experiments.PracticalPolicies {
		out = append(out, string(p))
	}
	return out
}

const (
	// repeatShare is the probability that a request repeats an earlier
	// one. It is an assumption, not observed traffic; the measured cache
	// hit ratio is reported beside it.
	repeatShare = 0.7
	// repeatWindow bounds how far back a repeat reaches (in distinct
	// requests), keeping the repeated set inside the server's 256-entry
	// result cache.
	repeatWindow = 128
)

// serveRequests returns the first n requests of the seed's request
// sequence. A request either repeats one of the last repeatWindow distinct
// requests or takes the next unused cell of a seed-shuffled enumeration of
// the request space, so "new" requests are genuinely new.
func serveRequests(seed uint64, n int) []server.SimulateRequest {
	r := newRand(seed, streamServe)
	mixes := workload.Names()
	pols := servePolicies()
	bounds := serveBounds()
	space := make([]server.SimulateRequest, 0, len(mixes)*len(pols)*len(bounds)*len(serveBudgets))
	for _, m := range mixes {
		for _, p := range pols {
			for _, b := range bounds {
				for _, i := range serveBudgets {
					space = append(space, server.SimulateRequest{Workload: m, Policy: p, Bound: b, Instructions: i})
				}
			}
		}
	}
	next := 0
	var distinct []int // indices into out of each request's first occurrence
	out := make([]server.SimulateRequest, 0, n)
	for len(out) < n {
		if len(distinct) > 0 && (next == len(space) || r.Float64() < repeatShare) {
			lo := 0
			if len(distinct) > repeatWindow {
				lo = len(distinct) - repeatWindow
			}
			pick := distinct[lo+int(r.Intn(uint64(len(distinct)-lo)))]
			out = append(out, out[pick])
			continue
		}
		j := next + int(r.Intn(uint64(len(space)-next)))
		space[next], space[j] = space[j], space[next]
		distinct = append(distinct, len(out))
		out = append(out, space[next])
		next++
	}
	return out
}
