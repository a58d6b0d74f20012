// Package fastcap allocates a global power budget across the nodes of a
// simulated fleet — the FastCap direction (Liu, Cox, Deng, Draper,
// Bianchini; PAPERS.md): efficient *and fair* power capping, promoted from
// the single-node core.PowerCap controller to a datacenter-scale problem.
//
// Each node is summarized by a power/performance Frontier: the Pareto menu
// of (watts, worst slowdown) operating points the CoScale descent visits
// between all-max and all-min frequencies when every slowdown limit is
// lifted (core.FrontierWalk) — the same walk, group moves and memoized
// marginal kernel included, that core.PowerCap stops at its cap. It runs on
// the evaluator's table path (and, through policy.Config.Tables, the shared
// per-platform table cache — one platform-column build per process for the
// whole fleet). The Allocator then splits the budget over those
// menus: Fair runs max-min water-filling over normalized slowdown —
// repeatedly buying the next frontier step for whichever node is currently
// worst off — Greedy spends each watt where it buys the most slowdown
// reduction anywhere in the fleet, and Uniform is the static budget/N
// reference split. The Rebalancer ties the pieces into the epoch loop:
// rebuild frontiers as workload mixes shift, reallocate, then run each
// node's core.PowerCap against its assigned slice.
//
// Determinism is load-bearing (the package is in the determinism lint
// scope): identical inputs produce Float64bits-identical assignments
// regardless of node input order — all budget arithmetic and all
// worst-node selections run in sorted-node-ID order — and the steady-state
// Allocate path is allocation-free, like the rest of the hot path.
package fastcap

import (
	"fmt"

	"coscale/internal/core"
	"coscale/internal/perf"
	"coscale/internal/policy"
)

// Frontier is one node's Pareto power/performance menu. Points are ordered
// by strictly increasing watts and strictly decreasing worst slowdown:
// point 0 is the floor, the cheapest point the walk reaches (the
// all-minimum-frequency configuration, unless the lowest memory step
// congests enough to cost more power than the step above it) and the lowest
// cap core.PowerCap accepts; the last point is the cheapest configuration
// reaching the node's best slowdown (≈1, the all-max performance). Build one
// with a Builder.
type Frontier struct {
	Watts []float64 // predicted full-system power per point, ascending
	Slow  []float64 // predicted worst per-core slowdown per point, non-increasing

	steps [][]int // per-point core ladder steps
	mems  []int   // per-point memory ladder step
}

// Len returns the number of frontier points.
func (f *Frontier) Len() int { return len(f.Watts) }

// MinWatts returns the power of the floor, point 0.
func (f *Frontier) MinWatts() float64 { return f.Watts[0] }

// Point returns the operating point behind frontier index i. The returned
// slice aliases the frontier's storage; callers must not mutate it.
func (f *Frontier) Point(i int) (coreSteps []int, memStep int) {
	return f.steps[i], f.mems[i]
}

// Builder constructs frontiers, reusing every work array across builds so a
// per-epoch rebuild settles into zero allocations once scratch is warm —
// also when one Builder serves nodes of different core counts.
type Builder struct {
	walk core.FrontierWalk
	idx  []int // walk points sorted by watts
	keep []int // the Pareto subset of idx
}

// Build derives a node's frontier from its configuration and a profiling
// observation, writing into dst (grow-only scratch reuse). The walk is the
// CoScale descent with every slowdown limit lifted (core.FrontierWalk):
// starting from all-max it repeatedly takes the memory step or core group
// with the best Δpower/Δperformance utility, down to the all-minimum floor,
// which yields the marginal-utility-ordered chain the water-filling
// allocator climbs back up.
func (b *Builder) Build(dst *Frontier, cfg policy.Config, obs policy.Observation) error {
	if err := b.walk.Run(cfg, obs); err != nil {
		return fmt.Errorf("fastcap: %w", err)
	}
	watts, slow := b.walk.Watts(), b.walk.Slow()
	nVisited := len(watts)

	// Pareto-filter the visited set. The walk's watts are not strictly
	// monotone — shedding one core's frequency can relieve memory
	// contention enough to *improve* the worst slowdown — so visited
	// points are sorted by watts (stable insertion sort; the walk is
	// nearly sorted already) and swept keeping only strict improvements:
	// watts strictly ascending, slowdown strictly decreasing.
	b.idx = perf.Grow(b.idx, nVisited)
	for i := range b.idx {
		b.idx[i] = nVisited - 1 - i // reverse: roughly ascending watts
	}
	for i := 1; i < nVisited; i++ {
		for j := i; j > 0 && watts[b.idx[j]] < watts[b.idx[j-1]]; j-- {
			b.idx[j], b.idx[j-1] = b.idx[j-1], b.idx[j]
		}
	}
	b.keep = b.keep[:0]
	for _, id := range b.idx {
		if len(b.keep) > 0 {
			last := b.keep[len(b.keep)-1]
			if watts[id] <= watts[last] || slow[id] >= slow[last] {
				continue
			}
		}
		b.keep = append(b.keep, id)
	}

	nPoints := len(b.keep)
	dst.Watts = perf.Grow(dst.Watts, nPoints)
	dst.Slow = perf.Grow(dst.Slow, nPoints)
	dst.mems = perf.Grow(dst.mems, nPoints)
	dst.steps = perf.Grow(dst.steps, nPoints)
	for i, id := range b.keep {
		steps, mem := b.walk.Point(id)
		dst.Watts[i] = watts[id]
		dst.Slow[i] = slow[id]
		dst.mems[i] = mem
		dst.steps[i] = perf.Grow(dst.steps[i], len(steps))
		copy(dst.steps[i], steps)
	}
	return nil
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) over the given
// values: 1 when all are equal, approaching 1/n as one value dominates.
// An empty or all-zero input returns 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum, sq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq <= 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
