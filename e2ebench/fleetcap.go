package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"coscale/internal/core"
	"coscale/internal/fastcap"
	"coscale/internal/policy"
	"coscale/internal/sim"
)

// fleetTraceLen is the length of each node's recorded observation trace and
// of one cycle of the budget trace, in rebalancing epochs.
const fleetTraceLen = 36

// fleetRecordBudget is the per-program budget of a node's recording run,
// long enough to yield fleetTraceLen CoScale decisions.
const fleetRecordBudget = 1_500_000_000

// fleetBudgetFrac is the -exp fastcap cap-event trace as a fraction of the
// fleet's provisioned power at epoch e of a cycle: steady 100% for the
// first third, a cut to 80%, and a transient dip to 60% for a sixth of the
// cycle starting at the final third.
func fleetBudgetFrac(e int) float64 {
	third := fleetTraceLen / 3
	switch {
	case e < third:
		return 1.0
	case e >= 2*third && e < 2*third+fleetTraceLen/6:
		return 0.6
	default:
		return 0.8
	}
}

// fleet is one capped fleet: its nodes, their recorded observation traces
// and the rebalancer that allocates its budget.
type fleet struct {
	nodes       []fleetNode
	cfgs        []policy.Config
	traces      [][]policy.Observation
	reb         *fastcap.Rebalancer
	provisioned float64
	first       [][]fastcap.NodeEpoch // the first cycle's outcomes
	obs         []policy.Observation  // scratch: this epoch's observations
}

// epochInputs fills f.obs for the fleet's rebalancing epoch e and returns
// its budget.
func (f *fleet) epochInputs(e int) float64 {
	for i, n := range f.nodes {
		f.obs[i] = f.traces[i][(n.Offset+e)%fleetTraceLen]
	}
	return f.provisioned * fleetBudgetFrac(e%fleetTraceLen)
}

// fleetWL is the fleet-cap workload: fair-strategy fastcap.Rebalancers,
// one per fleet of 16- and 32-core nodes, replaying per-node observation
// traces recorded in set-up from CoScale runs. Rebalancing epochs rotate
// through the fleets.
type fleetWL struct {
	fleets []*fleet

	engineNs float64 // set-up recording runs: engine time outside the policy
	epochs   int
	pr       *probe // traced set-up probe
}

func (w *fleetWL) phases() int { return 1 }

func (w *fleetWL) setup(rc *runCtx) error {
	w.pr = &probe{}
	return rc.setup(func() error {
		w.fleets = nil
		var tables policy.TableCache
		for _, nodes := range fleetNodes(rc.seed) {
			f := &fleet{
				nodes:  nodes,
				cfgs:   make([]policy.Config, len(nodes)),
				traces: make([][]policy.Observation, len(nodes)),
				reb:    fastcap.NewRebalancer(fastcap.Fair),
				obs:    make([]policy.Observation, len(nodes)),
			}
			for i, n := range nodes {
				cfg := sim.Config{Mix: n.Mix, Mem: platformMem(n.Mix.Cores()), InstrBudget: fleetRecordBudget}
				pcfg := cfg.PolicyConfig()
				pcfg.Tables = &tables
				trace, err := w.record(rc, cfg, pcfg)
				if err != nil {
					return fmt.Errorf("%s: %w", n.Mix.Name, err)
				}
				f.cfgs[i], f.traces[i] = pcfg, trace
				if err := f.reb.AddNode(n.ID, pcfg); err != nil {
					return err
				}
				f.provisioned += policy.NewEvaluator(pcfg, trace[n.Offset]).Baseline().Power.Total
			}
			w.fleets = append(w.fleets, f)
		}
		return nil
	})
}

// record runs CoScale on one node's mix and keeps the first fleetTraceLen
// profiling observations it decided on. The traced run also keeps the
// recording run's substrate and controller timings.
func (w *fleetWL) record(rc *runCtx, cfg sim.Config, pcfg policy.Config) ([]policy.Observation, error) {
	cs, err := core.New(pcfg)
	if err != nil {
		return nil, err
	}
	rec := &probe{tr: rc.tr, maxRecs: fleetTraceLen}
	id := rc.tr.open("sim.Run", 0)
	tp := wrap(cs, pcfg, rec, id)
	cfg.Policy = tp.asPolicy()
	eng, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := eng.Run()
	ns := float64(time.Since(start).Nanoseconds())
	rc.tr.close(id)
	if err != nil {
		return nil, err
	}
	if len(rec.recs) < fleetTraceLen {
		return nil, fmt.Errorf("recording run made %d decisions, need %d", len(rec.recs), fleetTraceLen)
	}
	if rc.trace {
		w.engineNs += ns - tp.policyNs
		w.epochs += res.Epochs
		w.pr.merge(rec)
	}
	out := make([]policy.Observation, fleetTraceLen)
	for i := range out {
		out[i] = rec.recs[i].obs
	}
	return out, nil
}

func (w *fleetWL) run(rc *runCtx, dur time.Duration, tr *tracer) (phase, error) {
	return timed(func(ph *phase) error {
		deadline := time.Now().Add(dur)
		outs := make([][]fastcap.NodeEpoch, len(w.fleets))
		n := len(w.fleets)
		for e := 0; time.Now().Before(deadline) || e < max(minSamples(tailQ), n*fleetTraceLen); e++ {
			f, fe := w.fleets[e%n], e/n
			budget := f.epochInputs(fe)
			id := tr.open("fastcap.Rebalancer.Epoch", 0)
			start := time.Now()
			out, err := f.reb.Epoch(budget, f.obs, outs[e%n][:0])
			ph.ops.since(start)
			tr.close(id)
			outs[e%n] = out
			rc.rep.check(err == nil, "fleet %d epoch %d: %v", e%n, fe, err)
			f.check(rc, fe, budget, out)
		}
		return nil
	})
}

// check verifies the cap: assignments sum to at most the budget, every
// unclamped node's predicted power fits its slice, and the outcome repeats
// the first cycle's bit for bit.
func (f *fleet) check(rc *runCtx, e int, budget float64, out []fastcap.NodeEpoch) {
	sum := 0.0
	for _, ne := range out {
		sum += ne.Assigned
		if !ne.Clamped {
			rc.rep.check(ne.Power <= ne.Assigned, "epoch %d %s: predicted %.3f W over its %.3f W slice", e, ne.ID, ne.Power, ne.Assigned)
		}
	}
	rc.rep.check(sum <= budget, "epoch %d: assigned %.6f W exceeds budget %.6f W", e, sum, budget)
	if len(f.first) < fleetTraceLen {
		f.first = append(f.first, append([]fastcap.NodeEpoch(nil), out...))
		return
	}
	ref := f.first[e%fleetTraceLen]
	same := len(ref) == len(out)
	for i := 0; same && i < len(out); i++ {
		a, b := ref[i], out[i]
		same = a.ID == b.ID && a.Clamped == b.Clamped &&
			math.Float64bits(a.Assigned) == math.Float64bits(b.Assigned) &&
			math.Float64bits(a.Power) == math.Float64bits(b.Power) &&
			math.Float64bits(a.MaxSlow) == math.Float64bits(b.MaxSlow)
	}
	rc.rep.check(same, "epoch %d differs from epoch %d of the first cycle", e, e%fleetTraceLen)
}

func (w *fleetWL) finish(rc *runCtx) error {
	// Simulated outcome of one budget cycle per fleet: predicted energy
	// saved against every node running all-max, and the mean over epochs
	// of the worst node's slowdown.
	var power, allMax, worstSum float64
	clamped, nodeEpochs, epochs := 0, 0, 0
	for _, f := range w.fleets {
		for e, out := range f.first {
			f.epochInputs(e)
			worst := 0.0
			for i, ne := range out {
				rc.rep.digest.str(f.nodes[i].Mix.Name)
				rc.rep.digest.f64(ne.Assigned)
				rc.rep.digest.f64(ne.Power)
				rc.rep.digest.f64(ne.MaxSlow)
				power += ne.Power
				allMax += policy.NewEvaluator(f.cfgs[i], f.obs[i]).Baseline().Power.Total
				worst = max(worst, ne.MaxSlow)
				if ne.Clamped {
					clamped++
				}
				nodeEpochs++
			}
			worstSum += worst
			epochs++
		}
	}
	rc.rep.set("energy_savings_pct", 100*(1-power/allMax))
	rc.rep.set("worst_slowdown_pct", 100*(worstSum/float64(epochs)-1))
	rc.rep.note("fleet.capped_worst_slowdown", "ratio", worstSum/float64(epochs))
	rc.rep.note("fastcap.clamped_ratio", "ratio", float64(clamped)/float64(nodeEpochs))

	// Frontier and capping layers, one call at a time on the node-epochs of
	// one budget cycle, epoch e taken from fleet e mod fleetCount. Every
	// frontier must be strictly Pareto.
	var b fastcap.Builder
	var alloc fastcap.Allocator
	var asg []fastcap.Assignment
	var build, capNs, allocNs dist
	var points, allocs []float64
	var ms runtime.MemStats
	for e := 0; e < fleetTraceLen; e++ {
		f := w.fleets[e%len(w.fleets)]
		budget := f.epochInputs(e)
		fronts := make([]fastcap.Frontier, len(f.nodes))
		nodes := make([]fastcap.Node, len(f.nodes))
		for i, n := range f.nodes {
			start := time.Now()
			err := b.Build(&fronts[i], f.cfgs[i], f.obs[i])
			build.since(start)
			if err != nil {
				return fmt.Errorf("build %s: %w", n.Mix.Name, err)
			}
			rc.rep.check(strictPareto(&fronts[i]), "epoch %d %s: frontier not strictly Pareto", e, n.Mix.Name)
			points = append(points, float64(fronts[i].Len()))
			nodes[i] = fastcap.Node{ID: n.ID, F: &fronts[i]}

			if !rc.trace {
				continue
			}
			pc, err := core.NewPowerCap(f.cfgs[i], f.first[e][i].Assigned)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			start = time.Now()
			_, err = pc.DecideCapped(f.obs[i])
			capNs.since(start)
			runtime.ReadMemStats(&ms)
			allocs = append(allocs, float64(ms.Mallocs-m0))
			if err != nil && !errors.Is(err, core.ErrCapInfeasible) {
				return err
			}
		}
		start := time.Now()
		var err error
		asg, err = alloc.Allocate(budget, nodes, asg[:0])
		allocNs.since(start)
		if err != nil {
			return fmt.Errorf("allocate: %w", err)
		}
	}
	if !rc.trace {
		return nil
	}
	b50, err := build.median(time.Millisecond)
	if err != nil {
		return err
	}
	rc.rep.note("fastcap.build_ms", "ms", b50)
	rc.rep.note("fastcap.frontier_points", "count", medianOf(points))
	c50, c90, err := capNs.quantiles(0.9, time.Millisecond)
	if err != nil {
		return fmt.Errorf("core.powercap_ms: %w", err)
	}
	rc.rep.note("core.powercap_p50_ms", "ms", c50)
	rc.rep.note("core.powercap_p90_ms", "ms", c90)
	rc.rep.note("core.powercap_allocs", "count", medianOf(allocs))
	a50, err := allocNs.median(time.Microsecond)
	if err != nil {
		return err
	}
	rc.rep.note("fastcap.allocate_us", "us", a50)

	rc.rep.set("sim.ns_per_epoch", w.engineNs/float64(w.epochs))
	rc.rep.set("sim.epochs", float64(w.epochs))
	return reportProbe(rc, w.pr)
}

// strictPareto reports whether a frontier's watts strictly rise while its
// slowdown strictly falls.
func strictPareto(f *fastcap.Frontier) bool {
	for i := 1; i < f.Len(); i++ {
		if !(f.Watts[i] > f.Watts[i-1]) || !(f.Slow[i] < f.Slow[i-1]) {
			return false
		}
	}
	return f.Len() > 0
}
