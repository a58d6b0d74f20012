package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coscale/internal/cache"
	"coscale/internal/experiments"
	"coscale/internal/policy"
	"coscale/internal/sim"
	"coscale/internal/workload"
)

// sweepPolicies is the Figure 8/9 column set: the baseline plus the six
// practical policies.
func sweepPolicies() []experiments.PolicyName {
	return append([]experiments.PolicyName{experiments.Baseline}, experiments.PracticalPolicies...)
}

// sweepGamma is the paper's slowdown bound, the default of every run here.
const sweepGamma = 0.10

// sweepSet is one version of the sweep: its mixes and reference outcomes.
type sweepSet struct {
	mixes []workload.Mix
	ref   []*experiments.Outcome // mix-major
}

// sweepWL is the paper-sweep workload: the Figure 8/9 sweep (16 mixes × 7
// policies at the paper's 100M-instruction budget) through one fresh
// experiments.Runner per sweep, rotating through seed-drawn versions.
type sweepWL struct {
	sets  []sweepSet
	next  int     // the set the next sweep runs
	cells dist    // traced-phase cell times, for the experiments layer
	reuse float64 // baselines served ÷ requested, last sweep
}

func (w *sweepWL) phases() int { return 1 }

// mutateMix substitutes the seed-composed mix for the Table 1 slot it is
// keyed under.
func mutateMix(m workload.Mix) func(*sim.Config) {
	return func(c *sim.Config) { c.Mix = m }
}

// sweep runs one full sweep on a fresh runner with lanes workers, calling
// each(i, outcome, ns) per cell; cells are numbered mix-major.
func sweep(rc *runCtx, tr *tracer, mixes []workload.Mix, each func(i int, o *experiments.Outcome, ns float64)) (*experiments.Runner, error) {
	pols := sweepPolicies()
	r := &experiments.Runner{Parallel: rc.lanes}
	root := tr.open("experiments.Sweep", 0)
	defer tr.close(root)
	n := len(mixes) * len(pols)
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for l := 0; l < rc.lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				m, p := mixes[i/len(pols)], pols[i%len(pols)]
				id := tr.open("experiments.Execute", root)
				start := time.Now()
				o, err := r.Execute(m.Name, p, mutateMix(m), mixKey(m))
				ns := float64(time.Since(start).Nanoseconds())
				tr.close(id)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s/%s: %w", mixKey(m), p, err)
				}
				if err == nil {
					each(i, o, ns)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return r, firstErr
}

func (w *sweepWL) setup(rc *runCtx) error {
	return rc.setup(func() error {
		w.sets, w.next = nil, 0
		llc := cache.NewShareModel(cache.DefaultSizeMB)
		mpki, n := 0.0, 0
		for _, mixes := range sweepMixes(rc.seed) {
			for _, m := range mixes {
				ch, err := m.Characterize(llc)
				if err != nil {
					return err
				}
				mpki += ch.MPKI
				n++
			}
			// The reference sweep: warms the process and fixes the outputs
			// every timed sweep of this set must reproduce bit for bit.
			set := sweepSet{mixes: mixes, ref: make([]*experiments.Outcome, len(mixes)*len(sweepPolicies()))}
			if _, err := sweep(rc, nil, mixes, func(i int, o *experiments.Outcome, _ float64) { set.ref[i] = o }); err != nil {
				return err
			}
			w.sets = append(w.sets, set)
		}
		rc.rep.note("sweep.mean_mpki", "1/kinstr", mpki/float64(n))
		return nil
	})
}

func (w *sweepWL) run(rc *runCtx, dur time.Duration, tr *tracer) (phase, error) {
	return timed(func(ph *phase) error {
		start := time.Now()
		deadline := start.Add(dur)
		var instr uint64
		for time.Now().Before(deadline) || len(ph.ops) < minSamples(tailQ) {
			set := &w.sets[w.next%len(w.sets)]
			w.next++
			begin := time.Now()
			r, err := sweep(rc, tr, set.mixes, func(i int, o *experiments.Outcome, ns float64) {
				if tr != nil {
					w.cells.add(ns)
				}
				ok := sameResult(o.Run, set.ref[i].Run) && sameResult(o.Base, set.ref[i].Base)
				rc.rep.check(ok, "sweep cell %d differs from the reference sweep", i)
				if o.Run != o.Base {
					instr += o.Run.TotalInstructions
				}
			})
			if err != nil {
				return err
			}
			ph.ops.since(begin)
			for i := range set.mixes {
				instr += set.ref[i*len(sweepPolicies())].Base.TotalInstructions
			}
			requested := float64(len(set.ref))
			w.reuse = (requested - float64(r.BaselineRuns())) / requested
		}
		rc.rep.note(prefix(tr)+"sim_minstr_per_s", "Minstr/s", float64(instr)/1e6/time.Since(start).Seconds())
		return nil
	})
}

func (w *sweepWL) finish(rc *runCtx) error {
	pols := sweepPolicies()
	var savings, worst float64
	n := 0
	for _, set := range w.sets {
		for mi, m := range set.mixes {
			for pi, p := range pols {
				o := set.ref[mi*len(pols)+pi]
				rc.rep.digest.str(mixKey(m))
				rc.rep.digest.result(o.Run)
				if p != experiments.CoScaleName {
					continue
				}
				d := o.WorstDegradation()
				rc.rep.check(d <= sweepGamma, "%s: CoScale worst slowdown %.4f exceeds γ=%.2f", mixKey(m), d, sweepGamma)
				savings += o.FullSavings()
				worst = max(worst, d)
				n++
			}
		}
	}
	rc.rep.set("energy_savings_pct", 100*savings/float64(n))
	rc.rep.set("worst_slowdown_pct", 100*worst)
	if !rc.trace {
		return nil
	}

	p50, p90, err := w.cells.quantiles(0.9, time.Millisecond)
	if err != nil {
		return fmt.Errorf("experiments.cell_ms: %w", err)
	}
	rc.rep.note("experiments.cell_p50_ms", "ms", p50)
	rc.rep.note("experiments.cell_p90_ms", "ms", p90)
	rc.rep.note("experiments.baseline_reuse", "ratio", w.reuse)

	// Substrate and controller layers: replay the cells on engines built
	// here, the policy wrapped in the timing probe, until the controller
	// layer has enough decisions. The wrapper must not change a single bit
	// of any cell, Offline's oracle cells included.
	pr := &probe{tr: rc.tr, maxRecs: 256}
	var tables policy.TableCache
	var eng engineTime
	for _, set := range w.sets {
		for mi, m := range set.mixes {
			for pi, p := range pols {
				ref := set.ref[mi*len(pols)+pi]
				res, err := eng.runCell(rc.tr, pr, &tables, sim.Config{Mix: m}, p)
				if err != nil {
					return err
				}
				rc.rep.check(sameResult(res, ref.Run), "%s/%s: wrapped policy changed the result", mixKey(m), p)
			}
		}
		if len(pr.decide) >= minSamples(0.9) {
			break
		}
	}
	return eng.report(rc, pr)
}

// engineTime runs cells on engines built by the benchmark so the time
// inside the policy can be split from the engine's own.
type engineTime struct {
	engineNs float64
	epochs   int
}

// runCell simulates one (config, policy) cell with the policy wrapped in pr.
func (e *engineTime) runCell(tr *tracer, pr *probe, tables *policy.TableCache, cfg sim.Config, p experiments.PolicyName) (*sim.Result, error) {
	pcfg := cfg.PolicyConfig()
	pcfg.Tables = tables
	pol, err := experiments.NewPolicy(p, pcfg)
	if err != nil {
		return nil, err
	}
	id := tr.open("sim.Run", 0)
	var tp *timedPolicy
	if pol != nil {
		tp = wrap(pol, pcfg, pr, id)
		cfg.Policy = tp.asPolicy()
	}
	eng, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := eng.Run()
	ns := float64(time.Since(start).Nanoseconds())
	tr.close(id)
	if err != nil {
		return nil, err
	}
	if tp != nil {
		ns -= tp.policyNs
	}
	e.engineNs += ns
	e.epochs += res.Epochs
	return res, nil
}

// report sets the substrate, controller, evaluator and solver metrics.
func (e *engineTime) report(rc *runCtx, pr *probe) error {
	rc.rep.set("sim.ns_per_epoch", e.engineNs/float64(e.epochs))
	rc.rep.set("sim.epochs", float64(e.epochs))
	return reportProbe(rc, pr)
}

// reportProbe sets the controller metrics harvested by the timing wrapper
// and the evaluator and solver metrics replayed from its records.
func reportProbe(rc *runCtx, pr *probe) error {
	p50, p90, err := pr.decide.quantiles(0.9, time.Microsecond)
	if err != nil {
		return fmt.Errorf("core.decide_us: %w", err)
	}
	rc.rep.set("core.decide_p50_us", p50)
	rc.rep.set("core.decide_p90_us", p90)
	if _, p99, err := pr.decide.quantiles(0.99, time.Microsecond); err == nil {
		rc.rep.note("core.decide_p99_us", "us", p99)
	}
	obs, err := pr.observe.median(time.Microsecond)
	if err != nil {
		return fmt.Errorf("core.observe_us: %w", err)
	}
	rc.rep.set("core.observe_us", obs)
	n := float64(pr.searches)
	rc.rep.set("core.moves_per_decide", float64(pr.moves)/n)
	rc.rep.set("core.evals_per_decide", float64(pr.evals)/n)
	rc.rep.set("core.core_evals_per_decide", float64(pr.coreEvals)/n)
	rc.rep.note("core.decisions", "count", n)

	var tables policy.TableCache
	for i := range pr.recs {
		pr.recs[i].cfg.Tables = &tables
	}
	ls, err := replayLayers(pr.recs, minSamples(0.9))
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name string
		d    dist
	}{{"policy.reset_us", ls.resetNs}, {"policy.evaluate_us", ls.evalNs}, {"perf.solve_us", ls.solveNs}} {
		v, err := m.d.median(time.Microsecond)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		rc.rep.set(m.name, v)
	}
	rc.rep.set("perf.iters_per_solve", medianOf(ls.iters))
	return nil
}
