package main

import (
	"fmt"
	"time"

	"coscale/internal/core"
	"coscale/internal/policy"
	"coscale/internal/sim"
)

// manyBudget is the per-program instruction budget of one many-core pass:
// about 22 control epochs at 1024 cores.
const manyBudget = 75_000_000

// manyCell is one 1024-core mix with its engine and controller.
type manyCell struct {
	key  string
	pcfg policy.Config
	base *sim.Result // the no-DVFS reference run
	eng  *sim.Engine
	cs   *core.CoScale
	ref  *sim.Result // the reference CoScale pass
}

// manyWL is the many-core workload: seed-composed MIX-class mixes on 1024
// cores (256 copies of each program, 256 memory channels), each in one
// sim.Engine under default-option CoScale, re-run in rotation.
type manyWL struct {
	cells []*manyCell
	next  int // the cell the next pass runs

	engineNs float64 // traced phase: engine time outside the policy
	epochs   int
	pr       *probe // traced phase probe
}

func (w *manyWL) phases() int { return 3 }

func (w *manyWL) setup(rc *runCtx) error {
	return rc.setup(func() error {
		w.cells, w.next = nil, 0
		for _, mix := range manyCoreMixes(rc.seed) {
			cfg := sim.Config{Mix: mix, Mem: platformMem(mix.Cores()), InstrBudget: manyBudget}
			c := &manyCell{key: mixKey(mix), pcfg: cfg.PolicyConfig()}
			base, err := sim.New(cfg)
			if err != nil {
				return err
			}
			if c.base, err = base.Run(); err != nil {
				return fmt.Errorf("%s baseline: %w", c.key, err)
			}
			if c.cs, err = core.New(c.pcfg); err != nil {
				return err
			}
			cfg.Policy = c.cs
			if c.eng, err = sim.New(cfg); err != nil {
				return err
			}
			// The reference pass, which every timed pass must repeat;
			// it also leaves the engine warm.
			if c.ref, err = c.eng.Run(); err != nil {
				return fmt.Errorf("%s: %w", c.key, err)
			}
			w.cells = append(w.cells, c)
		}
		return nil
	})
}

func (w *manyWL) run(rc *runCtx, dur time.Duration, tr *tracer) (phase, error) {
	pr := &probe{tr: tr, decide: make(dist, 0, 1<<14), observe: make(dist, 0, 1<<14)}
	if tr != nil {
		pr.maxRecs = 32
		w.pr = pr
	}
	var instr uint64
	ph, err := timed(func(ph *phase) error {
		deadline := time.Now().Add(dur)
		// decide_p99_us, beside op_tail_ms, needs its own ten beyond.
		for time.Now().Before(deadline) || len(pr.decide) < minSamples(0.99) {
			c := w.cells[w.next%len(w.cells)]
			w.next++
			id := tr.open("sim.Run", 0)
			tp := wrap(c.cs, c.pcfg, pr, id)
			c.eng.Reset()
			c.cs.Reset()
			c.eng.SetPolicy(tp.asPolicy())
			start := time.Now()
			res, err := c.eng.Run()
			ns := float64(time.Since(start).Nanoseconds())
			tr.close(id)
			if err != nil {
				return fmt.Errorf("%s: %w", c.key, err)
			}
			rc.rep.check(sameResult(res, c.ref), "%s: pass differs from the reference pass", c.key)
			instr += res.TotalInstructions
			if tr != nil {
				w.engineNs += ns - tp.policyNs
				w.epochs += res.Epochs
			}
		}
		ph.ops = pr.decide
		return nil
	})
	rc.rep.note(prefix(tr)+"sim_minstr_per_s", "Minstr/s", float64(instr)/1e6/ph.wall)
	if p50, p99, err := ph.ops.quantiles(0.99, time.Microsecond); err == nil {
		rc.rep.note(prefix(tr)+"decide_p50_us", "us", p50)
		rc.rep.note(prefix(tr)+"decide_p99_us", "us", p99)
	}
	return ph, err
}

func (w *manyWL) finish(rc *runCtx) error {
	var savings, worst float64
	for _, c := range w.cells {
		rc.rep.digest.str(c.key)
		rc.rep.digest.result(c.base)
		rc.rep.digest.result(c.ref)
		slow := maxOf(slowdowns(c.ref, c.base))
		rc.rep.check(slow <= c.pcfg.Gamma, "%s: CoScale worst slowdown %.4f exceeds γ=%.2f", c.key, slow, c.pcfg.Gamma)
		savings += 1 - c.ref.Energy.Total()/c.base.Energy.Total()
		worst = max(worst, slow)
	}
	rc.rep.set("energy_savings_pct", 100*savings/float64(len(w.cells)))
	rc.rep.set("worst_slowdown_pct", 100*worst)
	if !rc.trace {
		return nil
	}
	rc.rep.set("sim.ns_per_epoch", w.engineNs/float64(w.epochs))
	rc.rep.set("sim.epochs", float64(w.epochs))
	return reportProbe(rc, w.pr)
}
