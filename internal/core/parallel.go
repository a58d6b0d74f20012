package core

import (
	"runtime"

	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
)

// Parallel candidate scoring: rebuildCoreList/repairCoreList shard their
// per-core marginal evaluation across a persistent set of worker lanes.
//
// Determinism argument (DESIGN.md §11): a scan's shard boundaries are a pure
// function of (item count, lane count) — never of timing — and every item j
// is evaluated by exactly one lane into the fixed output slot out[j], by the
// same marginalFor kernel the serial path runs over the same read-only
// snapshot. The coordinator compacts the slots in index order after the
// channel join, which reproduces exactly the serial path's append order, so
// the list handed to the single sort — and therefore every later decision —
// is identical at any parallelism, bit for bit.

// Scan modes: what the item index j denotes.
const (
	scanRebuild = iota // j is a core index (full eligibility rebuild)
	scanRepair         // j indexes the moved prefix of st.coreList
)

// minParallelItems is the default fan-out threshold: below it the coordinator
// runs the whole scan inline — per-scan channel signalling costs more than a
// few hundred kernel evaluations. The threshold only chooses who executes the
// kernel, never what it computes, so crossing it cannot change results.
// Options.MinParallelItems overrides it at construction (DESIGN.md §11
// documents the tuning procedure); tests lower CoScale.minParallel directly
// to force fan-out at small core counts.
const minParallelItems = 192

// scanCtx is the per-scan snapshot every lane reads: the walk state the
// kernel scores against, hoisted once by setupScan. All fields are read-only
// between the coordinator's fan-out and the channel join; lanes write only
// their own scanOut slots and scanEvals counter.
type scanCtx struct {
	mode  int
	items int
	lanes int // lanes participating in the current scan (1 = inline)

	steps     []int     // st.steps (current per-core ladder positions)
	base      []float64 // all-max baseline TPI per core
	lat       float64   // current joint memory latency
	cpuScale  float64
	useTables bool
	tbl       *perf.StepTable
	ptbl      *power.CoreTable
	ev        *policy.Evaluator // direct-path model access (DisableTables)

	// Warm-start signature source (warm.go), hoisted only when the
	// controller records marginal snapshots (Options.WarmStart).
	stats []perf.CoreStats // ev.Stats(): per-core counter-derived statistics
}

// shardRunner is what a worker lane executes: one fixed shard of the
// current scan. CoScale (marginal scans) and Batcher (batched decisions)
// implement it.
type shardRunner interface {
	runShard(shard int)
}

// workerPool is a persistent set of worker goroutines executing fixed
// shards on demand. The pool is owned by its controller (or Batcher) but
// the lanes reference only the pool — never the owner — so an owner that is
// dropped without Close can still be collected; its finalizer releases the
// lanes. Lanes are started lazily on the first fan-out.
type workerPool struct {
	lanes   int
	job     chan int      // shard assignments to the worker lanes
	done    chan struct{} // one completion token per assigned shard
	stop    chan struct{} // closed to terminate the lanes
	run     shardRunner   // the scan in flight; nil between scans
	started bool
	closed  bool
}

func newWorkerPool(lanes int) *workerPool {
	return &workerPool{
		lanes: lanes,
		job:   make(chan int),
		done:  make(chan struct{}),
		stop:  make(chan struct{}),
	}
}

// resolveLanes maps an Options.Parallelism value to a lane count:
// 0 means GOMAXPROCS at construction time, anything below 1 is serial.
func resolveLanes(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// scatter runs r.runShard(s) for every shard 0..shards-1 (shards <= lanes):
// shards 1.. on the worker lanes, shard 0 on the calling goroutine,
// returning only after one completion token per assigned shard. The channel
// send happens-before the lane's read of the scan state, and the lane's
// writes happen-before the coordinator's receive — the only synchronization
// a scan needs.
//
//hot:path
func (p *workerPool) scatter(r shardRunner, shards int) {
	p.run = r
	if !p.started {
		p.start()
	}
	for s := 1; s < shards; s++ {
		p.job <- s
	}
	r.runShard(0)
	for s := 1; s < shards; s++ {
		<-p.done
	}
	p.run = nil // lanes must not pin the owner between scans
}

// start launches the persistent worker lanes (once per pool).
func (p *workerPool) start() {
	p.started = true
	for i := 1; i < p.lanes; i++ {
		//lint:ignore dettaint deterministic by construction: every lane evaluates a fixed index shard of a read-only snapshot into fixed per-index output slots, and the coordinator merges the slots in index order only after the channel join — scheduling order cannot reach any output bit (DESIGN.md §11)
		go p.worker()
	}
}

// worker is one lane's loop: execute assigned shards until the pool closes.
func (p *workerPool) worker() {
	for {
		select {
		case s := <-p.job:
			p.run.runShard(s)
			p.done <- struct{}{}
		case <-p.stop:
			return
		}
	}
}

// close terminates the lanes. Idempotent; must not race an in-flight
// scatter (owners call it from Close, after their last decision).
func (p *workerPool) close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.stop)
}

// attachPool equips a freshly constructed controller with its worker lanes
// (started lazily, on the first fan-out). A finalizer backstops Close so a
// controller dropped without closing cannot leak its lanes — safe because
// the lanes reference only the pool, never the controller (scatter clears
// run between scans), so the controller itself stays collectible.
func (c *CoScale) attachPool(parallelism int) {
	lanes := resolveLanes(parallelism)
	if lanes <= 1 {
		return
	}
	c.pool = newWorkerPool(lanes)
	c.scanEvals = make([]int, lanes)
	runtime.SetFinalizer(c, (*CoScale).Close)
}

// Close releases the controller's worker lanes. Safe on a serial controller
// and idempotent; must not be called concurrently with Decide.
func (c *CoScale) Close() {
	if c.pool != nil {
		c.pool.close()
		runtime.SetFinalizer(c, nil)
	}
}

// runScan evaluates the per-core marginals for the given scan over items
// slots: inline when the pool is absent or the scan is small, sharded
// across the lanes otherwise. Either way every slot of c.scanOut[:items]
// holds item j's marginal (core < 0 = ineligible) on return, and
// stats.CoreEvals grows by the number of kernel evaluations — summed over
// the per-lane counters after the join, so the count is race-free and
// identical to the serial path's.
//
//hot:path
func (c *CoScale) runScan(ev *policy.Evaluator, st *searchState, mode, items int) {
	c.setupScan(ev, st, mode, items)
	c.scanOut = perf.Grow(c.scanOut, items)
	p := c.pool
	min := c.minParallel
	if min <= 0 {
		min = minParallelItems
	}
	if p == nil || items < min {
		c.sc.lanes = 1
		c.stats.CoreEvals += c.scanRange(0, items)
		return
	}
	if c.sc.useTables {
		// The lazy first-use column build in TPIPairAt is a data race under
		// fan-out; materialize every column up front. Column contents are a
		// pure function of the epoch's statistics, so eager building is
		// bit-identical (perf.StepTable.Prebuild).
		c.sc.tbl.Prebuild()
	}
	lanes := p.lanes
	if lanes > items {
		lanes = items
	}
	c.sc.lanes = lanes
	c.scanEvals = perf.Grow(c.scanEvals, lanes)
	p.scatter(c, lanes)
	total := 0
	for _, e := range c.scanEvals[:lanes] {
		total += e
	}
	c.stats.CoreEvals += total
}

// setupScan hoists the walk state the kernel reads into the per-scan
// snapshot. Within one scan every hoisted value is constant (the walk
// mutates st only between scans), so hoisting is exact.
//
//hot:path
func (c *CoScale) setupScan(ev *policy.Evaluator, st *searchState, mode, items int) {
	sc := &c.sc
	sc.mode = mode
	sc.items = items
	sc.steps = st.steps
	sc.base = ev.BaselineTPI()
	sc.lat = st.cur.MemLoad.Latency
	cpuScale := c.cfg.Power.CPUScale
	if cpuScale <= 0 {
		cpuScale = 1
	}
	sc.cpuScale = cpuScale
	sc.useTables = ev.UseTables
	sc.ev = ev
	if ev.UseTables {
		sc.tbl, sc.ptbl = ev.Tables()
	}
	if c.warmRec {
		sc.stats = ev.Stats()
	}
}

// runShard implements shardRunner: lane s evaluates its fixed contiguous
// index range [s·items/lanes, (s+1)·items/lanes) into the fixed output
// slots, depositing its private evaluation count in scanEvals[s].
//
//hot:path
func (c *CoScale) runShard(s int) {
	items, lanes := c.sc.items, c.sc.lanes
	c.scanEvals[s] = c.scanRange(s*items/lanes, (s+1)*items/lanes)
}

// scanRange runs the marginal kernel over items [lo, hi), writing each
// result (or the core = -1 ineligible sentinel) into its fixed slot and
// returning how many items were actually evaluated (non-bottom steps).
//
//hot:path
func (c *CoScale) scanRange(lo, hi int) int {
	out := c.scanOut
	evals := 0
	if c.sc.mode == scanRepair {
		list := c.st.coreList
		for j := lo; j < hi; j++ {
			m, evaluated := c.marginalFor(int(list[j].core), int32(j))
			out[j] = m
			if evaluated {
				evals++
			}
		}
		return evals
	}
	for j := lo; j < hi; j++ {
		m, evaluated := c.marginalFor(j, 0)
		out[j] = m
		if evaluated {
			evals++
		}
	}
	return evals
}
