// Package core implements CoScale, the paper's contribution: a greedy
// gradient-descent search over per-core and memory-subsystem frequency
// settings that minimizes full-system energy (SER, Eq. 2) while keeping
// every program inside its accumulated performance slack.
//
// The search is the algorithm of Figure 2. Starting with every component at
// maximum frequency, it repeatedly estimates the marginal utility
// (Δpower/Δperformance) of lowering either the memory subsystem or a group
// of cores by one step and greedily takes the most beneficial move, as long
// as some move keeps every program within its slack. Core groups are formed
// by the sub-algorithm of Figure 3: cores eligible for scaling are kept in a
// list sorted ascending by the performance cost of their next step, and the
// N prefixes of that list are the candidate groups. Group moves are what
// keep the search out of the local minimum where memory frequency — whose
// first step usually beats scaling any single core — is always taken first.
//
// Marginal utilities are cached exactly as in Figure 2: the memory marginal
// is recomputed only when the memory frequency changed, and core marginals
// only for cores whose frequency changed, giving the paper's
// O(M + C·N²) complexity instead of the brute-force M·C^N.
//
// The descent is the package's only greedy walk. Its stop rule selects the
// goal: minimum SER within the slowdown bound (CoScale), the first point
// under a power cap (PowerCap, powercap.go), or every accepted point with
// the limits lifted (FrontierWalk, the FastCap frontier).
package core

import (
	"math"
	"slices"

	"coscale/internal/perf"
	"coscale/internal/policy"
)

// Options tune CoScale variants used by the ablation studies.
type Options struct {
	// DisableGrouping restricts core moves to single cores (group size
	// 1), demonstrating the local-minimum pathology §3.1 warns about.
	DisableGrouping bool
	// DisableMarginalCache recomputes every marginal on every iteration,
	// for measuring the value of the Figure 2 caching.
	DisableMarginalCache bool
	// DisableTables evaluates candidates directly instead of through the
	// memoized per-epoch prediction tables (DESIGN.md §10) — bit-identical
	// by construction, so this exists for the cross-check property test and
	// for measuring the tables' speedup, not as a behavioral variant.
	DisableTables bool
	// Parallelism is the number of lanes the marginal scans shard across
	// (DESIGN.md §11): 0 resolves to runtime.GOMAXPROCS(0) at construction,
	// and any value <= 1 keeps the serial path — the ablation baseline and
	// the right setting for many controllers sharing a machine (the serve
	// worker pool already fills the cores with concurrent decisions).
	// Decisions are bit-identical at every setting.
	Parallelism int
	// MinParallelItems is the fan-out floor for the sharded scans: scans
	// with fewer items run inline on the caller because the per-scan
	// channel handshake costs more than a few hundred kernel evaluations.
	// 0 keeps the built-in default (192, estimated on a single-CPU box —
	// DESIGN.md §11 documents the re-tuning procedure for multicore
	// hosts). The floor only chooses who executes the kernel, never what
	// it computes, so any setting is bit-identical.
	MinParallelItems int
	// WarmStart seeds each epoch's search from the previous epoch's
	// accepted solution when the phase detector classifies the epoch as
	// stable, re-scoring only cores whose counters moved (warm.go;
	// DESIGN.md §14). The warm seed is always re-validated against the
	// slowdown bound with the full evaluator; a failed validation or a
	// phase break falls back to the cold full search.
	WarmStart bool
	// PhaseEpsilon is the relative counter-delta threshold of the warm-
	// start phase detector: a per-core signature (CPI, memory traffic per
	// instruction) moving by more than this fraction marks the core
	// as changed, and too many changed cores (or an aggregate memory
	// traffic/latency shift) breaks the phase. 0 means the default 0.05.
	PhaseEpsilon float64
}

// SearchStats counts the work of the most recent Decide call's search walk,
// for benchmarks and telemetry. Moves is the number of committed frequency
// moves (iterations that applied a core-group or memory step); Evals is the
// number of full joint-model evaluations the walk ran (one per candidate
// memory marginal and one per committed group move). Per-move cost —
// ns/op divided by Moves — is the scaling figure of merit: the number of
// moves grows with the core count, so total Decide time conflates walk
// length with per-step cost (DESIGN.md §10). CoreEvals is the number of
// per-core local marginal evaluations the eligibility scans ran (rebuild +
// repair, bottom-step cores excluded); under parallel scans it is summed
// from per-lane counters after the join, so it is race-free and equal to
// the serial path's count at any parallelism.
// The warm-start counters record the decision's outcome when
// Options.WarmStart is on (warm.go): per Decide at most one of WarmHits and
// ColdSearches is 1, and WarmFallbacks additionally marks a cold search that
// was preceded by a failed warm attempt (the seed failed re-validation), so
// WarmFallbacks is a subset of ColdSearches. Controllers without WarmStart
// count every decision in ColdSearches. Consumers aggregate by summing
// across decisions (the serve layer exports the sums at /metrics).
type SearchStats struct {
	Moves     int
	Evals     int
	CoreEvals int

	WarmHits      int
	WarmFallbacks int
	ColdSearches  int
}

// SearchStats returns counters for the last Decide call's search.
func (c *CoScale) SearchStats() SearchStats { return c.stats }

// CoScale is the coordinated CPU+memory DVFS controller.
//
// A controller owns its decision-time scratch — evaluators, search state,
// slack/limit arrays — so Decide and Observe allocate nothing in steady
// state (DESIGN.md §7). The Decision returned by Decide aliases that
// scratch and is valid until the next Decide call.
type CoScale struct {
	cfg   policy.Config
	opts  Options
	slack *policy.SlackBook

	// last decision, re-used as the "settings in effect" for transitions.
	last policy.Decision

	// Steady-state scratch reused every epoch.
	ev       *policy.Evaluator // Decide-time evaluator, reset per call
	obsEv    *policy.Evaluator // Observe-time evaluator for the all-max reference
	st       searchState
	avail    []float64  // per-core slack
	limits   []float64  // per-core slowdown limits
	scaled   []float64  // limits with the WithinBound epsilon pre-applied
	best     []int      // best step vector found by the walk
	fresh    []coreMarg // repairCoreList scratch: moved cores' new marginals
	merged   []coreMarg // repairCoreList scratch: merge output
	tmax     []float64  // all-max reference times for slack accounting
	identity []int      // thread mapping fallback when ThreadIDs is nil

	// Parallel marginal scans (parallel.go). pool is nil when the
	// controller is serial (Options.Parallelism resolved to one lane).
	pool        *workerPool
	sc          scanCtx    // per-scan snapshot the lanes read
	scanOut     []coreMarg // fixed per-item output slots
	scanEvals   []int      // per-lane kernel-evaluation counts
	minParallel int        // fan-out threshold; 0 = minParallelItems (tests lower it)

	// Warm-start state (warm.go; active when opts.WarmStart).
	warmRec     bool        // record marginal snapshots during the scans
	phaseEps    float64     // resolved Options.PhaseEpsilon
	warmStride  int         // CoreLadder.Steps(): warmTab row width
	warmTab     []warmEntry // (core, step)-indexed marginal snapshots
	prevCPI     []float64   // previous Decide's per-core phase signature
	prevMPI     []float64
	prevMemRate float64 // previous Decide's aggregate memory signature
	prevMemLat  float64
	prevValid   bool // a previous signature exists (false after Reset)

	// The walk's stop rule (descend): which point the descent returns.
	goal    goal
	capW    float64 // goalCap: full-system power budget in watts
	minW    float64 // goalCap: lowest power among the points accepted
	bestMem int     // memory step of the point in best
	bestSER float64 // goalMinSER: SER of the point in best
	walk    walkLog // goalFrontier: every point the walk accepted

	stats SearchStats // work counters for the last Decide's search
}

// goal selects the stop rule of the one greedy descent. The walk itself —
// marginals, group moves, the joint-model backstop — is the same for every
// goal; only which accepted point it returns, and when it stops, differ.
type goal uint8

const (
	// goalMinSER is CoScale (Figure 2 lines 20-22): walk until no move
	// fits the slowdown bound and return the minimum-SER point reached.
	goalMinSER goal = iota
	// goalCap is PowerCap (§2.3): return the first accepted point whose
	// predicted full-system power is at or under capW.
	goalCap
	// goalFrontier is the FastCap frontier: record every accepted point
	// (limits lifted, so the walk runs from all-max to the all-min floor).
	goalFrontier
)

// New returns a CoScale controller for the given system, or the
// configuration's validation error.
func New(cfg policy.Config) (*CoScale, error) { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a CoScale controller with ablation options, or the
// configuration's validation error.
func NewWithOptions(cfg policy.Config, opts Options) (*CoScale, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NCores
	c := &CoScale{
		cfg:   cfg,
		opts:  opts,
		slack: policy.NewSlackBook(n, cfg.Gamma, cfg.Reserve),
		last:  policy.Decision{CoreSteps: policy.ZeroSteps(n)},
		ev:    &policy.Evaluator{UseTables: !opts.DisableTables},
		obsEv: &policy.Evaluator{UseTables: !opts.DisableTables},
		st: searchState{
			steps:    make([]int, n),
			coreList: make([]coreMarg, 0, n),
		},
		avail:    make([]float64, n),
		limits:   make([]float64, n),
		best:     make([]int, n),
		fresh:    make([]coreMarg, 0, n),
		merged:   make([]coreMarg, 0, n),
		tmax:     make([]float64, n),
		identity: make([]int, n),
		scanOut:  make([]coreMarg, n),
	}
	c.minParallel = opts.MinParallelItems
	c.initWarm()
	c.attachPool(opts.Parallelism)
	return c, nil
}

// Name implements policy.Policy.
func (c *CoScale) Name() string {
	switch {
	case c.opts.WarmStart:
		return "CoScale-Warm"
	case c.opts.DisableGrouping:
		return "CoScale-NoGrouping"
	case c.opts.DisableMarginalCache:
		return "CoScale-NoCache"
	case c.opts.DisableTables:
		return "CoScale-NoTables"
	default:
		return "CoScale"
	}
}

// Slack exposes the per-program slack trackers (for tests and telemetry).
func (c *CoScale) Slack() *policy.SlackBook { return c.slack }

// Reset returns the controller to its freshly constructed state — slack
// bookkeeping forgotten, last decision back at all-max — while keeping every
// scratch buffer, so repeated runs over one controller are bit-identical to
// runs over fresh controllers without reallocating (the Engine.Reset
// pattern; benchmarks use it to rewind between iterations).
func (c *CoScale) Reset() {
	c.slack.Reset()
	c.last.CoreSteps = perf.Grow(c.last.CoreSteps, c.cfg.NCores)
	clear(c.last.CoreSteps)
	c.last.MemStep = 0
	c.resetWarm()
}

// threadsFor returns the thread-on-core mapping without allocating
// (Observation.CoreThreads builds a fresh identity slice when ThreadIDs is
// nil; the controller keeps its own).
//
//hot:path
func (c *CoScale) threadsFor(obs policy.Observation) []int {
	if obs.ThreadIDs != nil {
		return obs.ThreadIDs
	}
	c.identity = perf.Grow(c.identity, len(obs.Cores))
	for i := range c.identity {
		c.identity[i] = i
	}
	return c.identity
}

// Observe implements policy.Policy: end-of-epoch slack accounting against
// the all-max reference, per §3 "Overall operation". The reference times are
// the evaluator's all-max baseline — the same numbers TMaxForEpoch computes,
// via the controller's persistent evaluator instead of a fresh one.
//
//hot:path
func (c *CoScale) Observe(epoch policy.Observation) {
	c.obsEv.Reset(c.cfg, epoch)
	base := c.obsEv.BaselineTPI()
	c.tmax = perf.Grow(c.tmax, len(epoch.Cores))
	for i := range epoch.Cores {
		c.tmax[i] = float64(epoch.Cores[i].Instructions) * base[i]
	}
	c.slack.RecordEpochFor(c.threadsFor(epoch), c.tmax, epoch.Window)
}

// Decide implements policy.Policy: the Figure 2 search. The returned
// Decision aliases the controller's scratch and is valid until the next
// Decide call; retain with Clone.
//
//hot:path
func (c *CoScale) Decide(obs policy.Observation) policy.Decision {
	c.ev.Reset(c.cfg, obs)
	c.avail = c.slack.AvailableInto(c.avail, c.threadsFor(obs))
	c.limits = c.cfg.LimitsInto(c.limits, c.avail)
	c.scaled = policy.ScaleLimits(c.scaled, c.limits)
	c.stats = SearchStats{}
	var d policy.Decision
	if c.opts.WarmStart {
		d = c.decideWarm(obs)
	} else {
		c.stats.ColdSearches = 1
		d, _ = c.search(c.ev)
	}
	c.last.CoreSteps = perf.Grow(c.last.CoreSteps, len(d.CoreSteps))
	copy(c.last.CoreSteps, d.CoreSteps)
	c.last.MemStep = d.MemStep
	return d
}

// searchState carries the walk's mutable state, persisting across decisions
// so its buffers are reused.
type searchState struct {
	steps   []int
	memStep int
	cur     policy.Eval

	// Cached marginals (Figure 2 lines 4-8).
	memValid  bool
	memMarg   marginal
	memEval   policy.Eval // post-move prediction backing the memory marginal
	coreValid bool
	coreList  []coreMarg // eligible cores sorted ascending by dTPI
}

// marginal is a candidate move's cost/benefit. A feasible memory marginal's
// post-move prediction lives in searchState.memEval.
type marginal struct {
	utility  float64 // Δpower / Δperformance
	dPower   float64
	dPerf    float64
	feasible bool
}

// coreMarg is the locally estimated marginal of stepping one core down.
// Kept to 32 bytes — the eligibility list is sorted and merged wholesale
// every group move, so element copies are on the search hot path.
type coreMarg struct {
	core   int32
	pos    int32   // repairCoreList tie-break key (insertion position)
	dTPI   float64 // seconds/instruction added by one step down
	dPerf  float64 // dTPI / baseline TPI (relative slowdown added)
	dPower float64 // watts saved by one step down
}

// search is the cold path: the full Figure 2 walk from the all-max point.
// The bool is descend's: whether the walk's goal stopped it.
//
//hot:path
func (c *CoScale) search(ev *policy.Evaluator) (policy.Decision, bool) {
	n := c.cfg.NCores
	st := &c.st
	st.steps = perf.Grow(st.steps, n)
	clear(st.steps)
	st.memStep = 0
	st.memValid, st.coreValid = false, false
	// The walk starts at the all-max point the evaluator already solved for
	// its baseline; copying it is bit-identical to re-evaluating zeros.
	ev.EvaluateBaselineInto(&st.cur)
	return c.descend(ev, st)
}

// descend runs the greedy walk from wherever st stands — the all-max point
// for the cold search, the re-validated previous solution for a warm start —
// and returns the configuration its goal selects (see stop). The bool
// reports whether the goal stopped the walk; false means the walk ran until
// no move fit the limits, which only matters to goalCap (the cap was not
// reached).
//
//hot:path
func (c *CoScale) descend(ev *policy.Evaluator, st *searchState) (policy.Decision, bool) {
	n := c.cfg.NCores
	c.best = perf.Grow(c.best, n)
	copy(c.best, st.steps)
	c.bestMem = st.memStep
	c.bestSER = st.cur.SER
	if c.stop(st) {
		return policy.Decision{CoreSteps: c.best, MemStep: c.bestMem}, true
	}

	maxIters := (c.cfg.MemLadder.Steps() + c.cfg.CoreLadder.Steps()*n) + 4
	for iter := 0; iter < maxIters; iter++ {
		if c.opts.DisableMarginalCache {
			st.memValid, st.coreValid = false, false
		}

		// Figure 2 lines 4-5: memory marginal, recomputed only on change.
		if !st.memValid {
			st.memMarg = c.memoryMarginal(ev, st)
			st.memValid = true
		}
		// Figure 2 lines 6-8 / Figure 3: core-group marginal.
		if !st.coreValid {
			c.rebuildCoreList(ev, st)
			st.coreValid = true
		}
		groupLen, groupMarg := c.bestGroup(st)

		memOK := st.memMarg.feasible
		coreOK := groupLen > 0

		switch {
		case memOK && coreOK:
			if st.memMarg.utility >= groupMarg.utility {
				c.applyMemory(st)
			} else {
				c.applyGroup(ev, st, groupLen)
			}
		case memOK:
			c.applyMemory(st)
		case coreOK:
			c.applyGroup(ev, st, groupLen)
		default:
			// Line 2: nothing can scale further.
			iter = maxIters
			continue
		}

		// Joint feasibility backstop: local core estimates are
		// conservative, but re-verify and revert if the joint model
		// disagrees (can happen right after a stale-cache move).
		if !policy.WithinBoundScaled(st.cur, c.scaled) {
			break
		}
		if c.stop(st) {
			return policy.Decision{CoreSteps: c.best, MemStep: c.bestMem}, true
		}
	}
	// Lines 21-22: the combination with the smallest SER wins.
	return policy.Decision{CoreSteps: c.best, MemStep: c.bestMem}, false
}

// stop is the walk's stop rule: it applies the controller's goal to the
// point the walk has just accepted (st.cur, inside the limits) and reports
// whether the walk ends there.
//
//hot:path
func (c *CoScale) stop(st *searchState) bool {
	switch c.goal {
	case goalCap:
		c.minW = min(c.minW, st.cur.Power.Total)
		if st.cur.Power.Total > c.capW {
			return false
		}
		copy(c.best, st.steps)
		c.bestMem = st.memStep
		return true
	case goalFrontier:
		c.walk.record(st)
		return false
	}
	// Line 20: record SER for the configuration just reached.
	if st.cur.SER < c.bestSER {
		c.bestSER = st.cur.SER
		copy(c.best, st.steps)
		c.bestMem = st.memStep
	}
	return false
}

// memoryMarginal evaluates one memory step down from the current state
// (full joint model — memory affects every core). The candidate prediction
// is left in st.memEval for applyMemory.
//
//hot:path
func (c *CoScale) memoryMarginal(ev *policy.Evaluator, st *searchState) marginal {
	if c.cfg.MemLadder.Bottom(st.memStep) {
		return marginal{}
	}
	c.stats.Evals++
	ev.EvaluateInto(&st.memEval, st.steps, st.memStep+1)
	if !policy.WithinBoundScaled(st.memEval, c.scaled) {
		return marginal{}
	}
	dPower := st.cur.Power.Total - st.memEval.Power.Total
	// Δperformance: the highest performance loss of any core (§3.1).
	dPerf := 0.0
	for i := range st.memEval.Slowdown {
		if d := st.memEval.Slowdown[i] - st.cur.Slowdown[i]; d > dPerf {
			dPerf = d
		}
	}
	return marginal{utility: utility(dPower, dPerf), dPower: dPower, dPerf: dPerf,
		feasible: true}
}

// rebuildCoreList recomputes the Figure 3 eligibility list from scratch into
// st.coreList. (Incremental repair after a group move is handled by
// repairCoreList; a full rebuild happens only on the first iteration or with
// caching disabled.) The marginal scan runs through runScan — serial or
// sharded per Options.Parallelism — into fixed per-core slots; compacting
// the slots in core-index order below reproduces exactly the serial append
// order, so the sort input is identical at any parallelism.
//
//hot:path
func (c *CoScale) rebuildCoreList(ev *policy.Evaluator, st *searchState) {
	n := c.cfg.NCores
	c.runScan(ev, st, scanRebuild, n)
	list := st.coreList[:0]
	for j := 0; j < n; j++ {
		if c.scanOut[j].core >= 0 {
			list = append(list, c.scanOut[j])
		}
	}
	st.coreList = list
	// Unstable sort ascending by dTPI. cmpDTPI's less-than outcomes are
	// exactly the comparisons sort.Sort's Less-based pdqsort would make, and
	// both run the same pdqsort template, so the resulting permutation —
	// including how dTPI ties land — is unchanged; SortFunc just avoids the
	// interface-dispatch Swap/Less of a sort.Interface.
	slices.SortFunc(st.coreList, cmpDTPI)
}

// cmpDTPI orders core marginals ascending by dTPI (ties compare equal).
func cmpDTPI(a, b coreMarg) int {
	switch {
	case a.dTPI < b.dTPI:
		return -1
	case b.dTPI < a.dTPI:
		return 1
	default:
		return 0
	}
}

// marginalFor is the marginal-scan kernel: it locally estimates the effect
// of stepping core i down once, holding the memory system at the scan
// snapshot's modelled latency (c.sc, hoisted by setupScan). Both the serial
// and the sharded executors run exactly this kernel over exactly this
// snapshot, which is what makes the parallel scan bit-identical. An
// ineligible core returns the core = -1 sentinel so the result can occupy a
// fixed output slot; the bool reports whether the kernel evaluated the core
// at all (false only at the ladder bottom), which feeds SearchStats.CoreEvals.
//
//hot:path
func (c *CoScale) marginalFor(i int, pos int32) (coreMarg, bool) {
	sc := &c.sc
	step := sc.steps[i]
	if c.cfg.CoreLadder.Bottom(step) {
		return coreMarg{core: -1}, false
	}
	if c.warmRec {
		// Kernel-level memoization across epochs (warm.go): a snapshot of
		// this (core, step) whose counter signature still matches is reused
		// — with a fresh bound recheck — instead of re-scored.
		if m, handled := c.warmReuse(i, step, pos); handled {
			return m, false
		}
	}
	lat := sc.lat
	var tpiCur, tpiNext, pCur, pNext float64
	if sc.useTables {
		// Memoized path: the pair lookup computes the shared latency term
		// once and is bit-identical to the direct CoreStats.TPI/
		// CoreModel.Power calls below (DESIGN.md §10).
		tpiCur, tpiNext = sc.tbl.TPIPairAt(i, step, lat)
	} else {
		stats := sc.ev.Stats()[i]
		tpiCur = stats.TPI(c.cfg.CoreLadder.Hz(step), lat)
		tpiNext = stats.TPI(c.cfg.CoreLadder.Hz(step+1), lat)
	}
	base := sc.base[i]
	slowAfter := tpiNext / base
	if slowAfter > c.scaled[i] {
		if c.warmRec {
			c.recordWarm(i, step, tpiCur, tpiNext, 0, warmBoundLimited)
		}
		return coreMarg{core: -1}, true
	}
	if sc.useTables {
		pCur = sc.ptbl.PowerAt(step, i, 1/tpiCur)
		pNext = sc.ptbl.PowerAt(step+1, i, 1/tpiNext)
	} else {
		mix := sc.ev.ObsCore(i).Mix
		pCur = c.cfg.Power.Core.Power(c.cfg.CoreLadder.Volts(step), c.cfg.CoreLadder.Hz(step), 1/tpiCur, mix)
		pNext = c.cfg.Power.Core.Power(c.cfg.CoreLadder.Volts(step+1), c.cfg.CoreLadder.Hz(step+1), 1/tpiNext, mix)
	}
	dPower := (pCur - pNext) * sc.cpuScale
	if c.warmRec {
		c.recordWarm(i, step, tpiCur, tpiNext, dPower, warmEligible)
	}
	return coreMarg{
		core:   int32(i),
		pos:    pos,
		dTPI:   tpiNext - tpiCur,
		dPerf:  (tpiNext - tpiCur) / base,
		dPower: dPower,
	}, true
}

// bestGroup runs Figure 3 lines 3-7: consider the prefixes of the sorted
// eligibility list as groups and return the length of the one with the
// largest marginal utility (0 = no eligible group).
//
//hot:path
func (c *CoScale) bestGroup(st *searchState) (int, marginal) {
	if len(st.coreList) == 0 {
		return 0, marginal{}
	}
	limit := len(st.coreList)
	if c.opts.DisableGrouping {
		limit = 1
	}
	bestU := math.Inf(-1)
	bestI := -1
	sumPower := 0.0
	var bestMarg marginal
	for i := 0; i < limit; i++ {
		sumPower += st.coreList[i].dPower
		dPerf := st.coreList[i].dPerf // worst in group: list is sorted ascending
		u := utility(sumPower, dPerf)
		if u > bestU {
			bestU, bestI = u, i
			bestMarg = marginal{utility: u, dPower: sumPower, dPerf: dPerf, feasible: true}
		}
	}
	return bestI + 1, bestMarg
}

// applyMemory commits a one-step memory reduction (already evaluated):
// the candidate prediction in st.memEval becomes the current state, and the
// old current Eval's buffers are recycled as the next candidate scratch.
//
//hot:path
func (c *CoScale) applyMemory(st *searchState) {
	c.stats.Moves++
	st.memStep++
	st.cur, st.memEval = st.memEval, st.cur
	st.memValid = false // memory frequency changed: marginal stale
	// Core marginals are deliberately NOT invalidated (Figure 2 line 6
	// recomputes them only when a core frequency changes) — but their
	// latency assumption is refreshed lazily through the joint st.cur.
}

// applyGroup commits a one-step reduction for the first groupLen cores of
// the sorted eligibility list, then repairs the list (Figure 3 lines 1-2).
//
//hot:path
func (c *CoScale) applyGroup(ev *policy.Evaluator, st *searchState, groupLen int) {
	for i := 0; i < groupLen; i++ {
		st.steps[int(st.coreList[i].core)]++
	}
	c.stats.Moves++
	c.stats.Evals++
	ev.EvaluateInto(&st.cur, st.steps, st.memStep)
	st.memValid = false // traffic changed; memory marginal must be re-evaluated
	c.repairCoreList(ev, st, groupLen)
}

// repairCoreList removes the moved cores and re-inserts their fresh
// marginals, keeping the ascending dTPI order without a full sort. The
// moved cores are always the first groupLen entries of the list (groups are
// prefixes of the sorted eligibility list, Figure 3), so the kept survivors
// are simply the tail beyond the prefix — no membership flags or compaction
// pass needed. The result is element-for-element identical to inserting
// each fresh marginal (in prefix order) at the first position whose dTPI is
// >= its own — the original one-at-a-time repair — but costs one merge pass
// instead of an O(moved·cores) cascade of insertion copies: under that
// insertion rule a fresh marginal lands before every equal-dTPI element
// already present, so equal-dTPI fresh marginals end up in reverse moved
// order and ahead of equal-dTPI kept ones, which is exactly what the
// reversed-order stable sort plus the fresh-first-on-ties merge below
// produce.
//
//hot:path
func (c *CoScale) repairCoreList(ev *policy.Evaluator, st *searchState, groupLen int) {
	kept := st.coreList[groupLen:]
	// Scan the moved prefix through the same fixed-slot machinery as the
	// rebuild (the kernel reads st.coreList[j].core and stamps pos = j);
	// compacting in slot order reproduces the serial append order exactly.
	c.runScan(ev, st, scanRepair, groupLen)
	fresh := c.fresh[:0]
	for j := 0; j < groupLen; j++ {
		if c.scanOut[j].core >= 0 {
			fresh = append(fresh, c.scanOut[j])
		}
	}
	c.fresh = fresh
	if len(fresh) == 0 {
		// Shift the survivors down in place; order is already correct.
		st.coreList = append(st.coreList[:0], kept...)
		st.coreValid = true
		return
	}
	// (dTPI asc, pos desc) is a strict total order over the fresh marginals,
	// so the unstable sort is deterministic — and moved order tracks the old
	// ascending-dTPI list, leaving fresh nearly sorted already.
	slices.SortFunc(fresh, func(a, b coreMarg) int {
		switch {
		case a.dTPI < b.dTPI:
			return -1
		case a.dTPI > b.dTPI:
			return 1
		default:
			return int(b.pos) - int(a.pos)
		}
	})
	if len(kept) == 0 {
		// The whole list moved (a full-prefix group): the sorted fresh
		// marginals ARE the new list. Swap backing arrays instead of copying.
		old := st.coreList
		st.coreList = fresh
		c.fresh = old[:0]
		st.coreValid = true
		return
	}
	out := c.merged[:0]
	ki := 0
	for _, f := range fresh {
		for ki < len(kept) && kept[ki].dTPI < f.dTPI {
			out = append(out, kept[ki])
			ki++
		}
		out = append(out, f)
	}
	out = append(out, kept[ki:]...)
	// The merged scratch becomes the live list; the old list's backing array
	// becomes the next repair's merge scratch.
	old := st.coreList
	st.coreList = out
	c.merged = old[:0]
	st.coreValid = true
}

// utility is Δpower/Δperformance with the degenerate cases pinned: a free
// move (no performance loss) has infinite utility; a move that saves no
// power has negative utility proportional to its cost.
func utility(dPower, dPerf float64) float64 {
	if dPerf <= 1e-15 {
		if dPower > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return dPower / dPerf
}
