// Package policy defines the controller interface shared by CoScale and the
// five comparison policies of §3.2, the counter-derived Observation the OS
// hands a controller each epoch, and the candidate-evaluation machinery
// (joint performance prediction, power prediction, SER) all controllers are
// built from.
//
// The policies themselves live here (MemScale, CPUOnly, Uncoordinated,
// Semi-coordinated, Offline) and in internal/core (CoScale, the paper's
// contribution).
package policy

import (
	"fmt"
	"math"
	"time"

	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/power"
	"coscale/internal/trace"
)

// Config is the static system description every controller shares.
type Config struct {
	NCores     int
	CoreLadder *freq.Ladder
	MemLadder  *freq.Ladder
	Mem        memsys.Params
	Power      power.System

	// Gamma is the allowed per-program slowdown (0.10 = 10%).
	Gamma float64
	// EpochLen is the control period (5 ms in the paper).
	EpochLen time.Duration
	// Reserve is slack withheld each epoch (seconds) to cover the
	// unmodelled DVFS transition dead time, keeping the bound from being
	// grazed by overheads the performance model does not see. Defaults
	// (via sim.Config) to roughly one core plus one memory transition.
	Reserve float64

	// Tables, when set, is a shared per-platform table cache: evaluators
	// on the table path fetch their platform-derived columns (ladder
	// Hz/Volts tables, per-step memory queueing models) from it instead of
	// rebuilding them, so sibling controllers over one platform — a sweep
	// job's cells, a batched DecideAll — build those tables once per
	// process. Nil keeps the private per-evaluator build; results are
	// bit-identical either way.
	Tables *TableCache
}

// Limits computes the per-core slowdown limits for the next epoch from
// accumulated slack, after withholding the transition reserve.
func (c Config) Limits(slack []float64) []float64 {
	return c.LimitsInto(nil, slack)
}

// LimitsInto is Limits writing into dst, reusing dst's backing array when
// its capacity suffices (dst may alias slack). The allocation-free form
// used by CoScale's decision hot path (see DESIGN.md §7).
//
//hot:path
func (c Config) LimitsInto(dst, slack []float64) []float64 {
	dst = perf.Grow(dst, len(slack))
	for i, s := range slack {
		dst[i] = s - c.Reserve
	}
	return MaxSlowdownsInto(dst, dst, c.EpochLen.Seconds(), c.Gamma)
}

// Validate checks the configuration is usable.
func (c Config) Validate() error {
	if c.NCores <= 0 {
		return fmt.Errorf("policy: NCores must be positive")
	}
	if c.CoreLadder == nil || c.MemLadder == nil {
		return fmt.Errorf("policy: ladders must be set")
	}
	if c.Gamma < 0 {
		return fmt.Errorf("policy: negative Gamma")
	}
	if c.EpochLen <= 0 {
		return fmt.Errorf("policy: EpochLen must be positive")
	}
	return nil
}

// CoreObs is one core's counter-derived profile for a window.
type CoreObs struct {
	Instructions uint64
	// Stats are the per-instruction model inputs derived from the
	// counters (CPIBase in cycles; Alpha/Beta fractions; StallL2 in
	// seconds; MemPerInstr in 64 B requests; MLP dimensionless).
	Stats perf.CoreStats
	// L2PerInstr is L2 accesses per instruction (TLA/TIC), for L2 power.
	L2PerInstr float64
	// Mix is the activity-counter instruction breakdown for core power.
	Mix trace.InstrMix
	// IPS is the measured instruction rate over the window.
	IPS float64
}

// Observation is what a controller sees after a profiling window: per-core
// profiles plus memory-subsystem aggregates, all derived from the §3.3
// performance counters, and the settings that were in effect.
//
// The simulation engine reuses an observation's backing slices between
// epochs (DESIGN.md §7): CoreSteps, ThreadIDs and Cores are valid only for
// the duration of the Decide/Observe call. A policy that retains any of
// them must copy (see Clone).
type Observation struct {
	Window    float64 // seconds of wall time profiled
	CoreSteps []int   // settings in effect while profiling
	MemStep   int

	// ThreadIDs identifies the software thread scheduled on each core
	// during the window, for per-thread slack accounting (§3.3). Nil
	// means thread i runs on core i.
	ThreadIDs []int

	Cores []CoreObs

	MemRate    float64 // aggregate memory requests/s observed
	MemLatency float64 // average request latency observed, seconds
	UtilBus    float64 // observed bus utilization
	BusyFrac   float64 // observed fraction of time ranks were busy (not powered down)
}

// Clone returns a deep copy whose slices do not alias the engine's reusable
// observation buffers, for callers that retain observations across epochs.
func (o Observation) Clone() Observation {
	o.CoreSteps = append([]int(nil), o.CoreSteps...)
	o.ThreadIDs = append([]int(nil), o.ThreadIDs...)
	o.Cores = append([]CoreObs(nil), o.Cores...)
	return o
}

// CoreThreads returns the thread-on-core mapping, defaulting to identity.
func (o Observation) CoreThreads() []int {
	if o.ThreadIDs != nil {
		return o.ThreadIDs
	}
	return identity(len(o.Cores))
}

// Decision is a controller's chosen frequency combination.
type Decision struct {
	CoreSteps []int
	MemStep   int
}

// Clone returns a deep copy of the decision.
func (d Decision) Clone() Decision {
	out := Decision{CoreSteps: make([]int, len(d.CoreSteps)), MemStep: d.MemStep}
	copy(out.CoreSteps, d.CoreSteps)
	return out
}

// Policy is an epoch-granularity DVFS controller.
type Policy interface {
	// Name identifies the policy in results and logs.
	Name() string
	// Decide chooses the next epoch's frequencies from a profiling-window
	// observation.
	Decide(obs Observation) Decision
	// Observe delivers the whole-epoch observation after the epoch runs,
	// for slack accounting.
	Observe(epoch Observation)
}

// OraclePolicy is implemented by policies (Offline) that must be fed the
// true characteristics of the upcoming epoch rather than the profiling
// window.
type OraclePolicy interface {
	Policy
	// WantsOracle reports that Decide expects oracle observations.
	WantsOracle() bool
}

// Evaluator predicts performance, power and SER for candidate frequency
// combinations against a fixed observation. It is re-pointed at a fresh
// observation once per decision — either rebuilt with NewEvaluator or, on
// hot paths, recycled in place with Reset so its work arrays are reused
// (DESIGN.md §7).
type Evaluator struct {
	Cfg    Config
	Solver *perf.Solver

	// UseTables switches candidate evaluation onto the memoized per-epoch
	// prediction tables (DESIGN.md §10): bit-identical results, but each
	// evaluation's O(cores) model preparation collapses to an incremental
	// gather of the cores whose step changed. Set before the first Reset
	// (CoScale sets it unless core.Options.DisableTables asks otherwise).
	UseTables bool

	stats      []perf.CoreStats
	obs        Observation
	busyPerReq float64 // measured rank-busy time per request, for power prediction

	baseline Eval // all components at maximum frequency

	// Steady-state scratch reused across Evaluate calls.
	solveRes perf.Result
	hz       []float64
	cores    []power.CoreOp
	maxSteps []int
	tmaxEval Eval
	sweep    coreSweep // fixed-latency core sweep scratch (coreSearch)

	// Memoized per-epoch prediction tables (active when UseTables is set)
	// plus the platform-derived columns they are built over. plat is
	// fetched from Cfg.Tables when set (shared per-platform build) and
	// built privately otherwise; platCore/platMem/platMemP remember the
	// platform it reflects so per-decision Resets skip the rebuild.
	tbl      perf.StepTable
	ptbl     power.CoreTable
	mixes    []trace.InstrMix
	l2pi     []float64 // L2PerInstr per core
	plat     *PlatformTables
	platCore *freq.Ladder
	platMem  *freq.Ladder
	platMemP memsys.Params
}

// Eval is the predicted outcome of one frequency combination.
type Eval struct {
	TPI      []float64 // predicted seconds/instruction per core
	Slowdown []float64 // TPI ratio vs the all-max baseline (>= ~1)
	MaxSlow  float64   // worst per-core slowdown (the Eq. 2 time factor)
	Power    power.Split
	SER      float64
	MemLoad  memsys.Load
}

// NewEvaluator builds an evaluator for obs using the counter-derived
// per-core statistics.
func NewEvaluator(cfg Config, obs Observation) *Evaluator {
	ev := &Evaluator{}
	ev.Reset(cfg, obs)
	return ev
}

// Reset re-points the evaluator at a new observation, recomputing the
// statistics and the all-max baseline while reusing every work array. A
// reset evaluator is indistinguishable from a freshly constructed one.
//
//hot:path
func (ev *Evaluator) Reset(cfg Config, obs Observation) {
	ev.Cfg = cfg
	if ev.Solver == nil {
		ev.Solver = perf.NewSolver(cfg.Mem)
	} else {
		ev.Solver.Mem = cfg.Mem
	}
	// Controller-side predictions need far less precision than ground
	// truth; a looser fixed-point tolerance keeps the §3.1 search cheap.
	ev.Solver.Tol = 1e-6
	ev.Solver.MaxIter = 25
	ev.obs = obs
	n := len(obs.Cores)
	ev.stats = perf.Grow(ev.stats, n)
	for i := range obs.Cores {
		ev.stats[i] = obs.Cores[i].Stats
	}
	ev.busyPerReq = 0
	if obs.MemRate > 0 {
		ev.busyPerReq = obs.BusyFrac / obs.MemRate
	}
	ev.maxSteps = perf.Grow(ev.maxSteps, n)
	clear(ev.maxSteps)
	if ev.UseTables {
		ev.resetTables()
	}
	// Clear the stale baseline so finish() sees no reference to divide by
	// (slowdowns come out exactly 1, as for a brand-new evaluator).
	ev.baseline.TPI = ev.baseline.TPI[:0]
	ev.evaluateInto(&ev.baseline, ev.maxSteps, 0)
	ev.baseline.SER = 1
}

// resetTables re-points the memoized prediction tables at the new epoch:
// the per-core instruction mixes and L2 rates the power path needs, the
// platform-derived ladder/model columns (fetched or rebuilt only when the
// platform changed), and the two per-epoch component tables themselves.
// Every per-epoch column is invalidated; backing arrays are reused.
//
//hot:path
func (ev *Evaluator) resetTables() {
	n := len(ev.obs.Cores)
	ev.mixes = perf.Grow(ev.mixes, n)
	ev.l2pi = perf.Grow(ev.l2pi, n)
	for i := range ev.obs.Cores {
		ev.mixes[i] = ev.obs.Cores[i].Mix
		ev.l2pi[i] = ev.obs.Cores[i].L2PerInstr
	}
	ev.ensurePlatform()
	ev.tbl.Reset(ev.stats, ev.plat.CoreHz)
	ev.ptbl.Reset(ev.Cfg.Power.Core, ev.plat.CoreHz, ev.plat.CoreV, ev.mixes)
}

// ensurePlatform points ev.plat at the tables for Cfg's platform, fetching
// from the shared Cfg.Tables cache when one is wired in and building
// privately otherwise. The platform is re-derived only when it actually
// changed (ladder identity plus memory parameters), so the per-decision
// Reset does no ladder work at all in steady state — and shared-cache mode
// does it once per process per platform.
//
//hot:path
func (ev *Evaluator) ensurePlatform() {
	cfg := &ev.Cfg
	if ev.plat != nil && ev.platCore == cfg.CoreLadder && ev.platMem == cfg.MemLadder &&
		ev.platMemP == cfg.Mem {
		return
	}
	if cfg.Tables != nil {
		ev.plat = cfg.Tables.Get(ev.Cfg)
	} else {
		ev.plat = BuildPlatformTables(ev.Cfg)
	}
	ev.platCore, ev.platMem, ev.platMemP = cfg.CoreLadder, cfg.MemLadder, cfg.Mem
}

// Baseline returns the all-max evaluation (the SER denominator).
func (ev *Evaluator) Baseline() Eval { return ev.baseline }

// BaselineTPI returns the all-max baseline's per-core TPI directly, sparing
// hot-path callers the Eval struct copy a Baseline() call would make.
//
//hot:path
func (ev *Evaluator) BaselineTPI() []float64 { return ev.baseline.TPI }

// Stats returns the counter-derived per-core statistics in use.
func (ev *Evaluator) Stats() []perf.CoreStats { return ev.stats }

// ObsCore returns core i's observation.
func (ev *Evaluator) ObsCore(i int) CoreObs { return ev.obs.Cores[i] }

// Obs returns the observation the evaluator was built from.
func (ev *Evaluator) Obs() Observation { return ev.obs }

// Evaluate predicts the outcome of running with the given per-core and
// memory steps.
func (ev *Evaluator) Evaluate(coreSteps []int, memStep int) Eval {
	var e Eval
	ev.EvaluateInto(&e, coreSteps, memStep)
	return e
}

// EvaluateBaselineInto copies the all-max evaluation into dst, reusing dst's
// buffers. It is bit-identical to EvaluateInto(dst, ZeroSteps(n), 0) — Reset
// already solved that operating point, every slowdown there is exactly 1
// (IEEE x/x for finite positive x), and SER against the baseline itself is
// exactly 1 — but skips the redundant fixed-point solve. The search hot path
// uses it to seed its "current point" Eval (see DESIGN.md §7).
//
//hot:path
func (ev *Evaluator) EvaluateBaselineInto(dst *Eval) {
	n := len(ev.baseline.TPI)
	dst.TPI = perf.Grow(dst.TPI, n)
	copy(dst.TPI, ev.baseline.TPI)
	dst.Slowdown = perf.Grow(dst.Slowdown, n)
	for i := range dst.Slowdown {
		dst.Slowdown[i] = 1
	}
	dst.MaxSlow = 1
	dst.Power = ev.baseline.Power
	dst.SER = 1
	dst.MemLoad = ev.baseline.MemLoad
}

// EvaluateInto is Evaluate writing into dst, reusing dst's TPI/Slowdown
// buffers. dst must not be the evaluator's own baseline. The search hot path
// calls this with per-controller scratch Evals (see DESIGN.md §7).
//
//hot:path
func (ev *Evaluator) EvaluateInto(dst *Eval, coreSteps []int, memStep int) {
	ev.evaluateInto(dst, coreSteps, memStep)
	if ev.baseline.MaxSlow > 0 {
		dst.SER = power.SER(dst.MaxSlow, dst.Power.Total, ev.baseline.MaxSlow, ev.baseline.Power.Total)
	}
}

// coreHz fills the evaluator's frequency scratch; the returned slice is
// valid until the next coreHz call.
//
//hot:path
func (ev *Evaluator) coreHz(coreSteps []int) []float64 {
	ev.hz = perf.Grow(ev.hz, len(coreSteps))
	for i, s := range coreSteps {
		ev.hz[i] = ev.Cfg.CoreLadder.Hz(s)
	}
	return ev.hz
}

// evaluateInto runs the joint model and fills dst completely (the solver's
// TPI is copied, not aliased: Evals from one decision — current, candidate,
// baseline — are alive simultaneously and must own their buffers).
//
//hot:path
func (ev *Evaluator) evaluateInto(dst *Eval, coreSteps []int, memStep int) {
	if ev.UseTables {
		ev.evaluateTablesInto(dst, coreSteps, memStep)
		return
	}
	hz := ev.coreHz(coreSteps)
	busHz := ev.Cfg.MemLadder.Hz(memStep)
	ev.Solver.SolveInto(&ev.solveRes, ev.stats, hz, busHz)
	n := len(ev.solveRes.TPI)
	dst.TPI = perf.Grow(dst.TPI, n)
	copy(dst.TPI, ev.solveRes.TPI)
	dst.Slowdown = perf.Grow(dst.Slowdown, n)
	dst.MaxSlow = 0
	dst.SER = 0
	dst.MemLoad = ev.solveRes.Mem
	ev.finish(dst, coreSteps, hz, memStep, ev.solveRes.MemRate)
}

// evaluateTablesInto is evaluateInto on the memoized-table path: the solver
// gathers its per-core constants incrementally from the StepTable, the
// memory queueing model comes from the ModelCache, and finishTables sums
// per-core power from the CoreTable. Bit-identity with the direct path is
// argued term by term in DESIGN.md §10 and enforced by the property test in
// table_test.go.
//
//hot:path
func (ev *Evaluator) evaluateTablesInto(dst *Eval, coreSteps []int, memStep int) {
	ev.Solver.SolveTable(&ev.solveRes, &ev.tbl, coreSteps, ev.plat.Models.At(memStep))
	n := len(ev.solveRes.TPI)
	dst.TPI = perf.Grow(dst.TPI, n)
	copy(dst.TPI, ev.solveRes.TPI)
	dst.Slowdown = perf.Grow(dst.Slowdown, n)
	dst.MaxSlow = 0
	dst.SER = 0
	dst.MemLoad = ev.solveRes.Mem
	ev.finishTables(dst, coreSteps, memStep, ev.solveRes.MemRate)
}

// finishTables is finish on the memoized-table path. The per-core power sum
// reuses the solver's already-computed instruction rates (the same
// 1/TPI-or-zero finish would rederive) and accumulates CoreTable terms in
// ascending core order — the exact order System.Total sums — before handing
// the sum to TotalFromCPU.
//
//hot:path
func (ev *Evaluator) finishTables(e *Eval, coreSteps []int, memStep int, memRate float64) {
	base := ev.baseline.TPI
	sameLen := len(base) == len(e.TPI)
	maxSlow := 0.0
	n := len(coreSteps)
	tpi, slow := e.TPI[:n], e.Slowdown[:n]
	ips, l2pi := ev.solveRes.IPS[:n], ev.l2pi[:n]
	cpu := 0.0
	l2Rate := 0.0
	// One fused pass: slowdown/max and the power sums accumulate
	// independently, so interleaving them changes no per-accumulator
	// operation order (bit-identical to two passes).
	for i, s := range coreSteps {
		sl := 1.0
		if sameLen && base[i] > 0 {
			sl = tpi[i] / base[i]
		}
		slow[i] = sl
		if sl > maxSlow {
			maxSlow = sl
		}
		v := ips[i]
		cpu += ev.ptbl.PowerAt(s, i, v)
		l2Rate += v * l2pi[i]
	}
	if maxSlow <= 0 {
		maxSlow = 1
	}
	e.MaxSlow = maxSlow
	u := ev.memUsage(ev.plat.MemHz[memStep], ev.plat.MemV[memStep], memRate, e.MemLoad.UtilBus)
	e.Power = ev.Cfg.Power.TotalFromCPU(cpu, l2Rate, u)
}

// memUsage is the memory-power input at one memory step (bus frequency and
// controller voltage) for a predicted request rate, with rank busy time
// scaled from the observation's busy time per request.
//
//hot:path
func (ev *Evaluator) memUsage(busHz, mcVolts, memRate, utilBus float64) power.MemUsage {
	busy := ev.busyPerReq * memRate
	if busy > 1 {
		busy = 1
	}
	// Split traffic into reads and writes in the observed proportion; the
	// energy model treats them symmetrically anyway.
	return power.MemUsage{
		BusHz:     busHz,
		MCVolts:   mcVolts,
		ReadRate:  memRate * 0.8,
		WriteRate: memRate * 0.2,
		ActRate:   memRate,
		UtilBus:   utilBus,
		BusyFrac:  busy,
	}
}

// Tables exposes the memoized per-epoch prediction tables so callers on the
// marginal-scoring hot path can query them through inlinable methods:
// StepTable.TPIAt(i, s, lat) is bit-identical to
// Stats()[i].TPI(Cfg.CoreLadder.Hz(s), lat), and CoreTable.PowerAt(s, i, ips)
// to Cfg.Power.Core.Power(Volts(s), Hz(s), ips, mix_i) (DESIGN.md §10).
// Valid only when UseTables is set, between a Reset and the next.
func (ev *Evaluator) Tables() (*perf.StepTable, *power.CoreTable) {
	return &ev.tbl, &ev.ptbl
}

// TMaxInto computes each core's maximum allowed epoch time at the given
// operating point — Instructions·TPI, the slack-bookkeeping reference —
// writing into dst. The allocation-free form of the TMaxForEpoch helper.
//
//hot:path
func (ev *Evaluator) TMaxInto(dst []float64, coreSteps []int, memStep int) []float64 {
	ev.EvaluateInto(&ev.tmaxEval, coreSteps, memStep)
	dst = perf.Grow(dst, len(ev.obs.Cores))
	for i, c := range ev.obs.Cores {
		dst[i] = float64(c.Instructions) * ev.tmaxEval.TPI[i]
	}
	return dst
}

// finish fills slowdowns and predicted power for an Eval whose TPI and
// MemLoad are already set. coreSteps and hz describe the same operating
// point (hz[i] = CoreLadder.Hz(coreSteps[i])); taking both spares the
// nearest-frequency ladder scan the voltage lookup would otherwise need.
//
//hot:path
func (ev *Evaluator) finish(e *Eval, coreSteps []int, hz []float64, memStep int, memRate float64) {
	for i := range e.Slowdown {
		if len(ev.baseline.TPI) == len(e.TPI) && ev.baseline.TPI[i] > 0 {
			e.Slowdown[i] = e.TPI[i] / ev.baseline.TPI[i]
		} else {
			e.Slowdown[i] = 1
		}
		if e.Slowdown[i] > e.MaxSlow {
			e.MaxSlow = e.Slowdown[i]
		}
	}
	if e.MaxSlow <= 0 {
		e.MaxSlow = 1
	}

	cores := perf.Grow(ev.cores, len(e.TPI))
	ev.cores = cores
	l2Rate := 0.0
	for i, tpi := range e.TPI {
		ips := 0.0
		if tpi > 0 && !math.IsInf(tpi, 0) {
			ips = 1 / tpi
		}
		cores[i] = power.CoreOp{
			Volts: ev.Cfg.CoreLadder.Volts(coreSteps[i]),
			Hz:    hz[i],
			IPS:   ips,
			Mix:   ev.obs.Cores[i].Mix,
		}
		l2Rate += ips * ev.obs.Cores[i].L2PerInstr
	}
	u := ev.memUsage(ev.Cfg.MemLadder.Hz(memStep), ev.Cfg.MemLadder.Volts(memStep), memRate, e.MemLoad.UtilBus)
	e.Power = ev.Cfg.Power.Total(cores, l2Rate, u)
}

// MaxSlowdowns converts per-core accumulated slack into the maximum
// per-core slowdown permitted next epoch (§3 performance management): core i
// may run at slowdown r if E ≤ E·(1+γ)/r + slack_i, i.e.
// r ≤ E·(1+γ)/(E − slack_i). A slack at or above the epoch length leaves the
// core unconstrained this epoch (returned as +Inf).
func MaxSlowdowns(slacks []float64, epoch, gamma float64) []float64 {
	return MaxSlowdownsInto(nil, slacks, epoch, gamma)
}

// MaxSlowdownsInto is MaxSlowdowns writing into dst, reusing dst's backing
// array when its capacity suffices (dst may alias slacks).
//
//hot:path
func MaxSlowdownsInto(dst, slacks []float64, epoch, gamma float64) []float64 {
	dst = perf.Grow(dst, len(slacks))
	for i, s := range slacks {
		if s >= epoch {
			dst[i] = math.Inf(1)
			continue
		}
		r := epoch * (1 + gamma) / (epoch - s)
		if r < 1 {
			r = 1 // never force above-baseline speed; max frequency is the best we can do
		}
		dst[i] = r
	}
	return dst
}

// WithinBoundScaled is WithinBound against limits whose (1+1e-12) epsilon
// scaling has already been applied (see ScaleLimits) — the hot-path form
// that hoists the per-element multiply out of repeated feasibility checks.
//
//hot:path
func WithinBoundScaled(e Eval, scaled []float64) bool {
	for i, s := range e.Slowdown {
		if s > scaled[i] {
			return false
		}
	}
	return true
}

// ScaleLimits fills dst with limits[i]·(1+1e-12), the epsilon-padded bounds
// WithinBound compares against, so a caller checking many candidates against
// one limit vector multiplies once instead of per check. dst is reused when
// its capacity suffices.
//
//hot:path
func ScaleLimits(dst, limits []float64) []float64 {
	dst = perf.Grow(dst, len(limits))
	for i, l := range limits {
		dst[i] = l * (1 + 1e-12)
	}
	return dst
}

// WithinBound reports whether an evaluation satisfies every core's slowdown
// limit.
func WithinBound(e Eval, limits []float64) bool {
	for i, s := range e.Slowdown {
		if s > limits[i]*(1+1e-12) {
			return false
		}
	}
	return true
}
