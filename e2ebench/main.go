// Command e2ebench is the repository's end-to-end benchmark. It drives the
// system only through its public Go APIs, runs one named workload for a
// fixed host-time window, checks every output, and prints its metrics as
// JSON. See README.md for the workloads, the metrics and how to read them.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload many-core --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it carries
// the host metadata, the simulated-output digest and the supplementary
// metrics. With --trace 1 the run also keeps spans in memory and writes
// them as NDJSON under --spans when it ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Each workload's "operation" is its unit of
// work: a sweep cell, a CoScale decision, a fleet rebalance or an HTTP
// request (README.md, "Metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "KB"},
	{"energy_savings_pct", "%"},
	{"worst_slowdown_pct", "%"},
}

// perLayer are the per-layer metrics every workload's traced run reports.
// Layers only one workload reaches (experiments, fastcap, server) report
// their metrics in the supplementary line.
var perLayer = []metricDef{
	{"sim.ns_per_epoch", "ns"},
	{"sim.epochs", "count"},
	{"core.decide_p50_us", "us"},
	{"core.decide_p90_us", "us"},
	{"core.observe_us", "us"},
	{"core.moves_per_decide", "count"},
	{"core.evals_per_decide", "count"},
	{"core.core_evals_per_decide", "count"},
	{"policy.reset_us", "us"},
	{"policy.evaluate_us", "us"},
	{"perf.solve_us", "us"},
	{"perf.iters_per_solve", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host records where the numbers came from, so results from different
// machines can be compared knowingly.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Lanes      int    `json:"search_lanes"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// report accumulates one run's results.
type report struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64 // declared metrics, by name
	extra     map[string]metric  // supplementary metrics
	digest    digest
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, extra: map[string]metric{}, digest: newDigest()}
}

// check counts one attempted operation or output check, and a failure when
// ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(name, unit string, v float64) { r.extra[name] = metric{Value: v, Unit: unit} }

// runCtx is what every workload receives.
type runCtx struct {
	seed  uint64
	dur   time.Duration
	trace bool
	lanes int
	tr    *tracer // nil when tracing is off
	rep   *report
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// setup times fn setupReps times and reports the median as setup_s; the
// state the last call leaves behind is what the run measures.
func (rc *runCtx) setup(fn func() error) error {
	var d dist
	for i := 0; i < setupReps; i++ {
		id := rc.tr.open("setup", 0)
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d.since(start)
		rc.tr.close(id)
	}
	s, err := d.median(time.Second)
	if err != nil {
		return err
	}
	rc.rep.set("setup_s", s)
	return nil
}

// tailQ is the percentile op_tail_ms reports on every workload. A p99 of a
// few thousand operations rests on the handful of host preemptions that land
// in a run, so it jumps between runs of the same code; the p99 figures are
// printed in extra instead.
const tailQ = 0.9

// phase is one timed window of a workload's operations.
type phase struct {
	ops   dist    // per-operation host time, ns
	wall  float64 // seconds
	alloc uint64  // heap bytes allocated during the window
}

// timed runs body, which must perform operations into ph.ops until its
// deadline, and records the window's wall time and allocation.
func timed(body func(ph *phase) error) (phase, error) {
	// Sized so the benchmark's own bookkeeping does not allocate inside
	// the window on this class of host.
	ph := phase{ops: make(dist, 0, 1<<18)}
	runtime.GC()
	a0 := allocBytes()
	start := time.Now()
	err := body(&ph)
	ph.wall = time.Since(start).Seconds()
	ph.alloc = allocBytes() - a0
	return ph, err
}

// e2e turns consecutive phases of one run into the operation metrics: the
// median over every operation, and the medians over the phases of each
// phase's throughput and tailQ-quantile, so a burst of host noise in one
// phase moves neither. Allocation is pooled.
func e2e(phases []phase) (map[string]float64, error) {
	var all dist
	var tails, rates []float64
	var alloc uint64
	for _, ph := range phases {
		_, pq, err := ph.ops.quantiles(tailQ, time.Millisecond)
		if err != nil {
			return nil, err
		}
		all = append(all, ph.ops...)
		tails = append(tails, pq)
		rates = append(rates, float64(len(ph.ops))/ph.wall)
		alloc += ph.alloc
	}
	p50, err := all.median(time.Millisecond)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"op_p50_ms":       p50,
		"op_tail_ms":      medianOf(tails),
		"ops_per_s":       medianOf(rates),
		"alloc_kb_per_op": float64(alloc) / 1024 / float64(len(all)),
	}, nil
}

// measure runs n consecutive phases splitting dur.
func measure(w bench, rc *runCtx, dur time.Duration, n int, tr *tracer) (map[string]float64, int, error) {
	var phases []phase
	ops := 0
	for i := 0; i < n; i++ {
		ph, err := w.run(rc, dur/time.Duration(n), tr)
		if err != nil {
			return nil, 0, err
		}
		phases = append(phases, ph)
		ops += len(ph.ops)
	}
	m, err := e2e(phases)
	return m, ops, err
}

// prefix labels the supplementary metrics of a traced run's traced half.
func prefix(tr *tracer) string {
	if tr != nil {
		return "traced."
	}
	return ""
}

// bench is one named benchmark workload. phases is how many consecutive
// phases an untraced run is split into (each must reach tailQ's sample
// count). run measures one phase of at least dur (untraced when tr is nil);
// finish runs the output checks and, when tracing, the per-layer replays.
type bench interface {
	phases() int
	setup(rc *runCtx) error
	run(rc *runCtx, dur time.Duration, tr *tracer) (phase, error)
	finish(rc *runCtx) error
}

var workloads = map[string]func() bench{
	"paper-sweep": func() bench { return &sweepWL{} },
	"many-core":   func() bench { return &manyWL{} },
	"fleet-cap":   func() bench { return &fleetWL{} },
	"serve-mix":   func() bench { return &serveWL{} },
}

func main() {
	name := flag.String("workload", "", "workload: paper-sweep, many-core, fleet-cap or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 10, "host seconds of measured operations")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := run(mk(), *name, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lanes bounds every source of parallelism the benchmark creates — runner
// parallelism, server workers, HTTP clients and CoScale search lanes (via
// GOMAXPROCS) — at two, and never above the host's CPU count.
func lanes() int {
	return min(2, runtime.NumCPU())
}

func run(w bench, name string, seed uint64, dur time.Duration, trace bool, spanDir string) error {
	runtime.GOMAXPROCS(lanes())
	rc := &runCtx{seed: seed, dur: dur, trace: trace, lanes: lanes(), rep: newReport()}
	if trace {
		rc.tr = newTracer()
	}
	if err := w.setup(rc); err != nil {
		return err
	}
	info := map[string]any{}
	if trace {
		// The same operations untraced and traced: the difference between
		// the two halves is the tracing overhead.
		pm, _, err := measure(w, rc, dur/2, 1, nil)
		if err != nil {
			return err
		}
		tm, _, err := measure(w, rc, dur/2, 1, rc.tr)
		if err != nil {
			return err
		}
		for _, k := range []string{"op_p50_ms", "op_tail_ms", "ops_per_s"} {
			rc.rep.note("untraced."+k, unitOf(k), pm[k])
			rc.rep.note("traced."+k, unitOf(k), tm[k])
		}
		rc.rep.note("trace.overhead_op_p50_pct", "%", (tm["op_p50_ms"]/pm["op_p50_ms"]-1)*100)
		rc.rep.note("trace.overhead_ops_per_s_pct", "%", (pm["ops_per_s"]/tm["ops_per_s"]-1)*100)
	} else {
		m, ops, err := measure(w, rc, dur, w.phases(), nil)
		if err != nil {
			return err
		}
		for k, v := range m {
			rc.rep.set(k, v)
		}
		rc.rep.note("ops", "count", float64(ops))
	}
	if err := w.finish(rc); err != nil {
		return err
	}

	rep := rc.rep
	declared := endToEnd
	if trace {
		// Set-up time and the simulated metrics stay visible beside the
		// per-layer ones; the latter must equal the untraced run's.
		for _, d := range endToEnd {
			if v, ok := rep.metrics[d.Name]; ok {
				rep.note(d.Name, d.Unit, v)
			}
		}
		declared = perLayer
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.ndjson", name, seed))
		if err := rc.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		info["spans"] = path
		info["span_count"] = len(rc.tr.spans)
	}
	metrics := map[string]metric{}
	for _, d := range declared {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", name, d.Name)
		}
		metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", f)
	}
	info["workload"] = name
	info["seed"] = seed
	info["trace"] = trace
	info["seconds"] = dur.Seconds()
	info["host"] = host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Lanes:      rc.lanes,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	info["digest"] = rep.digest.String()
	info["error_pct"] = 100 * float64(rep.failed) / float64(max(rep.attempted, 1))
	info["extra"] = rep.extra
	if err := printJSON(info); err != nil {
		return err
	}
	return printJSON(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": max(rep.attempted, 1),
		"failed":    rep.failed,
		"metrics":   metrics,
	})
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
