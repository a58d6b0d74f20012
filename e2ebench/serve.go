package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coscale/internal/experiments"
	"coscale/internal/policy"
	"coscale/internal/server"
	"coscale/internal/sim"
	"coscale/internal/workload"
)

const (
	// serveSeqLen is the longest request sequence a run may consume.
	serveSeqLen = 300_000
	// servePrefix is how many leading requests fix the simulated metrics
	// and the digest; every run completes at least these.
	servePrefix = 4000
	// serveRefCells is how many distinct cells, the first in sequence
	// order, are checked against Runner.Execute. Every other repeat is
	// checked against its first reply.
	serveRefCells = 256
)

// reply is one completed request as the client saw it. Only the result's
// hash is kept for most replies: equal JSON text carries equal float bits.
type reply struct {
	status   int
	state    string
	cacheHit bool
	result   json.RawMessage // kept for the leading requests and the reference-checked cells
	hash     digest          // of the result's JSON text
	rtt      float64         // ns
}

// serveWL is the serve-mix workload: an in-process coscale-serve on
// loopback, driven by closed-loop clients that each wait for a reply
// before sending their next request.
type serveWL struct {
	reqs   []server.SimulateRequest
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP server's goroutine returns
	url    string
	client *http.Client
	runner *experiments.Runner             // reference results, Runner.Execute
	refs   map[string]*experiments.Outcome // by request key

	replies  []reply // reply per sequence index; status 0 = none
	sent     int     // requests consumed so far across phases
	refUntil int     // sequence index of the first unchecked distinct cell
}

func (w *serveWL) phases() int { return 5 }

func reqKey(q server.SimulateRequest) string {
	return fmt.Sprintf("%s/%s/%x/%d", q.Workload, q.Policy, math.Float64bits(q.Bound), q.Instructions)
}

// reference returns Runner.Execute's outcome for the request's cell.
func (w *serveWL) reference(q server.SimulateRequest) (*experiments.Outcome, error) {
	k := reqKey(q)
	if o, ok := w.refs[k]; ok {
		return o, nil
	}
	o, err := w.runner.Execute(q.Workload, experiments.PolicyName(q.Policy), func(c *sim.Config) {
		c.InstrBudget = q.Instructions
		c.Gamma = q.Bound
	}, k)
	if err != nil {
		return nil, err
	}
	w.refs[k] = o
	return o, nil
}

func (w *serveWL) setup(rc *runCtx) error {
	w.reqs = serveRequests(rc.seed, serveSeqLen)
	return rc.setup(func() error {
		if err := w.stop(); err != nil {
			return err
		}
		w.srv = server.New(server.Config{Workers: rc.lanes})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w.hs = &http.Server{Handler: w.srv.Handler()}
		w.served = make(chan struct{})
		go func() {
			defer close(w.served)
			// Serve returns http.ErrServerClosed once stop shuts it down.
			_ = w.hs.Serve(ln)
		}()
		w.url = "http://" + ln.Addr().String()
		w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: rc.lanes}}
		// Runner.Execute reference results for the first serveRefCells
		// distinct cells, which the served results must match.
		w.runner = &experiments.Runner{Parallel: rc.lanes}
		w.refs = map[string]*experiments.Outcome{}
		for w.refUntil = 0; w.refUntil < len(w.reqs) && len(w.refs) < serveRefCells; w.refUntil++ {
			if _, err := w.reference(w.reqs[w.refUntil]); err != nil {
				return err
			}
		}
		w.replies = make([]reply, len(w.reqs))
		w.sent = 0
		return nil
	})
}

// stop shuts the server down and waits for its workers and listener.
func (w *serveWL) stop() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.client.CloseIdleConnections()
	if err := w.hs.Shutdown(ctx); err != nil {
		return err
	}
	<-w.served
	err := w.srv.Drain(ctx)
	w.srv = nil
	return err
}

// post sends one simulate request and waits for its result.
func (w *serveWL) post(q server.SimulateRequest) (reply, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := w.client.Post(w.url+"/v1/simulate?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := float64(time.Since(start).Nanoseconds())
	if err != nil {
		return reply{}, err
	}
	var j struct {
		State    string          `json:"state"`
		CacheHit bool            `json:"cache_hit"`
		Result   json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &j); err != nil {
		return reply{}, fmt.Errorf("decode reply: %w", err)
	}
	h := newDigest()
	h.str(string(j.Result))
	return reply{status: resp.StatusCode, state: j.State, cacheHit: j.CacheHit, result: j.Result, hash: h, rtt: rtt}, nil
}

// scrape reads the server's /metrics counters.
func (w *serveWL) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func (w *serveWL) run(rc *runCtx, dur time.Duration, tr *tracer) (phase, error) {
	before, err := w.scrape()
	if err != nil {
		return phase{}, err
	}
	hits, misses := make(dist, 0, 1<<17), make(dist, 0, 1<<17)
	ph, err := timed(func(ph *phase) error {
		deadline := time.Now().Add(dur)
		var next, done atomic.Int64
		next.Store(int64(w.sent))
		var mu sync.Mutex
		keep := func(i int, r reply, err error) bool {
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rc.rep.check(false, "request %d: %v", i, err)
				return false
			}
			ph.ops.add(r.rtt)
			if r.cacheHit {
				hits.add(r.rtt)
			} else {
				misses.add(r.rtt)
			}
			if i >= servePrefix && i >= w.refUntil {
				r.result = nil
			}
			w.replies[i] = r
			return true
		}
		var wg sync.WaitGroup
		for c := 0; c < rc.lanes; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) || done.Load() < int64(max(minSamples(tailQ), servePrefix)) {
					i := int(next.Add(1)) - 1
					if i >= len(w.reqs) {
						return
					}
					id := tr.open("http.POST /v1/simulate", 0)
					r, err := w.post(w.reqs[i])
					tr.close(id)
					done.Add(1)
					if !keep(i, r, err) {
						return
					}
				}
			}()
		}
		wg.Wait()
		w.sent = int(min(next.Load(), int64(len(w.reqs))))
		return nil
	})
	if err != nil {
		return ph, err
	}
	after, err := w.scrape()
	if err != nil {
		return ph, err
	}
	d := func(k string) float64 { return after[k] - before[k] }
	p := prefix(tr)
	rc.rep.note("request_share_repeated", "ratio", repeatShare)
	if h, m := d("coscale_cache_hits_total"), d("coscale_cache_misses_total"); h+m > 0 {
		rc.rep.note(p+"server.cache_hit_ratio", "ratio", h/(h+m))
	}
	rc.rep.note(p+"server.deduped", "count", d("coscale_jobs_deduped_total"))
	rc.rep.note(p+"server.rejected", "count", d("coscale_jobs_rejected_total"))
	if _, p99, err := ph.ops.quantiles(0.99, time.Millisecond); err == nil {
		rc.rep.note(p+"request_p99_ms", "ms", p99)
	}
	if v, err := hits.median(time.Millisecond); err == nil {
		// A cache hit runs no job, so its whole round trip is overhead:
		// HTTP, admission, hashing and the LRU.
		rc.rep.note(p+"server.overhead_ms", "ms", v)
	}
	if v, err := misses.median(time.Millisecond); err == nil {
		rc.rep.note(p+"request_miss_p50_ms", "ms", v)
		sum := 0.0
		for _, x := range misses {
			sum += x
		}
		rc.rep.note(p+"server.search_share", "ratio", d("coscale_search_duration_ns_sum")/sum)
	}
	return ph, nil
}

// resultDigest folds a served result's simulated numbers into a digest.
func resultDigest(r *server.SimulateResult) digest {
	d := newDigest()
	d.u64(uint64(r.Epochs))
	d.f64(r.WallTime)
	for _, e := range []server.EnergyJSON{r.Energy, r.Baseline.Energy} {
		d.f64(e.CPU)
		d.f64(e.L2)
		d.f64(e.Mem)
		d.f64(e.Rest)
		d.f64(e.Total)
	}
	for _, a := range r.Apps {
		d.u64(a.Instructions)
		d.f64(a.FinishTime)
	}
	d.u64(uint64(r.Baseline.Epochs))
	d.f64(r.Baseline.WallTime)
	for _, x := range append([]float64{r.FullSavings, r.CPUSavings, r.MemSavings, r.AvgDegradation, r.WorstDegradation}, r.Degradations...) {
		d.f64(x)
	}
	return d
}

// outcomeResult is the served result Runner.Execute's outcome should
// produce, built from the outcome alone.
func outcomeResult(o *experiments.Outcome) *server.SimulateResult {
	ej := func(e sim.Energy) server.EnergyJSON {
		return server.EnergyJSON{CPU: e.CPU, L2: e.L2, Mem: e.Mem, Rest: e.Rest, Total: e.Total()}
	}
	r := &server.SimulateResult{
		Epochs:           o.Run.Epochs,
		WallTime:         o.Run.WallTime,
		Energy:           ej(o.Run.Energy),
		Baseline:         server.BaselineJSON{Epochs: o.Base.Epochs, WallTime: o.Base.WallTime, Energy: ej(o.Base.Energy)},
		FullSavings:      o.FullSavings(),
		CPUSavings:       o.CPUSavings(),
		MemSavings:       o.MemSavings(),
		Degradations:     o.Degradations(),
		AvgDegradation:   o.AvgDegradation(),
		WorstDegradation: o.WorstDegradation(),
	}
	for _, a := range o.Run.Apps {
		r.Apps = append(r.Apps, server.AppJSON{Core: a.Core, App: a.App, Instructions: a.Instructions, FinishTime: a.FinishTime})
	}
	return r
}

func (w *serveWL) finish(rc *runCtx) error {
	if err := w.checkReplies(rc); err != nil {
		return err
	}
	if rc.trace {
		if err := w.layers(rc); err != nil {
			return err
		}
	}
	return w.stop()
}

// checkReplies verifies that every reply is a 200 with a finished job and
// that every repeated request returns exactly its first reply's result; the
// first serveRefCells distinct cells must also match Runner.Execute's
// outcome bit for bit. The leading requests fix the simulated metrics.
func (w *serveWL) checkReplies(rc *runCtx) error {
	first := map[string]int{} // first sequence index per cell
	var savings, worst float64
	for i := 0; i < w.sent; i++ {
		r := w.replies[i]
		if r.status == 0 {
			continue // its failure is already counted
		}
		rc.rep.check(r.status == http.StatusOK && r.state == server.StateDone, "request %d: status %d state %q", i, r.status, r.state)
		k := reqKey(w.reqs[i])
		if f, seen := first[k]; seen {
			rc.rep.check(w.replies[f].hash == r.hash, "request %d (%s): repeat differs from its first reply", i, k)
			continue
		}
		first[k] = i
		if r.result == nil {
			continue
		}
		var res server.SimulateResult
		if err := json.Unmarshal(r.result, &res); err != nil {
			rc.rep.check(false, "request %d: result: %v", i, err)
			continue
		}
		if i < servePrefix {
			rc.rep.digest.u64(uint64(resultDigest(&res)))
			savings += res.FullSavings
			worst += res.WorstDegradation
		}
		if i >= w.refUntil {
			continue
		}
		o, err := w.reference(w.reqs[i])
		if err != nil {
			return err
		}
		rc.rep.check(resultDigest(&res) == resultDigest(outcomeResult(o)), "%s: served result differs from Runner.Execute", k)
	}
	for i := 0; i < servePrefix; i++ {
		// Repeats within the prefix still count toward its metrics.
		if f := first[reqKey(w.reqs[i])]; f != i {
			var res server.SimulateResult
			if err := json.Unmarshal(w.replies[f].result, &res); err != nil {
				return err
			}
			rc.rep.digest.u64(uint64(resultDigest(&res)))
			savings += res.FullSavings
			worst += res.WorstDegradation
		}
	}
	rc.rep.set("energy_savings_pct", 100*savings/servePrefix)
	rc.rep.set("worst_slowdown_pct", 100*worst/servePrefix)
	return nil
}

// layers replays served CoScale cells on engines built here, with the
// policy in the timing probe, until the controller layer has enough
// decisions. Each replay must reproduce Runner.Execute's run exactly.
func (w *serveWL) layers(rc *runCtx) error {
	pr := &probe{tr: rc.tr, maxRecs: 256}
	var tables policy.TableCache
	var eng engineTime
	seen := map[string]bool{}
	for i := 0; i < w.sent && len(pr.decide) < minSamples(0.9); i++ {
		q := w.reqs[i]
		k := reqKey(q)
		if q.Policy != string(experiments.CoScaleName) || seen[k] {
			continue
		}
		seen[k] = true
		cfg := sim.Config{Mix: workload.MustGet(q.Workload), InstrBudget: q.Instructions, Gamma: q.Bound}
		res, err := eng.runCell(rc.tr, pr, &tables, cfg, experiments.CoScaleName)
		if err != nil {
			return err
		}
		o, err := w.reference(q)
		if err != nil {
			return err
		}
		rc.rep.check(sameResult(res, o.Run), "%s: wrapped policy changed the result", k)
	}
	return eng.report(rc, pr)
}
