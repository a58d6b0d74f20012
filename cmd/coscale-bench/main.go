// Command coscale-bench runs the headline performance benchmarks — the §3.1
// search cost at 16-1024 cores (serial and sharded across -parallelism
// worker lanes), power-capping decisions and FastCap frontier builds at
// 16-256 cores, Offline and CPUOnly decisions at 16 cores, batched
// DecideAll over the shared platform-table cache,
// and the raw epoch-simulation throughput — plus a timed figure
// regeneration, and writes the numbers as machine-readable JSON. The committed BENCH_baseline.json at the repository root is this
// program's output; regenerate it with `make bench-json`.
//
// Diff mode compares a fresh run against a previous report and exits
// non-zero on regression, so CI can gate hot-path changes:
//
//	coscale-bench -compare BENCH_baseline.json
//
// Allocation counts are deterministic and gate strictly (any increase over
// the baseline fails). Nanosecond timings vary across machines, so they gate
// loosely: a benchmark fails only when it exceeds the baseline by the
// -threshold factor (default 3x), which catches algorithmic regressions
// without flaking on hardware differences.
//
// Usage:
//
//	coscale-bench                      # print JSON to stdout
//	coscale-bench -out BENCH_baseline.json
//	coscale-bench -benchtime 2s -figure-budget 10000000
//	coscale-bench -compare BENCH_baseline.json -threshold 2.5
//	coscale-bench -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"coscale/internal/buildinfo"
	"coscale/internal/core"
	"coscale/internal/experiments"
	"coscale/internal/fastcap"
	"coscale/internal/policy"
	"coscale/internal/sim"
	"coscale/internal/workload"
)

// Report is the BENCH_*.json schema (see DESIGN.md §7 for how to read it).
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []BenchRow  `json:"benchmarks"`
	Figures    []FigureRow `json:"figures"`
}

// BenchRow records one testing.Benchmark result. For the search benchmarks,
// Moves and NsPerMove expose per-step cost: the walk takes more moves at
// higher core counts, so ns/op alone conflates walk length with per-move
// cost; ns/move is the sub-linear-scaling figure of merit (DESIGN.md §10).
type BenchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Moves       int     `json:"moves,omitempty"`
	NsPerMove   float64 `json:"ns_per_move,omitempty"`
}

// FigureRow records the wall time of one figure regeneration.
type FigureRow struct {
	Name        string  `json:"name"`
	InstrBudget uint64  `json:"instr_budget"`
	Seconds     float64 `json:"seconds"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("coscale-bench: ")

	var (
		out          = flag.String("out", "", "write JSON here instead of stdout")
		benchtime    = flag.Duration("benchtime", time.Second, "minimum measurement time per benchmark")
		epochBudget  = flag.Uint64("epoch-budget", 50_000_000, "instructions per app for the epoch-simulation benchmark")
		figureBudget = flag.Uint64("figure-budget", 10_000_000, "instructions per app for the timed figure regeneration")
		compare      = flag.String("compare", "", "previous report to diff against; exit 1 on regression")
		threshold    = flag.Float64("threshold", 3.0, "ns/op regression factor tolerated in -compare mode")
		parallelism  = flag.Int("parallelism", 0, "worker lanes for the SearchParallel/DecideAll rows (0 = GOMAXPROCS)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run here")
		memprofile   = flag.String("memprofile", "", "write an allocation profile of the benchmark run here")
		version      = flag.Bool("version", false, "print the version and exit")
	)
	testing.Init() // registers -test.* flags so benchtime can be set below
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("coscale-bench"))
		return
	}
	// testing.Benchmark respects the -test.benchtime flag value.
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		log.Fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime.String(),
	}

	for _, n := range []int{16, 64, 128, 256, 512, 1024} {
		cfg, obs := experiments.SearchBenchObs(n)
		cs, err := core.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		row := bench(fmt.Sprintf("Search%dCores", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.Decide(obs)
			}
		})
		if st := cs.SearchStats(); st.Moves > 0 {
			row.Moves = st.Moves
			row.NsPerMove = row.NsPerOp / float64(st.Moves)
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
	}

	// Warm-started decisions (DESIGN.md §14): the same observations with one
	// cold prime, so every timed decision is a warm hit on a perfectly
	// stable phase. The delta to the Search rows is the warm-start ceiling.
	for _, n := range []int{128, 512, 1024} {
		cfg, obs := experiments.SearchBenchObs(n)
		cs, err := core.NewWithOptions(cfg, core.Options{WarmStart: true})
		if err != nil {
			log.Fatal(err)
		}
		cs.Decide(obs) // cold prime: snapshot table and phase signature
		row := bench(fmt.Sprintf("SearchWarm%dCores", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.Decide(obs)
			}
		})
		st := cs.SearchStats()
		if st.WarmHits != 1 {
			log.Fatalf("SearchWarm%dCores fell back to the cold search: %+v", n, st)
		}
		if st.Moves > 0 {
			row.Moves = st.Moves
			row.NsPerMove = row.NsPerOp / float64(st.Moves)
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
	}

	// Sharded marginal scans (DESIGN.md §11): the same 512- and 1024-core
	// decisions with candidate scoring fanned across -parallelism lanes.
	// Bit-identical to the serial rows above, so the delta is pure scan
	// execution: a speedup on multicore hosts, a handshake tax at one lane.
	for _, n := range []int{512, 1024} {
		cfg, obs := experiments.SearchBenchObs(n)
		cs, err := core.NewWithOptions(cfg, core.Options{Parallelism: *parallelism})
		if err != nil {
			log.Fatal(err)
		}
		row := bench(fmt.Sprintf("SearchParallel%dCores", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.Decide(obs)
			}
		})
		if st := cs.SearchStats(); st.Moves > 0 {
			row.Moves = st.Moves
			row.NsPerMove = row.NsPerOp / float64(st.Moves)
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		cs.Close()
	}

	// Power capping (§2.3) and FastCap frontiers: the same descent under the
	// capping and frontier stop rules, the cap halfway down the frontier.
	for _, n := range []int{16, 64, 256} {
		cfg, obs := experiments.SearchBenchObs(n)
		capW, err := experiments.SearchBenchCap(cfg, obs)
		if err != nil {
			log.Fatal(err)
		}
		pc, err := core.NewPowerCap(cfg, capW)
		if err != nil {
			log.Fatal(err)
		}
		pc.DecideCapped(obs) // warm: sizes every scratch buffer
		row := bench(fmt.Sprintf("PowerCap%dCores", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc.DecideCapped(obs)
			}
		})
		if st := pc.SearchStats(); st.Moves > 0 {
			row.Moves = st.Moves
			row.NsPerMove = row.NsPerOp / float64(st.Moves)
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
	}
	for _, n := range []int{16, 64, 256} {
		cfg, obs := experiments.SearchBenchObs(n)
		var fb fastcap.Builder
		var f fastcap.Frontier
		if err := fb.Build(&f, cfg, obs); err != nil { // warm
			log.Fatal(err)
		}
		rep.Benchmarks = append(rep.Benchmarks, bench(fmt.Sprintf("Frontier%dCores", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fb.Build(&f, cfg, obs); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// The comparison policies of §3.2 on the same 16-core observation:
	// CPUOnly runs the fixed-latency core sweep once per decision, Offline
	// twice per memory step plus a joint verification of each winner.
	cfg16, obs16 := experiments.SearchBenchObs(16)
	offline, err := policy.NewOffline(cfg16)
	if err != nil {
		log.Fatal(err)
	}
	cpuOnly, err := policy.NewCPUOnly(cfg16)
	if err != nil {
		log.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		p    policy.Policy
	}{{"OfflineDecide16Cores", offline}, {"CPUOnlyDecide16Cores", cpuOnly}} {
		pc.p.Decide(obs16) // warm: sizes the evaluator and sweep scratch
		rep.Benchmarks = append(rep.Benchmarks, bench(pc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc.p.Decide(obs16)
			}
		}))
	}

	// Batched decisions over the shared per-platform table cache: eight
	// 128-core controllers (distinct observations, one platform) deciding an
	// epoch through a persistent Batcher — the coscale-serve worker shape.
	rep.Benchmarks = append(rep.Benchmarks, bench("DecideAll8x128", func(b *testing.B) {
		var tables policy.TableCache
		items := make([]core.DecideItem, 8)
		for j := range items {
			cfg, obs := experiments.SearchBenchObsSeed(128, 11+uint64(j))
			cfg.Tables = &tables
			cs, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			items[j] = core.DecideItem{C: cs, Obs: obs}
		}
		batch := core.NewBatcher(*parallelism)
		defer batch.Close()
		batch.Run(items) // warm: builds the shared tables, sizes scratch
		if builds, _ := tables.Stats(); builds != 1 {
			b.Fatalf("platform builds = %d, want 1", builds)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch.Run(items)
		}
	}))
	rep.Benchmarks = append(rep.Benchmarks, bench("EpochSimulation", func(b *testing.B) {
		// Steady-state form: engine and controller are built once and
		// rewound per iteration, so the measurement is simulation
		// throughput, not per-run construction (trace parsing, ladder
		// building, scratch growth).
		mix, err := workload.Get("MID1")
		if err != nil {
			b.Fatal(err)
		}
		sc := sim.Config{Mix: mix, InstrBudget: *epochBudget}
		cs, err := core.New(sc.PolicyConfig())
		if err != nil {
			b.Fatal(err)
		}
		sc.Policy = cs
		eng, err := sim.New(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Reset()
			cs.Reset()
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Figure 8/9: the six-policy sweep whose shared-baseline caching this
	// file's numbers guard (one baseline simulation per mix, not six).
	r := experiments.NewRunner(*figureBudget)
	start := time.Now()
	if _, err := r.Figure8And9(); err != nil {
		log.Fatal(err)
	}
	rep.Figures = append(rep.Figures, FigureRow{
		Name:        "Figure8And9",
		InstrBudget: *figureBudget,
		Seconds:     time.Since(start).Seconds(),
	})

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	switch {
	case *out != "":
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatal(err)
		}
	case *compare == "": // diff mode logs the comparison instead of the report
		os.Stdout.Write(buf)
	}

	if *compare != "" {
		old, err := readReport(*compare)
		if err != nil {
			log.Fatal(err)
		}
		if failures := diff(old, rep, *threshold); len(failures) > 0 {
			for _, f := range failures {
				log.Print(f)
			}
			log.Fatalf("%d regression(s) against %s", len(failures), *compare)
		}
		log.Printf("no regressions against %s (threshold %.2fx)", *compare, *threshold)
	}
}

// bench runs one benchmark function under the standard harness and flattens
// the result into a BenchRow.
func bench(name string, fn func(b *testing.B)) BenchRow {
	res := testing.Benchmark(fn)
	return BenchRow{
		Name:        name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Iterations:  res.N,
	}
}

func readReport(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// diff reports regressions of new against old: any allocs/op increase
// (deterministic, so strict), and ns/op beyond threshold x the old value
// (loose, to absorb machine differences). Benchmarks present on only one
// side are reported informationally by the caller's JSON, not gated.
func diff(old, new Report, threshold float64) []string {
	prev := make(map[string]BenchRow, len(old.Benchmarks))
	for _, row := range old.Benchmarks {
		prev[row.Name] = row
	}
	var failures []string
	for _, row := range new.Benchmarks {
		base, ok := prev[row.Name]
		if !ok {
			continue
		}
		if row.AllocsPerOp > base.AllocsPerOp {
			failures = append(failures, fmt.Sprintf(
				"REGRESSION %s: allocs/op %d -> %d", row.Name, base.AllocsPerOp, row.AllocsPerOp))
		}
		if base.NsPerOp > 0 && row.NsPerOp > base.NsPerOp*threshold {
			failures = append(failures, fmt.Sprintf(
				"REGRESSION %s: ns/op %.0f -> %.0f (%.2fx > %.2fx allowed)",
				row.Name, base.NsPerOp, row.NsPerOp, row.NsPerOp/base.NsPerOp, threshold))
		} else {
			log.Printf("%-20s ns/op %10.0f -> %10.0f (%.2fx)  allocs/op %d -> %d",
				row.Name, base.NsPerOp, row.NsPerOp, row.NsPerOp/base.NsPerOp,
				base.AllocsPerOp, row.AllocsPerOp)
		}
	}
	return failures
}
