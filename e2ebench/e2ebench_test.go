package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"coscale/internal/experiments"
	"coscale/internal/policy"
	"coscale/internal/sim"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

func TestPercentileTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		q    float64
		n    int
		want float64 // 0 = must refuse
	}{
		{0.99, 999, 0},
		{0.99, 1000, 990},
		{0.9, 99, 0},
		{0.9, 100, 90},
		{0.5, 1, 1},
		{0.5, 4, 2},
	} {
		got, err := percentile(ramp(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal (fewer than %d beyond)", c.q*100, c.n, got, beyondMin)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.q*100, c.n, got, err, c.want)
		}
		if beyond := c.n - int(got); c.q > 0.5 && beyond < beyondMin {
			t.Errorf("p%g of %d samples has %d beyond it", c.q*100, c.n, beyond)
		}
	}
	for _, q := range []float64{0.9, 0.99} {
		if _, err := percentile(ramp(minSamples(q)), q); err != nil {
			t.Errorf("minSamples(%g) = %d is not enough: %v", q, minSamples(q), err)
		}
		if _, err := percentile(ramp(minSamples(q)-1), q); err == nil {
			t.Errorf("minSamples(%g) = %d is more than needed", q, minSamples(q))
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("median of no samples did not fail")
	}
}

// allInputs is everything the workloads generate from one seed.
func allInputs(seed uint64) []any {
	return []any{sweepMixes(seed), manyCoreMixes(seed), fleetNodes(seed), serveRequests(seed, 2000)}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b, c := allInputs(7), allInputs(7), allInputs(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two generations from seed 7", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

func TestMixesDrawnByClass(t *testing.T) {
	classOf := func(app string) trace.Class { return trace.MustLookup(app).Class }
	for seed := uint64(0); seed < 20; seed++ {
		mixes := manyCoreMixes(seed)
		for _, set := range sweepMixes(seed) {
			mixes = append(mixes, set...)
		}
		for _, fl := range fleetNodes(seed) {
			for _, n := range fl {
				mixes = append(mixes, n.Mix)
			}
		}
		for _, m := range mixes {
			if len(m.Apps) != 4 {
				t.Fatalf("%s: %d apps", mixKey(m), len(m.Apps))
			}
			seen := map[string]bool{}
			for _, a := range m.Apps {
				if seen[a] {
					t.Errorf("%s: %s drawn twice", mixKey(m), a)
				}
				seen[a] = true
			}
			if m.Class != trace.MIX {
				for _, a := range m.Apps {
					if classOf(a) != m.Class {
						t.Errorf("%s: %s is %v, mix is %v", mixKey(m), a, classOf(a), m.Class)
					}
				}
				continue
			}
			for i, want := range []trace.Class{trace.MEM, trace.MID, trace.MIX, trace.ILP} {
				if classOf(m.Apps[i]) != want {
					t.Errorf("%s: app %d is %v, want %v", mixKey(m), i, classOf(m.Apps[i]), want)
				}
			}
		}
	}
}

func TestServeRequestsRepeatAndStayNew(t *testing.T) {
	reqs := serveRequests(3, 20000)
	seen := map[string]bool{}
	repeats := 0
	for _, q := range reqs {
		k := reqKey(q)
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	share := float64(repeats) / float64(len(reqs))
	if share < repeatShare-0.02 || share > repeatShare+0.02 {
		t.Errorf("repeat share %.3f, want about %.2f", share, repeatShare)
	}
}

// TestWrappedPolicyBitIdentical runs every sweep policy, the oracle Offline
// policy included, with and without the timing wrapper.
func TestWrappedPolicyBitIdentical(t *testing.T) {
	mix := workload.MustGet("MEM1")
	for _, p := range sweepPolicies() {
		cfg := sim.Config{Mix: mix, InstrBudget: 20_000_000}
		run := func(wrapped bool) *sim.Result {
			c := cfg
			pcfg := c.PolicyConfig()
			pol, err := experiments.NewPolicy(p, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if pol != nil {
				c.Policy = pol
				if wrapped {
					c.Policy = wrap(pol, pcfg, &probe{tr: newTracer(), maxRecs: 4}, 0).asPolicy()
					_, isOracle := pol.(policy.OraclePolicy)
					if _, ok := c.Policy.(policy.OraclePolicy); ok != isOracle {
						t.Fatalf("%s: wrapper changed OraclePolicy identity", p)
					}
				}
			}
			eng, err := sim.New(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if !sameResult(run(false), run(true)) {
			t.Errorf("%s: wrapped policy changed the result", p)
		}
	}
}

func goFiles(t *testing.T) []string {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files: %v", err)
	}
	return files
}

func TestGofmt(t *testing.T) {
	for _, f := range goFiles(t) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(src, out) {
			t.Errorf("%s is not gofmt-formatted", f)
		}
	}
}

func TestVet(t *testing.T) {
	if testing.Short() {
		t.Skip("go vet skipped in -short mode")
	}
	out, err := exec.Command("go", "vet", ".").CombinedOutput()
	if err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
}

// TestLintClean runs the repository's own lint gates, which scan every
// directory under the root, this one included: the benchmark's policy
// wrapper joins the engine's hot call graph, so it must keep the hot-path
// rules and add no heap escape there.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repository lint skipped in -short mode")
	}
	cmd := exec.Command("go", "test", "-count=1", "-run", "^(TestRepoIsClean|TestEscapesGate)$", "./internal/lint")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("repository lint: %v\n%s", err, out)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json, the program's metric
// tables and README.md in step.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"paper-sweep", "many-core", "fleet-cap", "serve-mix"}) {
		t.Errorf("BENCHMARK.json workloads %v", names)
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, perLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	for _, must := range []string{"not validated against real hardware", "no accuracy-error figure"} {
		if !strings.Contains(doc, must) {
			t.Errorf("README.md does not say %q", must)
		}
	}
	for _, w := range names {
		if !strings.Contains(doc, "### "+w) {
			t.Errorf("README.md has no section on why %s exists", w)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(doc, "`"+m.Name+"`") {
			t.Errorf("README.md does not document %s", m.Name)
		}
	}
}
