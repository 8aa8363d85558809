package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{10, 20}, 0, 10},
		{[]float64{10, 20}, 1, 20},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{5, 1, 4}
	if got := median(xs); got != 4 {
		t.Errorf("median(%v) = %v, want 4", xs, got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "call", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "call", StartNs: 50, EndNs: 90},
		{ID: 4, Parent: 3, Name: "inner", StartNs: 60, EndNs: 70},
	}
	if got, want := selfNs(spans), []int64{30, 30, 30, 10}; !slices.Equal(got, want) {
		t.Errorf("selfNs = %v, want %v", got, want)
	}
	if got := selfByName(spans, "call"); !slices.Equal(got, []float64{30, 30}) {
		t.Errorf("selfByName(call) = %v", got)
	}
	var tr *tracer // the untraced run's nil tracer records nothing
	tr.end(tr.begin("op", 0))
}

// fakeWorkload runs instantly; every failEvery-th op fails.
type fakeWorkload struct {
	ops, failEvery int
	setupErr       error
}

func (f *fakeWorkload) setup(tr *tracer, parent int, traced bool) (float64, error) {
	tr.end(tr.begin("graph.build", parent))
	return 1, f.setupErr
}

func (f *fakeWorkload) op(tr *tracer, parent int, traced bool, k int) opResult {
	f.ops++
	tr.end(tr.begin("call", parent))
	if f.failEvery > 0 && f.ops%f.failEvery == 0 {
		return opResult{attempted: 1, failed: 1}
	}
	return opResult{cells: []cellSample{{ns: 1e6, rounds: 4, proper: 3}}, attempted: 1}
}

func (f *fakeWorkload) prepare(bool) error          { return nil }
func (f *fakeWorkload) layers(m map[string]float64) {}
func (f *fakeWorkload) close()                      {}

func TestFailedOpsAreCounted(t *testing.T) {
	for _, trace := range []bool{false, true} {
		f := &fakeWorkload{failEvery: 3}
		res, err := run(config{workload: "fake", seconds: 0.02, trace: trace}, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempted != f.ops || res.Failed != f.ops/3 {
			t.Errorf("trace=%v: attempted=%d failed=%d after %d ops, want %d failed",
				trace, res.Attempted, res.Failed, f.ops, f.ops/3)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("trace=%v: correct=%v with %d failed ops", trace, res.Correct, res.Failed)
		}
	}
	res, err := run(config{workload: "fake", seconds: 0.01}, &fakeWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("clean run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if _, err := run(config{workload: "fake", seconds: 0.01}, &fakeWorkload{setupErr: errors.New("boom")}); err == nil {
		t.Error("a failed set-up produced a result")
	}
}

// TestRunReportsEveryMetric checks that each mode prints exactly its
// metric list, with units.
func TestRunReportsEveryMetric(t *testing.T) {
	for _, c := range []struct {
		trace bool
		defs  []metricDef
	}{{false, endToEndDefs}, {true, perLayerDefs}} {
		res, err := run(config{workload: "fake", seconds: 0.01, trace: c.trace}, &fakeWorkload{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(c.defs) {
			t.Errorf("trace=%v: %d metrics, want %d", c.trace, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", c.trace, d.Name, m, d.Unit)
			}
		}
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEndDefs), perLayerDefs...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("bad metric name or unit: %q %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayerDefs {
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it moves", d.Name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metric
// and workload tables here.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	if want := []string{wlSparse, wlSched}; !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	strip := func(ds []metricDef) []metricDef {
		out := make([]metricDef, len(ds))
		for i, d := range ds {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
		}
		return out
	}
	if !slices.Equal(strip(b.EndToEnd), strip(endToEndDefs)) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEndDefs")
	}
	if !slices.Equal(strip(b.PerLayer), strip(perLayerDefs)) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerDefs")
	}
}

func TestSeedReachesInputs(t *testing.T) {
	g := graph.Ring(4096)
	draw := func(seed int64) []int {
		c := sparseCell(g, seed)
		return c.Problem.Init(g.N(), rand.New(rand.NewSource(c.InitSeed)))
	}
	if slices.Equal(draw(1), draw(2)) {
		t.Error("sim-sparse-1e6 inputs do not depend on the seed")
	}
	if !slices.Equal(draw(3), draw(3)) {
		t.Error("sim-sparse-1e6 inputs differ for one seed")
	}
	if c1, c2 := sparseCell(g, 1), sparseCell(g, 2); c1.Opts.Seed == c2.Opts.Seed {
		t.Error("sim-sparse-1e6 run seed does not depend on the workload seed")
	}

	if slices.Equal(schedInputs(1024, 1), schedInputs(1024, 2)) {
		t.Error("sched-hypercube-1e5 inputs do not depend on the seed")
	}
	if !slices.Equal(schedInputs(1024, 3), schedInputs(1024, 3)) {
		t.Error("sched-hypercube-1e5 inputs differ for one seed")
	}
	s1, s2 := newSched(1), newSched(2)
	s1.g, s2.g = g, g
	if s1.options(false, 0).Seed == s2.options(false, 0).Seed || s1.options(false, 0).Seed == s1.options(false, 1).Seed {
		t.Error("sched-hypercube-1e5 run seeds do not depend on the workload seed and op")
	}

	a1, a2 := gridAxes(1), gridAxes(2)
	a1.Sizes, a2.Sizes = []int{16}, []int{16} // small graphs: only the seeds matter here
	g1, err := a1.Grid()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := a2.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Cells {
		if g1.Cells[i].InitSeed == g2.Cells[i].InitSeed || g1.Cells[i].Opts.Seed == g2.Cells[i].Opts.Seed {
			t.Fatalf("sim-grid-churn cell %d seeds do not depend on the workload seed", i)
		}
	}
	gw1, gw2 := &grid{seed: 1, g: g1}, &grid{seed: 2, g: g1}
	p10, p11, p20 := gw1.pass(0), gw1.pass(1), gw2.pass(0)
	for i := range p10.Cells {
		if p10.Cells[i].InitSeed == p20.Cells[i].InitSeed || p10.Cells[i].InitSeed == p11.Cells[i].InitSeed {
			t.Fatalf("sim-grid-churn pass seeds of cell %d do not depend on the workload seed and op", i)
		}
		if p10.Cells[i].Graph != g1.Cells[i].Graph || p10.Cells[i].Opts.Dynamics != g1.Cells[i].Opts.Dynamics {
			t.Fatalf("sim-grid-churn pass changed cell %d's graph or schedule", i)
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", wlGrid, "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != wlGrid || cfg.seed != 7 || cfg.seconds != 3 || !cfg.trace {
		t.Errorf("parsed %+v", cfg)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seconds", "0"}, {"--seconds", "x"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted bad flags", bad)
		}
	}
	if _, err := newWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
