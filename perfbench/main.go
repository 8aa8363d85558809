// Command perfbench is the repository benchmark. It drives one named
// workload through the library's entry points for a fixed wall-clock
// budget, checks every output, and prints one JSON result line:
//
//	go run . --workload sim-sparse-1e6 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no probe
// attached. With --trace 1 it attaches the obs probes, records its own
// spans around every layer call, alternates traced and untraced ops, and
// reports the per-layer metrics plus the tracing overhead. See metrics.go
// for every metric and the end-to-end metric each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workers is the thread budget: GOMAXPROCS, sweep workers and sched
// shards. Pinning it keeps the engine's layouts (shard counts) the same on
// every host.
const workers = 2

// rssOps is the number of ops after which peak RSS is read. Caches in the
// engine grow with the inputs seen, so reading it after a fixed amount of
// work keeps runs of different length comparable.
const rssOps = 3

// cellSample is one correct cell's figures.
type cellSample struct {
	ns     float64 // wall time
	rounds float64 // rounds to converge, or rounds run under a fixed budget
	proper float64 // proper (state-changing) group steps
}

// opResult is what one op reports. Failed cells are counted, not sampled.
type opResult struct {
	cells     []cellSample
	attempted int
	failed    int
}

// workload is one named benchmark scenario.
type workload interface {
	// setup builds the graph and inputs and warms the engine, replacing
	// any engine a previous setup with the same traced flag built. It
	// records spans under parent and returns the cold first cell's wall
	// time (0 when the workload has no warm engine).
	setup(tr *tracer, parent int, traced bool) (coldCellNs float64, err error)
	// prepare readies the engine for the next op, outside the timed
	// region.
	prepare(traced bool) error
	// op runs the k-th op of the run's deterministic op sequence; traced
	// attaches the obs probes.
	op(tr *tracer, parent int, traced bool, k int) opResult
	// layers fills in the per-layer metrics of the traced ops.
	layers(m map[string]float64)
	close()
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case wlSparse:
		return newSparse(seed), nil
	case wlGrid:
		return newGrid(seed), nil
	case wlSched:
		return newSched(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (know %s, %s, %s)", name, wlSparse, wlGrid, wlSched)
}

// accum gathers the measured ops of one kind (traced or untraced).
type accum struct {
	cells             []cellSample
	wallNs            float64
	ops               int
	attempted, failed int
	mallocs, bytes    uint64
	gcs               uint32
	pauseNs           uint64
	peakRSSMB         float64 // after set-up and the first rssOps ops
}

func (a *accum) add(r opResult, wall time.Duration) {
	a.cells = append(a.cells, r.cells...)
	a.wallNs += float64(wall.Nanoseconds())
	a.ops++
	a.attempted += r.attempted
	a.failed += r.failed
	if a.ops <= rssOps {
		a.peakRSSMB = peakRSSMB()
	}
}

// endToEnd computes the end-to-end metrics from the set-up times and the
// measured ops.
func endToEnd(setupS []float64, a *accum) map[string]float64 {
	var ns, perRound, rounds []float64
	proper := 0.0
	for _, c := range a.cells {
		ns = append(ns, c.ns)
		rounds = append(rounds, c.rounds)
		if c.rounds > 0 {
			perRound = append(perRound, c.ns/c.rounds)
		}
		proper += c.proper
	}
	wallS := a.wallNs / 1e9
	return map[string]float64{
		"setup_s":            median(setupS),
		"round_ms":           median(perRound) / 1e6,
		"cells_per_s":        ratio(float64(len(a.cells)), wallS),
		"cell_ms_p50":        quantile(ns, 0.5) / 1e6,
		"cell_ms_p90":        quantile(ns, 0.9) / 1e6,
		"mean_rounds":        mean(rounds),
		"proper_steps_per_s": ratio(proper, wallS),
		"peak_rss_mb":        a.peakRSSMB,
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run.
func run(cfg config, w workload) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// trc returns the tracer for a traced step and nil for an untraced one.
	trc := func(traced bool) *tracer {
		if traced {
			return tr
		}
		return nil
	}

	// Set-up runs several times and reports the median; the last set-up
	// of each kind is the engine the ops run on. A traced run alternates
	// untraced and traced set-ups so each kind has an engine.
	nSetup := 5
	if cfg.trace {
		nSetup = 6
	}
	setupS := map[bool][]float64{}
	var cold []float64
	for i := 0; i < nSetup; i++ {
		traced := cfg.trace && i%2 == 1
		t := trc(traced)
		runtime.GC() // each set-up starts from a clean heap, so peak RSS is one set-up's
		start := time.Now()
		sp := t.begin("setup", 0)
		c, err := w.setup(t, sp, traced)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS[traced] = append(setupS[traced], time.Since(start).Seconds())
		if traced {
			cold = append(cold, c)
		}
	}

	acc := map[bool]*accum{false: {}, true: {}}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		// Start another op only while more than half an average op's time
		// is left, so a run's length stays close to the budget on average.
		elapsed := time.Since(start)
		enough := elapsed+elapsed/time.Duration(2*max(i, 1)) >= budget && acc[false].ops > 0
		if cfg.trace {
			enough = enough && acc[true].ops > 0
		}
		if enough {
			break
		}
		// A traced run runs every op twice, untraced then traced, so the
		// tracing overhead compares the same inputs.
		traced, k := false, i
		if cfg.trace {
			traced, k = i%2 == 1, i/2
		}
		t := trc(traced)
		if err := w.prepare(traced); err != nil {
			return nil, fmt.Errorf("prepare op: %w", err)
		}
		// Each op starts from a clean heap: the previous op's garbage would
		// otherwise make peak RSS and GC work depend on collector timing.
		runtime.GC()
		var m0, m1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		opStart := time.Now()
		sp := t.begin("op", 0)
		r := w.op(t, sp, traced, k)
		t.end(sp)
		wall := time.Since(opStart)
		a := acc[traced]
		a.add(r, wall)
		if traced {
			runtime.ReadMemStats(&m1)
			a.mallocs += m1.Mallocs - m0.Mallocs
			a.bytes += m1.TotalAlloc - m0.TotalAlloc
			a.gcs += m1.NumGC - m0.NumGC
			a.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		}
	}

	res := &result{Metrics: map[string]metric{}}
	for _, a := range acc {
		res.Attempted += a.attempted
		res.Failed += a.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	untraced := endToEnd(setupS[false], acc[false])
	if !cfg.trace {
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metric{Value: untraced[d.Name], Unit: d.Unit}
		}
		return res, nil
	}

	m := map[string]float64{}
	for _, d := range perLayerDefs {
		m[d.Name] = 0
	}
	w.layers(m)
	a := acc[true]
	m["graph.build_ns"] = median(selfByName(tr.spans, "graph.build"))
	m["setup.inputs_ns"] = median(selfByName(tr.spans, "inputs"))
	m["setup.warmup_ns"] = median(selfByName(tr.spans, "warmup"))
	m["sweep.cold_cell_ns"] = median(cold)
	if cells := float64(len(a.cells) + a.failed); cells > 0 {
		opSelf := 0.0
		for _, ns := range selfByName(tr.spans, "op") {
			opSelf += ns
		}
		m["bench.op_self_ns"] = opSelf / cells
		m["go.allocs_per_op"] = float64(a.mallocs) / cells
		m["go.alloc_bytes_per_op"] = float64(a.bytes) / cells
		m["go.gc_cycles_per_op"] = float64(a.gcs) / cells
		m["go.gc_pause_ns_per_op"] = float64(a.pauseNs) / cells
	}
	traced := endToEnd(setupS[true], a)
	for _, name := range []string{"setup_s", "round_ms", "cells_per_s", "cell_ms_p50", "cell_ms_p90", "proper_steps_per_s"} {
		m["trace.overhead."+name] = traced[name] - untraced[name]
	}
	for _, d := range perLayerDefs {
		res.Metrics[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// logf reports a diagnostic on standard error; standard output carries
// only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+wlSparse+", "+wlGrid+" or "+wlSched)
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the traced per-layer metrics, 0 the end-to-end metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory for the traced run's span file (none when empty)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case !(cfg.seconds > 0) || math.IsInf(cfg.seconds, 0):
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, w)
	w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
