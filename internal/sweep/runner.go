package sweep

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CellResult is one cell's outcome. Every field except Duration is a
// deterministic function of the cell alone (seed substreams, never
// worker identity), and is bit-identical to what an independent sim.Run
// with Cell.Opts reports.
type CellResult struct {
	Cell Cell
	// Converged, Round, Rounds, GroupSteps, Messages mirror sim.Result.
	Converged  bool
	Round      int
	Rounds     int
	GroupSteps int
	Messages   int
	// Violations counts monitor failures (0 on a correct run).
	Violations int
	// Final holds the final agent states when Options.KeepFinal asked
	// for them (nil otherwise — grids can dwarf memory at scale).
	Final []int
	// Dyn reports what the cell's dynamics schedule did (nil when the
	// cell ran without dynamics): crash/recover counts and the heal
	// rounds the reconvergence metrics are computed from. Deterministic
	// like every other field — a pure function of the cell.
	Dyn *dynamics.Report
	// Duration is wall-clock time for the cell — the one field that is
	// machine- and scheduling-dependent, which is why the Table excludes
	// it.
	Duration time.Duration
}

// Worker owns one warm engine — a sim.Scratch — and executes cells
// sequentially on it. The first cell pays engine set-up (pool, streams,
// trackers, matcher, arenas); every following cell reuses it all through
// sim.RunWith. A Worker belongs to one goroutine at a time. Experiments
// that need per-cell instrumentation (E15 brackets each cell with
// MemStats reads) drive a Worker directly; grids go through Runner,
// which keeps one Worker per pool slot.
type Worker struct {
	// KeepFinal makes Do retain each cell's final states in its
	// CellResult.
	KeepFinal bool
	// Probe, when non-nil, observes every cell this worker executes: it
	// is attached to each run (unless the cell's own Options carry a
	// probe already) and records the cell lifecycle — count, duration
	// histogram, and a JSONL cell event when a trace sink is configured.
	// One probe per worker: obs phase timers are single-goroutine, so
	// workers must not share probes (a shared TraceWriter is fine).
	// Observe-never-perturb — cell results are byte-identical either way.
	Probe *obs.Probe

	sc *sim.Scratch[int]
	// initRng is reseeded per cell for the initial-state draw —
	// identical to rand.New(rand.NewSource(InitSeed)) without
	// reallocating the source's table per cell.
	initRng *rand.Rand
}

// NewWorker builds a warm worker with an empty engine.
func NewWorker() *Worker {
	//lint:ignore detrand warm-reuse twin of the cell contract: initial-state draws must be byte-identical to an independent rand.New(rand.NewSource(InitSeed)), so the worker keeps one stdlib Rand and reseeds it per cell
	return &Worker{sc: sim.NewScratch[int](), initRng: rand.New(rand.NewSource(0))}
}

// Do executes one cell on the worker's warm engine and reports its
// result. The run is bit-identical to an independent
// sim.Run(problem, env, initial, cell.Opts) — the warm-run contract of
// sim.RunWith.
func (w *Worker) Do(c Cell) (CellResult, error) {
	rg := c.Graph
	n := rg.N()
	// A join-bearing schedule grows its graph mid-run, and grid cells of
	// the same (topology, size) share one graph instance — so such a cell
	// runs on a private clone of the pristine topology, and its problem
	// and initial states are sized for the FINAL population (founding
	// agents first, joiners after, in join order — the layout sim.RunWith
	// consumes).
	joiners := 0
	if c.Opts.Dynamics != nil {
		joiners = c.Opts.Dynamics.TotalJoiners()
	}
	if joiners > 0 {
		rg = rg.Clone()
	}
	p := c.Problem.New(n + joiners)
	w.initRng.Seed(c.InitSeed)
	initial := c.Problem.Init(n+joiners, w.initRng)
	e := c.Env.New(rg)
	if c.Opts.Probe == nil {
		c.Opts.Probe = w.Probe // c is a value copy; the grid's cells are untouched
	}

	//lint:ignore timenow CellResult.Duration is documented as the one machine-dependent field; the Table excludes it and nothing downstream branches on it
	start := time.Now()
	res, err := sim.RunWith(w.sc, p, e, initial, c.Opts)
	if err != nil {
		return CellResult{Cell: c}, fmt.Errorf("sweep: cell %d (%s/%s/%s/%d/%s): %w",
			c.Index, c.Env.Name, c.Problem.Name, c.Topo, n, c.Mode, err)
	}
	cr := CellResult{
		Cell:       c,
		Converged:  res.Converged,
		Round:      res.Round,
		Rounds:     res.Rounds,
		GroupSteps: res.GroupSteps,
		Messages:   res.Messages,
		Violations: len(res.Violations),
		//lint:ignore timenow feeds only the machine-dependent-by-contract Duration field
		Duration: time.Since(start),
		Dyn:      res.Dynamics,
	}
	w.Probe.Cell(c.Index, int64(cr.Duration))
	if w.KeepFinal {
		cr.Final = res.Final
	}
	return cr, nil
}

// Close releases the worker's engine (pool goroutines).
func (w *Worker) Close() { w.sc.Close() }

// Options configures a grid run.
type Options struct {
	// Workers is the number of worker slots cells fan out over (≤ 0
	// means GOMAXPROCS). The caller's goroutine always participates;
	// EXTRA workers are granted from the process-wide
	// engine.AcquireSlots budget, so grids nesting sharded
	// (pool-parallel) cells never oversubscribe the machine, and a grid
	// granted no slots degrades to serial execution with identical
	// results.
	Workers int
	// KeepFinal retains each cell's final states in its CellResult.
	KeepFinal bool
	// NewProbe, when non-nil, builds one observability probe per worker
	// slot (called lazily with the slot index when the slot first runs a
	// cell). Per-worker probes keep the single-goroutine timer contract;
	// point them at one shared TraceWriter for a combined trace, and read
	// the merged aggregates with Runner.ObsReport.
	NewProbe func(worker int) *obs.Probe
}

// Result is a grid run's outcome: per-cell results in cell order, the
// rendered Table, and the wall-clock total.
type Result struct {
	Cells   []CellResult
	Table   *Table
	Elapsed time.Duration
}

// Runner executes grids on a persistent set of warm workers — one per
// pool slot, created lazily, kept warm across Run calls so repeated
// grids (benchmark iterations, long experiment sessions) stay in steady
// state. Not safe for concurrent use.
type Runner struct {
	opts    Options
	pool    *engine.Pool
	workers []*Worker
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	pool := engine.NewPool(opts.Workers, 1)
	return &Runner{opts: opts, pool: pool, workers: make([]*Worker, pool.Size())}
}

// Run executes every cell of the grid and assembles the results in cell
// order. Cells are distributed over the pool's workers dynamically;
// because each cell's entire outcome is a function of the cell alone,
// the distribution affects wall-clock only — results and Table bytes are
// identical for every worker count. The first error (in cell order)
// fails the run.
func (r *Runner) Run(g *Grid) (*Result, error) {
	//lint:ignore timenow Result.Elapsed is wall-clock reporting for the CLI; results and Table bytes never depend on it
	start := time.Now()
	results := make([]CellResult, len(g.Cells))
	errs := make([]error, len(g.Cells))
	r.pool.DoAll(len(g.Cells), func(worker, i int) {
		w := r.workers[worker]
		if w == nil {
			w = NewWorker()
			w.KeepFinal = r.opts.KeepFinal
			if r.opts.NewProbe != nil {
				w.Probe = r.opts.NewProbe(worker)
			}
			r.workers[worker] = w
		}
		results[i], errs[i] = w.Do(g.Cells[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	//lint:ignore timenow feeds only the reporting-layer Elapsed field
	return &Result{Cells: results, Table: ResultTable(results), Elapsed: time.Since(start)}, nil
}

// ObsReport merges the per-worker observability probes into one
// run-wide report (zero when Options.NewProbe was not set or no cell has
// run). Call between grid runs, not during one.
func (r *Runner) ObsReport() obs.RoundReport {
	var rep obs.RoundReport
	for _, w := range r.workers {
		if w != nil && w.Probe != nil {
			rep = rep.Merge(w.Probe.Report())
		}
	}
	return rep
}

// Close releases every worker engine and the runner's pool.
func (r *Runner) Close() {
	for _, w := range r.workers {
		if w != nil {
			w.Close()
		}
	}
	r.pool.Close()
}

// Run is the one-shot convenience: build a Runner, execute the grid,
// release everything.
func Run(g *Grid, opts Options) (*Result, error) {
	r := NewRunner(opts)
	defer r.Close()
	return r.Run(g)
}
