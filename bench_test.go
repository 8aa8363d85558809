package selfsim

// Benchmark harness: one benchmark per reproduction experiment (E1–E17,
// regenerating the paper's Figures 1–3 and every prose claim — see
// DESIGN.md §5 for the experiment index), plus micro-benchmarks of the
// substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the same code paths as
// cmd/experiments at quick scale, so `-bench` doubles as a smoke test of
// the full harness; ns/op numbers measure the cost of regenerating each
// experiment.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dynamics"
	sweepenv "repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/geom"
	ms "repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/sweep"
)

func benchSection(b *testing.B, run func(experiments.Config) experiments.Section) {
	b.Helper()
	cfg := experiments.QuickConfig()
	for i := 0; i < b.N; i++ {
		sec := run(cfg)
		if !sec.ShapeHolds {
			b.Fatalf("%s: shape does not hold\n%s", sec.ID, sec.Body)
		}
	}
}

// --- One benchmark per experiment (tables & figures) ---

// BenchmarkE1Fig1Sorting regenerates Fig. 1: exhaustive local-to-global
// search for the out-of-order-pairs objective.
func BenchmarkE1Fig1Sorting(b *testing.B) { benchSection(b, experiments.E1Fig1) }

// BenchmarkE2Fig2Circle regenerates Fig. 2: the naive circumscribing
// circle is not super-idempotent.
func BenchmarkE2Fig2Circle(b *testing.B) { benchSection(b, experiments.E2Fig2) }

// BenchmarkE3Fig3Hull regenerates Fig. 3: the convex hull is
// super-idempotent and computes the circumscribing circle under churn.
func BenchmarkE3Fig3Hull(b *testing.B) { benchSection(b, experiments.E3Fig3) }

// BenchmarkE4Adaptivity regenerates the availability sweep (rounds vs p).
func BenchmarkE4Adaptivity(b *testing.B) { benchSection(b, experiments.E4Adaptivity) }

// BenchmarkE5Partition regenerates the partition/heal/snapshot
// comparison.
func BenchmarkE5Partition(b *testing.B) { benchSection(b, experiments.E5Partition) }

// BenchmarkE6Scale regenerates the rounds-vs-N scalability table.
func BenchmarkE6Scale(b *testing.B) { benchSection(b, experiments.E6Scale) }

// BenchmarkE7Sum regenerates the §4.2 complete-graph requirement table.
func BenchmarkE7Sum(b *testing.B) { benchSection(b, experiments.E7Sum) }

// BenchmarkE8Sort regenerates the §4.4 line-graph sorting table.
func BenchmarkE8Sort(b *testing.B) { benchSection(b, experiments.E8Sort) }

// BenchmarkE9Checkers regenerates the super-idempotence classification
// table.
func BenchmarkE9Checkers(b *testing.B) { benchSection(b, experiments.E9Classification) }

// BenchmarkE10ModelCheck regenerates the proof-obligation model-checking
// table.
func BenchmarkE10ModelCheck(b *testing.B) { benchSection(b, experiments.E10ModelCheck) }

// BenchmarkE11Ablation regenerates the granularity/baseline ablation.
func BenchmarkE11Ablation(b *testing.B) { benchSection(b, experiments.E11Ablation) }

// BenchmarkE12Fairness regenerates the fairness ablation.
func BenchmarkE12Fairness(b *testing.B) { benchSection(b, experiments.E12Fairness) }

// --- Round-engine hot-path benchmarks (allocation budget) ---
//
// The BenchmarkSim* pair measures the round-based engine itself — one full
// simulated system per iteration with a FIXED seed, so every iteration
// executes the identical round sequence and allocs/op is a stable budget
// number. DESIGN.md records the before/after numbers for the
// zero-allocation engine-core refactor.

// BenchmarkSimComponentRing64 measures the ComponentMode hot path: min
// consensus on a 64-ring at 50% edge availability.
func BenchmarkSimComponentRing64(b *testing.B) {
	g := Ring(64)
	vals := rand.New(rand.NewSource(1)).Perm(256)[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate[int](NewMin(), EdgeChurn(g, 0.5), vals,
			Options{Seed: 1, StopOnConverged: true, MaxRounds: 100_000})
		if err != nil || !res.Converged {
			b.Fatal("run failed")
		}
	}
}

// BenchmarkSimPairwiseComplete32 measures the PairwiseMode hot path: sum
// on K32 at 50% edge availability.
func BenchmarkSimPairwiseComplete32(b *testing.B) {
	g := Complete(32)
	vals := rand.New(rand.NewSource(2)).Perm(128)[:32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate[int](NewSum(), EdgeChurn(g, 0.5), vals,
			Options{Seed: 2, StopOnConverged: true, MaxRounds: 100_000, Mode: PairwiseMode})
		if err != nil || !res.Converged {
			b.Fatal("run failed")
		}
	}
}

// BenchmarkSimShardedRing10k measures the sharded state layout end to
// end: min consensus on a 10⁴-ring at 99% availability, 4 shards, fixed
// seed — the per-round delta staging, parallel shard repair, P-way merged
// snapshot, and sharded monitor reduction all on the hot path.
func BenchmarkSimShardedRing10k(b *testing.B) {
	g := Ring(10_000)
	vals := rand.New(rand.NewSource(7)).Perm(40_000)[:10_000]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate[int](NewMin(), EdgeChurn(g, 0.99), vals,
			Options{Seed: 7, StopOnConverged: true, MaxRounds: 200_000, Shards: 4})
		if err != nil || !res.Converged {
			b.Fatal("run failed")
		}
	}
}

// BenchmarkSimPairwiseSharded4k measures the sharded pairwise round end
// to end: min gossip on a 4096-agent hypercube at 99% availability, 4
// state shards, fixed seed. The matcher's memo, query stacks and outputs
// are matcher-owned and reused, so allocs/op is a stable budget number
// like the component path's (enforced by scripts/check_alloc_budget.sh).
func BenchmarkSimPairwiseSharded4k(b *testing.B) {
	g := Hypercube(12)
	vals := rand.New(rand.NewSource(9)).Perm(4 * g.N())[:g.N()]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate[int](NewMin(), EdgeChurn(g, 0.99), vals,
			Options{Seed: 9, StopOnConverged: true, MaxRounds: 200_000,
				Mode: PairwiseMode, Shards: 4})
		if err != nil || !res.Converged {
			b.Fatal("run failed")
		}
	}
}

// benchWarmPairwiseCell runs one fixed-seed pairwise churn cell on a
// persistent warm sweep worker: a FIXED number of rounds per iteration
// (StopOnConverged off), so ns/op ÷ rounds and allocs/op ÷ rounds are
// per-round numbers. Availability 0.999 puts the system in the sparse
// regime — ~0.1% of edges flip per round — and min's endpoints-differ
// index keeps the match and the step at O(pairs that can change).
func benchWarmPairwiseCell(b *testing.B, w *sweep.Worker, g *Graph, rounds int) {
	benchWarmPairwiseCellProbed(b, w, g, rounds, nil)
}

// benchWarmPairwiseCellProbed is benchWarmPairwiseCell with an optional
// observability probe attached to the MEASURED iterations (the warm-up
// run stays unprobed, so the probe's aggregates cover exactly
// rounds×b.N rounds). Every run reports rounds/op as a benchmark metric
// — scripts/bench_record.sh parses it instead of hardcoding the round
// count — and a probed run additionally reports per-phase ns_*/round
// metrics, which bench_record.sh records as the phase_split row of
// BENCH_roundscale.json.
func benchWarmPairwiseCellProbed(b *testing.B, w *sweep.Worker, g *Graph, rounds int, probe *obs.Probe) {
	cell := sweep.Cell{
		Env:      sweepenv.ChurnDesc(0.999),
		Problem:  problems.MinDesc(),
		Topo:     "ring",
		Graph:    g,
		Mode:     PairwiseMode,
		InitSeed: int64(g.N()),
		Opts: Options{Seed: 1, MaxRounds: rounds,
			Mode: PairwiseMode, Shards: 4},
	}
	if _, err := w.Do(cell); err != nil { // warm the engine scratch
		b.Fatal(err)
	}
	cell.Opts.Probe = probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := w.Do(cell)
		if err != nil || cr.Rounds != rounds {
			b.Fatalf("cell run failed: %v (rounds=%d)", err, cr.Rounds)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds), "rounds/op")
	if probe != nil {
		rep := probe.Report()
		total := float64(rounds) * float64(b.N)
		for _, ph := range []obs.Phase{
			obs.PhaseEnvStep, obs.PhaseMatcherUpdate,
			obs.PhaseMatch, obs.PhaseGroupStep, obs.PhaseMonitor,
		} {
			b.ReportMetric(float64(rep.PhaseNs(ph))/total, "ns_"+ph.String()+"/round")
		}
	}
}

// BenchmarkSimRoundScale measures steady-state pairwise round cost at
// N ∈ {10⁴, 10⁵, 10⁶} on a warm engine, roundsPerOp rounds per
// iteration. scripts/bench_record.sh runs this family and records
// ns/round and allocs/round per N in BENCH_roundscale.json; the headline
// acceptance claim is allocs/round flat in N (heap traffic tracks
// changes and rounds, not graph size).
func BenchmarkSimRoundScale(b *testing.B) {
	const roundsPerOp = 32
	w := sweep.NewWorker()
	defer w.Close()
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchWarmPairwiseCell(b, w, Ring(n), roundsPerOp)
		})
	}
}

// BenchmarkSimPairwiseDelta1e5 is the steady-state allocation-budget
// benchmark for the O(changes) round path at N = 10⁵ (64 rounds per op
// on a warm engine — post-warmup, so engine set-up is off the meter and
// allocs/op pins per-run bookkeeping plus 64 O(changes) rounds). Its
// hard budget lives in scripts/check_alloc_budget.sh.
func BenchmarkSimPairwiseDelta1e5(b *testing.B) {
	w := sweep.NewWorker()
	defer w.Close()
	benchWarmPairwiseCell(b, w, Ring(100_000), 64)
}

// BenchmarkSimRoundProbed is the probes-ON twin of the round-scale
// family: the same warm pairwise delta cell at N = 10⁵, 32 rounds per
// op, with an obs.Probe (real clock, no trace sink) attached to every
// measured run. It serves two scripts: scripts/check_alloc_budget.sh
// enforces a hard allocs/op budget — the probe's Begin/End/Add hot path
// must stay allocation-free, so the budget matches the unprobed cell's
// per-run bookkeeping — and scripts/bench_record.sh records the
// ns_*/round metrics as the phase_split row of BENCH_roundscale.json.
func BenchmarkSimRoundProbed(b *testing.B) {
	w := sweep.NewWorker()
	defer w.Close()
	probe := obs.NewProbe(obs.Config{})
	benchWarmPairwiseCellProbed(b, w, Ring(100_000), 32, probe)
}

// BenchmarkE15Scaling regenerates the 10⁴–10⁵-agent scaling study.
func BenchmarkE15Scaling(b *testing.B) { benchSection(b, experiments.E15Scaling) }

// BenchmarkE16ScenarioMatrix regenerates the scenario-matrix grid on the
// batched sweep runner.
func BenchmarkE16ScenarioMatrix(b *testing.B) { benchSection(b, experiments.E16ScenarioMatrix) }

// BenchmarkE17Dynamics regenerates the fault-and-dynamism matrix
// (scripted crash/recover, partition/heal, burst schedules).
func BenchmarkE17Dynamics(b *testing.B) { benchSection(b, experiments.E17Dynamics) }

// BenchmarkE18RoundCost regenerates the steady-state round-cost study —
// fixed-round pairwise cells at N up to 10⁶ on the warm engine.
func BenchmarkE18RoundCost(b *testing.B) { benchSection(b, experiments.E18RoundCost) }

// BenchmarkE19Membership regenerates the growable-population study: the
// §3.4 amnesiac-rejoin classification plus the join-laden layout-
// determinism matrix.
func BenchmarkE19Membership(b *testing.B) { benchSection(b, experiments.E19Membership) }

// BenchmarkJoinSplice measures a join-laden cell on a warm worker:
// Ring(4096) pairwise churn, 8 agents spliced in at round 4, 32 fixed
// rounds per op. Relative to the join-free warm-cell benchmarks each op
// adds everything the growable-population path allocates — the clone of
// the pristine grid graph, the ring splice, the partition extension,
// matcher/mask/tracker growth, and the joiners' identity-keyed
// substreams. scripts/check_alloc_budget.sh pins allocs/op so
// attachment stays O(joined subgraph + changed edges) and never
// regresses into a per-round or per-agent rebuild.
func BenchmarkJoinSplice(b *testing.B) {
	w := sweep.NewWorker()
	defer w.Close()
	cell := sweep.Cell{
		Env:      sweepenv.ChurnDesc(0.999),
		Problem:  problems.MinDesc(),
		Topo:     "ring",
		Graph:    Ring(4096),
		Mode:     PairwiseMode,
		InitSeed: 17,
		Opts: Options{Seed: 1, MaxRounds: 32, Mode: PairwiseMode, Shards: 4,
			Dynamics: dynamics.NewSchedule(dynamics.Join(8, "ring", 4))},
	}
	if _, err := w.Do(cell); err != nil { // warm the engine scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := w.Do(cell)
		if err != nil || cr.Rounds != 32 || cr.Dyn == nil || cr.Dyn.Joins != 8 {
			b.Fatalf("join cell run failed: %v (rounds=%d)", err, cr.Rounds)
		}
	}
}

// BenchmarkSimWithDynamics is BenchmarkSimComponentRing64 with an EMPTY
// dynamics schedule attached: the same run, rounds, and results, plus
// the dynamics hook on the hot path (per-round Begin/EndRound, the
// frozen check over an empty list). Its CI allocation budget equals the
// plain component budget, pinning the subsystem contract that an empty
// schedule adds ~0 allocs/round — the hook must stay invisible until a
// schedule actually fires something.
func BenchmarkSimWithDynamics(b *testing.B) {
	g := Ring(64)
	vals := rand.New(rand.NewSource(1)).Perm(256)[:64]
	empty := dynamics.NewSchedule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate[int](NewMin(), EdgeChurn(g, 0.5), vals,
			Options{Seed: 1, StopOnConverged: true, MaxRounds: 100_000, Dynamics: empty})
		if err != nil || !res.Converged {
			b.Fatal("run failed")
		}
	}
}

// BenchmarkSweepGrid measures the batched scenario-grid runner in steady
// state: one persistent Runner (warm workers — pool, trackers, matcher
// scratch, arenas survive between cells AND between grids) executes the
// same 24-cell pairwise grid every iteration, serially (Workers: 1) so
// allocs/op is a stable budget number. Pairwise min/max/gcd cells step
// allocation-free, so allocs/op is per-cell run bookkeeping (Result,
// probe, environment masks, final-state copy) plus table rendering —
// NOT engine set-up, which only the first (untimed) grid pays. The CI
// allocation budget in scripts/check_alloc_budget.sh pins exactly that:
// a regression that re-pays tracker/matcher/pool construction per cell
// multiplies the number and fails loudly.
func BenchmarkSweepGrid(b *testing.B) {
	axes := sweep.Axes{
		Envs:      []sweepenv.Desc{sweepenv.ChurnDesc(0.9), sweepenv.StaticDesc()},
		Problems:  []problems.Desc{problems.MinDesc(), problems.MaxDesc(), problems.GCDDesc()},
		Topos:     []sweep.Topo{sweep.CompleteTopo()},
		Sizes:     []int{32},
		Modes:     []Mode{PairwiseMode},
		Seeds:     4,
		BaseSeed:  9,
		MaxRounds: 60_000,
	}
	grid, err := axes.Grid()
	if err != nil {
		b.Fatal(err)
	}
	runner := sweep.NewRunner(sweep.Options{Workers: 1})
	defer runner.Close()
	if _, err := runner.Run(grid); err != nil { // warm the workers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(grid)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Cells {
			if !c.Converged || c.Violations != 0 {
				b.Fatalf("cell %d: converged=%v violations=%d", c.Cell.Index, c.Converged, c.Violations)
			}
		}
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkEngineRoundRing64 measures one simulated system per iteration:
// min consensus on a 64-ring at 50% availability.
func BenchmarkEngineRoundRing64(b *testing.B) {
	g := Ring(64)
	vals := rand.New(rand.NewSource(1)).Perm(256)[:64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate[int](NewMin(), EdgeChurn(g, 0.5), vals,
			Options{Seed: int64(i), StopOnConverged: true, MaxRounds: 100_000})
		if err != nil || !res.Converged {
			b.Fatal("run failed")
		}
	}
}

// BenchmarkEnginePairwiseComplete32 measures pairwise-gossip sum runs.
func BenchmarkEnginePairwiseComplete32(b *testing.B) {
	g := Complete(32)
	vals := rand.New(rand.NewSource(2)).Perm(128)[:32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate[int](NewSum(), EdgeChurn(g, 0.5), vals,
			Options{Seed: int64(i), StopOnConverged: true, MaxRounds: 100_000, Mode: PairwiseMode})
		if err != nil || !res.Converged {
			b.Fatal("run failed")
		}
	}
}

// BenchmarkMultisetUnion measures the canonical-merge union on 1k+1k
// elements.
func BenchmarkMultisetUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := ms.OfInts(rng.Perm(1000)...)
	c := ms.OfInts(rng.Perm(1000)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Union(c).Len() != 2000 {
			b.Fatal("bad union")
		}
	}
}

// BenchmarkConvexHull1000 measures the monotone-chain hull on 1000 random
// points.
func BenchmarkConvexHull1000(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(geom.ConvexHull(pts)) < 3 {
			b.Fatal("degenerate hull")
		}
	}
}

// BenchmarkEnclosingCircle1000 measures Welzl's algorithm on 1000 points.
func BenchmarkEnclosingCircle1000(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if geom.EnclosingCircle(pts).R <= 0 {
			b.Fatal("degenerate circle")
		}
	}
}

// BenchmarkSuperIdempotenceChecker measures the randomized checker on the
// min function.
func BenchmarkSuperIdempotenceChecker(b *testing.B) {
	gen := func(r *rand.Rand) ms.Multiset[int] {
		n := 1 + r.Intn(8)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(16)
		}
		return ms.OfInts(vals...)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckSuperIdempotent(problems.MinF(), ExactEqual[int](), gen, 100, rng.Int63()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelCheckMinK4 measures exhaustive exploration of min over K4
// pairs.
func BenchmarkModelCheckMinK4(b *testing.B) {
	g := Complete(4)
	for i := 0; i < b.N; i++ {
		rep, err := ModelCheck[int](NewMin(), g, []int{5, 1, 3, 2})
		if err != nil || !rep.OK() {
			b.Fatal("model check failed")
		}
	}
}

// BenchmarkE13Continuous regenerates the continuous-extension experiment.
func BenchmarkE13Continuous(b *testing.B) { benchSection(b, experiments.E13Continuous) }

// BenchmarkFlowRing64 measures one full continuous averaging run on a
// 64-ring under churn.
func BenchmarkFlowRing64(b *testing.B) {
	g := Ring(64)
	x0 := make([]float64, 64)
	for i := range x0 {
		x0[i] = float64((i * 37) % 101)
	}
	e := EdgeChurn(g, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunFlow(e, x0, FlowOptions{Dt: 0.2, Rounds: 200_000, Seed: int64(i), Tol: 1e-6})
		if err != nil || !res.Converged {
			b.Fatal("flow run failed")
		}
	}
}

// BenchmarkAblationCheckStepsOverhead quantifies the runtime-verification
// monitor's cost: the same run with and without D-step checking.
func BenchmarkAblationCheckStepsOverhead(b *testing.B) {
	g := Ring(32)
	vals := rand.New(rand.NewSource(8)).Perm(128)[:32]
	for _, check := range []bool{false, true} {
		name := "monitor-off"
		if check {
			name = "monitor-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Simulate[int](NewMin(), EdgeChurn(g, 0.5), vals,
					Options{Seed: int64(i), StopOnConverged: true, CheckSteps: check, MaxRounds: 100_000})
				if err != nil || !res.Converged {
					b.Fatal("run failed")
				}
			}
		})
	}
}

// BenchmarkE14EscapePostulate regenerates the §2.1 escape-postulate
// demonstration.
func BenchmarkE14EscapePostulate(b *testing.B) { benchSection(b, experiments.E14EscapePostulate) }

// BenchmarkAblationGreedyVsPartialMin compares the two ends of the §4.1
// algorithm class: full jumps to the group minimum vs. lazy partial
// moves.
func BenchmarkAblationGreedyVsPartialMin(b *testing.B) {
	g := Ring(24)
	vals := rand.New(rand.NewSource(9)).Perm(96)[:24]
	for _, cfgCase := range []struct {
		name string
		p    Problem[int]
	}{
		{"greedy", NewMin()},
		{"partial", NewPartialMin()},
	} {
		b.Run(cfgCase.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Simulate[int](cfgCase.p, EdgeChurn(g, 0.5), vals,
					Options{Seed: int64(i), StopOnConverged: true, MaxRounds: 200_000})
				if err != nil || !res.Converged {
					b.Fatal("run failed")
				}
			}
		})
	}
}

// --- Async engine: E20's sharded scheduler measured directly ---

// BenchmarkSchedExchange1e4 pins the sharded scheduler's per-exchange
// allocation contract at N = 8192 (min over Hypercube(13), 60·N
// initiation budget, ~15k exchanges to convergence): mailbox rings, run
// queues, and deferred heaps are preallocated, so a whole run costs only
// its O(shards + population arrays) setup allocations — allocs/op stays
// in the hundreds for half a million available initiations, and
// scripts/check_alloc_budget.sh enforces a hard budget on it. A
// regression that allocates per exchange (one message box, one heap node)
// adds tens of thousands and fails loudly.
func BenchmarkSchedExchange1e4(b *testing.B) {
	const dim = 13
	const n = 1 << dim
	g := Hypercube(dim)
	vals := make([]int, n)
	for i := range vals {
		vals[i] = 2 + (i*7919)%997
	}
	vals[n/2] = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := DefaultAsyncOptions(int64(i + 1))
		o.MaxOps = 60 * n
		o.Timeout = 2 * time.Minute
		res, err := SimulateAsync[int](NewMin(), g, vals, o)
		if err != nil || !res.Converged {
			b.Fatalf("sched run failed: %v", err)
		}
	}
}

// BenchmarkSchedScale is the recorded scaling row (scripts/
// bench_record.sh → BENCH_roundscale.json): min over the hypercube at
// N = 2¹⁰, 2¹³, 2¹⁷ on the sharded scheduler, reporting proper steps
// per wall-clock second via the engine's own sanctioned clock. The
// log-diameter topology converges within the 60·N budget at every size,
// so the metric compares like with like as N grows three decades.
func BenchmarkSchedScale(b *testing.B) {
	for _, dim := range []int{10, 13, 17} {
		dim := dim
		n := 1 << dim
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			g := Hypercube(dim)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = 2 + (i*7919)%997
			}
			vals[n/2] = 1
			var proper int
			var elapsed time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := DefaultAsyncOptions(20)
				o.MaxOps = 60 * n
				o.Timeout = 2 * time.Minute
				res, err := SimulateAsync[int](NewMin(), g, vals, o)
				if err != nil || !res.Converged {
					b.Fatalf("sched run failed: %v", err)
				}
				proper += res.ProperSteps
				elapsed += res.Elapsed
			}
			if elapsed > 0 {
				b.ReportMetric(float64(proper)/elapsed.Seconds(), "propersteps/s")
			}
		})
	}
}
