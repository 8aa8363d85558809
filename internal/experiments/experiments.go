// Package experiments implements the reproduction experiments E1–E17
// catalogued in DESIGN.md: Figures 1–3 of the paper as executable
// artifacts, measurable versions of every quantitative claim the paper
// makes in prose, the large-N scaling study (E15), the scenario matrix
// on the batched sweep runner (E16), and the fault-and-dynamism matrix
// over scripted crash/partition/burst schedules (E17). cmd/experiments
// renders the results into the report; bench_test.go at the repository
// root exposes each as a benchmark.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/dynsys"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mc"
	"repro/internal/metrics"
	ms "repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Config scales the experiments.
type Config struct {
	// Seeds is the number of independent runs per data point.
	Seeds int
	// Quick shrinks sweeps for fast test runs.
	Quick bool
	// Obs, when non-nil, is the observability probe instrumented sections
	// attach to their measured runs (E18 brackets each round-cost cell
	// with it, so its phase timers and trace events land here).
	// cmd/experiments builds one from -trace / -phase-metrics /
	// -pprof-labels; nil makes such sections use a private probe, which
	// still feeds their phase tables. Observe-never-perturb: section
	// results are identical either way.
	Obs *obs.Probe
}

// DefaultConfig returns the configuration used to produce EXPERIMENTS.md.
func DefaultConfig() Config { return Config{Seeds: 20} }

// QuickConfig returns a configuration small enough for unit tests.
func QuickConfig() Config { return Config{Seeds: 3, Quick: true} }

// Section is one rendered experiment.
type Section struct {
	// ID is the experiment identifier (E1…E20).
	ID string
	// Title names the experiment.
	Title string
	// Claim quotes or paraphrases the paper's claim under test.
	Claim string
	// Body is the rendered markdown (tables, findings).
	Body string
	// ShapeHolds reports whether the qualitative shape of the paper's
	// claim was observed.
	ShapeHolds bool
}

// Sections lists every experiment in report order: entry i renders
// section E(i+1).
func Sections() []func(Config) Section {
	return []func(Config) Section{
		E1Fig1, E2Fig2, E3Fig3, E4Adaptivity, E5Partition, E6Scale, E7Sum,
		E8Sort, E9Classification, E10ModelCheck, E11Ablation, E12Fairness,
		E13Continuous, E14EscapePostulate, E15Scaling, E16ScenarioMatrix,
		E17Dynamics, E18RoundCost, E19Membership, E20SchedScale,
	}
}

func initialValues(n int, seed int64) []int {
	//lint:ignore detrand experiment trial stream with a hard-coded seed; EXPERIMENTS.md tables are byte-pinned to these exact stdlib draws
	rng := rand.New(rand.NewSource(seed))
	vals := rng.Perm(4 * n)[:n]
	return vals
}

// forEachSeed runs body(s) for every seed index 0 ≤ s < n on an engine
// worker pool (threshold 0: always engaged). The pool draws its extra
// workers from the process-wide worker-slot budget and the caller
// participates, so the sweep uses at most GOMAXPROCS goroutines even
// when seeds nest sharded, pool-parallel runs — the nested pools draw
// from the same budget, so workers × shards can never oversubscribe the
// machine. Each seed owns its entire RNG stream (mk closures build
// problem, environment, and options from the seed alone), so fanning
// seeds out changes wall-clock time only: aggregation happens afterwards
// in seed order and results stay bit-for-bit identical to the sequential
// loop.
func forEachSeed(n int, body func(s int)) {
	pool := engine.NewPool(0, 0)
	defer pool.Close()
	pool.DoAll(n, func(_, s int) { body(s) })
}

func medianRounds[T any](cfg Config, mk func(seed int64) (*sim.Result[T], error)) (float64, float64, error) {
	results := make([]*sim.Result[T], cfg.Seeds)
	errs := make([]error, cfg.Seeds)
	forEachSeed(cfg.Seeds, func(s int) {
		results[s], errs[s] = mk(int64(s) + 1)
	})
	var rounds metrics.Sample
	converged := 0
	for s := 0; s < cfg.Seeds; s++ {
		if errs[s] != nil {
			return 0, 0, errs[s]
		}
		res := results[s]
		if res.Converged {
			converged++
			rounds.AddInt(res.Round)
		} else {
			rounds.AddInt(res.Rounds)
		}
	}
	return rounds.Median(), float64(converged) / float64(cfg.Seeds), nil
}

// --- E1 / Fig. 1 ---

// E1Fig1 reproduces the content of the paper's Fig. 1: the
// out-of-order-pairs objective for sorting lacks the local-to-global
// property, while the squared-displacement objective has it.
func E1Fig1(cfg Config) Section {
	var b strings.Builder

	// (a) The paper's printed example, recomputed.
	before, after, bIdx, cIdx := problems.PaperFig1States()
	h := problems.InversionsH()
	cmpItems := problems.CompareItems
	toItems := func(vals []int, idxs []int) ms.Multiset[problems.Item] {
		items := make([]problems.Item, len(idxs))
		for i, ix := range idxs {
			items[i] = problems.Item{Index: ix, Value: vals[ix]}
		}
		return ms.New(cmpItems, items...)
	}
	all := func(vals []int) ms.Multiset[problems.Item] {
		return ms.New(cmpItems, problems.InitialItems(vals)...)
	}
	t := metrics.NewTable("state", "paper's printed h", "recomputed h (out-of-order pairs)")
	t.AddRowf("S_B∪C = "+fmt.Sprint(before), 14, h.Value(all(before)))
	t.AddRowf("S_B   = values of B in "+fmt.Sprint(before), 10, h.Value(toItems(before, bIdx)))
	t.AddRowf("S'_B∪C = "+fmt.Sprint(after), 15, h.Value(all(after)))
	t.AddRowf("S'_B  = values of B in "+fmt.Sprint(after), 9, h.Value(toItems(after, cIdxComplement(bIdx, cIdx, after))))
	b.WriteString("Paper's printed example (B = indexes {1,3,4,5,6,7}, C = {2}, 1-based):\n\n")
	b.WriteString(t.String())
	b.WriteString("\nThe printed h values do not match the paper's own definition of h\n" +
		"(the number of out-of-order pairs) under our arithmetic — and under the\n" +
		"literal definition the printed transition does NOT witness a violation\n" +
		"(both B's count and the union's count decrease). The figure's CLAIM is\n" +
		"nevertheless correct, as the exhaustive search below shows.\n\n")

	// (b) Exhaustive search: no violation at n ≤ 4, violation at n = 5.
	t2 := metrics.NewTable("array size n", "violation of (10) exists?", "witness")
	shape := true
	for n := 3; n <= 5; n++ {
		v := problems.FindInversionsL2GViolation(n)
		switch {
		case n <= 4 && v != nil:
			shape = false
			t2.AddRowf(n, "yes (unexpected)", v.String())
		case n <= 4:
			t2.AddRowf(n, "no (exhaustive)", "—")
		case v == nil:
			shape = false
			t2.AddRowf(n, "no (unexpected)", "—")
		default:
			t2.AddRowf(n, "YES", v.String())
		}
	}
	b.WriteString("Exhaustive search over all partitions and all B-improving permutations:\n\n")
	b.WriteString(t2.String())

	// (c) The replacement objective is clean.
	t3 := metrics.NewTable("array size n", "squared-displacement violation?")
	for n := 3; n <= 5; n++ {
		if v := problems.VerifyDisplacementL2G(n); v != nil {
			shape = false
			t3.AddRowf(n, "yes (unexpected): "+v.String())
		} else {
			t3.AddRowf(n, "no (exhaustive)")
		}
	}
	b.WriteString("\nThe paper's replacement objective Σ(i−ord(x))²:\n\n")
	b.WriteString(t3.String())
	_ = cfg

	return Section{
		ID:    "E1",
		Title: "Fig. 1 — \"number of out-of-order pairs\" lacks the local-to-global property",
		Claim: "§4.4/Fig. 1: the out-of-order-pairs objective does not satisfy (10); the squared-displacement objective does.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// cIdxComplement returns B's indexes (the complement of C) — helper to
// make the table construction explicit about which values belong to B
// after the transition.
func cIdxComplement(bIdx, _ []int, _ []int) []int { return bIdx }

// --- E2 / Fig. 2 ---

// E2Fig2 reproduces Fig. 2: the naive circumscribing-circle function is
// idempotent but not super-idempotent.
func E2Fig2(cfg Config) Section {
	var b strings.Builder
	f := problems.CircumcircleNaiveF()
	eq := problems.CircleStatesEqual(1e-6)

	pts := problems.Fig2Configuration()
	all := problems.InitialCircles(pts)
	x := ms.New(problems.CompareCircleStates, all[0], all[1], all[2])
	y := ms.New(problems.CompareCircleStates, all[3])
	direct := f.Apply(x.Union(y)).At(0).Est
	via := f.Apply(f.Apply(x).Union(y)).At(0).Est

	t := metrics.NewTable("quantity", "circle", "radius")
	t.AddRowf("f(S_B ∪ S_C)   (solid circle in Fig. 2)", direct.String(), direct.R)
	t.AddRowf("f(f(S_B) ∪ S_C) (dashed circle in Fig. 2)", via.String(), via.R)
	b.WriteString(fmt.Sprintf("Configuration (agents 1–3 = B, agent 4 = C): %v\n\n", pts))
	b.WriteString(t.String())
	shape := !direct.Near(via, 1e-6) && via.R > direct.R

	// Violation frequency over random configurations.
	//lint:ignore detrand experiment trial stream with a hard-coded seed; EXPERIMENTS.md tables are byte-pinned to these exact stdlib draws
	rng := rand.New(rand.NewSource(7))
	trials := 400
	if cfg.Quick {
		trials = 60
	}
	violations := 0
	for i := 0; i < trials; i++ {
		n := 3 + rng.Intn(3)
		ps := make([]geom.Point, n)
		for j := range ps {
			ps[j] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		states := problems.InitialCircles(ps)
		k := 1 + rng.Intn(n-1)
		xs := ms.New(problems.CompareCircleStates, states[:k]...)
		ys := ms.New(problems.CompareCircleStates, states[k:]...)
		d := f.Apply(xs.Union(ys))
		v := f.Apply(f.Apply(xs).Union(ys))
		if !eq(d, v) {
			violations++
		}
	}
	b.WriteString(fmt.Sprintf("\nRandom split check: %d/%d random configurations violate super-idempotence\n"+
		"(violations are generic, not a corner case).\n", violations, trials))
	if violations == 0 {
		shape = false
	}

	return Section{
		ID:    "E2",
		Title: "Fig. 2 — the circumscribing-circle function is not super-idempotent",
		Claim: "§4.5/Fig. 2: f(S_B ∪ S_C) ≠ f(f(S_B) ∪ S_C) for the naive circle function.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E3 / Fig. 3 ---

// E3Fig3 reproduces Fig. 3: the convex-hull function is super-idempotent,
// and the hull algorithm computes the circumscribing circle under churn.
func E3Fig3(cfg Config) Section {
	var b strings.Builder
	f := problems.HullF()
	eq := problems.HullStatesEqual(1e-7)

	//lint:ignore detrand experiment trial stream with a hard-coded seed; EXPERIMENTS.md tables are byte-pinned to these exact stdlib draws
	rng := rand.New(rand.NewSource(11))
	trials := 400
	if cfg.Quick {
		trials = 60
	}
	violations := 0
	for i := 0; i < trials; i++ {
		n := 2 + rng.Intn(5)
		ps := make([]geom.Point, n)
		for j := range ps {
			ps[j] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		states := problems.InitialHulls(ps)
		k := 1 + rng.Intn(n)
		xs := ms.New(problems.CompareHullStates, states[:k]...)
		ys := ms.New(problems.CompareHullStates, states[k:]...)
		d := f.Apply(xs.Union(ys))
		v := f.Apply(f.Apply(xs).Union(ys))
		if !eq(d, v) {
			violations++
		}
	}
	b.WriteString(fmt.Sprintf("Super-idempotence: %d/%d random splits violated (expected 0).\n\n", violations, trials))
	shape := violations == 0

	// End-to-end under churn: every agent's derived circumcircle matches
	// the direct computation.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 1}, {X: 2, Y: 5}, {X: 6, Y: 3}, {X: 1, Y: 4}, {X: 5, Y: 5}, {X: 3, Y: 0.5}, {X: 0.5, Y: 3}}
	p := problems.NewHull(pts)
	g := graph.Ring(len(pts))
	res, err := sim.Run(p, env.NewEdgeChurn(g, 0.4), problems.InitialHulls(pts),
		sim.Options{Seed: 3, StopOnConverged: true, MaxRounds: 5000})
	if err != nil || !res.Converged {
		shape = false
		b.WriteString(fmt.Sprintf("hull run failed: converged=%v err=%v\n", res != nil && res.Converged, err))
	} else {
		want := geom.EnclosingCircle(pts)
		got := problems.Circumcircle(res.Final[0])
		b.WriteString(fmt.Sprintf("Under 40%% edge availability, all %d agents converged in %d rounds;\n"+
			"derived circumscribing circle %v matches direct computation %v.\n",
			len(pts), res.Round, got, want))
		if !got.Near(want, 1e-6) {
			shape = false
		}
	}

	return Section{
		ID:    "E3",
		Title: "Fig. 3 — the convex-hull function is super-idempotent",
		Claim: "§4.5/Fig. 3: hull of all points = hull of (hull of subset ∪ rest); hull consensus yields the circumscribing circle.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E4: adaptivity ---

// E4Adaptivity measures convergence rounds of min consensus as per-edge
// availability drops: the paper's "speed up or slow down depending on the
// resources available".
func E4Adaptivity(cfg Config) Section {
	var b strings.Builder
	n := 16
	if cfg.Quick {
		n = 8
	}
	ps := []float64{1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05}
	if cfg.Quick {
		ps = []float64{1.0, 0.4, 0.1}
	}
	shape := true
	for _, family := range []struct {
		name string
		mk   func() *graph.Graph
	}{
		{"ring", func() *graph.Graph { return graph.Ring(n) }},
		{"random connected (p=0.2)", func() *graph.Graph {
			//lint:ignore detrand one-shot experiment topology with a hard-coded seed; the E-table rows are pinned to this exact graph
			return graph.ConnectedErdosRenyi(n, 0.2, rand.New(rand.NewSource(5)))
		}},
	} {
		t := metrics.NewTable("edge availability p", "median rounds to converge", "convergence rate")
		prev := 0.0
		for _, p := range ps {
			med, rate, err := medianRounds[int](cfg, func(seed int64) (*sim.Result[int], error) {
				g := family.mk()
				return sim.Run[int](problems.NewMin(), env.NewEdgeChurn(g, p), initialValues(n, seed),
					sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 60_000})
			})
			if err != nil {
				return Section{ID: "E4", Title: "adaptivity", Body: "error: " + err.Error()}
			}
			t.AddRowf(p, med, fmt.Sprintf("%.0f%%", rate*100))
			if rate < 1 {
				shape = false // correctness must never degrade, only speed
			}
			if med < prev-1e-9 && p < 1 {
				// Rounds must not decrease as availability drops (allow
				// exact ties at high availability).
				shape = shape && med >= prev*0.8 // tolerate small median noise
			}
			prev = med
		}
		b.WriteString(fmt.Sprintf("Minimum consensus on %s, N=%d (median of %d seeds):\n\n", family.name, n, cfg.Seeds))
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return Section{
		ID:    "E4",
		Title: "Adaptivity — convergence time vs. available resources",
		Claim: "§1: \"algorithms speed up or slow down depending on the resources available\" — and stay correct.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E5: partitions and the snapshot baseline ---

// E5Partition shows self-similar behaviour across a partition (each block
// converges to its own f), recovery on heal, and the snapshot baseline
// stalling for the entire partition.
func E5Partition(cfg Config) Section {
	var b strings.Builder
	n := 12
	g := graph.Complete(n)
	vals := initialValues(n, 42)

	// Permanent partition into 3 blocks.
	e := env.NewPartitioner(g, 3, 0, 1<<30)
	res, err := sim.Run[int](problems.NewMin(), e, vals, sim.Options{Seed: 1, MaxRounds: 30})
	shape := err == nil && !res.Converged
	blocks := metrics.NewTable("block", "members", "block minimum", "all members agree?")
	per := (n + 2) / 3
	for blk := 0; blk < 3; blk++ {
		lo, hi := blk*per, (blk+1)*per
		if hi > n {
			hi = n
		}
		minV := vals[lo]
		for _, v := range vals[lo:hi] {
			if v < minV {
				minV = v
			}
		}
		agree := true
		for _, v := range res.Final[lo:hi] {
			if v != minV {
				agree = false
			}
		}
		if !agree {
			shape = false
		}
		blocks.AddRowf(blk, fmt.Sprintf("%d–%d", lo, hi-1), minV, agree)
	}
	b.WriteString("Permanent 3-way partition (min consensus, N=12): each block behaves as\n" +
		"if it were the entire system (self-similarity):\n\n")
	b.WriteString(blocks.String())

	// Healing partition: global convergence; snapshot baseline stalls
	// while partitioned.
	t := metrics.NewTable("algorithm", "partition 60 rounds then heal: converged?", "round")
	heal := func() env.Environment { return env.NewPartitioner(g, 3, 0, 60) }
	// After 60 partitioned rounds the environment heals (healthy phase of
	// the next period has length 0 — so use healthy=5).
	healEnv := func() env.Environment { return env.NewPartitioner(g, 3, 5, 60) }
	_ = heal
	resHeal, err2 := sim.Run[int](problems.NewMin(), healEnv(), vals, sim.Options{Seed: 2, StopOnConverged: true, MaxRounds: 1000})
	if err2 != nil || !resHeal.Converged {
		shape = false
	}
	t.AddRowf("self-similar min", resHeal.Converged, resHeal.Round)
	snap, err3 := baseline.Snapshot(healEnv(), vals, 1000, 2)
	if err3 != nil {
		shape = false
	}
	t.AddRowf("snapshot baseline", snap.Converged, snap.Round)
	b.WriteString("\nPartition that heals after 60 rounds (healthy window 5 rounds per period):\n\n")
	b.WriteString(t.String())
	b.WriteString(fmt.Sprintf("\nSnapshot restarts during the run: %d (every break of the collection tree\n"+
		"forces a restart — the §5 critique made measurable).\n", snap.Restarts))
	// The self-similar algorithm must converge no later than the snapshot
	// (it exploits the partition period; snapshot cannot).
	if snap.Converged && snap.Round < resHeal.Round {
		shape = false
	}
	_ = cfg
	return Section{
		ID:    "E5",
		Title: "Partitions — self-similar progress vs. snapshot stalls",
		Claim: "§1/§5: partitioned groups behave like the whole system; snapshot approaches are inefficient in dynamic systems.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E6: scalability ---

// E6Scale measures rounds to convergence vs. N for several problems and
// graphs.
func E6Scale(cfg Config) Section {
	var b strings.Builder
	sizes := []int{8, 16, 32, 64}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	shape := true
	t := metrics.NewTable(append([]string{"problem / graph"}, intsToStrings(sizes)...)...)

	addRow := func(name string, run func(n int, seed int64) (*sim.Result[int], error)) {
		cells := []any{name}
		for _, n := range sizes {
			med, rate, err := medianRounds[int](cfg, func(seed int64) (*sim.Result[int], error) { return run(n, seed) })
			if err != nil || rate < 1 {
				shape = false
				cells = append(cells, "FAIL")
				continue
			}
			cells = append(cells, med)
		}
		t.AddRowf(cells...)
	}

	addRow("min / ring, churn 0.5", func(n int, seed int64) (*sim.Result[int], error) {
		return sim.Run[int](problems.NewMin(), env.NewEdgeChurn(graph.Ring(n), 0.5), initialValues(n, seed),
			sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 60_000})
	})
	addRow("min / complete, churn 0.5", func(n int, seed int64) (*sim.Result[int], error) {
		return sim.Run[int](problems.NewMin(), env.NewEdgeChurn(graph.Complete(n), 0.5), initialValues(n, seed),
			sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 60_000})
	})
	addRow("min / hypercube, churn 0.5", func(n int, seed int64) (*sim.Result[int], error) {
		d := 0
		for 1<<uint(d) < n {
			d++
		}
		g := graph.Hypercube(d)
		vals := initialValues(g.N(), seed)
		return sim.Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.5), vals,
			sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 60_000})
	})
	addRow("min / binary tree, churn 0.5", func(n int, seed int64) (*sim.Result[int], error) {
		return sim.Run[int](problems.NewMin(), env.NewEdgeChurn(graph.BinaryTree(n), 0.5), initialValues(n, seed),
			sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 60_000})
	})
	addRow("gcd / ring, churn 0.5", func(n int, seed int64) (*sim.Result[int], error) {
		vals := initialValues(n, seed)
		for i := range vals {
			vals[i] = (vals[i] + 1) * 6
		}
		return sim.Run[int](problems.NewGCD(), env.NewEdgeChurn(graph.Ring(n), 0.5), vals,
			sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 60_000})
	})
	addRow("sum / complete, pairwise, churn 0.5", func(n int, seed int64) (*sim.Result[int], error) {
		return sim.Run[int](problems.NewSum(), env.NewEdgeChurn(graph.Complete(n), 0.5), initialValues(n, seed),
			sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 60_000, Mode: sim.PairwiseMode})
	})

	b.WriteString(fmt.Sprintf("Median rounds to convergence (%d seeds), by system size N:\n\n", cfg.Seeds))
	b.WriteString(t.String())
	return Section{
		ID:    "E6",
		Title: "Scalability — rounds to convergence vs. N",
		Claim: "§3: one methodology, many problems; convergence scales with system size and graph family.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

func intsToStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("N=%d", x)
	}
	return out
}

// --- E7: sum needs the complete graph ---

// E7Sum reproduces §4.2's environment-assumption claim: under pairwise
// gossip, sum converges on the complete graph but stalls on sparse graphs
// where zero-valued agents separate the non-zero ones.
func E7Sum(cfg Config) Section {
	var b strings.Builder
	n := 10
	vals := make([]int, n)
	for i := 0; i < n; i += 2 {
		vals[i] = i + 1 // non-zero at even positions, zeros between them
	}
	t := metrics.NewTable("graph", "converged (pairwise gossip)?", "median rounds")
	shape := true
	for _, fam := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"complete (paper's assumption)", graph.Complete(n), true},
		{"ring", graph.Ring(n), false},
		{"line", graph.Line(n), false},
	} {
		med, rate, err := medianRounds[int](cfg, func(seed int64) (*sim.Result[int], error) {
			return sim.Run[int](problems.NewSum(), env.NewEdgeChurn(fam.g, 0.8), vals,
				sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 3000, Mode: sim.PairwiseMode})
		})
		if err != nil {
			shape = false
			continue
		}
		conv := rate == 1
		stall := rate == 0
		t.AddRowf(fam.name, fmt.Sprintf("%.0f%% of seeds", rate*100), med)
		if fam.want && !conv {
			shape = false
		}
		if !fam.want && !stall {
			shape = false
		}
	}
	b.WriteString("Sum with zeros separating the non-zero agents (pairwise gossip, edge\n" +
		"availability 0.8): zero agents cannot act as couriers, so only the\n" +
		"complete graph satisfies obligation (9):\n\n")
	b.WriteString(t.String())
	return Section{
		ID:    "E7",
		Title: "Sum — the complete-graph environment assumption (§4.2)",
		Claim: "§4.2: \"the weakest assumption that guarantees termination is that any two agents have the opportunity to communicate infinitely often.\"",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E8: sorting on a line ---

// E8Sort reproduces §4.4's environment claim: a line graph suffices for
// sorting; adjacent-swap convergence grows ~quadratically with N, while
// richer graphs with full-group sorting are much faster.
func E8Sort(cfg Config) Section {
	var b strings.Builder
	sizes := []int{8, 16, 32}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	t := metrics.NewTable("N", "line + pairwise swaps (median rounds)", "complete + component sort (median rounds)")
	shape := true
	var lineRounds []float64
	for _, n := range sizes {
		vals := initialValues(n, int64(n))
		pLine, err := problems.NewSorting(vals)
		if err != nil {
			return Section{ID: "E8", Body: err.Error()}
		}
		medLine, rateLine, err := medianRounds[problems.Item](cfg, func(seed int64) (*sim.Result[problems.Item], error) {
			return sim.Run[problems.Item](pLine, env.NewEdgeChurn(graph.Line(n), 0.8), problems.InitialItems(vals),
				sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 200_000, Mode: sim.PairwiseMode})
		})
		if err != nil || rateLine < 1 {
			shape = false
		}
		medFull, rateFull, err := medianRounds[problems.Item](cfg, func(seed int64) (*sim.Result[problems.Item], error) {
			return sim.Run[problems.Item](pLine, env.NewEdgeChurn(graph.Complete(n), 0.8), problems.InitialItems(vals),
				sim.Options{Seed: seed, StopOnConverged: true, MaxRounds: 200_000})
		})
		if err != nil || rateFull < 1 {
			shape = false
		}
		lineRounds = append(lineRounds, medLine)
		t.AddRowf(n, medLine, medFull)
		if medFull > medLine {
			shape = false // richer resources must not be slower
		}
	}
	b.WriteString(fmt.Sprintf("Sorting under 80%% edge availability (%d seeds):\n\n", cfg.Seeds))
	b.WriteString(t.String())
	if len(lineRounds) >= 2 {
		ratio := lineRounds[len(lineRounds)-1] / lineRounds[len(lineRounds)-2]
		b.WriteString(fmt.Sprintf("\nLine-graph growth when N doubles: ×%.1f (bubble-sort-like ≈ ×4 expected; \n"+
			"anything clearly super-linear confirms the shape).\n", ratio))
		if ratio < 1.5 {
			shape = false
		}
	}
	return Section{
		ID:    "E8",
		Title: "Sorting — the line-graph environment assumption (§4.4)",
		Claim: "§4.4: a linear graph in index order satisfies obligation (9); adjacent swaps sort, slowly; richer environments are faster.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E9: classification table ---

// E9Classification machine-checks the paper's classification of every
// function: idempotent? super-idempotent?
func E9Classification(cfg Config) Section {
	var b strings.Builder
	trials := 1500
	if cfg.Quick {
		trials = 200
	}
	//lint:ignore detrand experiment trial stream with a hard-coded seed; EXPERIMENTS.md tables are byte-pinned to these exact stdlib draws
	rng := rand.New(rand.NewSource(9))
	intGen := func(maxLen, maxVal int) core.Gen[int] {
		return func(r *rand.Rand) ms.Multiset[int] {
			n := 1 + r.Intn(maxLen)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = r.Intn(maxVal)
			}
			return ms.OfInts(vals...)
		}
	}
	eqI := core.ExactEqual[int]()
	gen := intGen(6, 8)

	t := metrics.NewTable("function f", "idempotent", "super-idempotent", "paper says")
	shape := true
	check := func(name string, idem, super bool, wantSuper bool, paper string) {
		t.AddRowf(name, idem, super, paper)
		if super != wantSuper || !idem {
			shape = false
		}
	}

	intSuper := func(f core.Function[int]) (bool, bool) {
		idem := core.CheckIdempotent(f, eqI, gen, trials, rng) == nil
		super := core.CheckSuperIdempotent(f, eqI, gen, gen, trials, rng) == nil &&
			core.ExhaustiveSuperIdempotent(f, eqI, []int{0, 1, 2, 3}, ms.OrderedCmp[int](), 3) == nil
		return idem, super
	}
	i, s := intSuper(problems.MinF())
	check("min (§4.1)", i, s, true, "super-idempotent")
	i, s = intSuper(problems.MaxF())
	check("max (extension)", i, s, true, "—")
	i, s = intSuper(problems.SumF())
	check("sum (§4.2)", i, s, true, "super-idempotent")
	i, s = intSuper(problems.GCDF())
	check("gcd (extension)", i, s, true, "—")
	i, s = intSuper(problems.SecondSmallestF())
	check("second smallest (§4.3, naive)", i, s, false, "NOT super-idempotent")

	// Pair domain.
	eqP := core.ExactEqual[problems.Pair]()
	var pairDomain []problems.Pair
	for x := 0; x < 3; x++ {
		for y := x; y < 3; y++ {
			pairDomain = append(pairDomain, problems.Pair{X: x, Y: y})
		}
	}
	pairSuper := core.ExhaustiveSuperIdempotent(problems.MinPairF(), eqP, pairDomain, problems.ComparePairs, 3) == nil
	check("min-pair (§4.3, generalized)", true, pairSuper, true, "super-idempotent")

	// Sorting.
	eqS := core.ExactEqual[problems.Item]()
	sortGen := func(r *rand.Rand) ms.Multiset[problems.Item] {
		n := 1 + r.Intn(5)
		idx := r.Perm(8)[:n]
		vals := r.Perm(8)[:n]
		items := make([]problems.Item, n)
		for j := range items {
			items[j] = problems.Item{Index: idx[j], Value: vals[j]}
		}
		return ms.New(problems.CompareItems, items...)
	}
	sortIdem := core.CheckIdempotent(problems.SortF(), eqS, sortGen, trials, rng) == nil
	sortSuper := core.CheckSuperIdempotent(problems.SortF(), eqS, sortGen, sortGen, trials, rng) == nil
	check("sort (§4.4)", sortIdem, sortSuper, true, "super-idempotent")

	// Geometry.
	eqC := problems.CircleStatesEqual(1e-6)
	circleGen := func(r *rand.Rand) ms.Multiset[problems.CircleState] {
		n := 1 + r.Intn(4)
		ps := make([]geom.Point, n)
		for j := range ps {
			ps[j] = geom.Point{X: r.Float64() * 10, Y: r.Float64() * 10}
		}
		return ms.New(problems.CompareCircleStates, problems.InitialCircles(ps)...)
	}
	geoTrials := trials / 4
	circleIdem := core.CheckIdempotent(problems.CircumcircleNaiveF(), eqC, circleGen, geoTrials, rng) == nil
	circleSuper := core.CheckSuperIdempotent(problems.CircumcircleNaiveF(), eqC, circleGen, circleGen, geoTrials, rng) == nil
	check("circumscribing circle (§4.5, naive)", circleIdem, circleSuper, false, "NOT super-idempotent")

	eqH := problems.HullStatesEqual(1e-7)
	hullGen := func(r *rand.Rand) ms.Multiset[problems.HullState] {
		n := 1 + r.Intn(4)
		ps := make([]geom.Point, n)
		for j := range ps {
			ps[j] = geom.Point{X: r.Float64() * 10, Y: r.Float64() * 10}
		}
		return ms.New(problems.CompareHullStates, problems.InitialHulls(ps)...)
	}
	hullIdem := core.CheckIdempotent(problems.HullF(), eqH, hullGen, geoTrials, rng) == nil
	hullSuper := core.CheckSuperIdempotent(problems.HullF(), eqH, hullGen, hullGen, geoTrials, rng) == nil
	check("convex hull (§4.5, generalized)", hullIdem, hullSuper, true, "super-idempotent")

	b.WriteString("Machine-checked classification (randomized + exhaustive checkers; a\n" +
		"\"false\" in super-idempotent is a concrete counterexample found):\n\n")
	b.WriteString(t.String())
	return Section{
		ID:    "E9",
		Title: "Classification — which f are super-idempotent (§3.4, §4)",
		Claim: "§4: min/sum/sort/hull/min-pair are super-idempotent; second-smallest and the naive circle are idempotent but not super-idempotent.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E10: model checking ---

// E10ModelCheck discharges the §3.7 proof obligations exhaustively on
// small instances.
func E10ModelCheck(cfg Config) Section {
	var b strings.Builder
	t := metrics.NewTable("instance", "states", "transitions", "obligations hold?")
	shape := true
	add := func(name string, rep *mc.Report, err error, wantOK bool) {
		if err != nil {
			shape = false
			t.AddRowf(name, "—", "—", "ERROR: "+err.Error())
			return
		}
		ok := rep.OK()
		t.AddRowf(name, rep.States, rep.Transitions, ok)
		if ok != wantOK {
			shape = false
		}
	}

	pm := problems.NewMin()
	rep, err := mc.Explore(mc.Spec[int]{
		Initial: []int{3, 1, 2, 4}, Groups: mc.AllPairs(4), Succ: mc.ProblemSucc[int](pm), Problem: pm,
	})
	add("min, K4 pairs, implemented R", rep, err, true)

	rep, err = mc.Explore(mc.Spec[int]{
		Initial: []int{3, 1, 2}, Groups: append(mc.AllPairs(3), mc.WholeGroup(3)...),
		Succ: mc.DomainSucc[int](pm, []int{0, 1, 2, 3}, 0), Problem: pm,
	})
	add("min, K3, FULL relation D over domain {0..3}", rep, err, true)

	psum := problems.NewSum()
	rep, err = mc.Explore(mc.Spec[int]{
		Initial: []int{2, 3, 1}, Groups: mc.AllPairs(3), Succ: mc.ProblemSucc[int](psum), Problem: psum,
	})
	add("sum, K3 pairs", rep, err, true)

	rep, err = mc.Explore(mc.Spec[int]{
		Initial: []int{2, 0, 3}, Groups: mc.PathPairs(3), Succ: mc.ProblemSucc[int](psum), Problem: psum,
	})
	add("sum, line with zero separator (dead end EXPECTED)", rep, err, false)
	if err == nil && len(rep.DeadEnds) == 0 {
		shape = false
	}

	vals := []int{2, 0, 1}
	psort, _ := problems.NewSorting(vals)
	rep, err = mc.Explore(mc.Spec[problems.Item]{
		Initial: problems.InitialItems(vals), Groups: mc.PathPairs(3),
		Succ: mc.ProblemSucc[problems.Item](psort), Problem: psort,
	})
	add("sorting, line of 3", rep, err, true)

	pp := problems.NewMinPair(3, 6)
	rep2, err := mc.Explore(mc.Spec[problems.Pair]{
		Initial: problems.InitialPairs([]int{2, 5, 4}),
		Groups:  append(mc.AllPairs(3), mc.WholeGroup(3)...),
		Succ:    mc.ProblemSucc[problems.Pair](pp), Problem: pp,
	})
	add("min-pair (corrected variant), K3", rep2, err, true)

	b.WriteString("Exhaustive exploration of the full reachable state graph; \"obligations\"\n" +
		"= every transition is a D-step, non-goal states are escapable, goal\n" +
		"states are stable ((9), (10), (4) of §3):\n\n")
	b.WriteString(t.String())
	b.WriteString("\nThe sum/line dead end is the model-checking view of §4.2's complete-graph\n" +
		"requirement: a reachable non-goal state no enabled group can escape.\n")
	_ = cfg
	return Section{
		ID:    "E10",
		Title: "Model checking — the §3.7 proof obligations on small instances",
		Claim: "§3.7: R implements D; nonoptimal states are escapable; goal states are stable.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E11: ablation ---

// E11Ablation compares group granularity (component vs. pairwise) and the
// flooding baseline's state cost.
func E11Ablation(cfg Config) Section {
	var b strings.Builder
	n := 16
	if cfg.Quick {
		n = 8
	}
	g := graph.Ring(n)
	shape := true

	t := metrics.NewTable("configuration", "median rounds", "median messages")
	type cfgRow struct {
		name string
		mode sim.Mode
	}
	var compRounds, pairRounds float64
	for _, row := range []cfgRow{{"component steps", sim.ComponentMode}, {"pairwise gossip", sim.PairwiseMode}} {
		results := make([]*sim.Result[int], cfg.Seeds)
		forEachSeed(cfg.Seeds, func(s int) {
			res, err := sim.Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.5), initialValues(n, int64(s)),
				sim.Options{Seed: int64(s), StopOnConverged: true, MaxRounds: 60_000, Mode: row.mode})
			if err == nil {
				results[s] = res
			}
		})
		var rounds, msgs metrics.Sample
		for _, res := range results {
			if res == nil || !res.Converged {
				shape = false
				continue
			}
			rounds.AddInt(res.Round)
			msgs.AddInt(res.Messages)
		}
		t.AddRowf(row.name, rounds.Median(), msgs.Median())
		if row.mode == sim.ComponentMode {
			compRounds = rounds.Median()
		} else {
			pairRounds = rounds.Median()
		}
	}
	if compRounds > pairRounds {
		shape = false // exploiting larger groups must not be slower
	}
	b.WriteString(fmt.Sprintf("Group-granularity ablation (min on ring(%d), churn 0.5, %d seeds):\n\n", n, cfg.Seeds))
	b.WriteString(t.String())

	// State-size comparison against flooding.
	t2 := metrics.NewTable("algorithm", "per-agent state (values)", "median rounds (churn 0.3)")
	floods := make([]*baseline.Result, cfg.Seeds)
	selfs := make([]*sim.Result[int], cfg.Seeds)
	forEachSeed(cfg.Seeds, func(s int) {
		if fr, err := baseline.Flooding(env.NewEdgeChurn(g, 0.3), initialValues(n, int64(s)), 60_000, int64(s)); err == nil {
			floods[s] = fr
		}
		if sr, err := sim.Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.3), initialValues(n, int64(s)),
			sim.Options{Seed: int64(s), StopOnConverged: true, MaxRounds: 60_000}); err == nil {
			selfs[s] = sr
		}
	})
	var floodRounds, selfRounds metrics.Sample
	maxState := 0
	for s := 0; s < cfg.Seeds; s++ {
		fr, sr := floods[s], selfs[s]
		if fr == nil || !fr.Converged {
			shape = false
			continue
		}
		floodRounds.AddInt(fr.Round)
		if fr.MaxStateSize > maxState {
			maxState = fr.MaxStateSize
		}
		if sr == nil || !sr.Converged {
			shape = false
			continue
		}
		selfRounds.AddInt(sr.Round)
	}
	t2.AddRowf("self-similar min", 1, selfRounds.Median())
	t2.AddRowf("flooding baseline", maxState, floodRounds.Median())
	b.WriteString("\nState cost vs. the flooding (group-communication) baseline:\n\n")
	b.WriteString(t2.String())
	if maxState < n {
		shape = false // flooding must pay Θ(N) state
	}
	return Section{
		ID:    "E11",
		Title: "Ablation — group granularity and baseline state cost",
		Claim: "§5: the algorithm class spans efficient (big groups) to minimal (pairwise); group-communication baselines pay Θ(N) state.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E12: fairness ---

// E12Fairness shows that assumption (2) is load-bearing: a fair adversary
// cannot prevent convergence, an unfair one can — selectively, exactly
// where the theory says.
func E12Fairness(cfg Config) Section {
	var b strings.Builder
	n := 8
	g := graph.Complete(n)
	vals := initialValues(n, 77)
	shape := true

	t := metrics.NewTable("environment", "min converges?", "sum (pairwise) converges?")
	run := func(e func() env.Environment) (bool, bool) {
		minSeed := make([]bool, cfg.Seeds)
		sumSeed := make([]bool, cfg.Seeds)
		forEachSeed(cfg.Seeds, func(s int) {
			r1, err := sim.Run[int](problems.NewMin(), e(), vals,
				sim.Options{Seed: int64(s), StopOnConverged: true, MaxRounds: 4000})
			minSeed[s] = err == nil && r1.Converged
			r2, err := sim.Run[int](problems.NewSum(), e(), vals,
				sim.Options{Seed: int64(s), StopOnConverged: true, MaxRounds: 4000, Mode: sim.PairwiseMode})
			sumSeed[s] = err == nil && r2.Converged
		})
		minOK, sumOK := true, true
		for s := 0; s < cfg.Seeds; s++ {
			minOK = minOK && minSeed[s]
			sumOK = sumOK && sumSeed[s]
		}
		return minOK, sumOK
	}

	minOK, sumOK := run(func() env.Environment { return env.NewAdversary(g, 0.8, 10) })
	t.AddRowf("adversary cutting 80% of edges, fairness window 10", minOK, sumOK)
	if !minOK || !sumOK {
		shape = false
	}

	// Unfair: permanently starve all edges of agent 0 (which holds a
	// non-minimal, non-zero value): both problems must fail globally,
	// min must still succeed among the others.
	var starved []int
	for id, edge := range g.Edges() {
		if edge.A == 0 || edge.B == 0 {
			starved = append(starved, id)
		}
	}
	minOK, sumOK = run(func() env.Environment { return env.NewStarver(g, starved) })
	t.AddRowf("starver isolating agent 0 (violates (2))", minOK, sumOK)
	if minOK || sumOK {
		shape = false
	}

	// The strongest opponent: an adversary that WATCHES the computation
	// and cuts exactly the edges whose endpoints disagree. With a
	// fairness window it still cannot prevent convergence; without one it
	// blocks min outright.
	feedbackRun := func(window int) bool {
		okSeed := make([]bool, cfg.Seeds)
		forEachSeed(cfg.Seeds, func(s int) {
			r, err := sim.Run[int](problems.NewMin(), env.NewAdversary(g, 1.0, window), vals,
				sim.Options{Seed: int64(s), StopOnConverged: true, MaxRounds: 4000, AdversaryFeedback: true})
			okSeed[s] = err == nil && r.Converged
		})
		for _, ok := range okSeed {
			if !ok {
				return false
			}
		}
		return true
	}
	fairFeedback := feedbackRun(10)
	unfairFeedback := feedbackRun(0)
	t.AddRowf("omniscient adversary, fairness window 10", fairFeedback, "—")
	t.AddRowf("omniscient adversary, NO fairness window", unfairFeedback, "—")
	if !fairFeedback || unfairFeedback {
		shape = false
	}
	b.WriteString("Fairness ablation (N=8, complete graph):\n\n")
	b.WriteString(t.String())
	b.WriteString("\nUnder the fair adversary every Q_e holds infinitely often, so the\n" +
		"correctness theorem applies and everything converges (slowly). The\n" +
		"starver violates (2) for agent 0's edges: global convergence is\n" +
		"impossible, while the other agents still reach their group's fixpoint\n" +
		"(self-similarity).\n")
	return Section{
		ID:    "E12",
		Title: "Fairness — assumption (2) is necessary and sufficient in practice",
		Claim: "§2: progress requires each Q ∈ Q to hold infinitely often (the escape postulate's hypothesis).",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E13: the continuous-state extension (§1.2) ---

// E13Continuous exercises the paper's §1.2 remark about systems "in which
// variables change value continuously with time": environment-gated
// Laplacian averaging conserves the mean exactly, contracts disagreement
// monotonically below the stability threshold, and holds per-block means
// across partitions — the self-similar structure in continuous state.
func E13Continuous(cfg Config) Section {
	var b strings.Builder
	n := 12
	g := graph.Ring(n)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64((i*7+3)%20) * 1.5
	}
	shape := true

	t := metrics.NewTable("environment", "dt", "converged", "rounds", "mean drift", "monotone violations")
	for _, row := range []struct {
		name string
		e    env.Environment
		dt   float64
	}{
		{"static", env.NewStatic(g), 0.25},
		{"edge churn p=0.4", env.NewEdgeChurn(g, 0.4), 0.25},
		{"bursty (markov)", env.NewMarkovLinks(g, 0.2, 0.2), 0.25},
		{"power loss p=0.3", env.NewPowerLoss(g, 0.3), 0.25},
	} {
		res, err := flow.Run(row.e, x0, flow.Options{Dt: row.dt, Rounds: 60_000, Seed: 5, Tol: 1e-8})
		if err != nil {
			return Section{ID: "E13", Body: err.Error()}
		}
		t.AddRowf(row.name, row.dt, res.Converged, res.ConvergedRound, res.MeanDrift, res.MonotoneViolations)
		if !res.Converged || res.MeanDrift > 1e-7 || res.MonotoneViolations != 0 {
			shape = false
		}
	}
	b.WriteString("Laplacian averaging flow x' = x + dt·Σ(x_j − x_i) over available links\n")
	b.WriteString(fmt.Sprintf("(N=%d ring; conservation of the mean is the continuous f, the\n", n))
	b.WriteString("disagreement Σ(xi−xj)² the continuous variant h):\n\n")
	b.WriteString(t.String())

	// Stability boundary: above dt_max the variant discipline breaks.
	unstable, err := flow.Run(env.NewStatic(graph.Complete(8)),
		[]float64{0, 1, 2, 3, 4, 5, 6, 70}, flow.Options{Dt: 0.4, Rounds: 300, Seed: 6})
	if err != nil {
		return Section{ID: "E13", Body: err.Error()}
	}
	b.WriteString(fmt.Sprintf("\nAbove the stability bound (K8, dt=0.4 > 1/8): monotone violations = %d,\n"+
		"converged = %v — the well-foundedness requirement of §3.5 has a real\n"+
		"continuous analogue (step-size limits).\n",
		unstable.MonotoneViolations, unstable.Converged))
	if unstable.MonotoneViolations == 0 && unstable.Converged {
		shape = false
	}

	// Partition: per-block means (continuous self-similarity).
	part, err := flow.Run(env.NewPartitioner(graph.Complete(6), 2, 0, 1<<30),
		[]float64{0, 3, 6, 10, 20, 30}, flow.Options{Dt: 0.1, Rounds: 5000, Seed: 7, Tol: 1e-12})
	if err != nil {
		return Section{ID: "E13", Body: err.Error()}
	}
	blockOK := math.Abs(part.Final[0]-3) < 1e-6 && math.Abs(part.Final[5]-20) < 1e-6
	b.WriteString(fmt.Sprintf("\nPermanent 2-way partition: block means %.4g and %.4g (want 3 and 20),\n"+
		"global convergence %v — each component contracts to its own mean.\n",
		part.Final[0], part.Final[5], part.Converged))
	if !blockOK || part.Converged {
		shape = false
	}
	_ = cfg
	return Section{
		ID:    "E13",
		Title: "Continuous extension — environment-gated averaging flow (§1.2)",
		Claim: "§1.2: the methodology extends to systems whose variables change continuously (difference equations); cited dynamic-consensus literature [10,12].",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E15: scaling study ---

// E15Scaling pushes the round-based engine to N = 10⁴–10⁵ agents across
// graph families and BOTH interaction patterns. E6 stops at N = 64
// because the seed engine resorted the global snapshot every round; the
// sharded state layout (per-shard trackers with per-round staged deltas,
// a P-way merged snapshot, and the sharded monitor reduction — see
// engine.Shards) makes large-N component rounds affordable, and the
// keyed-priority pairwise matcher (local queries for the pairs that can
// change, fanned out across the pool — see engine.PairMatcher) plus the
// sparse-churn environment step and the O(1)-reseed group streams do the
// same for pairwise gossip, so this
// experiment records what the paper's prose promises implicitly: the
// methodology has no small-N assumption at either granularity extreme.
// Component cells scale availability with N so components stay a fixed
// small fraction of the ring (otherwise rounds-to-converge on a ring is
// Θ(N / component length)); pairwise cells use low-diameter families
// (torus, hypercube) because gossip moves information one hop per round.
// Recorded per cell: rounds to convergence, wall-clock, total heap
// allocations (runtime.MemStats.Mallocs), and allocs per round — the
// last is the scaling analogue of the BenchmarkSim* allocs/op budget and
// stays flat in N because the round hot path reuses every buffer.
func E15Scaling(cfg Config) Section {
	var b strings.Builder
	type cell struct {
		family string
		g      *graph.Graph
		avail  float64
		mode   sim.Mode
	}
	hyperDim := func(n int) int {
		d := 0
		for 1<<uint(d) < n {
			d++
		}
		return d
	}
	cells := []cell{
		{"ring", graph.Ring(10_000), 0.99, sim.ComponentMode},
		{"torus", graph.Torus(100, 100), 0.99, sim.ComponentMode},
		{"hypercube", graph.Hypercube(hyperDim(8192)), 0.99, sim.ComponentMode},
		{"ring", graph.Ring(100_000), 0.999, sim.ComponentMode},
		{"torus", graph.Torus(100, 100), 0.99, sim.PairwiseMode},
		{"hypercube", graph.Hypercube(hyperDim(16384)), 0.99, sim.PairwiseMode},
		{"hypercube", graph.Hypercube(hyperDim(100_000)), 0.999, sim.PairwiseMode},
	}
	if cfg.Quick {
		// Quick keeps the headline N = 10⁵ cells — the whole point of the
		// study, and both finish in CI-friendly seconds — but shrinks the
		// supporting families.
		cells = []cell{
			{"ring", graph.Ring(10_000), 0.99, sim.ComponentMode},
			{"torus", graph.Torus(60, 60), 0.99, sim.ComponentMode},
			{"hypercube", graph.Hypercube(hyperDim(4096)), 0.99, sim.ComponentMode},
			{"ring", graph.Ring(100_000), 0.999, sim.ComponentMode},
			{"hypercube", graph.Hypercube(hyperDim(4096)), 0.99, sim.PairwiseMode},
			{"hypercube", graph.Hypercube(hyperDim(100_000)), 0.999, sim.PairwiseMode},
		}
	}

	// The cells run back to back on ONE warm sweep worker (persistent
	// pool, trackers, matcher scratch, arenas handed between cells via
	// sim.RunWith) — the E15 port onto the scenario-grid subsystem. Each
	// cell's result is bit-identical to the independent sim.Run the
	// pre-sweep E15 performed (the sweep determinism golden test pins
	// that contract); the alloc columns now also witness warm-engine
	// reuse — cells after the first stop paying engine set-up.
	w := sweep.NewWorker()
	defer w.Close()
	shape := true
	t := metrics.NewTable("graph family", "N", "mode", "edge availability",
		"rounds", "wall-clock", "heap allocs", "allocs/round")
	for _, c := range cells {
		n := c.g.N()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cr, err := w.Do(sweep.Cell{
			Env:      env.ChurnDesc(c.avail),
			Problem:  problems.MinDesc(),
			Topo:     c.family,
			Graph:    c.g,
			Mode:     c.mode,
			InitSeed: int64(n), // the pre-sweep E15 drew initial values from seed n
			Opts: sim.Options{Seed: 1, StopOnConverged: true, MaxRounds: 200_000, Mode: c.mode,
				Shards: 4 /* force four shards; results do not depend on the shard count */},
		})
		runtime.ReadMemStats(&m1)
		if err != nil || !cr.Converged || cr.Violations != 0 {
			shape = false
			t.AddRowf(c.family, n, c.mode.String(), c.avail, "FAIL", "—", "—", "—")
			continue
		}
		allocs := m1.Mallocs - m0.Mallocs
		t.AddRowf(c.family, n, c.mode.String(), c.avail, cr.Round,
			cr.Duration.Round(time.Millisecond).String(), allocs, allocs/uint64(cr.Rounds))
	}
	b.WriteString("Minimum consensus at scale, state split into P = 4 shards (results are\n" +
		"bit-identical for every shard count, P = 1 included — pinned by the sharded\n" +
		"golden equivalence tests, for the pairwise rows with the keyed-priority\n" +
		"matcher included), all cells executed on one warm sweep worker. One\n" +
		"seed per cell; wall-clock and alloc columns are environment-dependent\n" +
		"and indicative, rounds are exact:\n\n")
	b.WriteString(t.String())
	b.WriteString("\nAllocs/round is flat in N: the round loop stages deltas into reused\n" +
		"per-shard buffers, repairs each shard tracker once per round, draws\n" +
		"pairwise matchings into matcher-owned buffers, and the monitors\n" +
		"evaluate f through reusable ApplyInto buffers — so heap traffic tracks\n" +
		"rounds, not agents × rounds. In the pairwise rows the matcher answers\n" +
		"local queries only for the pairs that can change and fans them out\n" +
		"across the pool, the environment samples only flipped edges per round,\n" +
		"and group streams reseed in O(1), so a 10⁵-agent gossip round costs\n" +
		"milliseconds.\n")
	return Section{
		ID:    "E15",
		Title: "Scaling study — 10⁴–10⁵ agents on the sharded engine, both interaction patterns",
		Claim: "§2.1/§3: the conservation law holds for any partition of the agent multiset — the license to shard the state array; nothing in the methodology is small-N, even at the pairwise-gossip granularity minimum.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E18: steady-state round cost at 10⁶ agents ---

// E18RoundCost extends the scaling series past E15's 10⁵ ceiling to
// N = 10⁶ agents, and changes the question: not rounds-to-converge
// (a 10⁶-ring needs ~N rounds; E15 covers convergence at sizes where it
// is affordable) but the STEADY-STATE cost of a round once the system is
// warm. Every cell runs a FIXED number of pairwise rounds at 99.9%
// availability — the sparse regime where ~0.1% of edges flip per round —
// on one warm sweep worker, recording wall-clock/round and heap
// allocs/round. The matcher answers local queries only for the pairs
// whose endpoints differ (engine.PairMatcher), and the endpoints-differ
// index is repaired from the agents staged each round, so allocs/round
// must stay FLAT from 10⁴ to 10⁶ (heap traffic tracks changes and
// per-run bookkeeping, never agents or edges) while ns/round grows only
// with the pairs that can change. The sparse extreme is pinned
// separately by BenchmarkMatcherMatch1e5 (one candidate in 1024) and the
// scaling row is recorded per commit by scripts/bench_record.sh.
func E18RoundCost(cfg Config) Section {
	var b strings.Builder
	rounds := 64
	type cell struct {
		family string
		g      *graph.Graph
	}
	cells := []cell{
		{"ring", graph.Ring(10_000)},
		{"ring", graph.Ring(100_000)},
		{"ring", graph.Ring(1_000_000)},
	}
	if !cfg.Quick {
		cells = append(cells, cell{"torus", graph.Torus(1000, 1000)})
	} else {
		rounds = 24
	}

	w := sweep.NewWorker()
	defer w.Close()
	// The observability probe supplies the ns_per_phase breakdown: each
	// measured cell runs with the probe attached and the per-cell delta of
	// its phase timers (Report().Sub) fills the phase columns. A caller
	// probe (cfg.Obs — cmd/experiments' -trace/-phase-metrics plumbing)
	// is used when present so trace events land in the requested sink.
	probe := cfg.Obs
	if probe == nil {
		probe = obs.NewProbe(obs.Config{})
	}
	phaseCols := []obs.Phase{obs.PhaseEnvStep, obs.PhaseMatcherUpdate,
		obs.PhaseMatch, obs.PhaseGroupStep, obs.PhaseMonitor}
	shape := true
	t := metrics.NewTable("graph family", "N", "rounds", "wall-clock",
		"ns/round", "heap allocs", "allocs/round",
		"env ns/rd", "update ns/rd", "match ns/rd", "step ns/rd", "monitor ns/rd")
	var aprFirst, aprLast float64
	for i, c := range cells {
		n := c.g.N()
		cellSpec := sweep.Cell{
			Env:      env.ChurnDesc(0.999),
			Problem:  problems.MinDesc(),
			Topo:     c.family,
			Graph:    c.g,
			Mode:     sim.PairwiseMode,
			InitSeed: int64(n),
			Opts: sim.Options{Seed: 1, MaxRounds: rounds,
				Mode: sim.PairwiseMode, Shards: 4},
		}
		// Steady state is the subject: the first (untimed) run pays the
		// one-time engine growth for this size — trackers, masks, the
		// matcher's memo — and the measured second run is the
		// warm regime the benchmarks pin.
		if _, err := w.Do(cellSpec); err != nil {
			shape = false
			t.AddRowf(c.family, n, "FAIL", "—", "—", "—", "—", "—", "—", "—", "—", "—")
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		snap := probe.Report()
		cellSpec.Opts.Probe = probe // measured run only: the warm-up run stays unprobed
		cr, err := w.Do(cellSpec)
		cellSpec.Opts.Probe = nil
		phases := probe.Report().Sub(snap)
		runtime.ReadMemStats(&m1)
		if err != nil || cr.Rounds != rounds || cr.Violations != 0 {
			shape = false
			t.AddRowf(c.family, n, "FAIL", "—", "—", "—", "—", "—", "—", "—", "—", "—")
			continue
		}
		allocs := m1.Mallocs - m0.Mallocs
		apr := float64(allocs) / float64(rounds)
		if i == 0 {
			aprFirst = apr
		}
		aprLast = apr
		if c.g.N() == 1_000_000 && cr.Duration > 60*time.Second {
			shape = false // the headline cell must stay interactive
		}
		row := []any{c.family, n, cr.Rounds,
			cr.Duration.Round(time.Millisecond).String(),
			cr.Duration.Nanoseconds() / int64(rounds), allocs, fmt.Sprintf("%.1f", apr)}
		for _, ph := range phaseCols {
			row = append(row, phases.PhaseNs(ph)/int64(rounds))
		}
		t.AddRowf(row...)
	}
	// Flat means "not a function of graph size": across a 100× size range
	// the per-round allocation count may wiggle with per-run bookkeeping
	// (result copies, probe, environment setup amortized over the fixed
	// round budget) but an O(N) or O(E) regression multiplies it by
	// orders of magnitude.
	if aprFirst == 0 || aprLast > 10*aprFirst+10 {
		shape = false
	}
	b.WriteString("Steady-state pairwise round cost at 99.9% availability, fixed round\n" +
		"budget per cell, all cells on one warm sweep worker (engine scratch,\n" +
		"trackers, matcher memo handed between cells). One seed per cell;\n" +
		"wall-clock and alloc columns are environment-dependent and\n" +
		"indicative:\n\n")
	b.WriteString(t.String())
	b.WriteString("\nAllocs/round is flat from 10⁴ to 10⁶ agents: the round loop touches\n" +
		"reused buffers only, and the matcher's memo, query stacks and outputs\n" +
		"are matcher-owned.\n" +
		"Ns/round grows with N because these cells start from random values:\n" +
		"most pairs can change, so the matcher answers a query for nearly every\n" +
		"usable edge — the algorithm's own work, fanned out across the pool\n" +
		"without changing a single drawn bit.\n")
	b.WriteString("\nThe ns_per_phase columns come from the observability probe\n" +
		"(internal/obs) attached to each measured run. Min being a\n" +
		"core.StutterOnEqual problem, the matcher is asked only about the\n" +
		"pairs whose endpoints-differ bit is set, so `match` and `step` cost\n" +
		"O(pairs that can change), not O(N); the index's build and repair are\n" +
		"all of `update`.\n" +
		"`monitor` is the shard flush plus, min being a consensus problem, an\n" +
		"O(P) check of the shards' size, minimum and maximum against S* with a\n" +
		"running h:\n" +
		"no merged snapshot and no image of f. The O(changes) phases (`env`,\n" +
		"`update`) scale with what changed, not with N: these cells start\n" +
		"from random values, so many agents change every round and `update`\n" +
		"is a visible share of the round; on a near-converged round it is\n" +
		"far below it. Attaching the probe\n" +
		"changes no result bytes. Aggregate timing across the measured cells:\n\n")
	b.WriteString(probe.Report().PhaseTable().String())
	return Section{
		ID:    "E18",
		Title: "Round-cost study — O(changes) rounds at 10⁶ agents",
		Claim: "§1/§2.1: the methodology has no small-N assumption — a million-agent system is steppable interactively because steady-state round cost tracks what changed, not the size of the graph.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E16: the scenario matrix ---

// E16ScenarioMatrix runs a full (environment × problem × topology ×
// mode × seed) grid through the batched scenario-grid runner
// (internal/sweep) — the "as many scenarios as you can imagine" matrix
// in one process. The paper's self-similar framing is what makes the
// grid meaningful: every cell is the SAME engine under different
// resources, so the matrix is a direct, machine-checked reading of §1's
// claim that the algorithms adapt to the environment without changing
// shape — every consensus cell must converge with zero monitor
// violations, at every granularity, on every topology, under every
// environment in the grid. Cells fan out over warm workers (shared
// engine state between cells) under the process-wide worker budget, and
// every cell's result is bit-identical to an independent sim.Run — the
// sweep determinism golden test pins that, so this table is
// reproducible from the grid declaration alone.
func E16ScenarioMatrix(cfg Config) Section {
	var b strings.Builder
	n := 32
	seeds := cfg.Seeds
	if cfg.Quick {
		n = 16
	}
	axes := sweep.Axes{
		Envs:      []env.Desc{env.ChurnDesc(0.9), env.StaticDesc()},
		Problems:  []problems.Desc{problems.MinDesc(), problems.MaxDesc(), problems.GCDDesc()},
		Topos:     []sweep.Topo{sweep.RingTopo(), sweep.HypercubeTopo()},
		Sizes:     []int{n},
		Modes:     []sim.Mode{sim.ComponentMode, sim.PairwiseMode},
		Seeds:     seeds,
		BaseSeed:  16,
		MaxRounds: 60_000,
	}
	grid, err := axes.Grid()
	if err != nil {
		return Section{ID: "E16", Title: "scenario matrix", Body: "error: " + err.Error()}
	}
	res, err := sweep.Run(grid, sweep.Options{})
	if err != nil {
		return Section{ID: "E16", Title: "scenario matrix", Body: "error: " + err.Error()}
	}

	// Aggregate the per-cell results over the seed axis: one row per
	// (environment, problem, topology, mode), median rounds across the
	// replicas — the scenario-matrix table EXPERIMENTS.md records.
	shape := true
	type key struct{ e, p, topo, mode string }
	rows := map[key]*metrics.Sample{}
	conv := map[key]int{}
	order := []key{}
	cellsPer := map[key]int{}
	for _, c := range res.Cells {
		k := key{c.Cell.Env.Name, c.Cell.Problem.Name, c.Cell.Topo, c.Cell.Mode.String()}
		if rows[k] == nil {
			rows[k] = &metrics.Sample{}
			order = append(order, k)
		}
		rows[k].AddInt(c.Round)
		cellsPer[k]++
		if c.Converged {
			conv[k]++
		}
		if !c.Converged || c.Violations != 0 {
			shape = false
		}
	}
	t := metrics.NewTable("environment", "problem", "topology", "mode", "median rounds", "converged")
	for _, k := range order {
		t.AddRowf(k.e, k.p, k.topo, k.mode, rows[k].Median(),
			fmt.Sprintf("%d/%d", conv[k], cellsPer[k]))
	}
	b.WriteString(fmt.Sprintf("Scenario grid: %d environments × %d problems × %d topologies × %d modes\n"+
		"× %d seeds = %d cells (N = %d), one process, warm sweep workers:\n\n",
		len(axes.Envs), len(axes.Problems), len(axes.Topos), len(axes.Modes), seeds, len(grid.Cells), n))
	b.WriteString(t.String())
	b.WriteString("\nEvery cell converged with zero monitor violations (the conservation law\n" +
		"and variant descent hold pointwise over the whole matrix). Rounds adapt\n" +
		"to the environment and granularity — static beats churn, component\n" +
		"steps beat gossip — while correctness never varies: §1's adaptivity\n" +
		"claim, read across an entire grid at once. Regenerate any single cell\n" +
		"independently with cmd/sweep; results are bit-identical by the seed-\n" +
		"substream contract.\n")
	return Section{
		ID:    "E16",
		Title: "Scenario matrix — the full grid on the batched sweep runner",
		Claim: "§1: \"algorithms speed up or slow down depending on the resources available\" — uniformly, over every (environment × problem × topology × mode) combination.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E17: the fault-and-dynamism matrix ---

// E17Dynamics runs a scenario matrix whose third axis is a scripted
// fault schedule (internal/dynamics): agent crashes that freeze state
// and gate convergence until recovery, partition windows whose heal
// round makes rounds-to-reconverge measurable, and churn bursts — the
// dynamism the paper is actually ABOUT, turned into ≥300 machine-checked
// grid cells. Three properties are asserted pointwise over the whole
// matrix:
//
//   - zero monitor violations anywhere — the conservation law f(S) = S*
//     and the variant descent hold through every crash, partition, and
//     burst, and the frozen-state check certifies that crashed agents
//     never moved;
//   - reconvergence after every heal — every cell that experienced a
//     partition heal converges, and the (convergence − heal) gap is the
//     reconvergence cost the table reports;
//   - determinism — every cell is bit-identical to an independent
//     sim.Run and to every worker/shard count (the sweep dynamics
//     determinism tests pin this), so the matrix reproduces from its
//     declaration alone.
func E17Dynamics(cfg Config) Section {
	var b strings.Builder
	n := 32
	if cfg.Quick {
		n = 16
	}
	// Seeds is fixed at 4 (not cfg.Seeds): the matrix's breadth comes
	// from the dynamics axis, and 480 cells at n = 32 keep the full run
	// CI-friendly while clearing the ≥300-dynamics-cell bar.
	const seeds = 4
	axes := sweep.Axes{
		Envs:     []env.Desc{env.ChurnDesc(0.9), env.StaticDesc()},
		Problems: []problems.Desc{problems.MinDesc(), problems.MaxDesc(), problems.GCDDesc()},
		Topos:    []sweep.Topo{sweep.RingTopo(), sweep.HypercubeTopo()},
		Sizes:    []int{n},
		Dynamics: []dynamics.Desc{
			dynamics.NoneDesc(),
			dynamics.CrashesDesc(0.02, 15),
			dynamics.PartitionDesc(2, 0, 40),
			dynamics.FlapDesc(3, 0, 30),
			dynamics.BurstDesc(0.6, 0, 25),
		},
		Modes:     []sim.Mode{sim.ComponentMode, sim.PairwiseMode},
		Seeds:     seeds,
		BaseSeed:  17,
		MaxRounds: 60_000,
	}
	grid, err := axes.Grid()
	if err != nil {
		return Section{ID: "E17", Title: "dynamics matrix", Body: "error: " + err.Error()}
	}
	res, err := sweep.Run(grid, sweep.Options{})
	if err != nil {
		return Section{ID: "E17", Title: "dynamics matrix", Body: "error: " + err.Error()}
	}

	shape := true
	dynCells, healCells, crashes, recoveries := 0, 0, 0, 0
	type key struct{ dyn, p, mode string }
	rows := map[key]*metrics.Sample{}
	reconv := map[key]*metrics.Sample{}
	conv := map[key]int{}
	cellsPer := map[key]int{}
	var order []key
	for _, c := range res.Cells {
		k := key{c.Cell.Dyn.Name, c.Cell.Problem.Name, c.Cell.Mode.String()}
		if rows[k] == nil {
			rows[k] = &metrics.Sample{}
			reconv[k] = &metrics.Sample{}
			order = append(order, k)
		}
		rows[k].AddInt(c.Round)
		cellsPer[k]++
		if c.Converged {
			conv[k]++
		}
		// The two pointwise correctness criteria: zero violations (the
		// conservation law, the variant descent, AND the frozen-state
		// check all feed Violations) and convergence through the faults.
		if !c.Converged || c.Violations != 0 {
			shape = false
		}
		if c.Cell.Dyn.Name != "none" {
			dynCells++
			if c.Dyn == nil {
				shape = false
				continue
			}
			crashes += c.Dyn.Crashes
			recoveries += c.Dyn.Recoveries
			if c.Dyn.Heals > 0 {
				healCells++
				// Reconvergence after the heal: the run converged (checked
				// above) strictly after the last heal took effect — a heal
				// is only recorded while the run is still going.
				gap := c.Round - c.Dyn.LastHealRound
				if gap <= 0 {
					shape = false
				}
				reconv[k].AddInt(gap)
			}
		}
	}
	if dynCells < 300 {
		shape = false // the acceptance bar: ≥300 genuine dynamics cells
	}

	t := metrics.NewTable("dynamics", "problem", "mode", "median rounds",
		"median reconverge", "converged")
	for _, k := range order {
		rc := "—"
		if reconv[k].N() > 0 {
			rc = fmt.Sprint(reconv[k].Median())
		}
		t.AddRowf(k.dyn, k.p, k.mode, rows[k].Median(), rc,
			fmt.Sprintf("%d/%d", conv[k], cellsPer[k]))
	}
	b.WriteString(fmt.Sprintf("Fault matrix: %d environments × %d problems × %d topologies × %d dynamics\n"+
		"schedules × %d modes × %d seeds = %d cells (N = %d, %d with live dynamics),\n"+
		"one process, warm sweep workers. %d agent crashes and %d recoveries were\n"+
		"injected across the matrix; %d cells crossed a partition heal:\n\n",
		len(axes.Envs), len(axes.Problems), len(axes.Topos), len(axes.Dynamics),
		len(axes.Modes), seeds, len(grid.Cells), n, dynCells, crashes, recoveries, healCells))
	b.WriteString(t.String())
	b.WriteString("\nEvery cell converged with zero monitor violations — including the\n" +
		"frozen-state check certifying that crashed agents never changed state\n" +
		"while down — and every cell that lived through a partition heal\n" +
		"reconverged after it (median reconvergence gaps above). Crash cells\n" +
		"are gated exactly as the theory predicts: a frozen agent's value is\n" +
		"unreachable until it wakes, so \"median rounds\" tracks the injected\n" +
		"downtime, not the algorithm. Rerun any cell independently with\n" +
		"cmd/sweep's -dynamics and -cells flags; results are bit-identical by\n" +
		"the seed-substream contract.\n")
	return Section{
		ID:    "E17",
		Title: "Dynamics matrix — scripted crash/recover, partition/heal, and burst schedules",
		Claim: "§1/§2: computations remain correct while agents come and go and the interaction graph shifts — conservation and descent hold through faults, and convergence resumes when the environment allows.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E19: growable populations and the amnesiac-rejoin classification ---

// E19Membership reads §3.4's classification empirically. Super-idempotence
// f(f(X) ∪ Y) = f(X ∪ Y) makes JOIN handling exact: the monitor retargets
// by folding the joiners into the achieved target. The amnesiac-rejoin
// fault is harsher — a recovering agent re-enters with its INITIAL state,
// re-introducing values that may already have been absorbed. Functions
// insensitive to re-introduced inputs (min, max, gcd: duplicates never
// change the result) keep the conservation law through it; sum is not
// (a reset duplicates or destroys absorbed mass), and the monitor must
// DETECT every such violation rather than silently re-converge.
//
// The experiment has two halves: (1) the classification table — identical
// amnesiac flaps against min/max/gcd/sum, counting injected resets and
// detected violations; (2) the join determinism matrix — join-laden grids
// over all three attachment families replayed across engine layouts
// (state shards × sweep workers × GOMAXPROCS), where results must be
// bit-identical: layouts must be invisible.
func E19Membership(cfg Config) Section {
	var b strings.Builder
	shape := true

	// --- Half 1: the §3.4 classification under amnesiac rejoin ---
	n := 16
	seeds := cfg.Seeds
	flap := func() *dynamics.Schedule {
		return dynamics.NewSchedule(
			dynamics.At(1, dynamics.CrashRandom(4)),
			dynamics.At(6, dynamics.RecoverAll()),
			dynamics.AmnesiacRejoin(),
		)
	}
	classVals := func(seed int64, mult int) []int {
		vals := initialValues(n, seed)
		for i := range vals {
			vals[i] = (vals[i] + 1) * mult
		}
		return vals
	}
	type fn struct {
		name, class string
		run         func(seed int64) (*sim.Result[int], error)
	}
	// Pairwise on a ring for the consensus functions: slow enough
	// convergence that the flap fires mid-run. Sum runs pairwise on the
	// complete graph (§4.2's requirement) with a round cap, because a
	// genuine conservation violation makes its target unreachable.
	fns := []fn{
		{"min", "insensitive", func(seed int64) (*sim.Result[int], error) {
			return sim.Run[int](problems.NewMin(), env.NewEdgeChurn(graph.Ring(n), 0.9),
				classVals(seed, 1), sim.Options{Seed: seed, Mode: sim.PairwiseMode, StopOnConverged: true, MaxRounds: 2_000, Dynamics: flap()})
		}},
		{"max", "insensitive", func(seed int64) (*sim.Result[int], error) {
			return sim.Run[int](problems.NewMax(16*n), env.NewEdgeChurn(graph.Ring(n), 0.9),
				classVals(seed, 1), sim.Options{Seed: seed, Mode: sim.PairwiseMode, StopOnConverged: true, MaxRounds: 2_000, Dynamics: flap()})
		}},
		{"gcd", "insensitive", func(seed int64) (*sim.Result[int], error) {
			return sim.Run[int](problems.NewGCD(), env.NewEdgeChurn(graph.Ring(n), 0.9),
				classVals(seed, 6), sim.Options{Seed: seed, Mode: sim.PairwiseMode, StopOnConverged: true, MaxRounds: 2_000, Dynamics: flap()})
		}},
		{"sum", "sensitive", func(seed int64) (*sim.Result[int], error) {
			return sim.Run[int](problems.NewSum(), env.NewEdgeChurn(graph.Complete(n), 0.9),
				classVals(seed, 1), sim.Options{Seed: seed, Mode: sim.PairwiseMode, StopOnConverged: true, MaxRounds: 120, Dynamics: flap()})
		}},
	}
	ct := metrics.NewTable("f", "§3.4 class", "runs", "resets injected",
		"runs w/ violations", "converged")
	for _, f := range fns {
		results := make([]*sim.Result[int], seeds)
		errs := make([]error, seeds)
		f := f
		forEachSeed(seeds, func(s int) {
			results[s], errs[s] = f.run(int64(s) + 1)
		})
		resets, violRuns, conv := 0, 0, 0
		for s := 0; s < seeds; s++ {
			if errs[s] != nil {
				return Section{ID: "E19", Title: "membership", Body: "error: " + errs[s].Error()}
			}
			r := results[s]
			if r.Dynamics == nil || r.Dynamics.AmnesiacResets == 0 {
				shape = false // the fault never fired — the row is vacuous
				continue
			}
			resets += r.Dynamics.AmnesiacResets
			if len(r.Violations) > 0 {
				violRuns++
			}
			if r.Converged {
				conv++
			}
		}
		switch f.class {
		case "insensitive":
			// Zero violations AND full reconvergence, every run.
			if violRuns != 0 || conv != seeds {
				shape = false
			}
		case "sensitive":
			// The monitor must detect the violation in every run.
			if violRuns != seeds {
				shape = false
			}
		}
		ct.AddRowf(f.name, f.class, seeds, resets, violRuns,
			fmt.Sprintf("%d/%d", conv, seeds))
	}
	b.WriteString(fmt.Sprintf("Identical amnesiac flaps (4 agents crash at round 1, ALL rejoin at\n"+
		"round 6 with their initial states) against each function, N = %d,\n"+
		"%d seeds each:\n\n", n, seeds))
	b.WriteString(ct.String())
	b.WriteString("\nThe split is exactly §3.4's: min, max, and gcd are insensitive to\n" +
		"re-introduced initial values (a duplicate never changes an extremum or\n" +
		"a gcd), so the conservation law survives amnesiac re-entry and every\n" +
		"run reconverges with zero violations. Sum is not — a reset duplicates\n" +
		"mass the system already absorbed — and the monitor flags every such\n" +
		"run rather than letting it pass as converged.\n\n")

	// --- Half 2: join determinism across engine layouts ---
	gn := 24
	joinSeeds := 3
	mkGrid := func(topo sweep.Topo, dyns []dynamics.Desc, shards int) (*sweep.Grid, error) {
		a := sweep.Axes{
			Envs:      []env.Desc{env.ChurnDesc(0.9)},
			Problems:  []problems.Desc{problems.MinDesc()},
			Topos:     []sweep.Topo{topo},
			Sizes:     []int{gn},
			Dynamics:  dyns,
			Modes:     []sim.Mode{sim.ComponentMode, sim.PairwiseMode},
			Seeds:     joinSeeds,
			BaseSeed:  19,
			MaxRounds: 60_000,
			Shards:    shards,
		}
		return a.Grid()
	}
	ringDyns := []dynamics.Desc{
		dynamics.JoinDesc(4, "ring", 8),
		dynamics.JoinDesc(3, "pref", 6),
		dynamics.AmnesiacFlapDesc(3, 2, 12),
	}
	cubeDyns := []dynamics.Desc{dynamics.JoinDesc(8, "hypercube", 5)}

	fingerprint := func(res *sweep.Result) string {
		var sb strings.Builder
		for _, c := range res.Cells {
			sb.WriteString(fmt.Sprintf("i=%d conv=%v round=%d steps=%d msgs=%d viol=%d final=%v",
				c.Cell.Index, c.Converged, c.Round, c.GroupSteps, c.Messages, c.Violations, c.Final))
			if c.Dyn != nil {
				sb.WriteString(fmt.Sprintf(" dyn=%+v", *c.Dyn))
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	type layout struct {
		name    string
		shards  int
		workers int
		gomaxp  int // 0 = leave as is
	}
	layouts := []layout{
		{"shards=1 workers=1", 1, 1, 0},
		{"shards=4 workers=2", 4, 2, 0},
		{"shards=4 workers=all", 4, 0, 0},
		{"shards=1 workers=2 GOMAXPROCS=2", 1, 2, 2},
	}
	dt := metrics.NewTable("grid", "cells", "joins injected", "layouts bit-identical")
	grids := []struct {
		name string
		topo sweep.Topo
		dyns []dynamics.Desc
	}{
		{"ring splice + preferential + amnesiac", sweep.RingTopo(), ringDyns},
		{"hypercube dimension fill", sweep.HypercubeTopo(), cubeDyns},
	}
	for _, gspec := range grids {
		var ref string
		identical := true
		cells, joins := 0, 0
		for _, l := range layouts {
			grid, err := mkGrid(gspec.topo, gspec.dyns, l.shards)
			if err != nil {
				return Section{ID: "E19", Title: "membership", Body: "error: " + err.Error()}
			}
			var res *sweep.Result
			if l.gomaxp > 0 {
				old := runtime.GOMAXPROCS(l.gomaxp)
				res, err = sweep.Run(grid, sweep.Options{Workers: l.workers, KeepFinal: true})
				runtime.GOMAXPROCS(old)
			} else {
				res, err = sweep.Run(grid, sweep.Options{Workers: l.workers, KeepFinal: true})
			}
			if err != nil {
				return Section{ID: "E19", Title: "membership", Body: "error: " + err.Error()}
			}
			fp := fingerprint(res)
			if ref == "" {
				ref = fp
				cells = len(res.Cells)
				for _, c := range res.Cells {
					if c.Violations != 0 || !c.Converged {
						shape = false
					}
					if c.Dyn != nil {
						joins += c.Dyn.Joins
					}
				}
				if joins == 0 {
					shape = false
				}
			} else if fp != ref {
				identical = false
				shape = false
			}
		}
		dt.AddRowf(gspec.name, cells, joins, identical)
	}
	b.WriteString(fmt.Sprintf("Join-laden grids (all three attachment families: ring splice,\n"+
		"hypercube dimension fill, preferential attachment; N = %d founding\n"+
		"agents, %d seeds, component and pairwise modes) replayed across engine\n"+
		"layouts — state shards × sweep workers × GOMAXPROCS:\n\n", gn, joinSeeds))
	b.WriteString(dt.String())
	b.WriteString("\nEvery layout produced byte-identical cell results, dynamics reports,\n" +
		"and final states: joiners append to the last shard without rebalancing,\n" +
		"substreams key on stable agent identity, and the pairwise matching is\n" +
		"a function of the round's keyed edge ranks and masks alone — so\n" +
		"membership changes are as invisible to the machine layout as any\n" +
		"other event.\n")
	return Section{
		ID:    "E19",
		Title: "Growable populations — JOIN events and the amnesiac-rejoin classification",
		Claim: "§3.4: f(f(X) ∪ Y) = f(X ∪ Y) makes incremental admission exact — and under amnesiac rejoin, duplicate-insensitive functions (min, max, gcd) keep the conservation law while sum's violations are detected, never masked.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// --- E14: the escape postulate (§2.1) ---

// E14EscapePostulate makes the paper's §2.1 discussion executable: the
// escape postulate (1) is an assumption, not a theorem — an environment
// that "always transits from G to G' before the agents can take a step"
// defeats it even though Q holds infinitely often, while a weakly fair
// scheduler validates it.
func E14EscapePostulate(cfg Config) Section {
	var b strings.Builder
	eq := func(a, s []int) bool { return a[0] == s[0] && a[1] == s[1] }
	sys := &dynsys.System[int]{
		EnvStates: []string{"up-A", "up-B"},
		Eq:        eq,
		AgentSucc: func(g int, s []int) [][]int {
			m := s[0]
			if s[1] < m {
				m = s[1]
			}
			if s[0] == m && s[1] == m {
				return nil
			}
			return [][]int{{m, m}}
		},
	}
	q := map[int]bool{0: true, 1: true}
	t := metrics.NewTable("scheduler", "□◇Q", "S # Q throughout", "◇(S≠S)", "postulate holds")
	shape := true
	for _, sched := range []dynsys.Scheduler[int]{
		dynsys.EnvFlipper[int]{},
		dynsys.WeaklyFair[int]{Period: 3},
	} {
		trace, err := dynsys.Run(sys, sched, 0, []int{5, 3}, 300, 1)
		if err != nil {
			return Section{ID: "E14", Body: err.Error()}
		}
		rep := dynsys.CheckPostulate(sys, trace, q)
		t.AddRowf(sched.Name(), rep.QInfinitelyOften, rep.EscapableThroughout,
			rep.AgentsEverMoved, rep.Holds)
		switch sched.(type) {
		case dynsys.EnvFlipper[int]:
			if rep.Holds || !rep.QInfinitelyOften || !rep.EscapableThroughout {
				shape = false
			}
		default:
			if !rep.Holds || !rep.AgentsEverMoved {
				shape = false
			}
		}
	}
	b.WriteString("Two-agent minimum consensus in the §2 (G,S) product system; Q = {up-A,\n")
	b.WriteString("up-B} (both environment states enable the agents):\n\n")
	b.WriteString(t.String())
	b.WriteString("\nThe flipper scheduler realizes the paper's §2.1 scenario: the\n" +
		"hypotheses of the escape postulate hold at every instant, yet the agents\n" +
		"never move — the postulate is a genuine assumption that implementations\n" +
		"must discharge (our round-based engine does so by construction: every\n" +
		"environment transition is followed by an agents-transition).\n")
	_ = cfg
	return Section{
		ID:    "E14",
		Title: "Escape postulate — the paper's §2.1 counterexample, executable",
		Claim: "§2.1: the escape postulate is an assumption; an environment that always transits before agents act defeats it even though ♦Q … □◇Q holds.",
		Body:  b.String(), ShapeHolds: shape,
	}
}

// mallocs runs f between GC fences and returns the heap allocations it
// made. Allocation accounting wants a quiet heap, so callers run nothing
// beside it.
func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// --- E20: sharded actor scheduler — the 10⁵-agent scaling study ---

// E20SchedScale measures §4.5's asynchronous message-passing realization
// at scale: the sharded event-loop actor runtime (internal/sched), which
// multiplexes the whole population onto a handful of per-shard run
// queues, over min and sum on ring and hypercube at N = 2¹⁰, 2¹³, 2¹⁷.
// It records convergence, throughput (proper steps per wall-clock
// second), and allocations per initiated exchange beyond the run's fixed
// set-up.
func E20SchedScale(cfg Config) Section {
	var b strings.Builder
	type dim struct{ d, n int }
	sizes := []dim{{10, 1 << 10}, {13, 1 << 13}, {17, 1 << 17}}
	if cfg.Quick {
		sizes = []dim{{8, 1 << 8}, {10, 1 << 10}}
	}
	type prob struct {
		name string
		mk   func() core.Problem[int]
	}
	probs := []prob{
		{"min", func() core.Problem[int] { return problems.NewMin() }},
		{"sum", func() core.Problem[int] { return problems.NewSum() }},
	}

	shape := true
	violations := 0
	var minHyperAllocs []float64
	// Allocation bar, part one: an exchange allocates nothing, so every
	// cell must read under one allocation per hundred exchanges beyond
	// its set-up. One boxed message or heap node per exchange reads ≥ 1.
	const maxExchAllocs = 0.01

	t := metrics.NewTable("problem", "topology", "N", "converged",
		"ops", "proper", "elapsed", "proper/s", "allocs/exch")
	for _, pr := range probs {
		for _, topo := range []string{"ring", "hypercube"} {
			for _, sz := range sizes {
				var g *graph.Graph
				if topo == "ring" {
					g = graph.Ring(sz.n)
				} else {
					g = graph.Hypercube(sz.d)
				}
				vals := make([]int, sz.n)
				for i := range vals {
					vals[i] = 2 + (i*7919)%997
				}
				vals[sz.n/2] = 1 // planted global minimum
				opts := sched.Options{Seed: 20, LinkUpProbability: 1, MaxOps: 60 * sz.n, Timeout: 2 * time.Minute}
				var res *sched.Result[int]
				var err error
				total := mallocs(func() { res, err = sched.Run[int](pr.mk(), g, vals, opts) })
				if err != nil {
					return Section{ID: "E20", Title: "sched scaling", Body: "error: " + err.Error()}
				}
				// The same cell with a budget of one initiation pays the
				// run's whole fixed set-up — state arrays, message slots,
				// queues, CSR, worker start — and almost no exchange, so
				// the difference is what the exchanges allocated. Total
				// allocations over ops would read the set-up amortized:
				// higher for a cell that converges in fewer initiations.
				opts.MaxOps = 1
				fixed := mallocs(func() { _, err = sched.Run[int](pr.mk(), g, vals, opts) })
				if err != nil {
					return Section{ID: "E20", Title: "sched scaling", Body: "error: " + err.Error()}
				}
				ops := max(res.Ops-1, 1)
				allocs := max(float64(total)-float64(fixed), 0) / float64(ops)
				if allocs >= maxExchAllocs {
					shape = false
				}
				if pr.name == "min" && topo == "hypercube" {
					minHyperAllocs = append(minHyperAllocs, allocs)
					// The acceptance cell: min over the hypercube must
					// converge at every size, 10⁵ included — the log-
					// diameter topology is where 60·N initiations
					// genuinely suffice.
					if !res.Converged {
						shape = false
					}
				}
				violations += len(res.Violations)
				t.AddRowf(pr.name, topo, sz.n, res.Converged,
					res.Ops, res.ProperSteps,
					res.Elapsed.Round(time.Millisecond),
					fmt.Sprintf("%.0f", res.ProperStepsPerSec()), fmt.Sprintf("%.3f", allocs))
			}
		}
	}
	if violations != 0 {
		shape = false
	}

	// Allocation bar, part two: min-over-hypercube allocs/exchange must
	// also stay flat as N grows — the message slots, queues, and deferred
	// heaps are all preallocated, so the per-exchange cost cannot scale
	// with the population. "Flat" = max within 2× of min, or under an
	// absolute floor where the ratio is just measurement noise.
	minA, maxA := math.Inf(1), 0.0
	for _, a := range minHyperAllocs {
		minA = math.Min(minA, a)
		maxA = math.Max(maxA, a)
	}
	flat := maxA < 0.05 || maxA <= 2*minA
	if !flat {
		shape = false
	}

	b.WriteString(fmt.Sprintf("§4.5's asynchronous realization on the sharded scheduler: %d cells\n"+
		"(min/sum × ring/hypercube × N up to %d), budget 60·N initiations each,\n"+
		"one process, cells sequential with GC fences for exact allocation\n"+
		"accounting; allocs/exch excludes the allocations of the same cell run\n"+
		"to a budget of one initiation, its fixed set-up, and must stay under\n"+
		"%.2f in every cell:\n\n",
		len(probs)*2*len(sizes), sizes[len(sizes)-1].n, maxExchAllocs))
	b.WriteString(t.String())
	b.WriteString(fmt.Sprintf("\nMin-over-hypercube allocs/exchange across sizes stays in [%.3f, %.3f].\n"+
		"Ring cells at large N wind down on budget rather than converge — a\n"+
		"constant-degree ring moves information one hop per O(N) random\n"+
		"initiations, so convergence needs Θ(N²) exchanges; the hypercube's log\n"+
		"diameter is what makes 10⁵ agents feasible, and the sum cells collect\n"+
		"total mass onto a single agent by random coalescence, slower still.\n"+
		"Throughput is measured on converged and budget-bound cells alike\n"+
		"(proper steps per second is well-defined either way), and the monitor\n"+
		"asserted conservation and descent in every cell: %d violations.\n", minA, maxA, violations))
	return Section{
		ID:    "E20",
		Title: "Sharded actor scheduler — async exchanges at 10⁵ agents without per-agent goroutines",
		Claim: "§4.5: the asynchronous message-passing realization scales to 10⁵-agent populations when agents are multiplexed onto per-shard event loops — min over the hypercube converges at every size with clean monitor verdicts and flat per-exchange allocation.",
		Body:  b.String(), ShapeHolds: shape,
	}
}
