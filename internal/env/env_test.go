package env

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/graph"
)

func TestStatic(t *testing.T) {
	g := graph.Ring(5)
	e := NewStatic(g)
	s := e.Step(0, nil)
	if s.UpEdgeCount() != g.M() || s.UpAgentCount() != g.N() {
		t.Errorf("static: %d/%d edges, %d/%d agents", s.UpEdgeCount(), g.M(), s.UpAgentCount(), g.N())
	}
	if e.Graph() != g || e.Name() == "" {
		t.Error("metadata wrong")
	}
}

func TestAllUpAndClone(t *testing.T) {
	g := graph.Line(4)
	s := AllUp(g)
	c := s.Clone()
	c.EdgeUp.Clear(0)
	c.AgentUp.Clear(0)
	if !s.EdgeUp.Get(0) || !s.AgentUp.Get(0) {
		t.Error("Clone aliases original")
	}
}

func TestEdgeChurnExtremes(t *testing.T) {
	g := graph.Complete(6)
	rng := rand.New(rand.NewSource(1))
	always := NewEdgeChurn(g, 1.0)
	if s := always.Step(0, rng); s.UpEdgeCount() != g.M() {
		t.Error("p=1 churn dropped edges")
	}
	never := NewEdgeChurn(g, 0.0)
	if s := never.Step(0, rng); s.UpEdgeCount() != 0 {
		t.Error("p=0 churn kept edges")
	}
}

func TestEdgeChurnRate(t *testing.T) {
	g := graph.Complete(10)
	e := NewEdgeChurn(g, 0.3)
	rng := rand.New(rand.NewSource(2))
	up, total := 0, 0
	for r := 0; r < 200; r++ {
		s := e.Step(r, rng)
		up += s.UpEdgeCount()
		total += g.M()
		if s.UpAgentCount() != g.N() {
			t.Fatal("churn disabled agents")
		}
	}
	frac := float64(up) / float64(total)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("empirical availability %.3f far from 0.3", frac)
	}
}

func TestPowerLoss(t *testing.T) {
	g := graph.Ring(8)
	e := NewPowerLoss(g, 0.5)
	rng := rand.New(rand.NewSource(3))
	down := 0
	for r := 0; r < 100; r++ {
		s := e.Step(r, rng)
		down += g.N() - s.UpAgentCount()
		if s.UpEdgeCount() != g.M() {
			t.Fatal("power loss disabled edges")
		}
	}
	if down == 0 || down == 100*g.N() {
		t.Errorf("implausible outage count %d", down)
	}
}

func TestPartitionerPhases(t *testing.T) {
	g := graph.Complete(6)
	e := NewPartitioner(g, 2, 3, 2) // rounds 0,1,2 healthy; 3,4 partitioned
	rng := rand.New(rand.NewSource(4))

	if e.Partitioned(0) || e.Partitioned(2) {
		t.Error("healthy rounds misclassified")
	}
	if !e.Partitioned(3) || !e.Partitioned(4) {
		t.Error("partitioned rounds misclassified")
	}
	if e.Partitioned(5) { // wraps around
		t.Error("period wrap wrong")
	}

	healthy := e.Step(0, rng)
	if healthy.UpEdgeCount() != g.M() {
		t.Error("healthy phase cut edges")
	}
	split := e.Step(3, rng)
	comps := g.Components(split.EdgeUp, split.AgentUp)
	if len(comps) != 2 {
		t.Fatalf("partitioned phase components = %d, want 2: %v", len(comps), comps)
	}
	// Blocks are contiguous: {0,1,2} and {3,4,5}.
	if e.Block(0) != 0 || e.Block(2) != 0 || e.Block(3) != 1 || e.Block(5) != 1 {
		t.Error("block assignment wrong")
	}
}

func TestPartitionerMinParts(t *testing.T) {
	g := graph.Complete(4)
	e := NewPartitioner(g, 1, 1, 1) // parts clamped to 2
	if e.Parts != 2 {
		t.Errorf("Parts = %d, want clamp to 2", e.Parts)
	}
}

func TestAdversaryFairWindow(t *testing.T) {
	g := graph.Complete(5)
	e := NewAdversary(g, 1.0, 4) // cuts everything, but window forces re-enable
	rng := rand.New(rand.NewSource(5))
	probe := NewFairnessProbe(g.M())
	for r := 0; r < 100; r++ {
		probe.Observe(e.Step(r, rng))
	}
	if starved := probe.Starved(); len(starved) != 0 {
		t.Errorf("fair adversary starved edges %v", starved)
	}
	for id := 0; id < g.M(); id++ {
		if probe.MaxGap(id) > 6 { // window 4 plus slack for initial phase
			t.Errorf("edge %d gap %d exceeds fairness window", id, probe.MaxGap(id))
		}
	}
}

func TestAdversaryUnfair(t *testing.T) {
	g := graph.Complete(4)
	e := NewAdversary(g, 0.5, 0) // no fairness budget
	// Make edge 0 always the most useful so it is always cut.
	e.Useful = func(ed graph.Edge) float64 {
		if ed == g.Edge(0) {
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(6))
	probe := NewFairnessProbe(g.M())
	for r := 0; r < 50; r++ {
		probe.Observe(e.Step(r, rng))
	}
	if probe.UpFraction(0) != 0 {
		t.Errorf("targeted edge was up %.2f of rounds", probe.UpFraction(0))
	}
	if len(probe.Starved()) == 0 {
		t.Error("unfair adversary starved nothing")
	}
}

func TestStarver(t *testing.T) {
	g := graph.Complete(4)
	id, _ := g.EdgeID(0, 1)
	e := NewStarver(g, []int{id})
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < 10; r++ {
		s := e.Step(r, rng)
		if s.EdgeUp.Get(id) {
			t.Fatal("starved edge came up")
		}
		if s.UpEdgeCount() != g.M()-1 {
			t.Fatal("starver cut extra edges")
		}
	}
}

func TestRoundRobin(t *testing.T) {
	g := graph.Ring(5)
	e := NewRoundRobin(g)
	rng := rand.New(rand.NewSource(8))
	probe := NewFairnessProbe(g.M())
	for r := 0; r < 3*g.M(); r++ {
		s := e.Step(r, rng)
		if s.UpEdgeCount() != 1 {
			t.Fatalf("round %d: %d edges up, want 1", r, s.UpEdgeCount())
		}
		probe.Observe(s)
	}
	for id := 0; id < g.M(); id++ {
		if probe.UpFraction(id) == 0 {
			t.Errorf("edge %d never scheduled", id)
		}
	}
}

func TestMobileRequiresComplete(t *testing.T) {
	if _, err := NewMobile(graph.Ring(5), 0.3, 0.05); err == nil {
		t.Error("Mobile accepted a non-complete graph")
	}
}

func TestMobileConnectivityVaries(t *testing.T) {
	g := graph.Complete(8)
	e, err := NewMobile(g, 0.35, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if e.Positions() != nil {
		t.Error("positions before first step")
	}
	counts := map[int]bool{}
	for r := 0; r < 300; r++ {
		s := e.Step(r, rng)
		counts[s.UpEdgeCount()] = true
	}
	if len(counts) < 3 {
		t.Errorf("connectivity never varied: %v", counts)
	}
	if got := e.Positions(); len(got) != g.N() {
		t.Errorf("positions = %d, want %d", len(got), g.N())
	}
}

func TestFairnessProbeGaps(t *testing.T) {
	p := NewFairnessProbe(2)
	mk := func(a, b bool) State { return State{EdgeUp: bitset.FromBools([]bool{a, b})} }
	p.Observe(mk(true, false))
	p.Observe(mk(false, false))
	p.Observe(mk(true, false))
	if p.Rounds() != 3 {
		t.Errorf("rounds = %d", p.Rounds())
	}
	if f := p.UpFraction(0); f < 0.66 || f > 0.67 {
		t.Errorf("up fraction = %g", f)
	}
	if p.MaxGap(0) != 2 {
		t.Errorf("max gap edge0 = %d, want 2", p.MaxGap(0))
	}
	if p.MaxGap(1) != 3 {
		t.Errorf("max gap edge1 = %d, want 3", p.MaxGap(1))
	}
	starved := p.Starved()
	if len(starved) != 1 || starved[0] != 1 {
		t.Errorf("starved = %v", starved)
	}
}

func TestFairnessProbeEmpty(t *testing.T) {
	p := NewFairnessProbe(1)
	if p.UpFraction(0) != 0 {
		t.Error("up fraction on empty probe")
	}
}

// TestEdgeChurnIncrementalMatchesScratch: the incrementally repaired
// mask must equal, every round, the mask computed from scratch from the
// same per-round stream — a FastRand reseeded each round, as the engine
// does — the regression guard on the undo-then-flip maintenance path (a
// stale or missed undo would silently skew availability).
func TestEdgeChurnIncrementalMatchesScratch(t *testing.T) {
	g := graph.Complete(14)
	for _, p := range []float64{0.999, 0.9, 0.5, 0.3, 0.01} {
		e := NewEdgeChurn(g, p)
		rng := engine.NewFastRand(0)
		var scratch []int
		for round := 0; round < 300; round++ {
			seed := engine.EnvSeed(7, round)
			rng.Reseed(seed)
			s := e.Step(round, rng.Rand)
			majority := p >= 0.5
			q := 1 - p
			if !majority {
				q = p
			}
			scratch = SampleBernoulli(scratch[:0], g.M(), q, engine.NewFastRand(seed).Rand)
			want := make([]bool, g.M())
			for i := range want {
				want[i] = majority
			}
			for _, id := range scratch {
				want[id] = !majority
			}
			for id := range want {
				if s.EdgeUp.Get(id) != want[id] {
					t.Fatalf("p=%g round %d: incremental mask[%d]=%v, from-scratch %v",
						p, round, id, s.EdgeUp.Get(id), want[id])
				}
			}
		}
	}
}

// TestEdgeChurnPCrossesHalf: changing P across ½ mid-run flips the
// majority fill value; the mask must be refilled correctly instead of
// keeping stale majority entries.
func TestEdgeChurnPCrossesHalf(t *testing.T) {
	g := graph.Complete(10)
	e := NewEdgeChurn(g, 0.95)
	master := rand.New(rand.NewSource(9))
	for round := 0; round < 5; round++ {
		e.Step(round, master)
	}
	e.P = 0.05
	up := 0
	for round := 5; round < 105; round++ {
		up += e.Step(round, master).UpEdgeCount()
	}
	if frac := float64(up) / float64(100*g.M()); frac < 0.02 || frac > 0.1 {
		t.Errorf("after P change to 0.05, availability %.3f (stale majority fill?)", frac)
	}
}

// TestEdgeChurnStepAllocFree: the steady-state Step must not allocate —
// the mask buffer and flip lists are reused, and the engine's per-round
// reseed of the stream is O(1).
func TestEdgeChurnStepAllocFree(t *testing.T) {
	g := graph.Complete(24)
	e := NewEdgeChurn(g, 0.9)
	rng := engine.NewFastRand(0)
	step := func(round int) {
		rng.Reseed(engine.EnvSeed(5, round))
		e.Step(round, rng.Rand)
	}
	step(0) // prime mask and flip-list capacity
	step(1)
	round := 2
	allocs := testing.AllocsPerRun(100, func() {
		step(round)
		round++
	})
	if allocs != 0 {
		t.Errorf("steady-state Step allocated %.0f times per run", allocs)
	}
}

// TestEdgeChurnExtremeTinyP: availability probabilities down at the
// denormal end must not crash the gap sampler. Before the Log1p guard,
// q < ~1e-16 made log(1−q) round to zero, the division produce ±Inf,
// and the float→int conversion yield a negative edge id that panicked
// Step with an index-out-of-range.
func TestEdgeChurnExtremeTinyP(t *testing.T) {
	g := graph.Complete(8)
	for _, p := range []float64{1e-300, 1e-20, 1e-16, 1 - 1e-16} {
		e := NewEdgeChurn(g, p)
		rng := engine.NewFastRand(0)
		for round := 0; round < 50; round++ {
			rng.Reseed(engine.EnvSeed(1, round))
			s := e.Step(round, rng.Rand)
			up := s.UpEdgeCount()
			if p < 0.5 && up > 1 {
				t.Fatalf("p=%g round %d: %d edges up", p, round, up)
			}
			if p > 0.5 && up < g.M()-1 {
				t.Fatalf("p=%g round %d: only %d/%d edges up", p, round, up, g.M())
			}
		}
	}
}

// selectCutOracle is the adversary's former O(cut·M) ranking, kept as the
// reference: a selection sort of the top cut scores. It returns the ids
// it cuts.
func selectCutOracle(scores []float64, cut int) []int {
	order := make([]adversaryScore, len(scores))
	for id, sc := range scores {
		order[id] = adversaryScore{id, sc}
	}
	ids := make([]int, 0, cut)
	for i := 0; i < cut; i++ {
		best := i
		for j := i + 1; j < len(order); j++ {
			if order[j].score > order[best].score {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
		ids = append(ids, order[i].id)
	}
	return ids
}

// TestAdversaryCutMatchesSelectionOracle: over random graphs, seeds and
// cut ∈ {0, 1, M/2, M}, with and without a usefulness hook, each round's
// cut set equals the selection sort's over the same scores, and Step
// leaves the stream where the oracle's replay of the score draws does.
func TestAdversaryCutMatchesSelectionOracle(t *testing.T) {
	gr := rand.New(rand.NewSource(11))
	graphs := []*graph.Graph{
		graph.Ring(12), graph.Complete(9), graph.Hypercube(5),
		graph.ConnectedErdosRenyi(40, 0.2, gr), graph.ConnectedErdosRenyi(64, 0.1, gr),
	}
	for gi, g := range graphs {
		m := g.M()
		states := make([]int, g.N())
		for i := range states {
			states[i] = gr.Intn(2)
		}
		disagree := func(e graph.Edge) float64 {
			if states[e.A] != states[e.B] {
				return 1
			}
			return 0
		}
		for _, cut := range []int{0, 1, m / 2, m} {
			for _, useful := range []func(graph.Edge) float64{nil, disagree} {
				for seed := int64(1); seed <= 4; seed++ {
					e := NewAdversary(g, float64(cut)/float64(m), 0)
					e.SetUseful(useful)
					rng, replay := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					for round := 0; round < 3; round++ {
						s := e.Step(round, rng)
						scores := make([]float64, m)
						for id := range scores {
							scores[id] = replay.Float64()
							if useful != nil {
								scores[id] += 1000 * useful(g.Edge(id))
							}
						}
						want := selectCutOracle(scores, cut)
						slices.Sort(want)
						var got []int
						for id := 0; id < m; id++ {
							if !s.EdgeUp.Get(id) {
								got = append(got, id)
							}
						}
						if !slices.Equal(got, want) {
							t.Fatalf("graph %d, cut %d, useful %v, seed %d, round %d: cut %v, oracle %v",
								gi, cut, useful != nil, seed, round, got, want)
						}
					}
					if a, b := rng.Int63(), replay.Int63(); a != b {
						t.Fatalf("graph %d, cut %d, seed %d: Step moved the stream differently from the score draws", gi, cut, seed)
					}
				}
			}
		}
	}
}
