package selfsim

// Tests of the public API surface: everything a downstream user touches
// works through the façade alone.

import (
	"math/rand"
	"testing"
)

func TestPublicQuickstart(t *testing.T) {
	g := Ring(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	res, err := Simulate[int](NewMin(), EdgeChurn(g, 0.3), vals,
		Options{Seed: 1, StopOnConverged: true, CheckSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Violations) != 0 {
		t.Fatalf("converged=%v violations=%v", res.Converged, res.Violations)
	}
	for _, v := range res.Final {
		if v != 1 {
			t.Errorf("final = %v", res.Final)
		}
	}
}

func TestPublicProblems(t *testing.T) {
	vals := []int{3, 5, 3, 7}
	cases := []struct {
		name string
		run  func(t *testing.T) bool
	}{
		{"max", func(t *testing.T) bool {
			res, err := Simulate[int](NewMax(10), Static(Ring(4)), vals, Options{Seed: 1, StopOnConverged: true})
			return err == nil && res.Converged && res.Final[0] == 7
		}},
		{"sum", func(t *testing.T) bool {
			res, err := Simulate[int](NewSum(), Static(Complete(4)), vals, Options{Seed: 1, StopOnConverged: true})
			return err == nil && res.Converged
		}},
		{"gcd", func(t *testing.T) bool {
			res, err := Simulate[int](NewGCD(), Static(Line(4)), []int{12, 18, 30, 6}, Options{Seed: 1, StopOnConverged: true})
			return err == nil && res.Converged && res.Final[0] == 6
		}},
		{"average", func(t *testing.T) bool {
			res, err := Simulate[float64](NewAverage(1e-9), Static(Ring(4)), []float64{1, 2, 3, 6}, Options{Seed: 1, StopOnConverged: true})
			return err == nil && res.Converged && res.Final[0] == 3
		}},
		{"minpair", func(t *testing.T) bool {
			res, err := Simulate[Pair](NewMinPair(4, 10), Static(Ring(4)), InitialPairs(vals), Options{Seed: 1, StopOnConverged: true})
			return err == nil && res.Converged && res.Final[0] == Pair{X: 3, Y: 5}
		}},
		{"ksmallest", func(t *testing.T) bool {
			res, err := Simulate[KVec](NewKSmallest(2, 4, 10), Static(Ring(4)), InitialKVecs(2, vals), Options{Seed: 1, StopOnConverged: true})
			return err == nil && res.Converged && res.Final[0].Vals[1] == 5
		}},
		{"partialmin", func(t *testing.T) bool {
			res, err := Simulate[int](NewPartialMin(), Static(Ring(4)), vals, Options{Seed: 1, StopOnConverged: true, MaxRounds: 5000})
			return err == nil && res.Converged
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !c.run(t) {
				t.Errorf("%s failed through the public API", c.name)
			}
		})
	}
}

func TestPublicSorting(t *testing.T) {
	vals := []int{30, 10, 20, 0}
	p, err := NewSorting(vals)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate[Item](p, EdgeChurn(Line(4), 0.7), InitialItems(vals),
		Options{Seed: 2, StopOnConverged: true, Mode: PairwiseMode})
	if err != nil || !res.Converged {
		t.Fatalf("sorting: %v / %v", err, res)
	}
}

func TestPublicHullAndCircle(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}
	res, err := Simulate[HullState](NewHull(pts), Static(Ring(4)), InitialHulls(pts),
		Options{Seed: 1, StopOnConverged: true, HEps: 1e-9})
	if err != nil || !res.Converged {
		t.Fatal("hull did not converge")
	}
	c := Circumcircle(res.Final[0])
	if d := c.R - 1.4142135623730951; d > 1e-6 || d < -1e-6 {
		t.Errorf("circle radius = %g", c.R)
	}
}

func TestPublicGraphs(t *testing.T) {
	if Line(5).M() != 4 || Ring(5).M() != 5 || Complete(5).M() != 10 ||
		Star(5).M() != 4 || Grid(2, 3).M() != 7 {
		t.Error("graph constructors wrong")
	}
	if !RandomConnected(12, 0.1, 3).Connected() {
		t.Error("RandomConnected not connected")
	}
}

func TestPublicEnvironments(t *testing.T) {
	g := Ring(6)
	envs := []Environment{
		Static(g), EdgeChurn(g, 0.5), PowerLoss(g, 0.3),
		Partitioner(g, 2, 3, 3), Adversary(g, 0.5, 5), RoundRobin(g),
	}
	for _, e := range envs {
		if e.Name() == "" || e.Graph() != g {
			t.Errorf("environment %T misconfigured", e)
		}
	}
	if _, err := Mobile(Ring(6), 0.3, 0.05); err == nil {
		t.Error("Mobile accepted non-complete graph")
	}
	if _, err := Mobile(Complete(6), 0.3, 0.05); err != nil {
		t.Error(err)
	}
}

func TestPublicAsync(t *testing.T) {
	res, err := SimulateAsync[int](NewMin(), Complete(6), []int{8, 3, 9, 5, 4, 7},
		DefaultAsyncOptions(1))
	if err != nil || !res.Converged {
		t.Fatalf("async: %v", err)
	}
	// One worker replays a run exactly from its seed.
	replay := func() *AsyncResult[int] {
		o := DefaultAsyncOptions(1)
		o.Workers = 1
		r, err := SimulateAsync[int](NewMin(), Complete(6), []int{8, 3, 9, 5, 4, 7}, o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := replay(), replay()
	if a.Ops != b.Ops || a.ProperSteps != b.ProperSteps || a.Rejections != b.Rejections {
		t.Errorf("1-worker async run not replayable: %+v vs %+v", a, b)
	}
}

func TestPublicCheckers(t *testing.T) {
	gen := func(r *rand.Rand) Multiset[int] {
		n := 1 + r.Intn(5)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(8)
		}
		return IntMultiset(vals...)
	}
	if err := CheckSuperIdempotent(NewMin().F(), ExactEqual[int](), gen, 300, 1); err != nil {
		t.Errorf("min flagged: %v", err)
	}
	if err := ExhaustiveSuperIdempotent(NewMin().F(), ExactEqual[int](),
		[]int{0, 1, 2}, func(a, b int) int { return a - b }, 3); err != nil {
		t.Errorf("min exhaustive: %v", err)
	}
}

func TestPublicModelCheck(t *testing.T) {
	rep, err := ModelCheck[int](NewMin(), Complete(3), []int{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("obligations failed: %s", rep.Summary())
	}
}

func TestPublicMultiset(t *testing.T) {
	m := NewMultiset(func(a, b string) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}, "b", "a", "b")
	if m.Len() != 3 || m.Count("b") != 2 {
		t.Errorf("multiset = %v", m)
	}
}

func TestRequirementsExposed(t *testing.T) {
	if NewMin().Requirement() != AnyConnected ||
		NewSum().Requirement() != CompleteGraph {
		t.Error("requirements not exposed correctly")
	}
	p, _ := NewSorting([]int{1, 2})
	if p.Requirement() != LineGraph {
		t.Error("sorting requirement")
	}
}

func TestPublicRangeAndSetUnion(t *testing.T) {
	vals := []int{9, 4, 7, 1}
	res, err := Simulate[Tuple[int, int]](NewRange(16), Static(Ring(4)), InitialTuples(vals),
		Options{Seed: 1, StopOnConverged: true, CheckSteps: true})
	if err != nil || !res.Converged {
		t.Fatalf("range: %v", err)
	}
	if res.Final[0] != (Tuple[int, int]{A: 1, B: 9}) {
		t.Errorf("range final = %v", res.Final[0])
	}

	init := []Set{SetOf(0, 1), SetOf(2), SetOf(3, 4), SetOf()}
	sres, err := Simulate[Set](NewSetUnion(), Static(Line(4)), init,
		Options{Seed: 1, StopOnConverged: true, CheckSteps: true})
	if err != nil || !sres.Converged {
		t.Fatalf("set-union: %v", err)
	}
	if sres.Final[0] != SetOf(0, 1, 2, 3, 4) {
		t.Errorf("set-union final = %v", sres.Final[0])
	}
}

func TestPublicProductCombinator(t *testing.T) {
	p := NewProduct[int, int](NewMin(), NewGCD())
	vals := []Tuple[int, int]{{A: 9, B: 12}, {A: 4, B: 18}, {A: 7, B: 30}}
	res, err := Simulate[Tuple[int, int]](p, Static(Ring(3)), vals,
		Options{Seed: 1, StopOnConverged: true, CheckSteps: true})
	if err != nil || !res.Converged {
		t.Fatalf("product: %v", err)
	}
	if res.Final[0] != (Tuple[int, int]{A: 4, B: 6}) {
		t.Errorf("product final = %v", res.Final[0])
	}
}

func TestPublicNewEnvironments(t *testing.T) {
	g := Ring(6)
	vals := []int{9, 4, 7, 1, 8, 2}
	for _, e := range []Environment{
		MarkovLinks(g, 0.2, 0.2),
		DayNight(g, 2, 4),
	} {
		res, err := Simulate[int](NewMin(), e, vals, Options{Seed: 3, StopOnConverged: true, MaxRounds: 10000})
		if err != nil || !res.Converged {
			t.Fatalf("%s: converged=%v err=%v", e.Name(), res != nil && res.Converged, err)
		}
	}
	comp, err := ComposeEnvironments(DayNight(g, 3, 3), EdgeChurn(g, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate[int](NewMin(), comp, vals, Options{Seed: 3, StopOnConverged: true, MaxRounds: 10000})
	if err != nil || !res.Converged {
		t.Fatal("composed environment failed")
	}
	if _, err := ComposeEnvironments(); err == nil {
		t.Error("empty compose accepted")
	}
}

func TestPublicFlow(t *testing.T) {
	g := Ring(8)
	e := EdgeChurn(g, 0.5)
	x0 := []float64{1, 2, 3, 4, 5, 6, 7, 12}
	dt := MaxStableFlowDt(e)
	if dt <= 0 {
		t.Fatalf("dt = %g", dt)
	}
	res, err := RunFlow(e, x0, FlowOptions{Dt: dt, Rounds: 50000, Seed: 1, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.MeanDrift > 1e-8 || res.MonotoneViolations != 0 {
		t.Errorf("flow: converged=%v drift=%g violations=%d",
			res.Converged, res.MeanDrift, res.MonotoneViolations)
	}
}

func TestPublicNegativeFunctions(t *testing.T) {
	cmp := func(a, b int) int { return a - b }
	if err := ExhaustiveSuperIdempotent(MedianF(), ExactEqual[int](), []int{0, 1, 2, 3}, cmp, 3); err == nil {
		t.Error("median not refuted")
	}
	if err := ExhaustiveSuperIdempotent(SecondSmallestF(), ExactEqual[int](), []int{0, 1, 2, 3}, cmp, 3); err == nil {
		t.Error("second-smallest not refuted")
	}
}
