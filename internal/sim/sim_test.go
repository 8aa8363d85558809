package sim

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/problems"
)

func testOpts() Options {
	return Options{Seed: 1, CheckSteps: true, StopOnConverged: true, MaxRounds: 5000}
}

func TestMinConvergesStatic(t *testing.T) {
	g := graph.Ring(8)
	e := env.NewStatic(g)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	res, err := Converges[int](problems.NewMin(), e, vals, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Static connected graph in ComponentMode: one round suffices.
	if res.Round != 1 {
		t.Errorf("rounds = %d, want 1 (whole graph is one group)", res.Round)
	}
	if !res.Target.Equal(ms.OfInts(1, 1, 1, 1, 1, 1, 1, 1)) {
		t.Errorf("target = %v", res.Target)
	}
	for _, v := range res.Final {
		if v != 1 {
			t.Errorf("final = %v", res.Final)
		}
	}
}

func TestMinConvergesUnderChurn(t *testing.T) {
	g := graph.Ring(10)
	e := env.NewEdgeChurn(g, 0.3)
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = (i*7 + 3) % 20
	}
	res, err := Converges[int](problems.NewMin(), e, vals, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds", res.Rounds)
	}
	if res.Round <= 1 {
		t.Errorf("churn run converged suspiciously fast: %d", res.Round)
	}
}

func TestChurnSlowsButNeverBreaks(t *testing.T) {
	// The paper's adaptivity claim in miniature: lower availability means
	// more rounds, never incorrectness.
	g := graph.Ring(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	prevRounds := 0
	for _, pUp := range []float64{1.0, 0.5, 0.1} {
		res, err := Converges[int](problems.NewMin(), env.NewEdgeChurn(g, pUp), vals, testOpts())
		if err != nil {
			t.Fatalf("p=%.1f: %v", pUp, err)
		}
		if !res.Converged {
			t.Fatalf("p=%.1f did not converge", pUp)
		}
		if res.Round < prevRounds {
			// Not strictly guaranteed per-seed, but with this seed and
			// these availabilities the ordering is stable; a failure here
			// signals a real regression in the engine.
			t.Errorf("p=%.1f rounds %d < rounds at higher availability %d", pUp, res.Round, prevRounds)
		}
		prevRounds = res.Round
	}
}

func TestGoalStateIsStable(t *testing.T) {
	// Spec (4): once S = f(S), it stays. Run past convergence.
	g := graph.Complete(5)
	e := env.NewEdgeChurn(g, 0.5)
	opts := testOpts()
	opts.StopOnConverged = false
	opts.MaxRounds = 300
	res, err := Converges[int](problems.NewMin(), e, []int{5, 3, 8, 1, 9}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	final := ms.OfInts(res.Final...)
	if !final.Equal(res.Target) {
		t.Errorf("goal state not stable: final %v ≠ target %v", final, res.Target)
	}
}

func TestSumNeedsCompleteGraphPairwise(t *testing.T) {
	// §4.2: under pairwise gossip, sum converges on the complete graph…
	vals := []int{3, 0, 5, 0, 7, 2}
	opts := testOpts()
	opts.Mode = PairwiseMode
	res, err := Converges[int](problems.NewSum(), env.NewStatic(graph.Complete(6)), vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("sum did not converge on complete graph")
	}
	// …but stalls on a line where zeros separate the non-zero agents
	// (zero agents cannot act as couriers).
	stallVals := []int{3, 0, 5, 0, 7, 2}
	opts.MaxRounds = 400
	res, err = Converges[int](problems.NewSum(), env.NewStatic(graph.Line(6)), stallVals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("sum converged on a line despite zero separators — §4.2 says it must not")
	}
}

func TestSumComponentModeConverges(t *testing.T) {
	// In ComponentMode a connected group consolidates at once, so even a
	// line works: the group sees all its members' states.
	res, err := Converges[int](problems.NewSum(), env.NewStatic(graph.Line(5)), []int{1, 0, 2, 0, 4}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("component-mode sum did not converge")
	}
	if !res.Target.Equal(ms.OfInts(7, 0, 0, 0, 0)) {
		t.Errorf("target = %v", res.Target)
	}
}

func TestPartitionSelfSimilarity(t *testing.T) {
	// During a partition each block must converge to its own f — each
	// group behaves as though the system were that group alone.
	g := graph.Complete(6)
	e := env.NewPartitioner(g, 2, 0, 1_000_000) // permanently partitioned
	vals := []int{9, 4, 7, 3, 8, 5}             // blocks {0,1,2} and {3,4,5}
	opts := testOpts()
	opts.StopOnConverged = false
	opts.MaxRounds = 10
	res, err := Converges[int](problems.NewMin(), e, vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("converged globally despite permanent partition")
	}
	// Block 1 must agree on 4, block 2 on 3.
	for i := 0; i < 3; i++ {
		if res.Final[i] != 4 {
			t.Errorf("block 1 agent %d = %d, want 4", i, res.Final[i])
		}
	}
	for i := 3; i < 6; i++ {
		if res.Final[i] != 3 {
			t.Errorf("block 2 agent %d = %d, want 3", i, res.Final[i])
		}
	}
}

func TestPartitionHealsAndConverges(t *testing.T) {
	g := graph.Complete(6)
	e := env.NewPartitioner(g, 3, 2, 5)
	vals := []int{9, 4, 7, 3, 8, 5}
	res, err := Converges[int](problems.NewMin(), e, vals, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge after heals")
	}
}

func TestPowerLossStillConverges(t *testing.T) {
	g := graph.Ring(8)
	e := env.NewPowerLoss(g, 0.4)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	res, err := Converges[int](problems.NewMin(), e, vals, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge under power loss")
	}
}

func TestStarvationBlocksSumButNotMin(t *testing.T) {
	// E12 in miniature. Starve every edge adjacent to agent 0 (the
	// max-value holder for sum): sum cannot finish; min still can via
	// other routes… but if agent 0 holds the unique minimum, min cannot
	// finish either — so give the minimum to agent 1.
	g := graph.Complete(5)
	var starved []int
	for id, edge := range g.Edges() {
		if edge.A == 0 || edge.B == 0 {
			starved = append(starved, id)
		}
	}
	e := env.NewStarver(g, starved)

	opts := testOpts()
	opts.Mode = PairwiseMode
	opts.MaxRounds = 500
	sumRes, err := Converges[int](problems.NewSum(), e, []int{9, 1, 2, 3, 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sumRes.Converged {
		t.Error("sum converged despite starved collector edges")
	}

	// Min with minimum at agent 1: agents 1..4 reach consensus, but agent
	// 0 is isolated → still no global convergence. With agent 0 already
	// holding the min value it *does* converge? No: others cannot learn
	// it. Verify the nuanced case: agent 0 isolated but holding a
	// non-minimal value blocks global min consensus too.
	minRes, err := Converges[int](problems.NewMin(), e, []int{9, 1, 2, 3, 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if minRes.Converged {
		t.Error("min converged despite isolated agent")
	}
	// But agents 1..4 did reach their group's consensus — self-similarity.
	for i := 1; i < 5; i++ {
		if minRes.Final[i] != 1 {
			t.Errorf("agent %d = %d, want 1", i, minRes.Final[i])
		}
	}
}

func TestAverageConverges(t *testing.T) {
	g := graph.Ring(6)
	e := env.NewEdgeChurn(g, 0.5)
	vals := []float64{1, 2, 3, 4, 5, 9}
	p := problems.NewAverage(1e-9)
	opts := testOpts()
	res, err := Converges[float64](p, e, vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("average did not converge")
	}
	if diff := res.Final[0] - 4; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean = %g, want 4", res.Final[0])
	}
}

func TestSortingOnLine(t *testing.T) {
	vals := []int{6, 2, 5, 0, 4, 1, 3}
	p, err := problems.NewSorting(vals)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Line(7)
	e := env.NewEdgeChurn(g, 0.5)
	opts := testOpts()
	opts.Mode = PairwiseMode
	res, err := Converges[problems.Item](p, e, problems.InitialItems(vals), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sorting did not converge in %d rounds", res.Rounds)
	}
	for i, it := range res.Final {
		if it.Index != i || it.Value != i {
			t.Errorf("final[%d] = %v", i, it)
		}
	}
}

func TestHullConverges(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 1}, {X: 2, Y: 5}, {X: 6, Y: 3}, {X: 1, Y: 4}, {X: 5, Y: 5}}
	p := problems.NewHull(pts)
	g := graph.Ring(len(pts))
	e := env.NewEdgeChurn(g, 0.4)
	opts := testOpts()
	res, err := Converges[problems.HullState](p, e, problems.InitialHulls(pts), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("hull did not converge")
	}
	// Every agent's circumscribing circle matches the direct computation.
	want := geom.EnclosingCircle(pts)
	for _, s := range res.Final {
		if got := problems.Circumcircle(s); !got.Near(want, 1e-6) {
			t.Errorf("agent circle %v, want %v", got, want)
		}
	}
}

func TestMinPairConverges(t *testing.T) {
	vals := []int{3, 5, 3, 7}
	p := problems.NewMinPair(len(vals), 10)
	g := graph.Ring(len(vals))
	e := env.NewEdgeChurn(g, 0.5)
	res, err := Converges[problems.Pair](p, e, problems.InitialPairs(vals), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("min-pair did not converge")
	}
	for _, pr := range res.Final {
		if pr != (problems.Pair{X: 3, Y: 5}) {
			t.Errorf("final pair = %v, want (3,5)", pr)
		}
	}
}

func TestKSmallestConverges(t *testing.T) {
	vals := []int{8, 3, 6, 1, 9, 4}
	p := problems.NewKSmallest(3, len(vals), 16)
	g := graph.Ring(len(vals))
	e := env.NewEdgeChurn(g, 0.5)
	res, err := Converges[problems.KVec](p, e, problems.InitialKVecs(3, vals), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("k-smallest did not converge")
	}
	want := []int{1, 3, 4}
	for _, v := range res.Final {
		for j := range want {
			if v.Vals[j] != want[j] {
				t.Errorf("final vec = %v, want %v", v, want)
			}
		}
	}
}

func TestGCDConverges(t *testing.T) {
	g := graph.Line(5)
	e := env.NewEdgeChurn(g, 0.6)
	res, err := Converges[int](problems.NewGCD(), e, []int{12, 18, 30, 48, 6}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Final[0] != 6 {
		t.Fatalf("gcd run: converged=%v final=%v", res.Converged, res.Final)
	}
}

func TestRoundRobinEnvironmentConverges(t *testing.T) {
	// The weakest fair environment: one edge per round.
	g := graph.Ring(6)
	e := env.NewRoundRobin(g)
	res, err := Converges[int](problems.NewMin(), e, []int{9, 4, 7, 1, 8, 2}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge under round-robin")
	}
	if res.Round < 3 {
		t.Errorf("round-robin converged too fast: %d", res.Round)
	}
}

func TestMobileEnvironmentConverges(t *testing.T) {
	g := graph.Complete(8)
	e, err := env.NewMobile(g, 0.4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	res, err := Converges[int](problems.NewMin(), e, vals, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge under mobility")
	}
}

func TestRunValidation(t *testing.T) {
	g := graph.Ring(4)
	if _, err := Run[int](problems.NewMin(), env.NewStatic(g), []int{1, 2}, Options{}); err == nil {
		t.Error("state/agent count mismatch accepted")
	}
	empty := graph.Line(0)
	if _, err := Run[int](problems.NewMin(), env.NewStatic(empty), nil, Options{}); err == nil {
		t.Error("empty system accepted")
	}
}

// unsizedMasks is a custom environment that steps a Static one but, from
// round from on, hands out a State whose masks are not sized to the
// graph: the zero State, or one with AgentUp left out.
type unsizedMasks struct {
	*env.Static
	from      int
	edgesOnly bool
}

func (e unsizedMasks) Name() string { return "unsized" }

func (e unsizedMasks) Step(round int, rng *rand.Rand) env.State {
	s := e.Static.Step(round, rng)
	switch {
	case round < e.from:
		return s
	case e.edgesOnly:
		return env.State{EdgeUp: s.EdgeUp}
	default:
		return env.State{}
	}
}

// TestRunRejectsUnsizedMasks: a State's masks are sized to the graph, so
// a custom environment that returns the zero State (or drops one mask)
// fails the run with an error naming the environment and the round,
// in both modes, and the scratch it failed on still runs the next cell
// as a fresh one would.
func TestRunRejectsUnsizedMasks(t *testing.T) {
	g := graph.Ring(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	sc := NewScratch[int]()
	defer sc.Close()
	for _, mode := range []Mode{ComponentMode, PairwiseMode} {
		for _, edgesOnly := range []bool{false, true} {
			opts := testOpts()
			opts.Mode, opts.StopOnConverged, opts.MaxRounds = mode, false, 10
			e := unsizedMasks{Static: env.NewStatic(g), from: 2, edgesOnly: edgesOnly}
			_, err := RunWith[int](sc, problems.NewMin(), e, vals, opts)
			if err == nil {
				t.Fatalf("%v edgesOnly=%v: unsized masks accepted", mode, edgesOnly)
			}
			if msg := err.Error(); !strings.Contains(msg, `"unsized"`) || !strings.Contains(msg, "round 2") {
				t.Errorf("%v edgesOnly=%v: error %q names neither the environment nor the round", mode, edgesOnly, msg)
			}
			got, err := RunWith[int](sc, problems.NewMin(), env.NewStatic(g), vals, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run[int](problems.NewMin(), env.NewStatic(g), vals, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rounds != want.Rounds || !slices.Equal(got.Final, want.Final) || got.GroupSteps != want.GroupSteps {
				t.Errorf("%v edgesOnly=%v: run after the error differs from a fresh run", mode, edgesOnly)
			}
		}
	}
}

func TestAlreadyConverged(t *testing.T) {
	g := graph.Ring(3)
	res, err := Run[int](problems.NewMin(), env.NewStatic(g), []int{2, 2, 2}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Round != 0 {
		t.Errorf("converged=%v round=%d, want true/0", res.Converged, res.Round)
	}
	if res.GroupSteps != 0 {
		t.Errorf("group steps = %d on a converged start", res.GroupSteps)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Ring(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	opts := testOpts()
	a, err := Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.3), vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.3), vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Round != b.Round || a.GroupSteps != b.GroupSteps || a.Messages != b.Messages {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	opts.Seed = 2
	c, err := Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.3), vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Round == c.Round && a.GroupSteps == c.GroupSteps && a.Messages == c.Messages {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

func TestPartialMinStillConverges(t *testing.T) {
	// The lazy refinement ("any value between current and minimum") also
	// converges — the algorithm-class point of §4.1.
	g := graph.Ring(6)
	p := problems.NewPartialMin()
	res, err := Converges[int](p, env.NewEdgeChurn(g, 0.6), []int{9, 4, 7, 1, 8, 2}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("partial min did not converge")
	}
}

func TestMessagesAccounting(t *testing.T) {
	g := graph.Complete(4)
	res, err := Run[int](problems.NewMin(), env.NewStatic(g), []int{4, 3, 2, 1}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// One component step over 4 members: 2·(4−1) = 6 messages.
	if res.Messages != 6 || res.GroupSteps != 1 {
		t.Errorf("messages=%d steps=%d, want 6/1", res.Messages, res.GroupSteps)
	}
}

func TestModeString(t *testing.T) {
	if ComponentMode.String() != "component" || PairwiseMode.String() != "pairwise" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestOnRoundObserver(t *testing.T) {
	for _, tc := range []struct {
		vals   []int
		p      float64
		finalH float64 // len(vals) agents × min value 1
	}{
		{[]int{9, 4, 7, 1, 8, 2}, 0.5, 6},
		{[]int{9, 4, 7, 1, 8, 2, 6, 5}, 0.4, 8},
	} {
		g := graph.Ring(len(tc.vals))
		var infos []RoundInfo
		opts := testOpts()
		opts.OnRound = func(ri RoundInfo) { infos = append(infos, ri) }
		res, err := Converges[int](problems.NewMin(), env.NewEdgeChurn(g, tc.p), tc.vals, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != res.Rounds {
			t.Fatalf("observer called %d times for %d rounds", len(infos), res.Rounds)
		}
		// Rounds are sequential, h non-increasing, final info converged.
		for i, ri := range infos {
			if ri.Round != i {
				t.Errorf("info %d has round %d", i, ri.Round)
			}
			if i > 0 && ri.H > infos[i-1].H {
				t.Errorf("observer saw h increase at round %d", i)
			}
			if ri.ActiveGroups <= 0 {
				t.Errorf("round %d: no active groups reported", i)
			}
		}
		last := infos[len(infos)-1]
		if !last.Converged {
			t.Error("final observer info not converged")
		}
		if last.H != tc.finalH {
			t.Errorf("final h = %g, want %g", last.H, tc.finalH)
		}
		totalProper := 0
		for _, ri := range infos {
			totalProper += ri.ProperSteps
		}
		if totalProper != res.GroupSteps {
			t.Errorf("observer proper steps %d != result %d", totalProper, res.GroupSteps)
		}
	}
}

func TestMarkovLinksConverges(t *testing.T) {
	g := graph.Ring(8)
	e := env.NewMarkovLinks(g, 0.2, 0.2)
	res, err := Converges[int](problems.NewMin(), e, []int{9, 4, 7, 1, 8, 2, 6, 5}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge under bursty churn")
	}
}

func TestDayNightConverges(t *testing.T) {
	g := graph.Ring(6)
	e := env.NewDayNight(g, 1, 9) // only 1 round in 10 is usable
	res, err := Converges[int](problems.NewMin(), e, []int{9, 4, 7, 1, 8, 2}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge under day/night cycling")
	}
	// Round 0 is a day round and the whole ring is one component, so the
	// engine converges on the first day — which is exactly the "efficient
	// when conditions permit" behaviour.
	if res.Round != 1 {
		t.Errorf("rounds = %d, want 1 (first day round)", res.Round)
	}
	// Pairwise mode cannot finish in the single day round: the night must
	// actually delay it.
	opts := testOpts()
	opts.Mode = PairwiseMode
	res, err = Converges[int](problems.NewMin(), env.NewDayNight(g, 1, 9), []int{9, 4, 7, 1, 8, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("pairwise did not converge under day/night")
	}
	if res.Round <= 10 {
		t.Errorf("pairwise converged before the second day: %d", res.Round)
	}
}

func TestComposedEnvironmentConverges(t *testing.T) {
	g := graph.Ring(8)
	day := env.NewDayNight(g, 3, 3)
	churn := env.NewEdgeChurn(g, 0.6)
	e, err := env.NewCompose(day, churn)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Converges[int](problems.NewMin(), e, []int{9, 4, 7, 1, 8, 2, 6, 5}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge under composed environment")
	}
}

func TestRangeProblemConverges(t *testing.T) {
	p := problems.NewRange(64)
	g := graph.Ring(6)
	vals := []int{9, 4, 7, 1, 8, 2}
	res, err := Converges[problems.Tuple[int, int]](p, env.NewEdgeChurn(g, 0.5),
		problems.InitialTuples(vals), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("range did not converge")
	}
	want := problems.Tuple[int, int]{A: 1, B: 9}
	for _, v := range res.Final {
		if v != want {
			t.Errorf("final = %v, want %v", v, want)
		}
	}
}

func TestSetUnionConverges(t *testing.T) {
	p := problems.NewSetUnion()
	g := graph.Line(5)
	init := []problems.Set{
		problems.SetOf(0), problems.SetOf(1, 2), problems.SetOf(3),
		problems.SetOf(), problems.SetOf(4, 5),
	}
	res, err := Converges[problems.Set](p, env.NewEdgeChurn(g, 0.5), init, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("set-union did not converge")
	}
	want := problems.SetOf(0, 1, 2, 3, 4, 5)
	for _, s := range res.Final {
		if s != want {
			t.Errorf("final = %v, want %v", s, want)
		}
	}
}

// spyProblem wraps Min and records the exact group sizes its GroupStep
// was invoked with — the structural self-similarity check: a group step
// must see nothing but its own members' states.
type spyProblem struct {
	*problems.Min
	mu    sync.Mutex
	sizes []int
}

func (s *spyProblem) GroupStep(states []int, rng *rand.Rand) []int {
	s.mu.Lock()
	s.sizes = append(s.sizes, len(states))
	s.mu.Unlock()
	return s.Min.GroupStep(states, rng)
}

func TestSelfSimilarityStructural(t *testing.T) {
	// Permanently partitioned into 3 blocks of 2: every group step must
	// see exactly the component size (2), never more — the engine cannot
	// leak non-member state into a group.
	g := graph.Complete(6)
	e := env.NewPartitioner(g, 3, 0, 1<<30)
	spy := &spyProblem{Min: problems.NewMin()}
	opts := testOpts()
	opts.StopOnConverged = false
	opts.MaxRounds = 5
	if _, err := Run[int](spy, e, []int{9, 4, 7, 3, 8, 5}, opts); err != nil {
		t.Fatal(err)
	}
	if len(spy.sizes) == 0 {
		t.Fatal("no group steps recorded")
	}
	for _, size := range spy.sizes {
		if size != 2 {
			t.Errorf("group step saw %d states; partition blocks have 2", size)
		}
	}
}

func TestAdversaryFeedbackTargetsDisagreement(t *testing.T) {
	// With feedback, the adversary cuts exactly the edges whose endpoints
	// disagree; with a fairness window convergence still happens, but
	// (for the same seed) no faster than under blind cuts.
	g := graph.Complete(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	opts := testOpts()
	opts.AdversaryFeedback = true
	targeted, err := Converges[int](problems.NewMin(), env.NewAdversary(g, 0.6, 6), vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !targeted.Converged {
		t.Fatal("fair targeted adversary prevented convergence — fairness window broken")
	}
	blind, err := Converges[int](problems.NewMin(), env.NewAdversary(g, 0.6, 6), vals, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !blind.Converged {
		t.Fatal("blind adversary run did not converge")
	}
	if targeted.Round < blind.Round {
		t.Logf("note: targeted (%d) beat blind (%d) on this seed — acceptable, windows dominate",
			targeted.Round, blind.Round)
	}
}

func TestAdversaryFeedbackUnfairBlocks(t *testing.T) {
	// Feedback + no fairness window: the adversary can cut every useful
	// edge forever, so an unconverged system stays unconverged — the
	// strongest-opponent version of E12.
	g := graph.Complete(6)
	vals := []int{9, 4, 7, 1, 8, 2}
	opts := testOpts()
	opts.AdversaryFeedback = true
	opts.MaxRounds = 300
	// Cut fraction must cover all disagreeing edges: with 15 edges and
	// feedback, 1.0 cuts everything useful.
	res, err := Converges[int](problems.NewMin(), env.NewAdversary(g, 1.0, 0), vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("unfair omniscient adversary failed to block convergence")
	}
}

// Soak test: every problem on a mid-sized system under a hostile mix —
// guarded by -short.
func TestSoakAllProblems(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const n = 32
	vals := make([]int, n)
	for i := range vals {
		vals[i] = (i*37 + 11) % 128
	}
	g := graph.Ring(n)
	mkEnv := func() env.Environment { return env.NewMarkovLinks(g, 0.3, 0.15) }
	opts := testOpts()
	opts.MaxRounds = 200_000

	t.Run("min", func(t *testing.T) {
		res, err := Converges[int](problems.NewMin(), mkEnv(), vals, opts)
		if err != nil || !res.Converged {
			t.Fatalf("err=%v converged=%v", err, res != nil && res.Converged)
		}
	})
	t.Run("gcd", func(t *testing.T) {
		gv := make([]int, n)
		for i := range gv {
			gv[i] = (vals[i] + 1) * 4
		}
		res, err := Converges[int](problems.NewGCD(), mkEnv(), gv, opts)
		if err != nil || !res.Converged {
			t.Fatalf("err=%v converged=%v", err, res != nil && res.Converged)
		}
	})
	t.Run("minpair", func(t *testing.T) {
		res, err := Converges[problems.Pair](problems.NewMinPair(n, 128), mkEnv(), problems.InitialPairs(vals), opts)
		if err != nil || !res.Converged {
			t.Fatalf("err=%v converged=%v", err, res != nil && res.Converged)
		}
	})
	t.Run("range", func(t *testing.T) {
		res, err := Converges[problems.Tuple[int, int]](problems.NewRange(128), mkEnv(), problems.InitialTuples(vals), opts)
		if err != nil || !res.Converged {
			t.Fatalf("err=%v converged=%v", err, res != nil && res.Converged)
		}
	})
	t.Run("setunion", func(t *testing.T) {
		sets := make([]problems.Set, n)
		for i := range sets {
			sets[i] = problems.SetOf(i % 64)
		}
		res, err := Converges[problems.Set](problems.NewSetUnion(), mkEnv(), sets, opts)
		if err != nil || !res.Converged {
			t.Fatalf("err=%v converged=%v", err, res != nil && res.Converged)
		}
	})
	t.Run("sorting-pairwise", func(t *testing.T) {
		sortVals := make([]int, n)
		for i := range sortVals {
			sortVals[i] = (i*13 + 5) % (4 * n)
		}
		seen := map[int]bool{}
		for i := range sortVals {
			for seen[sortVals[i]] {
				sortVals[i]++
			}
			seen[sortVals[i]] = true
		}
		p, err := problems.NewSorting(sortVals)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Mode = PairwiseMode
		res, err := Converges[problems.Item](p, env.NewMarkovLinks(graph.Line(n), 0.3, 0.15), problems.InitialItems(sortVals), o)
		if err != nil || !res.Converged {
			t.Fatalf("err=%v converged=%v", err, res != nil && res.Converged)
		}
	})
}

// TestAutoShardingLargeRing: above DefaultShardThreshold agents the
// engine auto-splits the state into GOMAXPROCS shards (Options.Shards == 0) and
// a large-N run stays correct end to end — this is the paper's
// conservation-law license to shard exercised at scale.
func TestAutoShardingLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N run")
	}
	n := DefaultShardThreshold + 500
	vals := make([]int, n)
	for i := range vals {
		vals[i] = 1 + (i*2654435761)%(4*n) // strictly positive; plant the unique minimum
	}
	vals[n/3] = 0
	res, err := Run[int](problems.NewMin(), env.NewEdgeChurn(graph.Ring(n), 0.99), vals,
		Options{Seed: 5, StopOnConverged: true, MaxRounds: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sharded large ring did not converge in %d rounds", res.Rounds)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("monitor violations: %v", res.Violations[0])
	}
	for i, v := range res.Final {
		if v != 0 {
			t.Fatalf("agent %d final %d, want 0", i, v)
		}
	}
}

// swapMin is Min with a PairStep that sometimes returns the pair SWAPPED
// — a multiset-preserving positional permutation, i.e. a legal stutter
// of D. It exists to pin a sharded-state regression: such a permutation
// leaves the GROUP multiset unchanged but still changes the PER-SHARD
// multisets when the pair crosses a shard boundary, so it must be staged.
type swapMin struct{ *problems.Min }

func (s swapMin) PairStep(a, b int, rng *rand.Rand) (int, int) {
	if a != b && rng.Intn(2) == 0 {
		return b, a
	}
	m := a
	if b < m {
		m = b
	}
	return m, m
}

func TestShardedSwapStutterStaysConsistent(t *testing.T) {
	// Before the fix, the swap desynced shard trackers from the
	// positional states and a later proper step panicked inside
	// Shards.Flush ("old value not present"). Shards=5 deliberately cuts
	// the ring into blocks so swaps cross shard boundaries.
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5, 3, 0}
	for _, shards := range []int{-1, 1, 5} {
		res, err := Run[int](swapMin{problems.NewMin()}, env.NewEdgeChurn(graph.Ring(len(vals)), 0.9), vals,
			Options{Seed: 11, StopOnConverged: true, Mode: PairwiseMode, MaxRounds: 5000, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !res.Converged {
			t.Fatalf("shards=%d: did not converge: %v", shards, res.Final)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("shards=%d: violations: %v", shards, res.Violations[0])
		}
		for _, v := range res.Final {
			if v != 0 {
				t.Fatalf("shards=%d: final %v", shards, res.Final)
			}
		}
	}
}

// sinkingMin is min whose every step loses a unit: the group adopts its
// minimum minus one, so each step breaks conservation. Its
// core.StutterOnEqual declaration is Min's.
type sinkingMin struct{ *problems.Min }

func (sinkingMin) GroupStep(states []int, _ *rand.Rand) []int {
	out := make([]int, len(states))
	for i := range out {
		out[i] = slices.Min(states) - 1
	}
	return out
}

func (sinkingMin) PairStep(a, b int, _ *rand.Rand) (int, int) {
	m := min(a, b) - 1
	return m, m
}

// TestStepViolationTexts pins the first violation a faulty step produces
// under CheckSteps in each mode: a component names its members as a
// group, a matched pair names its endpoints as a pair.
func TestStepViolationTexts(t *testing.T) {
	vals := []int{3, 1, 4, 1, 5, 9}
	for _, tc := range []struct {
		mode Mode
		want string
	}{
		{ComponentMode, "group [0 1 2 3 4 5]: NOT a D-step (conservesF=false decreasesH=true Δh=-23)"},
		{PairwiseMode, "pair (0,5): NOT a D-step (conservesF=false decreasesH=true Δh=-8)"},
	} {
		res, err := Run[int](sinkingMin{problems.NewMin()}, env.NewStatic(graph.Ring(len(vals))), vals,
			Options{Seed: 1, Mode: tc.mode, CheckSteps: true, MaxRounds: 1})
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		if len(res.Violations) == 0 || res.Violations[0] != tc.want {
			t.Errorf("%v: first violation = %q, want %q", tc.mode, res.Violations, tc.want)
		}
	}
}
