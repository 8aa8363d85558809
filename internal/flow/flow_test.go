package flow

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/graph"
)

func TestConvergesStatic(t *testing.T) {
	g := graph.Ring(8)
	x0 := []float64{1, 2, 3, 4, 5, 6, 7, 12}
	res, err := Run(env.NewStatic(g), x0, Options{Dt: 0.2, Rounds: 2000, Seed: 1, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: disagreement %g", res.Disagreement[len(res.Disagreement)-1])
	}
	if res.MeanDrift > 1e-9 {
		t.Errorf("mean drifted by %g (conservation violated)", res.MeanDrift)
	}
	if res.MonotoneViolations != 0 {
		t.Errorf("disagreement increased %d times in the stable regime", res.MonotoneViolations)
	}
	want := Mean(x0)
	for _, v := range res.Final {
		if math.Abs(v-want) > 1e-4 {
			t.Errorf("final value %g far from mean %g", v, want)
		}
	}
}

// zeroState is a custom environment that hands out the zero State.
type zeroState struct{ *env.Static }

func (zeroState) Name() string                   { return "zero" }
func (zeroState) Step(int, *rand.Rand) env.State { return env.State{} }

// TestRunRejectsUnsizedMasks: a State's masks are sized to the graph, so
// a custom environment returning the zero State fails the run with an
// error naming the environment and the round.
func TestRunRejectsUnsizedMasks(t *testing.T) {
	_, err := Run(zeroState{env.NewStatic(graph.Ring(8))}, make([]float64, 8), Options{Dt: 0.2, Rounds: 3, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), `"zero" round 0`) {
		t.Fatalf("err = %v, want one naming the environment and round 0", err)
	}
}

func TestConvergesUnderChurn(t *testing.T) {
	g := graph.Ring(10)
	x0 := make([]float64, 10)
	for i := range x0 {
		x0[i] = float64(i * i)
	}
	res, err := Run(env.NewEdgeChurn(g, 0.4), x0, Options{Dt: 0.2, Rounds: 20000, Seed: 2, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge under churn")
	}
	if res.MeanDrift > 1e-8 {
		t.Errorf("mean drift %g", res.MeanDrift)
	}
	if res.MonotoneViolations != 0 {
		t.Errorf("monotone violations under churn: %d", res.MonotoneViolations)
	}
}

func TestPartitionHoldsBlockMeans(t *testing.T) {
	// Permanently partitioned: each block contracts to its own mean —
	// the continuous face of self-similarity.
	g := graph.Complete(6)
	e := env.NewPartitioner(g, 2, 0, 1<<30)
	x0 := []float64{0, 3, 6, 10, 20, 30} // blocks {0,1,2} and {3,4,5}
	res, err := Run(e, x0, Options{Dt: 0.1, Rounds: 5000, Seed: 3, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("global convergence across a permanent partition")
	}
	for i := 0; i < 3; i++ {
		if math.Abs(res.Final[i]-3) > 1e-6 {
			t.Errorf("block 1 agent %d = %g, want 3", i, res.Final[i])
		}
	}
	for i := 3; i < 6; i++ {
		if math.Abs(res.Final[i]-20) > 1e-6 {
			t.Errorf("block 2 agent %d = %g, want 20", i, res.Final[i])
		}
	}
	if res.MeanDrift > 1e-9 {
		t.Errorf("mean drift %g", res.MeanDrift)
	}
}

func TestInstabilityAboveThreshold(t *testing.T) {
	// dt far above the stability bound: disagreement must NOT contract
	// monotonically (the bound is load-bearing).
	g := graph.Complete(8) // deg_max = 7; stable dt < 1/8
	x0 := []float64{0, 1, 2, 3, 4, 5, 6, 70}
	res, err := Run(env.NewStatic(g), x0, Options{Dt: 0.4, Rounds: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MonotoneViolations == 0 && res.Converged {
		t.Error("unstable step size behaved stably — stability analysis wrong")
	}
}

func TestMaxStableDtIsStable(t *testing.T) {
	g := graph.Complete(8)
	e := env.NewStatic(g)
	dt := MaxStableDt(e)
	if dt <= 0 || dt > 1 {
		t.Fatalf("MaxStableDt = %g", dt)
	}
	x0 := []float64{0, 1, 2, 3, 4, 5, 6, 70}
	res, err := Run(e, x0, Options{Dt: dt, Rounds: 3000, Seed: 5, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.MonotoneViolations != 0 {
		t.Errorf("recommended dt unstable: converged=%v violations=%d", res.Converged, res.MonotoneViolations)
	}
}

func TestValidation(t *testing.T) {
	g := graph.Ring(3)
	if _, err := Run(env.NewStatic(g), []float64{1}, Options{Dt: 0.1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Run(env.NewStatic(g), []float64{1, 2, 3}, Options{Dt: 0}); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := Run(env.NewStatic(graph.Line(0)), nil, Options{Dt: 0.1}); err == nil {
		t.Error("empty system accepted")
	}
}

func TestDisagreementFormula(t *testing.T) {
	// Σ_{i<j}(xi−xj)²: for {1,3,5}: 4+16+4 = 24.
	if d := Disagreement([]float64{1, 3, 5}); math.Abs(d-24) > 1e-12 {
		t.Errorf("Disagreement = %g, want 24", d)
	}
	if d := Disagreement([]float64{7, 7}); d != 0 {
		t.Errorf("consensus disagreement = %g", d)
	}
	if d := Disagreement(nil); d != 0 {
		t.Errorf("empty disagreement = %g", d)
	}
	// Near consensus at a large offset the value keeps its digits: for
	// {c, c+h} it is h², where n·Σx² − (Σx)² gives rounding noise
	// thousands of times larger.
	c := 3e4
	h := (c + 1e-5) - c // the spacing exactly as stored
	if d := Disagreement([]float64{c, c + h}); math.Abs(d-h*h) > 1e-6*h*h {
		t.Errorf("near-consensus disagreement = %g, want %g", d, h*h)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean wrong")
	}
}

func TestPowerLossConserves(t *testing.T) {
	// Agents going down must not break conservation (down agents simply
	// take no edges that round).
	g := graph.Ring(8)
	x0 := []float64{5, 1, 9, 2, 8, 3, 7, 4}
	res, err := Run(env.NewPowerLoss(g, 0.5), x0, Options{Dt: 0.2, Rounds: 20000, Seed: 6, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDrift > 1e-8 {
		t.Errorf("mean drift %g under power loss", res.MeanDrift)
	}
	if !res.Converged {
		t.Error("did not converge under power loss")
	}
}

// TestRunAllocsFlatInRounds: a static run allocates nothing per round
// beyond its result, so 10 and 20 rounds of Ring(1000) allocate the same:
// the per-round edge scan reads the graph's edge list in place.
func TestRunAllocsFlatInRounds(t *testing.T) {
	g := graph.Ring(1000)
	e := env.NewStatic(g)
	x0 := make([]float64, g.N())
	for i := range x0 {
		x0[i] = float64(i % 7)
	}
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(e, x0, Options{Dt: 0.2, Rounds: rounds, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, a20 := allocs(10), allocs(20); a10 != a20 {
		t.Errorf("Ring(1000) static flow: %v allocs for 10 rounds, %v for 20", a10, a20)
	}
}
