// Package flow implements the continuous-state extension the paper flags
// in §1.2: "systems in which variables change value continuously with
// time, and in which dynamics are specified by differential or difference
// equations."
//
// The canonical instance — and the bridge to the dynamic-consensus
// literature the paper cites ([10] Spanos/Olfati-Saber/Murray, [12]
// Tsitsiklis/Bertsekas/Athans) — is Laplacian averaging over whatever
// links the environment currently allows:
//
//	x_i(t+1) = x_i(t) + dt · Σ_{j ∈ up-neighbours(i,t)} (x_j(t) − x_i(t))
//
// The self-similar structure survives the passage to continuous state:
//
//   - the conserved quantity (the paper's f, here the mean together with
//     the cardinality) is preserved exactly by every step, because each
//     edge moves equal and opposite mass;
//   - the variant (the disagreement Σ_i Σ_j (x_i − x_j)²) is
//     non-increasing for any step size dt < 1/deg_max and strictly
//     decreasing whenever a connected group disagrees — the continuous
//     analogue of the D-step discipline;
//   - every connected component contracts toward its own mean: each
//     group behaves as if it were the entire system (self-similarity),
//     and partitioned components hold their own averages until links
//     heal.
//
// The package runs the flow under any env.Environment and reports the
// conservation and contraction diagnostics, making the paper's "we have
// started to study" remark a working artifact (experiment code and tests
// treat stability limits explicitly: dt above the threshold oscillates or
// diverges, below it contracts).
package flow

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/env"
)

// Options configures a continuous averaging run.
type Options struct {
	// Dt is the Euler step size. Stability requires Dt < 1/deg_max; Run
	// does not clamp it, so instability can be studied deliberately.
	Dt float64
	// Rounds is the number of environment/flow steps.
	Rounds int
	// Seed drives the environment (round r draws on engine.EnvSeed).
	Seed int64
	// Tol is the disagreement threshold for declaring convergence.
	Tol float64
}

// Result reports a continuous run.
type Result struct {
	// Final holds the final agent values.
	Final []float64
	// MeanDrift is |mean(final) − mean(initial)| — zero up to float error
	// when conservation holds.
	MeanDrift float64
	// Disagreement traces Σ_{i<j} (x_i − x_j)² per round.
	Disagreement []float64
	// Converged reports whether the final disagreement is below Tol.
	Converged bool
	// MonotoneViolations counts rounds in which disagreement increased
	// (zero in the stable regime).
	MonotoneViolations int
	// ConvergedRound is the first round with disagreement below Tol (or
	// Rounds if never).
	ConvergedRound int
}

// Disagreement computes Σ_{i<j} (x_i − x_j)², the continuous variant
// function, as n·Σ(x_i − x̄)²: near consensus n·Σx² − (Σx)² cancels to
// rounding noise, which the monotone check would count as growth.
func Disagreement(x []float64) float64 {
	m := Mean(x)
	var sq float64
	for _, v := range x {
		sq += (v - m) * (v - m)
	}
	return float64(len(x)) * sq
}

// Mean returns the arithmetic mean.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range x {
		total += v
	}
	return total / float64(len(x))
}

// MaxStableDt returns the largest provably stable Euler step for the
// graph underlying e: 1/(deg_max + 1). (The sharp bound is 2/λ_max of the
// Laplacian; deg_max + 1 is a safe, cheap underestimate.)
func MaxStableDt(e env.Environment) float64 {
	g := e.Graph()
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return 1 / float64(maxDeg+1)
}

// Run executes the environment-gated Laplacian flow from x0.
func Run(e env.Environment, x0 []float64, opts Options) (*Result, error) {
	g := e.Graph()
	if len(x0) != g.N() {
		return nil, fmt.Errorf("flow: %d values for %d agents", len(x0), g.N())
	}
	if g.N() == 0 {
		return nil, errors.New("flow: empty system")
	}
	if opts.Dt <= 0 {
		return nil, fmt.Errorf("flow: non-positive dt %g", opts.Dt)
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 1000
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	rng := engine.NewFastRand(0)

	x := make([]float64, len(x0))
	copy(x, x0)
	delta := make([]float64, len(x))
	initialMean := Mean(x)

	res := &Result{Disagreement: make([]float64, 0, opts.Rounds+1), ConvergedRound: opts.Rounds}
	res.Disagreement = append(res.Disagreement, Disagreement(x))

	for round := 0; round < opts.Rounds; round++ {
		rng.Reseed(engine.EnvSeed(opts.Seed, round))
		s := e.Step(round, rng.Rand)
		if err := s.CheckSized(g); err != nil {
			return nil, fmt.Errorf("flow: environment %q round %d: %w", e.Name(), round, err)
		}
		for i := range delta {
			delta[i] = 0
		}
		for id, edge := range g.EdgesView() {
			if !s.Usable(id, edge.A, edge.B) {
				continue
			}
			d := x[edge.B] - x[edge.A]
			delta[edge.A] += d
			delta[edge.B] -= d
		}
		for i := range x {
			x[i] += opts.Dt * delta[i]
		}
		dis := Disagreement(x)
		prev := res.Disagreement[len(res.Disagreement)-1]
		// The contraction argument guarantees non-increase only up to
		// floating-point roundoff; allow a small relative slack so the
		// counter reports genuine instability, not ulp noise.
		if dis > prev*(1+1e-9)+1e-12 {
			res.MonotoneViolations++
		}
		res.Disagreement = append(res.Disagreement, dis)
		if dis < opts.Tol {
			res.ConvergedRound = round + 1
			break
		}
	}

	res.Final = x
	res.MeanDrift = math.Abs(Mean(x) - initialMean)
	res.Converged = res.Disagreement[len(res.Disagreement)-1] < opts.Tol
	return res, nil
}
