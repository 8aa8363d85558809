package selfsim_test

// Testable godoc examples for the public API: these render on the package
// documentation page and are verified by `go test`.

import (
	"fmt"

	selfsim "repro"
)

// The quickstart: minimum consensus through link churn.
func ExampleSimulate() {
	g := selfsim.Ring(8)
	environment := selfsim.EdgeChurn(g, 0.3)
	res, err := selfsim.Simulate[int](selfsim.NewMin(), environment,
		[]int{9, 4, 7, 1, 8, 2, 6, 5},
		selfsim.Options{Seed: 1, StopOnConverged: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", res.Converged)
	fmt.Println("final:", res.Final)
	// Output:
	// converged: true
	// final: [1 1 1 1 1 1 1 1]
}

// OnRound is the per-round outlet: here it collects the quickstart run's
// trajectory of the variant h, which never increases.
func ExampleRoundInfo() {
	var hTrace []float64
	_, err := selfsim.Simulate[int](selfsim.NewMin(), selfsim.EdgeChurn(selfsim.Ring(8), 0.3),
		[]int{9, 4, 7, 1, 8, 2, 6, 5},
		selfsim.Options{
			Seed: 1, StopOnConverged: true, CheckSteps: true,
			OnRound: func(ri selfsim.RoundInfo) { hTrace = append(hTrace, ri.H) },
		})
	if err != nil {
		panic(err)
	}
	fmt.Println("h trajectory:", hTrace)
	// Output:
	// h trajectory: [41 25 23 14 12 11 11 11 8]
}

// Non-consensus: one agent collects the sum (§4.2).
func ExampleNewSum() {
	res, err := selfsim.Simulate[int](selfsim.NewSum(),
		selfsim.Static(selfsim.Complete(4)), []int{3, 5, 3, 7},
		selfsim.Options{Seed: 1, StopOnConverged: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("target:", res.Target)
	// Output:
	// target: {0, 0, 0, 18}
}

// The paper's §4.3 example: computing the second smallest value via the
// (min, second-min) pair generalization.
func ExampleNewMinPair() {
	values := []int{3, 5, 3, 7}
	res, err := selfsim.Simulate[selfsim.Pair](selfsim.NewMinPair(len(values), 10),
		selfsim.Static(selfsim.Ring(4)), selfsim.InitialPairs(values),
		selfsim.Options{Seed: 1, StopOnConverged: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("every agent holds:", res.Final[0])
	// Output:
	// every agent holds: (3, 5)
}

// Distributed sorting on a line graph (§4.4).
func ExampleNewSorting() {
	values := []int{30, 10, 20}
	p, err := selfsim.NewSorting(values)
	if err != nil {
		panic(err)
	}
	res, err := selfsim.Simulate[selfsim.Item](p, selfsim.Static(selfsim.Line(3)),
		selfsim.InitialItems(values), selfsim.Options{Seed: 1, StopOnConverged: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("sorted:", res.Final)
	// Output:
	// sorted: [0:10 1:20 2:30]
}

// The §4.5 geometry pipeline: convex-hull consensus, then the
// circumscribing circle.
func ExampleCircumcircle() {
	pts := []selfsim.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}
	res, err := selfsim.Simulate[selfsim.HullState](selfsim.NewHull(pts),
		selfsim.Static(selfsim.Ring(4)), selfsim.InitialHulls(pts),
		selfsim.Options{Seed: 1, StopOnConverged: true})
	if err != nil {
		panic(err)
	}
	c := selfsim.Circumcircle(res.Final[0])
	fmt.Printf("center (%.0f, %.0f), radius %.4f\n", c.C.X, c.C.Y, c.R)
	// Output:
	// center (1, 1), radius 1.4142
}

// Checking a candidate f before building an algorithm on it: the §3.4
// super-idempotence condition refutes the median.
func ExampleExhaustiveSuperIdempotent() {
	err := selfsim.ExhaustiveSuperIdempotent(selfsim.MedianF(),
		selfsim.ExactEqual[int](), []int{0, 1, 2}, func(a, b int) int { return a - b }, 3)
	fmt.Println("median admits a self-similar algorithm:", err == nil)
	// Output:
	// median admits a self-similar algorithm: false
}

// Exhaustively discharging the §3.7 proof obligations on a small
// instance.
func ExampleModelCheck() {
	rep, err := selfsim.ModelCheck[int](selfsim.NewMin(), selfsim.Complete(3), []int{3, 1, 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("obligations hold:", rep.OK())
	// Output:
	// obligations hold: true
}

// The continuous extension: environment-gated averaging conserves the
// mean exactly.
func ExampleRunFlow() {
	g := selfsim.Ring(4)
	e := selfsim.EdgeChurn(g, 0.5)
	res, err := selfsim.RunFlow(e, []float64{1, 2, 3, 6},
		selfsim.FlowOptions{Dt: selfsim.MaxStableFlowDt(e), Rounds: 10000, Seed: 1, Tol: 1e-9})
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", res.Converged)
	fmt.Printf("consensus value: %.4f\n", res.Final[0])
	// Output:
	// converged: true
	// consensus value: 3.0000
}
