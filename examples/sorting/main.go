// Sorting: a distributed array sorts itself while an adversary cuts links.
//
// §4.4 of the paper: agent i owns array slot i and currently holds some
// value; agents swap out-of-order values with neighbours. The environment
// here is an adversary that cuts 70% of the links every round (subject to
// a fairness window, so assumption (2) holds). Progress is measured by
// the paper's squared-displacement objective h — printed as the run
// proceeds, strictly decreasing to zero.
//
// Run with:
//
//	go run ./examples/sorting
package main

import (
	"fmt"
	"log"

	selfsim "repro"
)

func main() {
	values := []int{70, 20, 60, 10, 50, 0, 40, 30, 90, 80}
	problem, err := selfsim.NewSorting(values)
	if err != nil {
		log.Fatal(err)
	}

	g := selfsim.Line(len(values)) // §4.4: the line suffices
	environment := selfsim.Adversary(g, 0.7, 8)

	var hTrace []float64 // the objective h after every round
	res, err := selfsim.Simulate[selfsim.Item](problem, environment,
		selfsim.InitialItems(values),
		selfsim.Options{
			Seed:            3,
			StopOnConverged: true,
			Mode:            selfsim.PairwiseMode, // adjacent swaps only
			OnRound:         func(ri selfsim.RoundInfo) { hTrace = append(hTrace, ri.H) },
			CheckSteps:      true,
		})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("initial array: %v\n", values)
	fmt.Printf("sorted after %d rounds under a 70%%-cut adversary\n\n", res.Round)

	fmt.Println("objective h = Σ (position − desired position)², every ~10 rounds:")
	for i := 0; i < len(hTrace); i += 10 {
		fmt.Printf("  round %3d: h = %g\n", i, hTrace[i])
	}
	fmt.Printf("  round %3d: h = %g\n\n", len(hTrace)-1, hTrace[len(hTrace)-1])

	final := make([]int, len(values))
	for _, it := range res.Final {
		final[it.Index] = it.Value
	}
	fmt.Printf("final array:   %v\n", final)
	fmt.Printf("monitor violations: %d (every swap was a valid D-step)\n", len(res.Violations))
}
