// Quickstart: minimum consensus in a dynamic distributed system.
//
// Eight agents hold integers. The environment is hostile: every
// communication link is only up 30% of the time. The self-similar
// algorithm still drives every agent to the global minimum — it just
// takes as long as the environment dictates.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	selfsim "repro"
)

func main() {
	values := []int{9, 4, 7, 1, 8, 2, 6, 5}

	g := selfsim.Ring(len(values))
	environment := selfsim.EdgeChurn(g, 0.3) // each link up 30% of rounds

	var hTrace []float64 // the global variant h after every round
	res, err := selfsim.Simulate[int](selfsim.NewMin(), environment, values,
		selfsim.Options{
			Seed:            1,
			StopOnConverged: true,
			CheckSteps:      true, // verify every step is a valid D-step
			OnRound:         func(ri selfsim.RoundInfo) { hTrace = append(hTrace, ri.H) },
		})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("initial values: %v\n", values)
	fmt.Printf("target f(S(0)): %v\n", res.Target)
	fmt.Printf("converged:      %v after %d rounds\n", res.Converged, res.Round)
	fmt.Printf("final states:   %v\n", res.Final)
	fmt.Printf("messages:       %d\n", res.Messages)
	fmt.Printf("h trajectory:   %v\n", hTrace)

	// The same system under a benign environment: one round.
	fast, err := selfsim.Simulate[int](selfsim.NewMin(), selfsim.Static(g), values,
		selfsim.Options{Seed: 1, StopOnConverged: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith a benign environment the same algorithm takes %d round(s) —\n", fast.Round)
	fmt.Println("self-similar algorithms speed up or slow down with the resources available.")
}
