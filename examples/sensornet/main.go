// Sensornet: aggregate sensor readings in a field of unreliable motes.
//
// The paper's §3.1 motivating scenario: a sensor network must compute a
// function of sensor values — here the average temperature and the
// minimum battery level — while motes duty-cycle (power loss) and radio
// links fade (churn). Partitions split the field into valleys; each
// valley keeps aggregating on its own (self-similarity) and the global
// answer emerges once the field heals.
//
// Run with:
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"log"

	selfsim "repro"
)

func main() {
	const motes = 24

	// A connected random radio topology.
	g := selfsim.RandomConnected(motes, 0.15, 42)
	fmt.Printf("radio topology: %s (%d links)\n\n", g.Name(), g.M())

	// Simulated readings.
	temps := make([]float64, motes)
	battery := make([]int, motes)
	for i := range temps {
		temps[i] = 15 + float64((i*37)%100)/10 // 15.0 … 24.9 °C
		battery[i] = 20 + (i*53)%80            // 20 … 99 %
	}

	// --- Average temperature under power loss ---
	res, err := selfsim.Simulate[float64](selfsim.NewAverage(1e-6),
		selfsim.PowerLoss(g, 0.3), temps,
		selfsim.Options{Seed: 7, StopOnConverged: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("average temperature: %.3f °C (every mote agrees)\n", res.Final[0])
	fmt.Printf("  converged in %d rounds with 30%% of motes asleep each round\n\n", res.Round)

	// --- Minimum battery under link churn + partitions ---
	minRes, err := selfsim.Simulate[int](selfsim.NewMin(),
		selfsim.Partitioner(g, 3, 4, 12), battery,
		selfsim.Options{Seed: 7, StopOnConverged: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimum battery level: %d%%\n", minRes.Final[0])
	fmt.Printf("  converged in %d rounds despite 3-way partitions (12 of every 16 rounds)\n\n", minRes.Round)

	// --- Total energy budget (the §4.2 non-consensus sum) ---
	sumRes, err := selfsim.Simulate[int](selfsim.NewSum(),
		selfsim.EdgeChurn(selfsim.Complete(motes), 0.2), battery,
		selfsim.Options{Seed: 7, StopOnConverged: true, Mode: selfsim.PairwiseMode})
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, v := range sumRes.Final {
		total += v
	}
	fmt.Printf("total energy budget: %d%% aggregated at one mote (pairwise gossip)\n", total)
	fmt.Printf("  converged in %d rounds; the sum problem needs the complete\n", sumRes.Round)
	fmt.Println("  interaction graph (§4.2) — depleted motes cannot relay.")
}
