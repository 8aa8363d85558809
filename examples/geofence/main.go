// Geofence: mobile agents agree on the perimeter that contains them all.
//
// The paper's §4.5 example with its mobile-agent motivation: drones
// moving through an area must agree on the convex hull of their positions
// and the circumscribing circle (the tightest circular geofence). Agents
// communicate only when within radio range, so the interaction graph
// changes every step (random-waypoint mobility).
//
// The run is repeated on the asynchronous message-passing runtime to
// show the same algorithm working without any round structure.
//
// Run with:
//
//	go run ./examples/geofence
package main

import (
	"fmt"
	"log"

	selfsim "repro"
)

func main() {
	positions := []selfsim.Point{
		{X: 1, Y: 1}, {X: 8, Y: 2}, {X: 4, Y: 7}, {X: 2, Y: 5},
		{X: 9, Y: 6}, {X: 6, Y: 4}, {X: 3, Y: 9}, {X: 7, Y: 8},
	}
	problem := selfsim.NewHull(positions)

	// --- Round-based run under random-waypoint mobility ---
	g := selfsim.Complete(len(positions)) // pairs in range can talk
	mobile, err := selfsim.Mobile(g, 0.35, 0.04)
	if err != nil {
		log.Fatal(err)
	}
	res, err := selfsim.Simulate[selfsim.HullState](problem, mobile,
		selfsim.InitialHulls(positions),
		selfsim.Options{Seed: 5, StopOnConverged: true})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Converged {
		log.Fatalf("did not converge in %d rounds", res.Rounds)
	}

	hull := res.Final[0].V
	circle := selfsim.Circumcircle(res.Final[0])
	fmt.Printf("agents:             %d (random-waypoint mobility, radio range 0.35)\n", len(positions))
	fmt.Printf("converged in:       %d rounds\n", res.Round)
	fmt.Printf("hull vertices:      %v\n", hull)
	fmt.Printf("geofence circle:    center %v, radius %.4f\n\n", circle.C, circle.R)

	// --- The same computation on the asynchronous runtime ---
	asyncRes, err := selfsim.SimulateAsync[selfsim.HullState](problem,
		selfsim.Ring(len(positions)), selfsim.InitialHulls(positions),
		selfsim.DefaultAsyncOptions(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async runtime:      converged=%v after %d gossip exchanges\n",
		asyncRes.Converged, asyncRes.Ops)
	fmt.Printf("async circle:       %v (same answer, no rounds, no coordinator)\n",
		selfsim.Circumcircle(asyncRes.Final[0]))
}
