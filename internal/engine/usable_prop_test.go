package engine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/env"
	"repro/internal/graph"
)

// TestUsableIndexIncrementalMatchesRebuild is the delta-index contract
// test at the matcher level: a matcher maintained incrementally from the
// changed-id stream must hold, round for round, the same usable-edge
// index — and therefore draw the same matching — as a matcher rebuilt
// from scratch from the same masks. Swept across delta environments
// (churn, bursty Markov links, a composite whose DayNight transitions
// force the rescan fallback) × MatchBlocks, with a dynamics-shaped
// overlay on top: each round a few extra edges/agents are masked out and
// restored next round, with the flips reported through the touched lists
// exactly the way the sim round loop reports the Applier's overlay logs.
// (The end-to-end variant with the real dynamics.Applier lives in
// internal/sim's TestDeltaStreamMatchesDeltaBlind — dynamics imports
// engine, so it cannot be exercised from this package.)
func TestUsableIndexIncrementalMatchesRebuild(t *testing.T) {
	pool := NewPool(2, 1)
	defer pool.Close()

	type scenario struct {
		name string
		g    *graph.Graph
		mkE  func(*graph.Graph) env.Environment
	}
	compose := func(g *graph.Graph) env.Environment {
		c, err := env.NewCompose(env.NewDayNight(g, 7, 2), env.NewPowerLoss(g, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	scenarios := []scenario{
		{"complete24/churn0.7", graph.Complete(24), func(g *graph.Graph) env.Environment { return env.NewEdgeChurn(g, 0.7) }},
		{"ring64/markov", graph.Ring(64), func(g *graph.Graph) env.Environment { return env.NewMarkovLinks(g, 0.1, 0.3) }},
		{"torus8x8/daynight+powerloss", graph.Torus(8, 8), compose},
	}

	for _, sc := range scenarios {
		for _, overlay := range []bool{false, true} {
			for _, blocks := range []int{1, 3} {
				g := sc.g
				e := sc.mkE(g)
				de, isDelta := e.(env.DeltaEnvironment)
				inc := NewPairMatcher(g, blocks)
				master := rand.New(rand.NewSource(int64(7 + blocks)))
				ovRng := rand.New(rand.NewSource(99))
				edgeUp, agentUp := bitset.New(g.M()), bitset.New(g.N())
				var prevOE, prevOA, curOE, curOA, touchedE, touchedA []int

				for round := 0; round < 120; round++ {
					es := e.Step(round, master)
					exact := false
					var envE, envA []int
					if isDelta {
						envE, envA, exact = de.StepDeltas()
					}

					// Apply the overlay to a copy of the environment masks,
					// never to the environment's own buffers (the Applier does
					// the same — mutating them would corrupt the env's delta
					// accounting). Overlay entries are down for one round and
					// implicitly restored by next round's fresh copy.
					if es.EdgeUp.IsZero() {
						edgeUp.SetAll()
					} else {
						edgeUp.Copy(es.EdgeUp)
					}
					if es.AgentUp.IsZero() {
						agentUp.SetAll()
					} else {
						agentUp.Copy(es.AgentUp)
					}
					prevOE, prevOA = append(prevOE[:0], curOE...), append(prevOA[:0], curOA...)
					curOE, curOA = curOE[:0], curOA[:0]
					if overlay {
						for k := 0; k < 3; k++ {
							if id := ovRng.Intn(g.M()); edgeUp.Get(id) {
								edgeUp.Clear(id)
								curOE = append(curOE, id)
							}
							if ag := ovRng.Intn(g.N()); agentUp.Get(ag) {
								agentUp.Clear(ag)
								curOA = append(curOA, ag)
							}
						}
					}
					touchedE = append(append(append(touchedE[:0], envE...), prevOE...), curOE...)
					touchedA = append(append(append(touchedA[:0], envA...), prevOA...), curOA...)

					inc.Update(edgeUp, agentUp, touchedE, touchedA, exact)
					ref := NewPairMatcher(g, blocks)
					ref.Update(edgeUp, agentUp, nil, nil, false)

					for b := range inc.bucketBits {
						if !inc.bucketBits[b].Equal(ref.bucketBits[b]) {
							t.Fatalf("%s overlay=%v blocks=%d round %d: bucket %d index diverged from from-scratch recompute",
								sc.name, overlay, blocks, round, b)
						}
					}
					seed := master.Int63()
					got, _ := inc.Match(seed, pool, bitset.Set{})
					want, _ := ref.Match(seed, pool, bitset.Set{})
					if !slices.Equal(got, want) {
						t.Fatalf("%s overlay=%v blocks=%d round %d: incremental matching %v != rebuild %v",
							sc.name, overlay, blocks, round, got, want)
					}
				}
			}
		}
	}
}
