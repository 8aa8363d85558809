package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/problems"
)

// deltaBlind hides an environment's StepDeltas method: the embedded
// interface exposes only env.Environment, so the runner's delta type
// assertion fails and every round takes the from-scratch path — full
// usability rescan in the matcher, full probe scan, fresh component
// partition. The delta machinery must be invisible in results, so a run
// through the blind wrapper is the reference a delta run is pinned to.
type deltaBlind struct{ env.Environment }

// TestDeltaStreamMatchesDeltaBlind is the end-to-end half of the delta
// contract (the matcher-level half is internal/engine's
// TestUsableIndexIncrementalMatchesRebuild): complete runs through the
// incremental path — env flip lists plus the dynamics Applier's overlay
// logs feeding matcher.Update and the quiescent component memo — must be bit-identical to the same runs with the delta
// stream hidden, across environment kind × dynamics schedule
// (partition/heal, crash/recover, burst) × mode × MatchBlocks.
func TestDeltaStreamMatchesDeltaBlind(t *testing.T) {
	mkEnv := map[string]func(g *graph.Graph) env.Environment{
		"churn0.6": func(g *graph.Graph) env.Environment { return env.NewEdgeChurn(g, 0.6) },
		"markov":   func(g *graph.Graph) env.Environment { return env.NewMarkovLinks(g, 0.15, 0.35) },
	}
	mkDyn := map[string]func() *dynamics.Schedule{
		"nodyn": func() *dynamics.Schedule { return nil },
		"faults": func() *dynamics.Schedule {
			return dynamics.NewSchedule(
				dynamics.PartitionCycle(2, 9, 4),
				dynamics.RandomCrashes(0.08, 5),
				dynamics.Burst(0.5, 30, 45),
			)
		},
	}
	for topoName, g := range map[string]*graph.Graph{"complete18": graph.Complete(18), "torus6x6": graph.Torus(6, 6)} {
		for envName, mk := range mkEnv {
			for dynName, mkd := range mkDyn {
				for _, mode := range []Mode{ComponentMode, PairwiseMode} {
					for _, blocks := range []int{0, 1, 3} {
						if mode == ComponentMode && blocks != 0 {
							continue // MatchBlocks is pairwise-only
						}
						name := fmt.Sprintf("%s/%s/%s/%v/blocks=%d", topoName, envName, dynName, mode, blocks)
						t.Run(name, func(t *testing.T) {
							vals := make([]int, g.N())
							rng := rand.New(rand.NewSource(17))
							for i := range vals {
								vals[i] = rng.Intn(5 * g.N())
							}
							opts := Options{
								Seed: 7, Mode: mode, MatchBlocks: blocks,
								MaxRounds: 400, CheckSteps: true,
								Dynamics: mkd(),
							}
							run := func(e env.Environment) string {
								s, err := summarize(Run[int](problems.NewMin(), e, vals, opts))
								if err != nil {
									t.Fatal(err)
								}
								return s
							}
							got := run(mk(g))
							want := run(deltaBlind{mk(g)})
							if got != want {
								t.Errorf("delta path diverged from delta-blind run\n got: %s\nwant: %s", got, want)
							}
						})
					}
				}
			}
		}
	}
}
