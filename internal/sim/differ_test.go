package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/problems"
)

// differMismatches checks the scratch's endpoints-differ index as the
// round's match left it, without repairing it: it returns the live edge
// ids whose bit disagrees with cmp(states[A], states[B]) != 0, plus the
// number of live edges whose endpoints differ. Edges incident to an agent
// staged since that match are skipped, since the next match repairs them
// (and the next call checks them, unless they are staged again). Retired
// edges are skipped: they are never usable, so their bits are never read.
func differMismatches(sc *Scratch[int]) (bad []int, differing int) {
	r := &sc.r
	dirty := make([]bool, r.g.N())
	for _, a := range r.differDirty {
		dirty[a] = true
	}
	for id, e := range r.g.EdgesView() {
		if r.g.EdgeRetired(id) || dirty[e.A] || dirty[e.B] {
			continue
		}
		want := r.cmp(r.states[e.A], r.states[e.B]) != 0
		if want {
			differing++
		}
		if r.differ.Get(id) != want {
			bad = append(bad, id)
		}
	}
	return bad, differing
}

// TestDifferIndexTracksStates pins the endpoints-differ index whose edges
// are the pairwise matcher's candidates: after every round of pairwise
// min, max and gcd runs — under a crash window, an amnesiac flap and a
// ring-splice join, × Shards {1, 3} × serial or pooled group steps —
// each live edge's bit, as
// the round's match read it, must equal whether its endpoints hold
// different states (edges of agents the round stepped wait for the next
// round's repair, see differMismatches). The amnesiac resets
// and the joins change states outside any group step, so an index that
// missed either would leave bits stale here (and, worse, would filter out
// pairs that can change).
func TestDifferIndexTracksStates(t *testing.T) {
	const n = 48
	probs := map[string]core.Problem[int]{
		"min": problems.NewMin(),
		"max": problems.NewMax(1 << 20),
		"gcd": problems.NewGCD(),
	}
	scheds := map[string]func() *dynamics.Schedule{
		"crash": func() *dynamics.Schedule {
			return dynamics.NewSchedule(dynamics.At(2, dynamics.CrashRandom(4)), dynamics.At(6, dynamics.RecoverAll()))
		},
		"amnesiac": func() *dynamics.Schedule { return amnesiacFlap(4, 2, 6) },
		"join":     func() *dynamics.Schedule { return dynamics.NewSchedule(dynamics.Join(6, "ring", 5)) },
	}
	for _, pname := range []string{"min", "max", "gcd"} {
		for _, sname := range []string{"crash", "amnesiac", "join"} {
			for _, shards := range []int{1, 3} {
				for _, pool := range []struct {
					name      string
					threshold int
				}{{"serial", -1}, {"pooled", 1}} {
					name := fmt.Sprintf("%s/%s/shards=%d/%s", pname, sname, shards, pool.name)
					t.Run(name, func(t *testing.T) {
						sched := scheds[sname]()
						rng := rand.New(rand.NewSource(23))
						vals := make([]int, n+sched.TotalJoiners())
						for i := range vals {
							vals[i] = 6 * (1 + rng.Intn(4*n))
						}
						sc := NewScratch[int]()
						defer sc.Close()
						checked, sawDiffer := 0, false
						opts := Options{
							Seed: 29, Mode: PairwiseMode, Shards: shards, ParallelThreshold: pool.threshold,
							MaxRounds: 10_000, StopOnConverged: true, CheckSteps: true,
							Dynamics: sched,
							OnRound: func(ri RoundInfo) {
								// The match's repair drained the dirty list, so
								// it holds only agents this round's pairs stepped.
								if d := len(sc.r.differDirty); d > 2*ri.ActiveGroups {
									t.Fatalf("round %d: %d dirty agents after %d pairs", ri.Round, d, ri.ActiveGroups)
								}
								bad, differing := differMismatches(sc)
								if len(bad) > 0 {
									t.Fatalf("round %d: %d edge bits disagree with the states (first id %d)", ri.Round, len(bad), bad[0])
								}
								checked++
								sawDiffer = sawDiffer || differing > 0
							},
						}
						res, err := RunWith(sc, probs[pname], env.NewEdgeChurn(graph.Ring(n), 0.8), vals, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Converged || len(res.Violations) > 0 {
							t.Fatalf("converged=%v violations=%v", res.Converged, res.Violations)
						}
						if !sc.r.differOn || checked == 0 || !sawDiffer {
							t.Fatalf("vacuous: index on=%v, %d rounds checked, differing edges seen=%v", sc.r.differOn, checked, sawDiffer)
						}
						switch sname {
						case "amnesiac":
							if res.Dynamics.AmnesiacResets == 0 {
								t.Fatal("vacuous: no amnesiac reset fired")
							}
						case "join":
							if res.Dynamics.Joins == 0 {
								t.Fatal("vacuous: no agent joined")
							}
						}
					})
				}
			}
		}
	}
}
