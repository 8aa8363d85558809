package sim

import (
	"testing"

	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/problems"
)

// TestMillionAgentPairwiseSmoke drives a handful of pairwise rounds on a
// 10⁶-agent ring at 99.9% availability. It is a liveness/scale smoke, not
// a convergence test (a 10⁶-ring needs ~N rounds to converge): the system
// must build, step, match, and observe at that size in seconds. Skipped
// under -short.
func TestMillionAgentPairwiseSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-agent smoke cell skipped in -short mode")
	}
	g := graph.Ring(1_000_000)
	vals := make([]int, g.N())
	for i := range vals {
		vals[i] = (i*2654435761 + 12345) % (4 * g.N())
	}
	res, err := Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.999), vals,
		Options{Seed: 1, MaxRounds: 6, Mode: PairwiseMode, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6", res.Rounds)
	}
	if res.Messages == 0 || res.GroupSteps == 0 {
		t.Fatalf("no work done: steps=%d msgs=%d", res.GroupSteps, res.Messages)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}
