package baseline

import (
	"testing"

	"repro/internal/env"
	"repro/internal/graph"
)

func vals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * 3
	}
	return out
}

func TestSnapshotStatic(t *testing.T) {
	g := graph.Line(6)
	res, err := Snapshot(env.NewStatic(g), vals(6), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("snapshot did not converge on a static line")
	}
	// Tree grows one hop per round: a 6-line needs 5 rounds.
	if res.Round != 5 {
		t.Errorf("rounds = %d, want 5", res.Round)
	}
	if res.Restarts != 0 {
		t.Errorf("restarts = %d on static env", res.Restarts)
	}
	if res.MaxStateSize != 6 {
		t.Errorf("max state = %d, want 6", res.MaxStateSize)
	}
}

// TestSnapshotRoundsAllocateNothing: the frozen frontier is one buffer
// refilled every round, so a run's allocations do not grow with its
// length. A static Ring(1000) needs 500 rounds to converge, so both runs
// stop at their round cap.
func TestSnapshotRoundsAllocateNothing(t *testing.T) {
	e := env.NewStatic(graph.Ring(1000))
	v := vals(1000)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Snapshot(e, v, rounds, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, a20 := allocs(10), allocs(20); a20 != a10 {
		t.Errorf("Snapshot allocates %v times for 10 rounds and %v for 20, want the same", a10, a20)
	}
}

func TestSnapshotStallsOnPartition(t *testing.T) {
	g := graph.Complete(6)
	e := env.NewPartitioner(g, 2, 0, 1_000_000) // permanent partition
	res, err := Snapshot(e, vals(6), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("snapshot converged across a permanent partition")
	}
}

func TestSnapshotRestartsUnderChurn(t *testing.T) {
	g := graph.Ring(10)
	e := env.NewEdgeChurn(g, 0.5)
	res, err := Snapshot(e, vals(10), 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Error("expected restarts under churn")
	}
}

func TestSnapshotValidation(t *testing.T) {
	g := graph.Line(3)
	if _, err := Snapshot(env.NewStatic(g), vals(2), 10, 1); err == nil {
		t.Error("value/agent mismatch accepted")
	}
}

func TestFloodingStatic(t *testing.T) {
	g := graph.Line(5)
	res, err := Flooding(env.NewStatic(g), vals(5), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("flooding did not converge")
	}
	// Knowledge spreads the full line in one round here because edge
	// exchanges cascade within a round in edge order; must converge in
	// ≤ diameter rounds regardless.
	if res.Round > 4 {
		t.Errorf("rounds = %d, want ≤ 4", res.Round)
	}
	if res.MaxStateSize != 5 {
		t.Errorf("max state = %d, want 5 (Θ(N) state is the point)", res.MaxStateSize)
	}
}

func TestFloodingSurvivesChurn(t *testing.T) {
	g := graph.Ring(10)
	e := env.NewEdgeChurn(g, 0.3)
	res, err := Flooding(e, vals(10), 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("flooding did not converge under churn")
	}
}

func TestFloodingStallsOnPermanentPartition(t *testing.T) {
	g := graph.Complete(6)
	e := env.NewPartitioner(g, 2, 0, 1_000_000)
	res, err := Flooding(e, vals(6), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("flooding crossed a permanent partition")
	}
}

func TestFloodingValidation(t *testing.T) {
	g := graph.Line(3)
	if _, err := Flooding(env.NewStatic(g), vals(4), 10, 1); err == nil {
		t.Error("value/agent mismatch accepted")
	}
}
