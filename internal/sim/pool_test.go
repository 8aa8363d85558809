package sim

import (
	"fmt"
	"math"
	goruntime "runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/problems"
)

// neverEngage is a pool threshold no batch reaches: every batch runs
// serially on the caller's goroutine.
const neverEngage = math.MaxInt

// newScratchWithThreshold is NewScratch with a pool that engages at
// threshold items instead of parallelThreshold. Results must not depend
// on it; the layout tests use it to force the pool on or off.
func newScratchWithThreshold[T any](threshold int) *Scratch[T] {
	sc := NewScratch[T]()
	sc.r.pool = engine.NewPool(sc.r.pool.Size(), threshold) // the default pool never started
	return sc
}

// TestPoolEngagesAtThirtyTwoGroups pins where a default Scratch hands a
// round's group steps to the worker pool: a round of 31 groups steps
// serially, one of 32 on the pool. The graph is k disjoint edges under a
// static environment, so round 0 in component mode steps exactly k
// two-agent groups, and the only other pool batches of the round (the
// one-shard repair and monitor sum) have one item each and never engage.
func TestPoolEngagesAtThirtyTwoGroups(t *testing.T) {
	old := goruntime.GOMAXPROCS(max(2, goruntime.GOMAXPROCS(0)))
	defer goruntime.GOMAXPROCS(old)
	for _, c := range []struct {
		groups  int
		batches int64
	}{{31, 0}, {32, 1}} {
		t.Run(fmt.Sprintf("groups=%d", c.groups), func(t *testing.T) {
			edges := make([]graph.Edge, c.groups)
			vals := make([]int, 2*c.groups)
			for i := range edges {
				edges[i] = graph.NewEdge(2*i, 2*i+1)
				vals[2*i], vals[2*i+1] = 2*i, 2*i+1 // every pair differs, so none is skipped
			}
			g, err := graph.New("matching", 2*c.groups, edges)
			if err != nil {
				t.Fatal(err)
			}
			probe := obs.NewProbe(obs.Config{})
			active := 0
			sc := NewScratch[int]()
			defer sc.Close()
			_, err = RunWith(sc, problems.NewMin(), env.NewStatic(g), vals, Options{
				Seed: 1, MaxRounds: 1, Probe: probe,
				OnRound: func(ri RoundInfo) { active = ri.ActiveGroups },
			})
			if err != nil {
				t.Fatal(err)
			}
			if active != c.groups {
				t.Fatalf("round 0 had %d groups, want %d", active, c.groups)
			}
			if got := probe.Report().Counters[obs.CounterPoolBatches]; got != c.batches {
				t.Errorf("%d engaged pool batches, want %d (the engagement threshold moved)", got, c.batches)
			}
		})
	}
}
