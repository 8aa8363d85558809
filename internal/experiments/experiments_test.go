package experiments

import (
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/problems"
	"repro/internal/sim"
)

// TestAllShapesHold runs every experiment at quick scale and asserts the
// paper's qualitative shape is observed — the headline integration test
// of the reproduction.
func TestAllShapesHold(t *testing.T) {
	for _, sec := range All(QuickConfig()) {
		sec := sec
		t.Run(sec.ID, func(t *testing.T) {
			if !sec.ShapeHolds {
				t.Errorf("%s (%s): shape does not hold\n%s", sec.ID, sec.Title, sec.Body)
			}
			if sec.Body == "" || sec.Claim == "" || sec.Title == "" {
				t.Errorf("%s: incomplete section", sec.ID)
			}
		})
	}
}

func TestE1MentionsDiscrepancy(t *testing.T) {
	sec := E1Fig1(QuickConfig())
	if !strings.Contains(sec.Body, "do not match") {
		t.Error("E1 must document the printed-h discrepancy")
	}
	if !strings.Contains(sec.Body, "YES") {
		t.Error("E1 must exhibit a violation at n=5")
	}
}

func TestE9TableComplete(t *testing.T) {
	sec := E9Classification(QuickConfig())
	for _, fn := range []string{"min", "sum", "second smallest", "sort", "circumscribing circle", "convex hull", "min-pair", "gcd"} {
		if !strings.Contains(sec.Body, fn) {
			t.Errorf("classification table missing %q", fn)
		}
	}
}

func TestConfigs(t *testing.T) {
	if DefaultConfig().Seeds <= QuickConfig().Seeds {
		t.Error("default config should use more seeds than quick")
	}
}

func TestForEachSeedVisitsEverySeedOnce(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	counts := make([]atomic.Int32, 100)
	forEachSeed(len(counts), func(s int) { counts[s].Add(1) })
	for s := range counts {
		if got := counts[s].Load(); got != 1 {
			t.Fatalf("seed %d visited %d times, want 1", s, got)
		}
	}
	forEachSeed(0, func(int) { t.Fatal("n=0 must not invoke body") })
}

// TestParallelSweepBitIdentical renders a seed-sweeping experiment with
// the worker pool saturated and serially, and requires byte-identical
// bodies: each seed owns its RNG, so parallelism must be invisible in
// results.
func TestParallelSweepBitIdentical(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	parallel := E4Adaptivity(QuickConfig())
	goruntime.GOMAXPROCS(1)
	serial := E4Adaptivity(QuickConfig())
	goruntime.GOMAXPROCS(old)
	if parallel.Body != serial.Body {
		t.Fatalf("parallel sweep diverged from serial sweep:\n--- parallel ---\n%s\n--- serial ---\n%s",
			parallel.Body, serial.Body)
	}
	if !parallel.ShapeHolds {
		t.Fatal("E4 shape does not hold")
	}
}

// TestNestedSweepRespectsWorkerBudget: a seed sweep whose bodies run
// sharded, pool-parallel simulations must never hold more than
// GOMAXPROCS−1 extra worker slots in total — the sweep workers and every
// nested engine pool draw from the same process-wide budget, so workers ×
// shards cannot oversubscribe the machine.
func TestNestedSweepRespectsWorkerBudget(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	engine.ResetSlotPeak()
	g := graph.Ring(64)
	forEachSeed(8, func(s int) {
		res, err := sim.Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.6), initialValues(64, int64(s)+1),
			sim.Options{Seed: int64(s) + 1, StopOnConverged: true, MaxRounds: 60_000,
				Shards: 4, ParallelThreshold: 1, Mode: sim.PairwiseMode})
		if err != nil || !res.Converged {
			t.Errorf("seed %d: err=%v converged=%v", s, err, res != nil && res.Converged)
		}
	})
	budget := goruntime.GOMAXPROCS(0) - 1
	if peak := engine.SlotPeak(); peak > budget {
		t.Errorf("nested sweep held %d extra-worker slots, budget is %d", peak, budget)
	} else if peak == 0 {
		t.Error("budget never engaged — sweep/pools not routed through AcquireSlots")
	}
}
