package sched

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/problems"
)

// These tests pin the asynchronous protocol's contracts — quiescence
// detection, counter ordering, and independence from scheduling policy —
// across worker counts and oversubscribed hosts.

// TestSchedQuiescenceIsEventDriven: convergence is detected promptly
// after the last adoption, and the adoption bound on quiescence checks (at
// most one per adoption, two adoptions per exchange) holds whatever the
// worker count, with CheckEvery at its most eager setting. A detector
// polling on wall-clock time would break the bound on a slow machine.
func TestSchedQuiescenceIsEventDriven(t *testing.T) {
	g := graph.Complete(10)
	vals := []int{19, 4, 17, 11, 8, 12, 6, 15, 10, 13}
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			o := topts()
			o.Workers = w
			o.CheckEvery = 1
			start := time.Now()
			res := converged(t, problems.NewMin(), g, vals, o)
			if el := time.Since(start); el > 2*time.Second {
				t.Errorf("quiescence took %v, near the %v safety-net timeout", el, o.Timeout)
			}
			if res.QuiescenceChecks == 0 {
				t.Error("no quiescence checks recorded on a converging run")
			}
			if limit := 2*res.Ops + 1; res.QuiescenceChecks > limit {
				t.Errorf("QuiescenceChecks = %d exceeds the adoption bound %d (ops=%d)",
					res.QuiescenceChecks, limit, res.Ops)
			}
		})
	}
}

// TestSchedGoldenSingleThread runs several shards on one OS thread
// (GOMAXPROCS(1)), where every worker is oversubscribed and hand-offs
// between shards depend on the Go scheduler. Op counts are not pinned
// there; what IS fixed per seed is the final multiset and target, and the
// counters must respect their documented bounds.
func TestSchedGoldenSingleThread(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	g := graph.Ring(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	const maxOps = 50_000
	wantFinal := "{1, 1, 1, 1, 1, 1, 1, 1}"
	for seed := int64(1); seed <= 3; seed++ {
		o := Options{Seed: seed, Workers: 4, MaxOps: maxOps, Timeout: 20 * time.Second}
		res := converged(t, problems.NewMin(), g, vals, o)
		if got := ms.OfInts(res.Final...).String(); got != wantFinal {
			t.Errorf("seed %d: final multiset %s, want %s", seed, got, wantFinal)
		}
		if got := res.Target.String(); got != wantFinal {
			t.Errorf("seed %d: target %s, want %s", seed, got, wantFinal)
		}
		if res.Ops <= 0 || res.Ops > maxOps {
			t.Errorf("seed %d: Ops = %d outside (0, %d]", seed, res.Ops, maxOps)
		}
		if res.ProperSteps < 1 || res.ProperSteps > res.Ops {
			t.Errorf("seed %d: ProperSteps = %d outside [1, Ops=%d]", seed, res.ProperSteps, res.Ops)
		}
		if limit := 2*res.Ops + 1; res.QuiescenceChecks > limit {
			t.Errorf("seed %d: QuiescenceChecks = %d exceeds adoption bound %d", seed, res.QuiescenceChecks, limit)
		}
	}
}

// TestSchedCountersBounded: on a contended complete graph every counter
// must respect the ordering Result documents — a busy-rejected
// initiation is never a proper step, and nothing is lost without faults.
func TestSchedCountersBounded(t *testing.T) {
	g := graph.Complete(16)
	vals := make([]int, 16)
	for i := range vals {
		vals[i] = 60 - 3*i
	}
	for seed := int64(0); seed < 4; seed++ {
		o := topts()
		o.Seed = seed
		o.Workers = 4
		res := converged(t, problems.NewMin(), g, vals, o)
		if res.ProperSteps > res.Ops {
			t.Errorf("seed %d: ProperSteps %d > Ops %d", seed, res.ProperSteps, res.Ops)
		}
		if res.Rejections > res.Ops-res.ProperSteps {
			t.Errorf("seed %d: Rejections %d > Ops−ProperSteps = %d", seed, res.Rejections, res.Ops-res.ProperSteps)
		}
		if res.Lost != 0 {
			t.Errorf("seed %d: Lost = %d without a fault layer", seed, res.Lost)
		}
	}
}

// TestSchedWorkerCountsAgree: min's target is interleaving-independent,
// so every worker count must land on the same final multiset.
func TestSchedWorkerCountsAgree(t *testing.T) {
	g := graph.Complete(6)
	vals := []int{8, 3, 9, 5, 4, 7}
	for _, w := range []int{1, 2, 3, 6} {
		o := topts()
		o.Workers = w
		allEqual(t, converged(t, problems.NewMin(), g, vals, o).Final, 3)
	}
}
