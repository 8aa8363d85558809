package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/problems"
)

// TestSchedCrashWake is the E17 shape on the sched runtime: the unique
// minimum holder crashes at epoch 0 and wakes at a later epoch; the
// system cannot converge before the wake, must converge after it, and
// the monitor (conservation + frozen-state contract) must stay clean.
func TestSchedCrashWake(t *testing.T) {
	g := graph.Ring(12)
	vals := make([]int, 12)
	for i := range vals {
		vals[i] = 50 + i
	}
	vals[7] = 1 // unique global minimum at agent 7
	const wake = 8
	res, err := Run[int](problems.NewMin(), g, vals, Options{
		Seed: 3, Timeout: 30 * time.Second,
		OpsPerEpoch: 24,
		Dynamics: dynamics.NewSchedule(
			dynamics.At(0, dynamics.CrashAgents(7)),
			dynamics.At(wake, dynamics.RecoverAgents(7)),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !res.Converged {
		t.Fatalf("did not converge after recovery: final=%v ops=%d", res.Final, res.Ops)
	}
	if res.Ops <= wake*24 {
		t.Fatalf("converged after %d ops, before the minimum-holder could wake at epoch %d (= op %d)",
			res.Ops, wake, wake*24)
	}
	for _, v := range res.Final {
		if v != 1 {
			t.Fatalf("final = %v, want all 1", res.Final)
		}
	}
	if res.Dynamics == nil || res.Dynamics.Crashes != 1 || res.Dynamics.Recoveries != 1 {
		t.Errorf("dynamics report: %+v, want 1 crash + 1 recovery", res.Dynamics)
	}
}

// TestSchedCrashConservesFrozen pins the frozen-state contract under a
// crash that never recovers: the crashed agent must hold exactly the
// state it froze with, and the run winds down on budget (it can never
// reach the full-population target if the frozen agent holds a stale
// value).
func TestSchedCrashForever(t *testing.T) {
	g := graph.Ring(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	res, err := Run[int](problems.NewMin(), g, vals, Options{
		Seed: 11, Timeout: 30 * time.Second,
		OpsPerEpoch: 16, MaxOps: 4000,
		Dynamics: dynamics.NewSchedule(dynamics.At(0, dynamics.CrashAgents(3))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	// Agent 3 froze at epoch 0 holding its initial 1; everyone else
	// converges to the best reachable value among the live (min over all
	// values is 1 but agent 3 is crashed; its neighbours can still READ
	// nothing from it — the ring with one frozen node is a line of live
	// agents whose min is 2).
	if res.Final[3] != 1 {
		t.Errorf("crashed agent moved: %d, want frozen 1", res.Final[3])
	}
	for i, v := range res.Final {
		if i == 3 {
			continue
		}
		if v != 2 {
			t.Errorf("live agent %d = %d, want 2 (min among live)", i, v)
		}
	}
}

// TestSchedJoin is the E19 shape on the sched runtime: joiners splice
// into the ring mid-run carrying fresh values; the target is extended
// per §3.4 and the run must converge over the final population with a
// clean monitor.
func TestSchedJoin(t *testing.T) {
	g := graph.Ring(8)
	// Founding values min=3; joiner arrives with 1 — the global minimum
	// enters with the join, so convergence REQUIRES admitting it.
	initial := []int{9, 4, 7, 3, 8, 5, 6, 5, 1, 2}
	res, err := Run[int](problems.NewMin(), g, initial, Options{
		Seed: 7, Timeout: 30 * time.Second,
		OpsPerEpoch: 32,
		Dynamics:    dynamics.NewSchedule(dynamics.Join(2, "ring", 3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !res.Converged {
		t.Fatalf("did not converge after join: final=%v ops=%d", res.Final, res.Ops)
	}
	if len(res.Final) != 10 {
		t.Fatalf("final population %d, want 10", len(res.Final))
	}
	for _, v := range res.Final {
		if v != 1 {
			t.Fatalf("final = %v, want all 1 (the joiner's value)", res.Final)
		}
	}
	if res.Dynamics == nil || res.Dynamics.Joins != 2 {
		t.Errorf("dynamics report: %+v, want 2 joins", res.Dynamics)
	}
	if !res.Target.Equal(ms.OfInts(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)) {
		t.Errorf("target not extended to the joined population: %v", res.Target)
	}
}

// flapRun is the E19 composition on a 16-ring: crashes, amnesiac
// re-entry, and two joiners, the global minimum among them. It returns
// the founding and joiner states and the options that schedule them.
func flapRun() ([]int, Options) {
	initial := make([]int, 18)
	for i := range initial {
		initial[i] = 7 + (i*5)%23
	}
	initial[9] = 2 // founding minimum
	initial[16] = 1
	initial[17] = 3 // joiners: the global minimum joins late
	return initial, Options{
		Seed: 21, Timeout: 30 * time.Second,
		OpsPerEpoch: 48,
		Dynamics: dynamics.NewSchedule(
			dynamics.At(2, dynamics.CrashRandom(3)),
			dynamics.At(4, dynamics.RecoverAll()),
			dynamics.Join(2, "ring", 6),
			dynamics.AmnesiacRejoin(),
		),
	}
}

// TestSchedJoinAmnesiacFlap runs flapRun's schedule on min, which is
// insensitive to re-introduced initial values (§3.4 positive case):
// zero violations is pinned.
func TestSchedJoinAmnesiacFlap(t *testing.T) {
	initial, o := flapRun()
	res, err := Run[int](problems.NewMin(), graph.Ring(16), initial, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations under join+amnesiac flap: %v", res.Violations)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final=%v ops=%d report=%+v", res.Final, res.Ops, res.Dynamics)
	}
	for _, v := range res.Final {
		if v != 1 {
			t.Fatalf("final = %v, want all 1", res.Final)
		}
	}
}

// TestSchedChecksRaceEpochSafepoints runs flapRun's schedule on several
// workers, so quiescence checks and dynamics epochs ask for safepoints
// concurrently and one safepoint may answer both. gcd declares no
// core.Consensus, so its checks copy and sort the stopped states; min
// scans them. Both are insensitive to re-introduced initial values
// (§3.4), so the run must converge cleanly onto the join-extended
// target, with the check that halted it run at a safepoint.
func TestSchedChecksRaceEpochSafepoints(t *testing.T) {
	for _, p := range []core.Problem[int]{problems.NewMin(), problems.NewGCD()} {
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", p.Name(), w), func(t *testing.T) {
				initial, o := flapRun()
				o.Workers = w
				res := converged(t, p, graph.Ring(16), initial, o)
				if final := ms.New(p.Cmp(), res.Final...); !final.Equal(res.Target) {
					t.Errorf("final %v != target %v", final, res.Target)
				}
				if res.QuiescenceChecks < 1 {
					t.Error("no quiescence check ran")
				}
			})
		}
	}
}

// TestSchedAmnesiacSumViolates is the §3.4 negative case on sched: sum
// is NOT insensitive to re-introduced values — an amnesiac reset
// destroys or duplicates absorbed mass — and the monitor must DETECT it
// (violations > 0 pinned). MaxOps is small because the run can never
// reach its now-unreachable target.
func TestSchedAmnesiacSumViolates(t *testing.T) {
	g := graph.Complete(8)
	vals := []int{3, 1, 5, 2, 7, 4, 6, 2}
	res, err := Run[int](problems.NewSum(), g, vals, Options{
		Seed: 9, Timeout: 30 * time.Second,
		OpsPerEpoch: 16, MaxOps: 2000,
		Dynamics: dynamics.NewSchedule(
			dynamics.At(2, dynamics.CrashRandom(3)),
			dynamics.At(5, dynamics.RecoverAll()),
			dynamics.AmnesiacRejoin(),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dynamics == nil || res.Dynamics.AmnesiacResets == 0 {
		t.Skipf("no amnesiac reset actually fired (report %+v); nothing to violate", res.Dynamics)
	}
	if len(res.Violations) == 0 {
		t.Error("amnesiac reset on sum went undetected: want a conservation violation")
	}
}

// TestSchedJoinDuringPartition: two joiners splice into a 16-ring while
// a two-block partition is cutting it. The epoch that grows the graph
// must undo the previous epoch's overlay first: growing the all-up base
// copies its bits, and cut bits still cleared in it would stay cleared
// after the heal. The ring visits its agents alternately from the two
// blocks (0, 8, 1, 9, …, 7, 15), so every founding link crosses the cut,
// and the global minimum at agent 12 leaves its neighbourhood only over
// links the partition cut: the run converges onto the join-extended
// target only if they all came back.
func TestSchedJoinDuringPartition(t *testing.T) {
	const n = 16
	at := func(i int) int { return i%2*(n/2) + i/2 } // the agent at ring position i
	var edges []graph.Edge
	for i := range n {
		edges = append(edges, graph.NewEdge(at(i), at((i+1)%n)))
	}
	initial := make([]int, n+2)
	for i := range initial {
		initial[i] = 30 + i
	}
	initial[12] = 1
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			g, err := graph.New("interleaved-ring", n, edges)
			if err != nil {
				t.Fatal(err)
			}
			res := converged(t, problems.NewMin(), g, initial, Options{
				Seed: 17, Workers: w, Timeout: 30 * time.Second,
				OpsPerEpoch: 24, MaxOps: 50_000,
				Dynamics: dynamics.NewSchedule(dynamics.Partition(2, 2, 8), dynamics.Join(2, "ring", 4)),
			})
			if final := ms.New(res.Target.Cmp(), res.Final...); !final.Equal(res.Target) {
				t.Errorf("final %v != target %v", res.Final, res.Target)
			}
			if res.Dynamics == nil || res.Dynamics.Joins != 2 || res.Dynamics.Heals != 1 {
				t.Errorf("dynamics report: %+v, want 2 joins and 1 heal", res.Dynamics)
			}
		})
	}
}

// TestSchedPartition runs an edge-mask window (the partition shape) on
// sched: during the masked epochs the spanning edges are down and
// initiations across them requeue; after healing the run converges
// cleanly.
func TestSchedPartition(t *testing.T) {
	g := graph.Ring(12)
	vals := make([]int, 12)
	for i := range vals {
		vals[i] = 40 + i
	}
	vals[0] = 1
	res, err := Run[int](problems.NewMin(), g, vals, Options{
		Seed: 13, Timeout: 30 * time.Second,
		OpsPerEpoch: 24,
		Dynamics:    dynamics.NewSchedule(dynamics.Partition(2, 1, 6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !res.Converged {
		t.Fatalf("did not converge after heal: %v", res.Final)
	}
	if res.Dynamics == nil || res.Dynamics.MaskedEdgeRounds == 0 {
		t.Errorf("partition masked no edges: %+v", res.Dynamics)
	}
}
