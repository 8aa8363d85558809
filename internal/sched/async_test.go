package sched

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/problems"
)

// These tests pin the asynchronous protocol's contracts — quiescence
// detection, counter ordering, and independence from scheduling policy —
// across worker counts and oversubscribed hosts.

// TestSchedQuiescenceIsEventDriven: convergence is detected promptly
// after the last adoption, and the quiescence checks keep both of their
// bounds whatever the worker count: at most one per adoption (two
// adoptions per exchange), and at most one per max(64, N/2) initiations,
// the engine's rate limit, so the check that detects convergence comes
// no earlier than that many initiations into the run. A detector polling
// on wall-clock time would break the first bound on a slow machine; one
// that checked on every adoption would break the second. The ring's
// N/2 = 128 sits above the floor of 64, which the complete graph's
// N = 10 exercises. At this rate the second bound implies the first;
// TestSchedQuiescenceGatedOnAdoption pins the adoption gate on its own.
func TestSchedQuiescenceIsEventDriven(t *testing.T) {
	ring := make([]int, 256)
	for i := range ring {
		ring[i] = (i*97 + 31) % 1000
	}
	for _, c := range []struct {
		g    *graph.Graph
		vals []int
	}{
		{graph.Complete(10), []int{19, 4, 17, 11, 8, 12, 6, 15, 10, 13}},
		{graph.Ring(256), ring},
	} {
		n := c.g.N()
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				o := topts()
				o.Workers = w
				start := time.Now()
				res := converged(t, problems.NewMin(), c.g, c.vals, o)
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
				if every := max(64, n/2); res.QuiescenceChecks > res.Ops/every+1 || res.Ops < every {
					t.Errorf("QuiescenceChecks = %d after %d ops breaks the rate limit of one check per %d ops",
						res.QuiescenceChecks, res.Ops, every)
				}
			})
		}
	}
}

// TestSchedQuiescenceGatedOnAdoption: a quiescence check runs only after
// some agent adopted a new state since the last one. Min on two disjoint
// rings never reaches the global target, so the run spends its op budget
// (a worker may stop one initiation short of it); each ring settles early and then adopts nothing more. Every
// adoption strictly lowers an agent's value to another initial value,
// so a run makes at most N·(N-1) adoptions and, with the gate, at most
// that many checks. Without it the rate limit alone would check once per
// max(64, N/2) = 64 initiations, about MaxOps/64 = 1000 times.
func TestSchedQuiescenceGatedOnAdoption(t *testing.T) {
	const half = 8
	edges := make([]graph.Edge, 0, 2*half)
	for _, off := range []int{0, half} {
		for i := 0; i < half; i++ {
			edges = append(edges, graph.NewEdge(off+i, off+(i+1)%half))
		}
	}
	g, err := graph.New("two-rings", 2*half, edges)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int, 2*half)
	for i := range vals {
		vals[i] = (i*7 + 3) % (2 * half)
	}
	n := g.N()
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			o := topts()
			o.Workers = w
			o.MaxOps = 64 * 1000
			res, err := Run[int](problems.NewMin(), g, vals, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged || res.Ops < o.MaxOps/2 {
				t.Fatalf("disconnected min run halted early: converged=%v ops=%d of %d", res.Converged, res.Ops, o.MaxOps)
			}
			if limit := n * (n - 1); res.QuiescenceChecks == 0 || res.QuiescenceChecks > limit {
				t.Errorf("QuiescenceChecks = %d over %d ops, want 1..%d (one per adoption at most)",
					res.QuiescenceChecks, res.Ops, limit)
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

// TestSchedCountersSumAcrossWorkers: each worker counts on its own
// record and Result sums them. With four workers and loss faults the
// sums must keep Result's ordering, and each must equal the probe's
// tally of the same events, which every worker adds to one shared
// counter.
func TestSchedCountersSumAcrossWorkers(t *testing.T) {
	g := graph.Hypercube(8)
	vals := make([]int, g.N())
	for i := range vals {
		vals[i] = 1000 - 3*i
	}
	for seed := int64(0); seed < 3; seed++ {
		o := topts()
		o.Seed = seed
		o.Workers = 4
		o.Faults = &dynamics.Faults{LossP: 0.2}
		probe := obs.NewProbe(obs.Config{})
		o.Probe = probe
		res := converged(t, problems.NewMin(), g, vals, o)
		if res.Lost == 0 {
			t.Errorf("seed %d: Lost = 0 under LossP 0.2", seed)
		}
		if res.Steals < 0 {
			t.Errorf("seed %d: Steals = %d", seed, res.Steals)
		}
		if sum := res.ProperSteps + res.Rejections + res.Lost; sum > res.Ops {
			t.Errorf("seed %d: ProperSteps+Rejections+Lost = %d > Ops = %d", seed, sum, res.Ops)
		}
		c := probe.Report().Counters
		for _, x := range []struct {
			name       string
			got, probe int
		}{
			{"Lost", res.Lost, int(c[obs.CounterExchLost])},
			{"Rejections", res.Rejections, int(c[obs.CounterExchBusy])},
			{"Steals", res.Steals, int(c[obs.CounterSchedSteals])},
		} {
			if x.got != x.probe {
				t.Errorf("seed %d: %s = %d, the probe counted %d", seed, x.name, x.got, x.probe)
			}
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

// TestSchedYieldUnderOneThread runs the Ring(256) cells of
// TestSchedQuiescenceIsEventDriven with several workers on one OS thread
// (GOMAXPROCS(1)). The agents at a shard boundary exchange across it,
// so their requests wait on the other shards; a worker whose own queues
// never empty neither steals nor sleeps, and unless it yields every
// yieldEvery events the others run only when the runtime preempts it,
// and the boundaries stall while it spends the op budget.
func TestSchedYieldUnderOneThread(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	g := graph.Ring(256)
	vals := make([]int, g.N())
	for i := range vals {
		vals[i] = (i*97 + 31) % 1000
	}
	for _, w := range []int{2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			o := topts()
			o.Seed = seed
			o.Workers = w
			allEqual(t, converged(t, problems.NewMin(), g, vals, o).Final, slices.Min(vals))
		}
	}
}

// TestSchedExchangePathsAgree: an exchange completes inside the
// initiator's event when its partner is idle, on whichever shard it
// homes, and through the partner's inbox otherwise. Whichever path
// each exchange takes — Workers=1 takes the first for every undelayed
// exchange, more workers mix the two — the protocol's guarantees hold:
// min, max and gcd reach f(S(0)), sum keeps its total with a clean
// monitor (it reaches f only on the complete graph), and every counted
// outcome is one initiation.
func TestSchedExchangePathsAgree(t *testing.T) {
	// Sum reaches f only on the complete graph, so its other cells spend
	// their whole budget; 100·N initiations exercise both paths enough.
	problemsUnder := []struct {
		p      core.Problem[int]
		unit   int
		budget int // initiations per agent
	}{
		{problems.NewMin(), 1, 2000},
		{problems.NewMax(1 << 20), 1, 2000},
		{problems.NewGCD(), 6, 2000},
		{problems.NewSum(), 1, 100},
	}
	for _, pu := range problemsUnder {
		for _, g := range []*graph.Graph{graph.Ring(64), graph.Hypercube(6), graph.Complete(12)} {
			for _, w := range []int{1, 2, 4} {
				for _, lossy := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/workers=%d/lossy=%v", pu.p.Name(), g.Name(), w, lossy)
					t.Run(name, func(t *testing.T) {
						vals := spread(g.N(), pu.unit)
						for seed := int64(1); seed <= 5; seed++ {
							o := topts()
							o.Seed = seed
							o.Workers = w
							o.MaxOps = pu.budget * g.N()
							if lossy {
								o.Faults = &dynamics.Faults{LossP: 0.1}
							}
							checkPaths(t, pu.p, g, vals, o)
						}
					})
				}
			}
		}
	}
}

// spread returns n distinct-ish multiples of unit, so gcd's answer is
// unit and every consensus problem has work to do.
func spread(n, unit int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = unit * (1 + (i*37+11)%101)
	}
	return vals
}

// checkPaths runs one TestSchedExchangePathsAgree cell.
func checkPaths(t *testing.T, p core.Problem[int], g *graph.Graph, vals []int, o Options) {
	t.Helper()
	res, err := Run(p, g, vals, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("seed %d: violations %v", o.Seed, res.Violations)
	}
	if sum := res.ProperSteps + res.Rejections + res.Lost; sum > res.Ops {
		t.Errorf("seed %d: ProperSteps+Rejections+Lost = %d > Ops = %d", o.Seed, sum, res.Ops)
	}
	if p.Name() == "sum" {
		total, want := 0, 0
		for a := range vals {
			total += res.Final[a]
			want += vals[a]
		}
		if total != want {
			t.Errorf("seed %d: sum holds %d, want %d", o.Seed, total, want)
		}
		return
	}
	if !res.Converged || !ms.OfInts(res.Final...).Equal(res.Target) {
		t.Errorf("seed %d: converged=%v final %v, want the target %v", o.Seed, res.Converged, res.Final, res.Target)
	}
}

// TestSchedFewBusyRejects: with two workers on Hypercube(10) nine of an
// agent's ten neighbours share its shard, so almost every exchange
// completes inside its initiator's event, and the rest wait only for the
// mail ahead of them, not for a pass of the run queue. An initiator is
// thus rarely awaiting its reply when a request reaches it, and busy
// rejections stay under 5% of initiations (~3% here). When every request
// and reply waited behind a shard's whole run queue, 0.51–0.53 were
// rejected here. The workers share one thread (GOMAXPROCS(1)), so the
// Go scheduler's yields, not the host, set when a cross-shard request is
// served: on a loaded host two threads let one worker run on while the
// other is descheduled, its shard's mail unserved, and the ratio then
// follows the host's load (0.05 was seen under a parallel -race run).
func TestSchedFewBusyRejects(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	g := graph.Hypercube(10)
	vals := spread(g.N(), 1)
	for seed := int64(1); seed <= 3; seed++ {
		o := topts()
		o.Seed = seed
		o.Workers = 2
		res := converged(t, problems.NewMin(), g, vals, o)
		if ratio := float64(res.Rejections) / float64(res.Ops); ratio >= 0.05 {
			t.Errorf("seed %d: Rejections/Ops = %d/%d = %.3f, want < 0.05", seed, res.Rejections, res.Ops, ratio)
		}
	}
}

// TestSchedQueueDepthBounded: every push onto a run or mail queue counts
// as an enqueue and every pop adds the depth it leaves, so their ratio,
// the mean depth a pop sees, lies in [0, N]. A queue whose pushes went
// uncounted would push it far above N.
func TestSchedQueueDepthBounded(t *testing.T) {
	g := graph.Hypercube(10)
	n := g.N()
	for _, w := range []int{1, 2} {
		o := topts()
		o.Workers = w
		o.Probe = obs.NewProbe(obs.Config{})
		o.Faults = &dynamics.Faults{DelayMax: 200 * time.Microsecond}
		converged(t, problems.NewMin(), g, spread(n, 1), o)
		c := o.Probe.Report().Counters
		enq, depth := c[obs.CounterSchedEnqueues], c[obs.CounterSchedDepthSum]
		if enq == 0 || depth < 0 || depth > int64(n)*enq {
			t.Errorf("workers=%d: depth sum %d over %d enqueues, want a mean in [0, %d]", w, depth, enq, n)
		}
	}
}
