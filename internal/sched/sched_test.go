package sched

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/problems"
)

func topts() Options {
	return Options{Seed: 1, Timeout: 20 * time.Second}
}

func TestSchedMin(t *testing.T) {
	g := graph.Ring(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	res, err := Run[int](problems.NewMin(), g, vals, topts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final=%v after %d ops", res.Final, res.Ops)
	}
	for _, v := range res.Final {
		if v != 1 {
			t.Errorf("final = %v", res.Final)
		}
	}
	if res.ProperSteps == 0 {
		t.Error("no proper steps recorded")
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not stamped")
	}
	if res.ProperStepsPerSec() <= 0 {
		t.Error("ProperStepsPerSec not derivable")
	}
}

func TestSchedSumConservesTotal(t *testing.T) {
	// Sum over the complete graph: the paper's §4.2 assumption. The final
	// multiset must be exactly {total, 0, …, 0} — conservation at
	// quiescence despite transiently inconsistent views. A torn exchange
	// would visibly destroy mass, so the same must hold under message
	// loss and delay.
	g := graph.Complete(6)
	vals := []int{3, 1, 5, 2, 7, 4} // total 22
	run := func(t *testing.T, o Options) *Result[int] {
		res := converged(t, problems.NewSum(), g, vals, o)
		if !ms.OfInts(res.Final...).Equal(ms.OfInts(22, 0, 0, 0, 0, 0)) {
			t.Errorf("final = %v, want {22,0,0,0,0,0}", res.Final)
		}
		return res
	}
	t.Run("clean", func(t *testing.T) { run(t, topts()) })
	t.Run("faults", func(t *testing.T) {
		for seed := int64(0); seed < 3; seed++ {
			o := topts()
			o.Seed = seed
			o.Workers = 2
			o.Faults = &dynamics.Faults{LossP: 0.3, DelayMax: 40 * time.Microsecond}
			if res := run(t, o); res.Lost == 0 {
				t.Errorf("seed %d: LossP=0.3 lost no messages", seed)
			}
		}
	})
}

// converged runs p and fails the test unless the run converged with a
// clean monitor.
func converged[T any](t *testing.T, p core.Problem[T], g *graph.Graph, initial []T, o Options) *Result[T] {
	t.Helper()
	res, err := Run(p, g, initial, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final=%v after %d ops", res.Final, res.Ops)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	return res
}

// allEqual fails the test unless every final state is want.
func allEqual[T comparable](t *testing.T, final []T, want T) {
	t.Helper()
	for _, v := range final {
		if v != want {
			t.Fatalf("final = %v, want all %v", final, want)
		}
	}
}

// TestSchedProblems runs the library's problem families through the
// async protocol on the topologies their §4 assumptions name, with and
// without link churn: whatever the interleaving, the final states must be
// the problem's answer.
func TestSchedProblems(t *testing.T) {
	t.Run("min/hypercube", func(t *testing.T) {
		g := graph.Hypercube(4)
		vals := make([]int, g.N())
		for i := range vals {
			vals[i] = (i*7)%31 + 1
		}
		allEqual(t, converged(t, problems.NewMin(), g, vals, topts()).Final, 1)
	})
	t.Run("min/seeds", func(t *testing.T) {
		for seed := int64(0); seed < 5; seed++ {
			o := topts()
			o.Seed = seed
			allEqual(t, converged(t, problems.NewMin(), graph.Complete(6), []int{8, 3, 9, 5, 4, 7}, o).Final, 3)
		}
	})
	t.Run("min/churn", func(t *testing.T) {
		o := topts()
		o.LinkUpProbability = 0.3
		allEqual(t, converged(t, problems.NewMin(), graph.Ring(8), []int{9, 4, 7, 1, 8, 2, 6, 5}, o).Final, 1)
	})
	t.Run("sum/churn", func(t *testing.T) {
		o := topts()
		o.LinkUpProbability = 0.5
		res := converged(t, problems.NewSum(), graph.Complete(5), []int{4, 1, 6, 2, 7}, o)
		if !ms.OfInts(res.Final...).Equal(ms.OfInts(20, 0, 0, 0, 0)) {
			t.Errorf("final = %v, want {20,0,0,0,0}", res.Final)
		}
	})
	t.Run("average", func(t *testing.T) {
		res := converged(t, problems.NewAverage(1e-6), graph.Complete(5), []float64{1, 2, 3, 4, 10}, topts())
		for _, v := range res.Final {
			if math.Abs(v-4) > 1e-5 {
				t.Errorf("final value %g far from mean 4", v)
			}
		}
	})
	t.Run("sorting", func(t *testing.T) {
		vals := []int{4, 1, 3, 0, 2}
		p, err := problems.NewSorting(vals)
		if err != nil {
			t.Fatal(err)
		}
		res := converged(t, p, graph.Line(5), problems.InitialItems(vals), topts())
		for i, it := range res.Final {
			if it.Index != i || it.Value != i {
				t.Errorf("final[%d] = %v", i, it)
			}
		}
	})
	t.Run("hull", func(t *testing.T) {
		pts := problems.Fig2Configuration()
		converged(t, problems.NewHull(pts), graph.Ring(len(pts)), problems.InitialHulls(pts), topts())
	})
	t.Run("minpair", func(t *testing.T) {
		res := converged(t, problems.NewMinPair(4, 10), graph.Complete(4), problems.InitialPairs([]int{3, 5, 3, 7}), topts())
		allEqual(t, res.Final, problems.Pair{X: 3, Y: 5})
	})
	t.Run("setunion", func(t *testing.T) {
		init := make([]problems.Set, 6)
		for i := range init {
			init[i] = problems.SetOf(i)
		}
		res := converged(t, problems.NewSetUnion(), graph.Ring(6), init, topts())
		allEqual(t, res.Final, problems.SetOf(0, 1, 2, 3, 4, 5))
	})
	t.Run("range", func(t *testing.T) {
		res := converged(t, problems.NewRange(16), graph.Complete(5), problems.InitialTuples([]int{9, 4, 7, 1, 8}), topts())
		allEqual(t, res.Final, problems.Tuple[int, int]{A: 1, B: 9})
	})
	t.Run("gcd", func(t *testing.T) {
		allEqual(t, converged(t, problems.NewGCD(), graph.Line(5), []int{12, 18, 30, 48, 6}, topts()).Final, 6)
	})
}

// resultKey is the deterministic skeleton of a Result: everything except
// wall-clock Elapsed.
type resultKey struct {
	converged                     bool
	ops, proper, rejections, lost int
	steals, checks                int
	final                         string
}

func key(t *testing.T, res *Result[int]) resultKey {
	t.Helper()
	fin := ""
	for _, v := range res.Final {
		fin += string(rune('A' + v%26)) // cheap canonical encoding for ints
	}
	return resultKey{
		converged: res.Converged, ops: res.Ops, proper: res.ProperSteps,
		rejections: res.Rejections, lost: res.Lost, steals: res.Steals,
		checks: res.QuiescenceChecks, final: fin,
	}
}

// TestSchedGoldenSingleWorker pins the determinism contract: with
// Workers=1 the whole run is a pure function of the seed — byte-stable
// across repetitions and across probe attachment.
func TestSchedGoldenSingleWorker(t *testing.T) {
	g := graph.Ring(12)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5, 11, 3, 10, 12}
	run := func(probe *obs.Probe) resultKey {
		o := topts()
		o.Workers = 1
		o.Probe = probe
		res, err := Run[int](problems.NewMin(), g, append([]int(nil), vals...), o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("1-worker run did not converge: %v", res.Final)
		}
		return key(t, res)
	}

	base := run(nil)
	// The golden: pinned values, not just self-consistency. If a change
	// moves these on purpose (protocol or seeding change), re-pin and say
	// so in the commit.
	if base.ops != 65 || base.proper != 9 || base.final != "BBBBBBBBBBBB" {
		t.Errorf("1-worker golden moved: ops=%d proper=%d final=%q (expected ops=65 proper=9 final=BBBBBBBBBBBB)",
			base.ops, base.proper, base.final)
	}
	if again := run(nil); again != base {
		t.Errorf("1-worker run not reproducible: %+v vs %+v", again, base)
	}
	probe := obs.NewProbe(obs.Config{})
	if probed := run(probe); probed != base {
		t.Errorf("attaching a probe changed a 1-worker run: %+v vs %+v", probed, base)
	}
	rep := probe.Report()
	if rep.Counters[obs.CounterSchedEnqueues] == 0 {
		t.Error("probe recorded no sched enqueues")
	}
}

// TestSchedWorkers1Pin pins the Workers=1 event order at a size the
// 12-agent golden misses: 512 agents under the benchmark workload's
// schedule (a partition window, 64 crashes, a recovery), flaky links and
// loss plus delay faults. Delayed sends, admission deferrals and
// fast-forwards all read the virtual clock, so a change to how the clock
// moves shows here. A delay of up to 2000 ticks, about four rounds of
// initiations, often leaves every agent waiting on a deadline, so
// fast-forwards move the clock thousands of times in this run; with
// delays under a round they never do. The figures are pinned, not just
// self-consistent.
func TestSchedWorkers1Pin(t *testing.T) {
	g := graph.Hypercube(9)
	n := g.N()
	vals := make([]int, n)
	for a := range vals {
		vals[a] = 2 + (a*7919)%100_003
	}
	vals[n/3] = 1
	res, err := Run[int](problems.NewMin(), g, vals, Options{
		Seed: 13, Workers: 1, LinkUpProbability: 0.9, MaxOps: 60 * n, Timeout: 20 * time.Second,
		Faults: &dynamics.Faults{LossP: 0.05, DelayMax: 2 * time.Millisecond},
		Dynamics: dynamics.NewSchedule(
			dynamics.Partition(2, 2, 6),
			dynamics.At(3, dynamics.CrashRandom(64)),
			dynamics.At(8, dynamics.RecoverAll()),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Violations) != 0 {
		t.Fatalf("converged=%v violations=%v", res.Converged, res.Violations)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.Final {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	type pin struct {
		ops, proper, rejections, lost, checks int
		final                                 uint64
	}
	got := pin{res.Ops, res.ProperSteps, res.Rejections, res.Lost, res.QuiescenceChecks, h.Sum64()}
	want := pin{ops: 5888, proper: 1052, rejections: 238, lost: 245, checks: 23, final: 0x70a6ee0ac1b14325}
	if got != want {
		t.Errorf("Workers=1 event order moved:\n got %+v\nwant %+v", got, want)
	}
}

// consensusHidden embeds a problem's interface, which promotes every
// core.Problem method but not the core.Consensus declaration, so the
// quiescence check copies and sorts the states instead of scanning them.
type consensusHidden struct{ core.Problem[int] }

// TestSchedConsensusHidden: with Workers=1 a run is a pure function of
// the seed, so the consensus state scan must reproduce the copy-and-sort
// check exactly — the same halts, hence the same ops, QuiescenceChecks,
// final state and violations — for min and max, with and without a
// join-and-amnesiac-flap schedule.
func TestSchedConsensusHidden(t *testing.T) {
	initial := make([]int, 18)
	for i := range initial {
		initial[i] = 7 + (i*5)%23
	}
	initial[9], initial[16], initial[17] = 2, 1, 3
	for _, p := range []core.Problem[int]{problems.NewMin(), problems.NewMax(64)} {
		for _, dyn := range []bool{false, true} {
			run := func(p core.Problem[int]) (resultKey, []string) {
				o := topts()
				o.Workers = 1
				n := 16
				if dyn {
					o.OpsPerEpoch = 48
					o.Dynamics = dynamics.NewSchedule(
						dynamics.At(2, dynamics.CrashRandom(3)),
						dynamics.At(4, dynamics.RecoverAll()),
						dynamics.Join(2, "ring", 6),
						dynamics.AmnesiacRejoin(),
					)
					n = 18
				}
				res, err := Run[int](p, graph.Ring(16), append([]int(nil), initial[:n]...), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("%s (dynamics %v) did not converge: %v", p.Name(), dyn, res.Final)
				}
				return key(t, res), res.Violations
			}
			marked, mv := run(p)
			hidden, hv := run(consensusHidden{p})
			if marked != hidden || !slices.Equal(mv, hv) {
				t.Errorf("%s (dynamics %v): state scan %+v %q != copy-and-sort %+v %q", p.Name(), dyn, marked, mv, hidden, hv)
			}
			if marked.checks == 0 {
				t.Errorf("%s (dynamics %v): no quiescence check ran", p.Name(), dyn)
			}
		}
	}
}

// TestSchedStealNoLostWakeup is the sched analogue of the PR 2 sleep-poll
// bugfix test: with many workers racing over a tiny agent population,
// the last runnable agent is routinely stolen from a shard whose worker
// is about to sleep. The run must terminate by op budget or convergence
// — never by the wall-clock safety net — across many seeds.
func TestSchedStealNoLostWakeup(t *testing.T) {
	g := graph.Ring(8)
	for seed := int64(0); seed < 30; seed++ {
		vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
		o := Options{
			Seed:    seed,
			Workers: 8, // one agent per shard: every exchange crosses shards
			Timeout: 20 * time.Second,
			MaxOps:  5000,
		}
		start := time.Now()
		res, err := Run[int](problems.NewMin(), g, vals, o)
		if err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > 10*time.Second {
			t.Fatalf("seed %d: run took %v — wall-clock timeout path, a wakeup was lost", seed, el)
		}
		if !res.Converged && res.Ops < o.MaxOps {
			t.Fatalf("seed %d: stopped early without converging: ops=%d final=%v", seed, res.Ops, res.Final)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge within %d ops: %v", seed, o.MaxOps, res.Final)
		}
	}
}

// TestSchedHeldBoundsSkew pins the initiation gate: a worker whose event
// began more than maxSkew ops ago holds initiations back, an idle worker
// never does, and a single worker never holds itself. maxSkew is a round
// of N initiations, or skewPerWorker per worker when that is larger.
func TestSchedHeldBoundsSkew(t *testing.T) {
	for _, c := range []struct {
		agents, workers int
		start           int64 // worker 0's event start; the others are idle
		want            bool
	}{
		{8, 2, idleTick, false},
		{8, 2, 10_000 - 2*skewPerWorker, false},
		{8, 2, 10_000 - 2*skewPerWorker - 1, true},
		{8, 8, 10_000 - 8*skewPerWorker, false},
		{8, 8, 0, true},
		{4096, 2, 10_000 - 4096, false},
		{4096, 2, 10_000 - 4097, true},
		{8, 1, 0, false},
	} {
		vals := make([]int, c.agents)
		r := &run[int]{g: graph.Ring(c.agents), opts: Options{Workers: c.workers}, initVals: vals}
		r.setup(c.agents)
		r.inflight[0].tick.Store(c.start)
		if got := r.held(10_000); got != c.want {
			t.Errorf("agents=%d workers=%d start=%d: held(10000) = %v, want %v", c.agents, c.workers, c.start, got, c.want)
		}
	}
}

func TestSchedStealsHappen(t *testing.T) {
	// Sanity for the steal path itself: some run in this configuration
	// must actually record steals (if none ever occur the lost-wakeup
	// test above is vacuous).
	total := 0
	for seed := int64(0); seed < 10; seed++ {
		n := 64
		g := graph.Ring(n)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = n - i
		}
		o := Options{Seed: seed, Workers: 4, Timeout: 20 * time.Second}
		res, err := Run[int](problems.NewMin(), g, vals, o)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Steals
	}
	if total == 0 {
		t.Skip("no steals observed in 10 seeds (scheduler kept every shard busy); steal path not exercised on this machine")
	}
}

// TestSchedFaults: loss and delay never threaten correctness — a lost
// request changes no state and a delayed one executes the same atomic
// PairStep later — so min still converges with zero violations. Only
// loss spends initiations on nothing.
func TestSchedFaults(t *testing.T) {
	g := graph.Ring(8)
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5}
	cases := []struct {
		name   string
		faults dynamics.Faults
		lossy  bool
	}{
		{"loss+delay", dynamics.Faults{LossP: 0.3, DelayMax: 80 * time.Microsecond}, true},
		{"delay", dynamics.Faults{DelayMax: 100 * time.Microsecond}, false},
		{"zero", dynamics.Faults{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := topts()
			o.Faults = &c.faults
			o.Seed = 5
			res := converged(t, problems.NewMin(), g, vals, o)
			allEqual(t, res.Final, 1)
			if c.lossy && res.Lost == 0 {
				t.Error("lossy faults lost no messages")
			}
			if !c.lossy && res.Lost != 0 {
				t.Errorf("lost %d requests without loss", res.Lost)
			}
			if res.Lost > res.Ops {
				t.Errorf("Lost = %d exceeds Ops = %d", res.Lost, res.Ops)
			}
		})
	}
}

// TestSchedHaltSettlesInFlightExchanges: a wall-clock halt lands while
// exchanges are in flight. A partner that already adopted its half of a
// sum transfer has moved mass; unless the initiator adopts the reply
// still in its mailbox, the finals lose it. Conservation at quiescence
// must hold however the run is cut.
func TestSchedHaltSettlesInFlightExchanges(t *testing.T) {
	const n = 512
	g := graph.Complete(n)
	vals := make([]int, n)
	total := 0
	for i := range vals {
		vals[i] = 1 + i%7
		total += vals[i]
	}
	for seed := int64(0); seed < 5; seed++ {
		res, err := Run[int](problems.NewSum(), g, vals, Options{
			Seed: seed, Workers: 2, Timeout: time.Millisecond, MaxOps: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			continue // finished before the halt: nothing to settle
		}
		sum := 0
		for _, v := range res.Final {
			sum += v
		}
		if sum != total || len(res.Violations) != 0 {
			t.Fatalf("seed %d: halted run tore an exchange: final sum %d, want %d; violations %v",
				seed, sum, total, res.Violations)
		}
	}
}

func TestSchedIslandsTerminateByBudget(t *testing.T) {
	// Disconnected islands: the global multiset can never reach the
	// whole-system target, so the run must wind down on its op budget —
	// quickly, via the budget signal or the drained-system detector, not
	// the wall-clock net.
	cases := []struct {
		name   string
		edges  []graph.Edge
		vals   []int
		budget int
		check  func(t *testing.T, res *Result[int], budget int)
	}{
		{"islands", []graph.Edge{{A: 0, B: 1}, {A: 2, B: 3}}, []int{5, 3, 9, 1, 8, 8, 8, 8}, 400,
			func(t *testing.T, res *Result[int], _ int) {
				// Each island must still have converged locally (self-similarity).
				if res.Final[0] != 3 || res.Final[1] != 3 {
					t.Errorf("island {0,1} did not settle to 3: %v", res.Final[:2])
				}
				if res.Final[2] != 1 || res.Final[3] != 1 {
					t.Errorf("island {2,3} did not settle to 1: %v", res.Final[2:4])
				}
			}},
		{"two-pairs", []graph.Edge{{A: 0, B: 1}, {A: 2, B: 3}}, []int{4, 3, 2, 1}, 200,
			func(t *testing.T, res *Result[int], budget int) {
				// Every agent keeps a live partner, so the whole budget is
				// spent. Under load one pair may spend all of it before the
				// other is scheduled, so local settling is not pinned.
				if res.Ops != budget {
					t.Errorf("stopped after %d ops, budget is %d", res.Ops, budget)
				}
			}},
		{"edgeless", nil, []int{3, 1, 2, 4}, 50,
			func(t *testing.T, res *Result[int], _ int) {
				if !ms.OfInts(res.Final...).Equal(ms.OfInts(3, 1, 2, 4)) {
					t.Errorf("isolated agents moved: final %v", res.Final)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := graph.New(c.name, len(c.vals), c.edges)
			if err != nil {
				t.Fatal(err)
			}
			o := topts()
			o.MaxOps = c.budget
			start := time.Now()
			res, err := Run[int](problems.NewMin(), g, c.vals, o)
			if err != nil {
				t.Fatal(err)
			}
			if time.Since(start) > 10*time.Second {
				t.Fatal("run waited out the wall-clock timeout")
			}
			if res.Converged {
				t.Error("disconnected system reported global convergence")
			}
			if res.Ops > o.MaxOps {
				t.Errorf("ops %d exceeded budget %d", res.Ops, o.MaxOps)
			}
			if len(res.Violations) != 0 {
				t.Errorf("violations: %v", res.Violations)
			}
			c.check(t, res, c.budget)
		})
	}
}

func TestSchedValidation(t *testing.T) {
	g := graph.Ring(4)
	if _, err := Run[int](problems.NewMin(), g, []int{1, 2}, topts()); err == nil {
		t.Error("accepted wrong initial length")
	}
	if _, err := Run[int](problems.NewMin(), graph.Line(0), nil, topts()); err == nil {
		t.Error("accepted empty system")
	}
	for _, f := range []dynamics.Faults{{LossP: 1}, {LossP: 1.5}, {LossP: -0.5}, {DelayMax: -time.Second}} {
		o := topts()
		o.Faults = &f
		if _, err := Run[int](problems.NewMin(), g, []int{1, 2, 3, 4}, o); err == nil {
			t.Errorf("accepted invalid faults %+v", f)
		}
	}
	// A join scheduled past the op budget can never be admitted.
	o := topts()
	o.Dynamics = dynamics.NewSchedule(dynamics.Join(1, "ring", 100))
	o.OpsPerEpoch = 10
	o.MaxOps = 50
	if _, err := Run[int](problems.NewMin(), g, []int{1, 2, 3, 4, 5}, o); err == nil {
		t.Error("accepted a join epoch beyond MaxOps")
	}
}

func TestSchedAlreadyConverged(t *testing.T) {
	g := graph.Ring(3)
	res, err := Run[int](problems.NewMin(), g, []int{2, 2, 2}, topts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Ops != 0 {
		t.Errorf("already-converged start: converged=%v ops=%d", res.Converged, res.Ops)
	}
}

func TestSchedLargeHypercube(t *testing.T) {
	// The acceptance cell: 10⁵-agent min over a hypercube converges with
	// zero violations in CI-feasible time. 2^17 = 131072 agents.
	if testing.Short() {
		t.Skip("large cell skipped in -short")
	}
	g := graph.Hypercube(17)
	n := g.N()
	vals := make([]int, n)
	for i := range vals {
		vals[i] = 2 + (i*2654435761)%100000
	}
	vals[n/3] = 1 // unique global minimum
	o := Options{Seed: 3, Timeout: 120 * time.Second, MaxOps: 60 * n}
	start := time.Now()
	res, err := Run[int](problems.NewMin(), g, vals, o)
	if err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	if !res.Converged {
		t.Fatalf("10⁵-agent hypercube did not converge: ops=%d proper=%d", res.Ops, res.ProperSteps)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations at 10⁵ agents: %v", res.Violations)
	}
	for i, v := range res.Final {
		if v != 1 {
			t.Fatalf("agent %d settled at %d, want 1", i, v)
		}
	}
	t.Logf("n=%d converged in %v: ops=%d proper=%d steals=%d checks=%d (%.0f proper/s)",
		n, el, res.Ops, res.ProperSteps, res.Steals, res.QuiescenceChecks, res.ProperStepsPerSec())
}

// TestShardLayoutPadded: on a 64-bit platform a shard fills a whole
// number of 128-byte line pairs, so neighbouring shards in run.shards
// never share one, a worker's tick is alone on its cache line, and a
// worker's counters fill a line pair of their own.
func TestShardLayoutPadded(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if sz := unsafe.Sizeof(shard[int]{}); sz%128 != 0 {
		t.Errorf("shard is %d bytes, not a multiple of 128", sz)
	}
	if sz := unsafe.Sizeof(inflightTick{}); sz != 64 {
		t.Errorf("inflightTick is %d bytes, want 64", sz)
	}
	if sz := unsafe.Sizeof(workerRec{}); sz != 128 {
		t.Errorf("workerRec is %d bytes, want 128", sz)
	}
}
