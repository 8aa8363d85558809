package sim

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/problems"
)

// Membership golden tests: join-laden and amnesiac-rejoin runs pinned
// bit for bit, then replayed across every engine layout (forced worker
// pool, sharded state for P ∈ {−1, 1, 4, GOMAXPROCS}, sharded+pooled).
// Each case constructs a FRESH graph per run — growth mutates the run's
// graph in place, so sharing one instance across golden variants would
// leak topology between runs.
//
// Regenerate (only on an INTENTIONAL behavior change) together with the
// equivalence goldens:
//
//	SIM_GOLDEN_REGEN=1 go test ./internal/sim -run 'TestEngineEquivalenceGolden$' -v

// amnesiacFlap is the schedule the §3.4 classification cases share: k
// random agents crash at round from, and at round to ALL crashed agents
// rejoin with their INITIAL states.
func amnesiacFlap(k, from, to int) *dynamics.Schedule {
	return dynamics.NewSchedule(
		dynamics.At(from, dynamics.CrashRandom(k)),
		dynamics.At(to, dynamics.RecoverAll()),
		dynamics.AmnesiacRejoin(),
	)
}

// summarizeDyn extends the shared run summary with the dynamics report,
// so the goldens pin Joins/Crashes/AmnesiacResets counts too — a golden
// whose schedule silently never fires cannot pass as a real one.
func summarizeDyn(res *Result[int], err error) (string, error) {
	s, err := summarize(res, err)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s dyn=%+v", s, *res.Dynamics), nil
}

func joinGoldenCases() []goldenCase {
	intVals := func(n int, seed int64) []int {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = int((int64(i+1)*2654435761 + seed*97) % int64(4*n))
		}
		return vals
	}
	return []goldenCase{
		{"min/ring12+join4ring/churn0.8", func(seed int64, tweak variant) (string, error) {
			// Ring splice: 12 founding agents, 4 join at round 6 — the run
			// must reconverge to the 16-agent minimum.
			sched := dynamics.NewSchedule(dynamics.Join(4, "ring", 6))
			return summarizeDyn(runVariant[int](tweak, problemFor[int](problems.NewMin(), tweak), envFor(env.NewEdgeChurn(graph.Ring(12), 0.8), tweak),
				intVals(16, 3), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, MaxRounds: 10_000, Dynamics: sched}, tweak)))
		}},
		{"min/complete10+join3pref/pairwise", func(seed int64, tweak variant) (string, error) {
			// Preferential attachment under the partitioned pairwise
			// matcher: the matcher's buckets grow mid-run. Min, not sum —
			// §4.2 gives sum's pairwise gossip a complete-graph
			// requirement, and preferential attachment is not complete.
			sched := dynamics.NewSchedule(dynamics.Join(3, "pref", 4))
			return summarizeDyn(runVariant[int](tweak, problemFor[int](problems.NewMin(), tweak), envFor(env.NewEdgeChurn(graph.Complete(10), 0.7), tweak),
				intVals(13, 11), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, Mode: PairwiseMode, MaxRounds: 10_000, Dynamics: sched}, tweak)))
		}},
		{"gcd/hypercube8+join8cube/static", func(seed int64, tweak variant) (string, error) {
			// Hypercube dimension fill: 8 joiners complete Hypercube(4).
			sched := dynamics.NewSchedule(dynamics.Join(8, "hypercube", 3))
			vals := intVals(16, 13)
			for i := range vals {
				vals[i] = (vals[i] + 1) * 6
			}
			return summarizeDyn(runVariant[int](tweak, problemFor[int](problems.NewGCD(), tweak), envFor(env.NewStatic(graph.Hypercube(3)), tweak),
				vals, tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, MaxRounds: 10_000, Dynamics: sched}, tweak)))
		}},
		{"min/ring16+join2ring+amnesiacflap/churn0.9", func(seed int64, tweak variant) (string, error) {
			// Joins AND amnesiac rejoins in one run: agents crash at round
			// 2, re-enter amnesiac at 4, and 2 agents join at 6 — min is
			// super-idempotent, so conservation must survive all of it
			// with viol=0. The recovery sits BEFORE the last join round on
			// purpose: pending joins keep the run alive even once
			// converged, so every event is guaranteed to fire.
			sched := dynamics.NewSchedule(
				dynamics.At(2, dynamics.CrashRandom(3)),
				dynamics.At(4, dynamics.RecoverAll()),
				dynamics.Join(2, "ring", 6),
				dynamics.AmnesiacRejoin(),
			)
			return summarizeDyn(runVariant[int](tweak, problemFor[int](problems.NewMin(), tweak), envFor(env.NewEdgeChurn(graph.Ring(16), 0.9), tweak),
				intVals(18, 7), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, MaxRounds: 10_000, Dynamics: sched}, tweak)))
		}},
		{"min/ring12/amnesiacflap/pairwise", func(seed int64, tweak variant) (string, error) {
			// §3.4 positive case: min is insensitive to re-introduced
			// initial values, so amnesiac re-entry preserves the
			// conservation law — viol=0 is pinned. Pairwise on a ring:
			// convergence is slow enough (O(n) rounds) that the flap at
			// rounds 2–7 fires mid-run instead of after an immediate
			// component-mode convergence.
			return summarizeDyn(runVariant[int](tweak, problemFor[int](problems.NewMin(), tweak), envFor(env.NewEdgeChurn(graph.Ring(12), 0.8), tweak),
				intVals(12, 5), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, Mode: PairwiseMode, MaxRounds: 10_000, Dynamics: amnesiacFlap(3, 2, 7)}, tweak)))
		}},
		{"sum/complete12/amnesiacflap-violations", func(seed int64, tweak variant) (string, error) {
			// §3.4 negative case: sum is NOT insensitive to re-introduced
			// values — an amnesiac reset duplicates or destroys absorbed
			// mass, and the monitor must DETECT it (viol > 0 is pinned).
			// MaxRounds is small because the run can never reach its (now
			// unreachable) target.
			return summarizeDyn(runVariant[int](tweak, problemFor[int](problems.NewSum(), tweak), envFor(env.NewEdgeChurn(graph.Complete(12), 0.8), tweak),
				intVals(12, 9), tweaked(Options{Seed: seed, StopOnConverged: true, Mode: PairwiseMode, MaxRounds: 60, Dynamics: amnesiacFlap(3, 2, 7)}, tweak)))
		}},
		{"min/ring24+join4ring/pairwise", func(seed int64, tweak variant) (string, error) {
			// A ring splice mid-run: the matcher grows its memo with the
			// graph and never matches the retired closing edge.
			sched := dynamics.NewSchedule(dynamics.Join(4, "ring", 7))
			return summarizeDyn(runVariant[int](tweak, problemFor[int](problems.NewMin(), tweak), envFor(env.NewEdgeChurn(graph.Ring(24), 0.7), tweak),
				intVals(28, 19), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, Mode: PairwiseMode, MaxRounds: 100_000, Dynamics: sched}, tweak)))
		}},
	}
}

// joinGoldens maps "case/seed" to the pinned summary of the join-laden
// reference runs.
var joinGoldens = map[string]string{
	"min/ring12+join4ring/churn0.8/seed1":              "conv=true round=8 rounds=8 steps=4 msgs=80 viol=0 final=[2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:4 AmnesiacResets:0}",
	"min/ring12+join4ring/churn0.8/seed2":              "conv=true round=8 rounds=8 steps=6 msgs=92 viol=0 final=[2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:4 AmnesiacResets:0}",
	"min/ring12+join4ring/churn0.8/seed3":              "conv=true round=10 rounds=10 steps=8 msgs=94 viol=0 final=[2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:4 AmnesiacResets:0}",
	"min/complete10+join3pref/pairwise/seed1":          "conv=true round=7 rounds=7 steps=20 msgs=40 viol=0 final=[4 4 4 4 4 4 4 4 4 4 4 4 4] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:3 AmnesiacResets:0}",
	"min/complete10+join3pref/pairwise/seed2":          "conv=true round=7 rounds=7 steps=20 msgs=40 viol=0 final=[4 4 4 4 4 4 4 4 4 4 4 4 4] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:3 AmnesiacResets:0}",
	"min/complete10+join3pref/pairwise/seed3":          "conv=true round=7 rounds=7 steps=19 msgs=38 viol=0 final=[4 4 4 4 4 4 4 4 4 4 4 4 4] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:3 AmnesiacResets:0}",
	"gcd/hypercube8+join8cube/static/seed1":            "conv=true round=4 rounds=4 steps=2 msgs=44 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6 6 6 6 6] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:8 AmnesiacResets:0}",
	"gcd/hypercube8+join8cube/static/seed2":            "conv=true round=4 rounds=4 steps=2 msgs=44 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6 6 6 6 6] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:8 AmnesiacResets:0}",
	"gcd/hypercube8+join8cube/static/seed3":            "conv=true round=4 rounds=4 steps=2 msgs=44 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6 6 6 6 6] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:8 AmnesiacResets:0}",
	"min/ring16+join2ring+amnesiacflap/churn0.9/seed1": "conv=true round=7 rounds=7 steps=3 msgs=92 viol=0 final=[9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:6 Joins:2 AmnesiacResets:3}",
	"min/ring16+join2ring+amnesiacflap/churn0.9/seed2": "conv=true round=7 rounds=7 steps=6 msgs=102 viol=0 final=[9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:6 Joins:2 AmnesiacResets:3}",
	"min/ring16+join2ring+amnesiacflap/churn0.9/seed3": "conv=true round=7 rounds=7 steps=6 msgs=112 viol=0 final=[9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9 9] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:6 Joins:2 AmnesiacResets:3}",
	"min/ring12/amnesiacflap/pairwise/seed1":           "conv=true round=17 rounds=17 steps=27 msgs=54 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:15 Joins:0 AmnesiacResets:3}",
	"min/ring12/amnesiacflap/pairwise/seed2":           "conv=true round=11 rounds=11 steps=18 msgs=36 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:15 Joins:0 AmnesiacResets:3}",
	"min/ring12/amnesiacflap/pairwise/seed3":           "conv=true round=13 rounds=13 steps=22 msgs=44 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:15 Joins:0 AmnesiacResets:3}",
	"sum/complete12/amnesiacflap-violations/seed1":     "conv=false round=60 rounds=60 steps=12 msgs=24 viol=53 final=[173 0 0 0 0 0 0 0 0 0 0 0] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:15 Joins:0 AmnesiacResets:3}",
	"sum/complete12/amnesiacflap-violations/seed2":     "conv=false round=60 rounds=60 steps=14 msgs=28 viol=53 final=[236 0 0 0 0 0 0 0 0 0 0 0] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:15 Joins:0 AmnesiacResets:3}",
	"sum/complete12/amnesiacflap-violations/seed3":     "conv=false round=60 rounds=60 steps=13 msgs=26 viol=53 final=[201 0 0 0 0 0 0 0 0 0 0 0] dyn={Crashes:3 Recoveries:3 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:15 Joins:0 AmnesiacResets:3}",
	"min/ring24+join4ring/pairwise/seed1":              "conv=true round=41 rounds=41 steps=66 msgs=132 viol=0 final=[5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:4 AmnesiacResets:0}",
	"min/ring24+join4ring/pairwise/seed2":              "conv=true round=31 rounds=31 steps=60 msgs=120 viol=0 final=[5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:4 AmnesiacResets:0}",
	"min/ring24+join4ring/pairwise/seed3":              "conv=true round=31 rounds=31 steps=70 msgs=140 viol=0 final=[5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5] dyn={Crashes:0 Recoveries:0 Heals:0 LastHealRound:-1 MaskedEdgeRounds:0 FrozenAgentRounds:0 Joins:4 AmnesiacResets:0}",
}

func runJoinGoldenCases(t *testing.T, tweak variant) {
	t.Helper()
	for _, c := range joinGoldenCases() {
		for _, s := range []int64{1, 2, 3} {
			key := fmt.Sprintf("%s/seed%d", c.name, s)
			t.Run(key, func(t *testing.T) {
				got, err := c.run(s, tweak)
				if err != nil {
					t.Fatal(err)
				}
				want, ok := joinGoldens[key]
				if !ok {
					t.Fatalf("no golden recorded for %s; run with SIM_GOLDEN_REGEN=1", key)
				}
				if got != want {
					t.Errorf("join-laden run diverged\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
}

func TestMembershipGolden(t *testing.T) {
	runJoinGoldenCases(t, variant{})
}

// TestMembershipGoldenParallel forces the worker pool on: join rounds
// and amnesiac resets must be invisible to scheduling.
func TestMembershipGoldenParallel(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	runJoinGoldenCases(t, variant{threshold: 1})
}

// TestMembershipGoldenSharded replays the join matrix under the sharded
// state layout for P ∈ {−1, 1, 4, GOMAXPROCS}: joiners append to the
// last shard without rebalancing, so the layout stays unobservable.
func TestMembershipGoldenSharded(t *testing.T) {
	for _, p := range []int{-1, 1, 4, goruntime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			runJoinGoldenCases(t, variant{opts: func(o *Options) { o.Shards = p }})
		})
	}
}

// TestMembershipGoldenShardedParallel: sharding and pooling together,
// with a shard count that divides none of the case populations.
func TestMembershipGoldenShardedParallel(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	runJoinGoldenCases(t, variant{opts: func(o *Options) { o.Shards = 3 }, threshold: 1})
}

// TestEngineEquivalenceGoldenDormantMembership is the dormant-schedule
// regression: a schedule that carries the AmnesiacRejoin policy flag but
// fires no event and joins nobody must leave every pre-join golden cell
// byte-identical — the membership machinery is invisible until a rule
// actually does something.
func TestEngineEquivalenceGoldenDormantMembership(t *testing.T) {
	runGoldenCases(t, variant{opts: func(o *Options) { o.Dynamics = dynamics.NewSchedule(dynamics.AmnesiacRejoin()) }})
}

// TestJoinRetargetsConvergence: a joiner carrying a NEW global minimum
// arrives after the founding population has converged; the run must
// re-open, absorb it, and converge to the final population's target —
// with zero violations, because min is super-idempotent (§3.4 makes
// f(f(X) ∪ Y) = f(X ∪ Y) exact, so admitting joiners against the
// reduced target is sound).
func TestJoinRetargetsConvergence(t *testing.T) {
	const joinRound = 30
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = 50 + i
	}
	vals[8], vals[9] = 7, 3 // the two joiners; 3 is the new global minimum
	res, err := Run[int](problems.NewMin(), env.NewStatic(graph.Ring(8)), vals, Options{
		Seed: 11, StopOnConverged: true, CheckSteps: true, MaxRounds: 10_000,
		Dynamics: dynamics.NewSchedule(dynamics.Join(2, "ring", joinRound)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !res.Converged {
		t.Fatal("did not converge after the join")
	}
	if res.Round <= joinRound {
		t.Fatalf("converged at round %d, before the join at %d retargeted S*", res.Round, joinRound)
	}
	if len(res.Final) != 10 {
		t.Fatalf("final population %d, want 10", len(res.Final))
	}
	for i, v := range res.Final {
		if v != 3 {
			t.Fatalf("agent %d final state %d, want the joiner's minimum 3", i, v)
		}
	}
	if res.Dynamics == nil || res.Dynamics.Joins != 2 {
		t.Fatalf("dynamics report %+v, want Joins=2", res.Dynamics)
	}
}

// TestAmnesiacClassification is the engine-level reading of §3.4's
// classification: under identical amnesiac-rejoin faults, the functions
// insensitive to re-introduced initial values (min, max, gcd) preserve
// the conservation law — zero violations — while sum's violations are
// DETECTED. Every run asserts AmnesiacResets > 0, so a flap that fires
// after convergence cannot make the test pass vacuously.
func TestAmnesiacClassification(t *testing.T) {
	const n = 12
	intVals := func(mult int) []int {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = (i*31%97 + 1) * mult
		}
		return vals
	}
	for _, shards := range []int{-1, 3} {
		run := func(name string, r *Result[int], err error) *Result[int] {
			t.Helper()
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, name, err)
			}
			if r.Dynamics == nil || r.Dynamics.AmnesiacResets == 0 {
				t.Fatalf("shards=%d %s: no amnesiac resets fired (dyn=%+v) — the scenario is vacuous", shards, name, r.Dynamics)
			}
			return r
		}
		// Crash at round 1 and wake at round 5: gcd collapses to its
		// target within a few pairwise rounds, so a later flap would fire
		// after convergence (the AmnesiacResets assert above would catch
		// that).
		opts := func(mode Mode, maxRounds int) Options {
			return Options{
				Seed: 21, StopOnConverged: true, MaxRounds: maxRounds,
				Shards: shards, Mode: mode,
				Dynamics: amnesiacFlap(4, 1, 5),
			}
		}
		// Pairwise on a ring for the consensus-style functions: slow
		// enough convergence that the flap fires mid-run.
		for _, tc := range []struct {
			name string
			run  func() (*Result[int], error)
		}{
			{"min", func() (*Result[int], error) {
				return Run[int](problems.NewMin(), env.NewEdgeChurn(graph.Ring(n), 0.8), intVals(1), opts(PairwiseMode, 400))
			}},
			{"max", func() (*Result[int], error) {
				return Run[int](problems.NewMax(4*97), env.NewEdgeChurn(graph.Ring(n), 0.8), intVals(1), opts(PairwiseMode, 400))
			}},
			{"gcd", func() (*Result[int], error) {
				return Run[int](problems.NewGCD(), env.NewEdgeChurn(graph.Ring(n), 0.8), intVals(6), opts(PairwiseMode, 400))
			}},
		} {
			res, err := tc.run()
			r := run(tc.name, res, err)
			if len(r.Violations) != 0 || !r.Converged {
				t.Errorf("shards=%d %s: viol=%d conv=%v, want super-idempotent f to survive amnesiac rejoin",
					shards, tc.name, len(r.Violations), r.Converged)
			}
		}
		// Sum's pairwise gossip requires the complete graph (§4.2); the
		// flap fires because sum cannot converge while crashed agents
		// hold unabsorbed mass.
		sumRes, sumErr := Run[int](problems.NewSum(), env.NewEdgeChurn(graph.Complete(n), 0.8), intVals(1), opts(PairwiseMode, 80))
		r := run("sum", sumRes, sumErr)
		if len(r.Violations) == 0 {
			t.Errorf("shards=%d sum: 0 violations under amnesiac rejoin — the monitor failed to detect the §3.4 violation", shards)
		}
	}
}

// TestJoinWarmReuseMatchesCold: join-laden runs through a shared Scratch
// (the sweep path) must equal independent cold runs — growth state never
// leaks between runs because each run gets a fresh graph clone.
func TestJoinWarmReuseMatchesCold(t *testing.T) {
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = (i*29 + 5) % 64
	}
	sched := dynamics.NewSchedule(
		dynamics.Join(4, "ring", 3),
		dynamics.At(6, dynamics.CrashRandom(2)),
		dynamics.At(10, dynamics.RecoverAll()),
		dynamics.AmnesiacRejoin(),
	)
	opts := func(seed int64) Options {
		return Options{
			Seed: seed, Mode: PairwiseMode, StopOnConverged: true,
			MaxRounds: 60_000, Dynamics: sched,
		}
	}
	sc := NewScratch[int]()
	defer sc.Close()
	for seed := int64(1); seed <= 4; seed++ {
		warm, err := RunWith(sc, problems.NewMin(), env.NewEdgeChurn(graph.Ring(16), 0.9), vals, opts(seed))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Run[int](problems.NewMin(), env.NewEdgeChurn(graph.Ring(16), 0.9), vals, opts(seed))
		if err != nil {
			t.Fatal(err)
		}
		ws, _ := summarize(warm, nil)
		cs, _ := summarize(cold, nil)
		if ws != cs || *warm.Dynamics != *cold.Dynamics {
			t.Fatalf("seed %d: warm join run diverged from cold\nwarm: %s %+v\ncold: %s %+v",
				seed, ws, *warm.Dynamics, cs, *cold.Dynamics)
		}
	}
}

// TestJoinContracts pins the join-bearing RunWith error contracts: the
// initial-state array must cover the final population, and the
// environment must be growable.
func TestJoinContracts(t *testing.T) {
	sched := dynamics.NewSchedule(dynamics.Join(2, "ring", 1))
	opts := Options{Seed: 1, MaxRounds: 50, Dynamics: sched}

	if _, err := Run[int](problems.NewMin(), env.NewStatic(graph.Ring(6)), make([]int, 6), opts); err == nil {
		t.Fatal("expected an error for initial states sized to the founding population only")
	}
	// Partitioner is structurally tied to its founding topology and
	// deliberately not Growable.
	if _, err := Run[int](problems.NewMin(), env.NewPartitioner(graph.Ring(6), 2, 5, 10), make([]int, 8), opts); err == nil {
		t.Fatal("expected an error for a join schedule over a non-growable environment")
	}
	if _, err := Run[int](problems.NewMin(), env.NewStatic(graph.Ring(6)), make([]int, 8), opts); err != nil {
		t.Fatalf("correctly sized join run failed: %v", err)
	}
}
