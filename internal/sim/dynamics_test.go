package sim

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/problems"
)

// TestEngineEquivalenceGoldenEmptyDynamics re-runs the entire golden
// matrix with an EMPTY dynamics schedule attached. An empty schedule
// exercises the applier plumbing (per-round Begin/EndRound, the frozen
// check over an empty list) but fires no events, so every cell must
// stay bit-identical to the nil-Dynamics goldens — together with the
// plain golden tests (which run with Dynamics == nil) this pins the
// satellite contract that the dynamics hook is invisible until a
// schedule actually does something.
func TestEngineEquivalenceGoldenEmptyDynamics(t *testing.T) {
	runGoldenCases(t, variant{opts: func(o *Options) { o.Dynamics = dynamics.NewSchedule() }})
}

// dynamicsOpts is the dynamics-heavy configuration the determinism
// matrix reuses: random crashes, a partition cycle, and a churn burst
// all at once, over a pairwise run.
func dynamicsSchedule() *dynamics.Schedule {
	return dynamics.NewSchedule(
		dynamics.RandomCrashes(0.03, 6),
		dynamics.PartitionCycle(2, 8, 5),
		dynamics.Burst(0.3, 3, 25),
		dynamics.Every(10, dynamics.CrashRandom(1)),
	)
}

// TestDynamicsDeterministicAcrossLayouts is the engine half of the
// determinism satellite: a dynamics-laden run must produce bit-identical
// results for every state layout (Shards ∈ {−1, 1, 4}), forced
// parallelism, and matcher partition — the dynamics substreams are
// functions of (seed, round) only, so nothing the layout changes can
// reach them.
func TestDynamicsDeterministicAcrossLayouts(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)

	for _, mode := range []Mode{ComponentMode, PairwiseMode} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			base := Options{
				Seed: 5, Mode: mode, StopOnConverged: true, MaxRounds: 60_000,
				CheckSteps: true, Dynamics: dynamicsSchedule(),
			}
			run := func(o Options) string {
				g := graph.Ring(48)
				vals := make([]int, 48)
				for i := range vals {
					vals[i] = (i*37 + 11) % 192
				}
				res, err := Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.8), vals, o)
				if err != nil {
					t.Fatal(err)
				}
				s, err := summarize(res, nil)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%s dyn=%+v", s, *res.Dynamics)
			}
			want := run(base)
			for _, tweak := range []func(*Options){
				func(o *Options) { o.Shards = 1 },
				func(o *Options) { o.Shards = 4 },
				func(o *Options) { o.ParallelThreshold = 1; o.Shards = 3 },
			} {
				o := base
				tweak(&o)
				if got := run(o); got != want {
					t.Fatalf("layout variant diverged\n got: %s\nwant: %s", got, want)
				}
			}
			if len(want) == 0 {
				t.Fatal("empty summary")
			}
		})
	}
}

// TestDynamicsCrashGatesConvergence: crash the unique minimum-holder
// before it can gossip and the system cannot converge until the agent
// recovers — the crashed agent's value is frozen inside it. This is the
// dynamism story of the paper made into an assertion: correctness
// (conservation, zero violations) never wavers while progress stalls
// exactly as long as the fault persists.
func TestDynamicsCrashGatesConvergence(t *testing.T) {
	g := graph.Ring(12)
	vals := make([]int, 12)
	for i := range vals {
		vals[i] = 50 + i
	}
	vals[7] = 1 // unique global minimum at agent 7
	const wake = 40
	res, err := Run[int](problems.NewMin(), env.NewStatic(g), vals, Options{
		Seed: 3, StopOnConverged: true, CheckSteps: true, MaxRounds: 10_000,
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
		t.Fatal("did not converge after recovery")
	}
	if res.Round <= wake {
		t.Fatalf("converged at round %d, before the minimum-holder woke at %d", res.Round, wake)
	}
	if res.Dynamics == nil || res.Dynamics.Crashes != 1 || res.Dynamics.Recoveries != 1 {
		t.Fatalf("dynamics report = %+v, want 1 crash / 1 recovery", res.Dynamics)
	}
	if res.Dynamics.FrozenAgentRounds != wake {
		t.Fatalf("FrozenAgentRounds = %d, want %d", res.Dynamics.FrozenAgentRounds, wake)
	}
}

// TestDynamicsPartitionReconvergence: a partition window that separates
// the minimum from half the ring delays convergence until the heal; the
// report's heal round makes rounds-to-reconverge measurable.
func TestDynamicsPartitionReconvergence(t *testing.T) {
	g := graph.Ring(16)
	vals := make([]int, 16)
	for i := range vals {
		vals[i] = 100 + i
	}
	vals[2] = 1 // minimum lives in block 0 of the 2-way contiguous split
	const heal = 30
	res, err := Run[int](problems.NewMin(), env.NewStatic(g), vals, Options{
		Seed: 9, StopOnConverged: true, CheckSteps: true, MaxRounds: 10_000,
		Dynamics: dynamics.NewSchedule(dynamics.Partition(2, 0, heal)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !res.Converged {
		t.Fatal("did not reconverge after heal")
	}
	if res.Round <= heal {
		t.Fatalf("converged at round %d, inside the partition window [0, %d)", res.Round, heal)
	}
	rep := res.Dynamics
	if rep.Heals != 1 || rep.LastHealRound != heal {
		t.Fatalf("report %+v, want 1 heal at round %d", rep, heal)
	}
	if reconv := res.Round - rep.LastHealRound; reconv <= 0 || reconv > 100 {
		t.Fatalf("rounds-to-reconverge = %d, want a small positive count", reconv)
	}
}

// TestDynamicsWarmReuseMatchesCold: runs with dynamics through a shared
// Scratch (the sweep path) must equal independent cold runs — the
// applier's Reset restores a fresh-applier state.
func TestDynamicsWarmReuseMatchesCold(t *testing.T) {
	g := graph.Complete(16)
	vals := make([]int, 16)
	for i := range vals {
		vals[i] = (i*29 + 5) % 64
	}
	opts := func(seed int64) Options {
		return Options{
			Seed: seed, Mode: PairwiseMode, StopOnConverged: true,
			MaxRounds: 60_000, Dynamics: dynamicsSchedule(),
		}
	}
	sc := NewScratch[int]()
	defer sc.Close()
	for seed := int64(1); seed <= 4; seed++ {
		warm, err := RunWith(sc, problems.NewMin(), env.NewEdgeChurn(g, 0.9), vals, opts(seed))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Run[int](problems.NewMin(), env.NewEdgeChurn(g, 0.9), vals, opts(seed))
		if err != nil {
			t.Fatal(err)
		}
		ws, _ := summarize(warm, nil)
		cs, _ := summarize(cold, nil)
		if ws != cs || *warm.Dynamics != *cold.Dynamics {
			t.Fatalf("seed %d: warm run diverged from cold\nwarm: %s %+v\ncold: %s %+v",
				seed, ws, *warm.Dynamics, cs, *cold.Dynamics)
		}
	}
}

// leakyMin is min with a faulty pair step: a pair whose values sum to 0
// mod 5 drops one agent below the pair minimum (breaking conservation),
// and one summing to 1 mod 5 raises an agent above both (raising h). Its
// core.Consensus and core.StutterOnEqual declarations are Min's.
type leakyMin struct{ *problems.Min }

func (p leakyMin) PairStep(a, b int, rng *rand.Rand) (int, int) {
	switch m := min(a, b); (a + b) % 5 {
	case 0:
		return m - 1, m
	case 1:
		return m, a + b
	}
	return p.Min.PairStep(a, b, rng)
}

// TestDynamicsConsensusHidden replays the dynamics determinism config
// (crashes, a partition cycle and a churn burst, in both modes) and a
// faulty-step min run with the core.Consensus declaration hidden, on one
// shard and three. The consensus path and the full path must agree on
// every Result field — violation strings included, which the faulty run
// produces in both conservation and variant form — and on every
// RoundInfo.
func TestDynamicsConsensusHidden(t *testing.T) {
	vals := make([]int, 48)
	for i := range vals {
		vals[i] = (i*37 + 11) % 192
	}
	type cell struct {
		name string
		p    core.Problem[int]
		opts Options
	}
	var cells []cell
	for _, mode := range []Mode{ComponentMode, PairwiseMode} {
		cells = append(cells, cell{"dynamics/" + mode.String(), problems.NewMin(), Options{
			Seed: 5, Mode: mode, StopOnConverged: true, MaxRounds: 60_000,
			CheckSteps: true, Dynamics: dynamicsSchedule(),
		}})
	}
	cells = append(cells, cell{"leaky-min", leakyMin{problems.NewMin()}, Options{
		Seed: 7, Mode: PairwiseMode, MaxRounds: 40, CheckSteps: true,
	}})
	for _, c := range cells {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				run := func(tweak variant) (string, []RoundInfo) {
					var infos []RoundInfo
					o := c.opts
					o.Shards = shards
					o.OnRound = func(ri RoundInfo) { infos = append(infos, ri) }
					res, err := Run[int](problemFor(c.p, tweak), env.NewEdgeChurn(graph.Ring(48), 0.8), vals, o)
					if err != nil {
						t.Fatal(err)
					}
					sum, _ := summarize(res, nil)
					return fmt.Sprintf("%s dyn=%+v target=%v viol=%q", sum, res.Dynamics, res.Target, res.Violations), infos
				}
				hid := false
				marked, markedInfos := run(variant{})
				hidden, hiddenInfos := run(variant{hideConsensus: true, hid: &hid})
				if !hid {
					t.Fatal("the cell's problem does not declare core.Consensus")
				}
				if marked != hidden {
					t.Errorf("results differ\nmarked: %s\nhidden: %s", marked, hidden)
				}
				if !slices.Equal(markedInfos, hiddenInfos) {
					t.Errorf("RoundInfo streams differ\nmarked: %v\nhidden: %v", markedInfos, hiddenInfos)
				}
				if c.name == "leaky-min" && (!strings.Contains(marked, "conservation law violated") || !strings.Contains(marked, "variant increased")) {
					t.Errorf("the faulty run must report both violation kinds: %s", marked)
				}
			})
		}
	}
}
