package sim

import (
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/problems"
)

// Engine-equivalence golden tests.
//
// The golden strings below pin the serial reference engine: every layout
// and parallelism variant (worker pool forced on, sharded state for
// P ∈ {1, 4, GOMAXPROCS}, sharded + pooled) must produce bit-for-bit
// identical results — same RNG stream consumption, same group ordering,
// same monitor verdicts — for every (problem × environment × seed) cell,
// so any divergence in Converged/Round/Rounds/GroupSteps/Messages/
// Violations/Final fails here with the exact cell named.
//
// Provenance: originally recorded from the seed (pre-refactor) engine;
// re-recorded once for the PR 3 intentional behavior changes — EdgeChurn
// now samples only minority edges from a per-round substream (one master
// draw per round), PairwiseMode draws its maximal matching via the
// partitioned matcher with per-pair child seeds (engine.PairMatcher),
// and the per-group worker streams are engine.FastRand (O(1) reseed) —
// after verifying that every cell still converges with zero violations.
// Re-recorded once more for keyed group seeds: every group's step stream
// is keyed on (run seed, round, smallest member) (engine.GroupSeed)
// instead of drawn in group order from the run-long stream, and the
// matcher drops the equal-state pairs of a core.StutterOnEqual problem
// inside its claim loop. Every cell still converges with zero
// violations, and its rounds-to-converge distribution over 200 seeds
// matches the previous engine's. Re-recorded once more, with the
// membership goldens, for keyed environment and matching streams: the
// environment steps on a stream reseeded each round with engine.EnvSeed
// and the matching is drawn on engine.MatchSeed, instead of both reading
// one run-long stream in turn. Only cells with a stochastic environment
// or PairwiseMode moved; every cell still converges with zero violations
// (the amnesiac sum cell still reports its violations), and each cell's
// rounds-to-converge over 200 seeds stays within 3 standard errors of
// the previous engine's. Re-recorded once more, with the membership
// goldens, for the keyed-priority matching: each round's matching is the
// greedy maximal matching of the usable edges in ascending
// (SubSeed(MatchSeed, e), e), answered by local queries, instead of a
// per-block shuffle with a boundary pass, and the cells that forced a
// block count became plain pairwise cells. Only PairwiseMode cells
// moved; every cell still converges with zero violations (the amnesiac
// sum cell still reports its violations), and each cell's
// rounds-to-converge over 200 seeds stays within 3 standard errors of
// the previous engine's run of the same cell.
//
// Regenerate (only when an INTENTIONAL behavior change is made) with:
//
//	SIM_GOLDEN_REGEN=1 go test ./internal/sim -run 'TestEngineEquivalenceGolden$' -v
//
// and paste the two printed map literals over engineGoldens and
// joinGoldens.

type goldenCase struct {
	name string
	run  func(seed int64, tweak variant) (string, error)
}

// variant is how a golden re-run differs from the reference run, in ways
// that must not change any result.
type variant struct {
	// opts mutates the run's Options (nil: none): forcing the worker pool
	// on, sharding, attaching a probe or an empty dynamics schedule.
	opts func(*Options)
	// hideStutter runs the case's problem with every optional declaration
	// hidden, the core.StutterOnEqual marker included, so groups that can
	// only stutter step in full instead of being skipped; hideConsensus
	// hides only its core.Consensus declaration, so the monitor judges
	// every round on the merged view instead of the shards' extremes. hid,
	// when non-nil, records that a declaration was actually hidden.
	hideStutter   bool
	hideConsensus bool
	hid           *bool
	// wrap, when non-nil, is a func(core.Problem[T]) core.Problem[T]
	// applied to the case's problem after any hiding: an instrument that
	// observes the steps without changing any result. wrapEnv, when
	// non-nil, is wrapped around the case's environment in the same way.
	wrap    any
	wrapEnv func(env.Environment) env.Environment
}

// tweaked applies the variant's Options mutation, if any.
func tweaked(opts Options, tweak variant) Options {
	if tweak.opts != nil {
		tweak.opts(&opts)
	}
	return opts
}

// declsHidden embeds a problem's interface, which promotes every
// core.Problem method but none of the optional declarations
// (core.StutterOnEqual, core.Consensus).
type declsHidden[T any] struct{ core.Problem[T] }

// stutterKept re-declares core.StutterOnEqual on declsHidden: only the
// consensus declaration is hidden.
type stutterKept[T any] struct{ declsHidden[T] }

func (stutterKept[T]) StutterOnEqual() {}

// problemFor returns p, with the declarations the variant names hidden
// and its instrument, if any, wrapped around it.
func problemFor[T any](p core.Problem[T], tweak variant) core.Problem[T] {
	_, consensus := p.(core.Consensus[T])
	stutter := core.IsStutterOnEqual(p)
	hidden := true
	switch {
	case tweak.hideStutter && stutter, tweak.hideConsensus && consensus && !stutter:
		p = declsHidden[T]{p}
	case tweak.hideConsensus && consensus:
		p = stutterKept[T]{declsHidden[T]{p}}
	default:
		hidden = false
	}
	if hidden && tweak.hid != nil {
		*tweak.hid = true
	}
	if wrap, ok := tweak.wrap.(func(core.Problem[T]) core.Problem[T]); ok {
		p = wrap(p)
	}
	return p
}

// recordRounds is a variant's opts that appends every RoundInfo to dst.
func recordRounds(dst *[]RoundInfo) func(*Options) {
	return func(o *Options) { o.OnRound = func(ri RoundInfo) { *dst = append(*dst, ri) } }
}

// envFor returns e with the variant's environment instrument, if any,
// wrapped around it.
func envFor(e env.Environment, tweak variant) env.Environment {
	if tweak.wrapEnv != nil {
		return tweak.wrapEnv(e)
	}
	return e
}

// extraDraws steps its inner environment, then takes k more draws from
// the round's stream. It forwards growth and the usefulness oracle, so
// only the stream's consumption differs from the inner environment's.
type extraDraws struct {
	env.Environment
	k int
}

func (e extraDraws) Step(round int, rng *rand.Rand) env.State {
	s := e.Environment.Step(round, rng)
	for range e.k {
		rng.Int63()
	}
	return s
}

func (e extraDraws) Grow() { e.Environment.(env.Growable).Grow() }

func (e extraDraws) SetUseful(useful func(graph.Edge) float64) {
	if ad, ok := e.Environment.(*env.Adversary); ok {
		ad.SetUseful(useful)
	}
}

// summarize renders every Result field the equivalence contract covers.
func summarize[T any](res *Result[T], err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("conv=%v round=%d rounds=%d steps=%d msgs=%d viol=%d final=%v",
		res.Converged, res.Round, res.Rounds, res.GroupSteps, res.Messages,
		len(res.Violations), res.Final), nil
}

func goldenCases() []goldenCase {
	intVals := func(n int, seed int64) []int {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = int((int64(i+1)*2654435761 + seed*97) % int64(4*n))
		}
		return vals
	}
	return []goldenCase{
		{"min/ring16/churn0.5", func(seed int64, tweak variant) (string, error) {
			return summarize(Run[int](problemFor[int](problems.NewMin(), tweak), envFor(env.NewEdgeChurn(graph.Ring(16), 0.5), tweak),
				intVals(16, 3), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, MaxRounds: 10_000}, tweak)))
		}},
		{"min/complete12/partitioner", func(seed int64, tweak variant) (string, error) {
			return summarize(Run[int](problemFor[int](problems.NewMin(), tweak), envFor(env.NewPartitioner(graph.Complete(12), 3, 5, 20), tweak),
				intVals(12, 5), tweaked(Options{Seed: seed, StopOnConverged: true, MaxRounds: 10_000}, tweak)))
		}},
		{"min/complete8/adversary-feedback", func(seed int64, tweak variant) (string, error) {
			return summarize(Run[int](problemFor[int](problems.NewMin(), tweak), envFor(env.NewAdversary(graph.Complete(8), 0.9, 6), tweak),
				intVals(8, 7), tweaked(Options{Seed: seed, StopOnConverged: true, AdversaryFeedback: true, MaxRounds: 10_000}, tweak)))
		}},
		{"partialmin/ring12/powerloss", func(seed int64, tweak variant) (string, error) {
			return summarize(Run[int](problemFor[int](&problems.Min{Partial: true}, tweak), envFor(env.NewPowerLoss(graph.Ring(12), 0.3), tweak),
				intVals(12, 9), tweaked(Options{Seed: seed, StopOnConverged: true, MaxRounds: 60_000}, tweak)))
		}},
		{"sum/complete10/pairwise", func(seed int64, tweak variant) (string, error) {
			return summarize(Run[int](problems.NewSum(), envFor(env.NewEdgeChurn(graph.Complete(10), 0.7), tweak),
				intVals(10, 11), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, Mode: PairwiseMode, MaxRounds: 10_000}, tweak)))
		}},
		{"gcd/star9/roundrobin", func(seed int64, tweak variant) (string, error) {
			vals := intVals(9, 13)
			for i := range vals {
				vals[i] = (vals[i] + 1) * 6
			}
			return summarize(Run[int](problemFor[int](problems.NewGCD(), tweak), envFor(env.NewRoundRobin(graph.Star(9)), tweak),
				vals, tweaked(Options{Seed: seed, StopOnConverged: true, MaxRounds: 10_000}, tweak)))
		}},
		{"sorting/line8/pairwise", func(seed int64, tweak variant) (string, error) {
			vals := []int{7, 2, 5, 0, 6, 1, 4, 3}
			p, err := problems.NewSorting(vals)
			if err != nil {
				return "", err
			}
			return summarize(Run[problems.Item](p, envFor(env.NewEdgeChurn(graph.Line(8), 0.8), tweak),
				problems.InitialItems(vals), tweaked(Options{Seed: seed, StopOnConverged: true, Mode: PairwiseMode, MaxRounds: 100_000}, tweak)))
		}},
		{"sorting/complete8/component", func(seed int64, tweak variant) (string, error) {
			vals := []int{7, 2, 5, 0, 6, 1, 4, 3}
			p, err := problems.NewSorting(vals)
			if err != nil {
				return "", err
			}
			return summarize(Run[problems.Item](p, envFor(env.NewEdgeChurn(graph.Complete(8), 0.6), tweak),
				problems.InitialItems(vals), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, MaxRounds: 100_000}, tweak)))
		}},
		{"minpair/complete6/churn0.6", func(seed int64, tweak variant) (string, error) {
			vals := []int{5, 2, 4, 1, 3, 0}
			return summarize(Run[problems.Pair](problems.NewMinPair(6, 8), envFor(env.NewEdgeChurn(graph.Complete(6), 0.6), tweak),
				problems.InitialPairs(vals), tweaked(Options{Seed: seed, StopOnConverged: true, MaxRounds: 10_000}, tweak)))
		}},
		{"hull/ring6/churn0.5", func(seed int64, tweak variant) (string, error) {
			pts := []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 1}, {X: 2, Y: 5}, {X: 6, Y: 3}, {X: 1, Y: 4}, {X: 5, Y: 5}}
			return summarize(Run[problems.HullState](problems.NewHull(pts), envFor(env.NewEdgeChurn(graph.Ring(6), 0.5), tweak),
				problems.InitialHulls(pts), tweaked(Options{Seed: seed, StopOnConverged: true, MaxRounds: 10_000}, tweak)))
		}},
		{"min/ring64/pairwise", func(seed int64, tweak variant) (string, error) {
			// Pairwise min with CheckSteps: the stepped pairs are the
			// differ candidates the matcher returns.
			return summarize(Run[int](problemFor[int](problems.NewMin(), tweak), envFor(env.NewEdgeChurn(graph.Ring(64), 0.6), tweak),
				intVals(64, 19), tweaked(Options{Seed: seed, StopOnConverged: true, CheckSteps: true, Mode: PairwiseMode, MaxRounds: 100_000}, tweak)))
		}},
		{"sum/complete24/pairwise", func(seed int64, tweak variant) (string, error) {
			// Sum carries no StutterOnEqual marker, so every usable edge
			// is a candidate: the matcher answers the whole matching.
			return summarize(Run[int](problems.NewSum(), envFor(env.NewEdgeChurn(graph.Complete(24), 0.7), tweak),
				intVals(24, 21), tweaked(Options{Seed: seed, StopOnConverged: true, Mode: PairwiseMode, MaxRounds: 10_000}, tweak)))
		}},
		{"min/ring16/no-stop-stability", func(seed int64, tweak variant) (string, error) {
			// StopOnConverged off: the run continues to MaxRounds and the
			// goal state must be stable (spec (4)); exercises the full-length
			// round loop and snapshot maintenance after convergence.
			return summarize(Run[int](problemFor[int](problems.NewMin(), tweak), envFor(env.NewEdgeChurn(graph.Ring(16), 0.8), tweak),
				intVals(16, 17), tweaked(Options{Seed: seed, MaxRounds: 120}, tweak)))
		}},
	}
}

// engineGoldens maps "case/seed" to the seed-engine summary.
var engineGoldens = map[string]string{
	"min/ring16/churn0.5/seed1":              "conv=true round=13 rounds=13 steps=18 msgs=80 viol=0 final=[2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2]",
	"min/ring16/churn0.5/seed2":              "conv=true round=6 rounds=6 steps=9 msgs=50 viol=0 final=[2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2]",
	"min/ring16/churn0.5/seed3":              "conv=true round=8 rounds=8 steps=16 msgs=66 viol=0 final=[2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2]",
	"min/complete12/partitioner/seed1":       "conv=true round=1 rounds=1 steps=1 msgs=22 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6]",
	"min/complete12/partitioner/seed2":       "conv=true round=1 rounds=1 steps=1 msgs=22 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6]",
	"min/complete12/partitioner/seed3":       "conv=true round=1 rounds=1 steps=1 msgs=22 viol=0 final=[6 6 6 6 6 6 6 6 6 6 6 6]",
	"min/complete8/adversary-feedback/seed1": "conv=true round=7 rounds=7 steps=4 msgs=20 viol=0 final=[9 9 9 9 9 9 9 9]",
	"min/complete8/adversary-feedback/seed2": "conv=true round=7 rounds=7 steps=2 msgs=20 viol=0 final=[9 9 9 9 9 9 9 9]",
	"min/complete8/adversary-feedback/seed3": "conv=true round=7 rounds=7 steps=3 msgs=20 viol=0 final=[9 9 9 9 9 9 9 9]",
	"partialmin/ring12/powerloss/seed1":      "conv=true round=7 rounds=7 steps=12 msgs=72 viol=0 final=[10 10 10 10 10 10 10 10 10 10 10 10]",
	"partialmin/ring12/powerloss/seed2":      "conv=true round=12 rounds=12 steps=13 msgs=96 viol=0 final=[10 10 10 10 10 10 10 10 10 10 10 10]",
	"partialmin/ring12/powerloss/seed3":      "conv=true round=13 rounds=13 steps=15 msgs=106 viol=0 final=[10 10 10 10 10 10 10 10 10 10 10 10]",
	"sum/complete10/pairwise/seed1":          "conv=true round=6 rounds=6 steps=9 msgs=18 viol=0 final=[325 0 0 0 0 0 0 0 0 0]",
	"sum/complete10/pairwise/seed2":          "conv=true round=47 rounds=47 steps=9 msgs=18 viol=0 final=[325 0 0 0 0 0 0 0 0 0]",
	"sum/complete10/pairwise/seed3":          "conv=true round=11 rounds=11 steps=9 msgs=18 viol=0 final=[325 0 0 0 0 0 0 0 0 0]",
	"gcd/star9/roundrobin/seed1":             "conv=true round=8 rounds=8 steps=8 msgs=16 viol=0 final=[6 6 6 6 6 6 6 6 6]",
	"gcd/star9/roundrobin/seed2":             "conv=true round=8 rounds=8 steps=8 msgs=16 viol=0 final=[6 6 6 6 6 6 6 6 6]",
	"gcd/star9/roundrobin/seed3":             "conv=true round=8 rounds=8 steps=8 msgs=16 viol=0 final=[6 6 6 6 6 6 6 6 6]",
	"sorting/line8/pairwise/seed1":           "conv=true round=19 rounds=19 steps=17 msgs=34 viol=0 final=[0:0 1:1 2:2 3:3 4:4 5:5 6:6 7:7]",
	"sorting/line8/pairwise/seed2":           "conv=true round=17 rounds=17 steps=17 msgs=34 viol=0 final=[0:0 1:1 2:2 3:3 4:4 5:5 6:6 7:7]",
	"sorting/line8/pairwise/seed3":           "conv=true round=19 rounds=19 steps=17 msgs=34 viol=0 final=[0:0 1:1 2:2 3:3 4:4 5:5 6:6 7:7]",
	"sorting/complete8/component/seed1":      "conv=true round=1 rounds=1 steps=1 msgs=14 viol=0 final=[0:0 1:1 2:2 3:3 4:4 5:5 6:6 7:7]",
	"sorting/complete8/component/seed2":      "conv=true round=1 rounds=1 steps=1 msgs=14 viol=0 final=[0:0 1:1 2:2 3:3 4:4 5:5 6:6 7:7]",
	"sorting/complete8/component/seed3":      "conv=true round=1 rounds=1 steps=1 msgs=14 viol=0 final=[0:0 1:1 2:2 3:3 4:4 5:5 6:6 7:7]",
	"minpair/complete6/churn0.6/seed1":       "conv=true round=1 rounds=1 steps=1 msgs=10 viol=0 final=[(0, 1) (0, 1) (0, 1) (0, 1) (0, 1) (0, 1)]",
	"minpair/complete6/churn0.6/seed2":       "conv=true round=1 rounds=1 steps=1 msgs=10 viol=0 final=[(0, 1) (0, 1) (0, 1) (0, 1) (0, 1) (0, 1)]",
	"minpair/complete6/churn0.6/seed3":       "conv=true round=1 rounds=1 steps=1 msgs=10 viol=0 final=[(0, 1) (0, 1) (0, 1) (0, 1) (0, 1) (0, 1)]",
	"hull/ring6/churn0.5/seed1":              "conv=true round=8 rounds=8 steps=4 msgs=26 viol=0 final=[agent@(0, 0) hull|6| agent@(4, 1) hull|6| agent@(2, 5) hull|6| agent@(6, 3) hull|6| agent@(1, 4) hull|6| agent@(5, 5) hull|6|]",
	"hull/ring6/churn0.5/seed2":              "conv=true round=6 rounds=6 steps=3 msgs=16 viol=0 final=[agent@(0, 0) hull|6| agent@(4, 1) hull|6| agent@(2, 5) hull|6| agent@(6, 3) hull|6| agent@(1, 4) hull|6| agent@(5, 5) hull|6|]",
	"hull/ring6/churn0.5/seed3":              "conv=true round=4 rounds=4 steps=5 msgs=24 viol=0 final=[agent@(0, 0) hull|6| agent@(4, 1) hull|6| agent@(2, 5) hull|6| agent@(6, 3) hull|6| agent@(1, 4) hull|6| agent@(5, 5) hull|6|]",
	"min/ring64/pairwise/seed1":              "conv=true round=70 rounds=70 steps=198 msgs=396 viol=0 final=[1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1]",
	"min/ring64/pairwise/seed2":              "conv=true round=90 rounds=90 steps=214 msgs=428 viol=0 final=[1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1]",
	"min/ring64/pairwise/seed3":              "conv=true round=86 rounds=86 steps=207 msgs=414 viol=0 final=[1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1]",
	"sum/complete24/pairwise/seed1":          "conv=true round=31 rounds=31 steps=23 msgs=46 viol=0 final=[1380 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]",
	"sum/complete24/pairwise/seed2":          "conv=true round=57 rounds=57 steps=23 msgs=46 viol=0 final=[1380 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]",
	"sum/complete24/pairwise/seed3":          "conv=true round=23 rounds=23 steps=23 msgs=46 viol=0 final=[1380 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]",
	"min/ring16/no-stop-stability/seed1":     "conv=true round=2 rounds=120 steps=2 msgs=40 viol=0 final=[1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1]",
	"min/ring16/no-stop-stability/seed2":     "conv=true round=3 rounds=120 steps=5 msgs=64 viol=0 final=[1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1]",
	"min/ring16/no-stop-stability/seed3":     "conv=true round=3 rounds=120 steps=6 msgs=76 viol=0 final=[1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1]",
}

func TestEngineEquivalenceGolden(t *testing.T) {
	if os.Getenv("SIM_GOLDEN_REGEN") != "" {
		for _, m := range []struct {
			name  string
			cases []goldenCase
		}{{"engineGoldens", goldenCases()}, {"joinGoldens", joinGoldenCases()}} {
			fmt.Printf("var %s = map[string]string{\n", m.name)
			for _, c := range m.cases {
				for _, s := range []int64{1, 2, 3} {
					got, err := c.run(s, variant{})
					if err != nil {
						t.Fatalf("%s/seed%d: %v", c.name, s, err)
					}
					fmt.Printf("\t%q: %q,\n", fmt.Sprintf("%s/seed%d", c.name, s), got)
				}
			}
			fmt.Println("}")
		}
		return
	}
	runGoldenCases(t, variant{})
}

// TestEngineEquivalenceGoldenExtraEnvDraws replays every cell of the
// equivalence and membership matrices with an environment that takes
// k ∈ {1, 7} extra draws from its stream after each Step. The
// environment's stream is reseeded every round and no other consumer
// reads it, so the extra draws must change nothing: every run matches
// its golden and reports the same per-round RoundInfo stream as the plain
// run.
func TestEngineEquivalenceGoldenExtraEnvDraws(t *testing.T) {
	for _, m := range []struct {
		cases   []goldenCase
		goldens map[string]string
	}{{goldenCases(), engineGoldens}, {joinGoldenCases(), joinGoldens}} {
		for _, c := range m.cases {
			for _, s := range []int64{1, 2, 3} {
				key := fmt.Sprintf("%s/seed%d", c.name, s)
				t.Run(key, func(t *testing.T) {
					var plain []RoundInfo
					if _, err := c.run(s, variant{opts: recordRounds(&plain)}); err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{1, 7} {
						var extra []RoundInfo
						got, err := c.run(s, variant{
							opts:    recordRounds(&extra),
							wrapEnv: func(e env.Environment) env.Environment { return extraDraws{e, k} },
						})
						if err != nil {
							t.Fatal(err)
						}
						if want := m.goldens[key]; got != want {
							t.Errorf("k=%d: diverged from the golden\n got: %s\nwant: %s", k, got, want)
						}
						if !slices.Equal(plain, extra) {
							t.Errorf("k=%d: RoundInfo streams differ\nplain: %v\nextra: %v", k, plain, extra)
						}
					}
				})
			}
		}
	}
}

// TestEngineEquivalenceGoldenParallel re-runs every golden cell with the
// worker pool forced on (threshold 1) and enough worker slots to actually
// interleave even on a single-CPU machine. Results must STILL match the
// sequential seed engine bit for bit: every group steps on a stream keyed
// on (run seed, round, smallest member), so scheduling cannot leak into
// results.
func TestEngineEquivalenceGoldenParallel(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	runGoldenCases(t, variant{opts: func(o *Options) { o.ParallelThreshold = 1 }})
}

// TestEngineEquivalenceGoldenSharded re-runs every golden cell with the
// sharded state layout forced on, for P ∈ {1, 4, GOMAXPROCS}. The shard
// trackers plus P-way merged snapshot must reproduce the seed engine bit
// for bit —
// the conservation law holds for any partition of the agent multiset, so
// the partition into shards cannot be observable in results.
func TestEngineEquivalenceGoldenSharded(t *testing.T) {
	for _, p := range []int{1, 4, goruntime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			runGoldenCases(t, variant{opts: func(o *Options) { o.Shards = p }})
		})
	}
}

// TestEngineEquivalenceGoldenShardedParallel forces sharding AND the
// worker pool on together — shard repairs and group steps both fan out,
// and results must still match the sequential seed engine exactly.
func TestEngineEquivalenceGoldenShardedParallel(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	runGoldenCases(t, variant{opts: func(o *Options) {
		o.Shards = 3 // deliberately not a divisor of any case's agent count
		o.ParallelThreshold = 1
	}})
}

// TestEngineEquivalenceGoldenStutterHidden re-runs every golden cell whose
// problem carries core.StutterOnEqual with the marker hidden, so every
// group steps in full instead of equal-state groups being skipped. The
// skip must be invisible: both runs match the recorded golden and report
// the same per-round RoundInfo stream. The one exception is a pairwise
// cell's ActiveGroups, which counts the pairs stepped: the marked run
// steps only the matched pairs whose endpoints differ, so it may count
// fewer, never more.
func TestEngineEquivalenceGoldenStutterHidden(t *testing.T) {
	marked := []string{
		"min/ring16/churn0.5", // component mode with CheckSteps
		"min/complete12/partitioner",
		"min/complete8/adversary-feedback",
		"partialmin/ring12/powerloss",
		"gcd/star9/roundrobin",
		"min/ring64/pairwise", // pairwise with CheckSteps
		"min/ring16/no-stop-stability",
	}
	found := 0
	for _, c := range goldenCases() {
		if !slices.Contains(marked, c.name) {
			continue
		}
		found++
		for _, s := range []int64{1, 2, 3} {
			key := fmt.Sprintf("%s/seed%d", c.name, s)
			t.Run(key, func(t *testing.T) {
				var skipped, full []RoundInfo
				hid := false
				gotSkipped, err := c.run(s, variant{opts: recordRounds(&skipped)})
				if err != nil {
					t.Fatal(err)
				}
				gotFull, err := c.run(s, variant{opts: recordRounds(&full), hideStutter: true, hid: &hid})
				if err != nil {
					t.Fatal(err)
				}
				if !hid {
					t.Fatal("the case's problem does not carry core.StutterOnEqual")
				}
				want := engineGoldens[key]
				if gotSkipped != want || gotFull != want {
					t.Errorf("diverged from the golden\nmarked: %s\nhidden: %s\n  want: %s", gotSkipped, gotFull, want)
				}
				if strings.Contains(c.name, "pairwise") {
					for i := range skipped {
						if i < len(full) && skipped[i].ActiveGroups > full[i].ActiveGroups {
							t.Fatalf("round %d: marked run stepped %d pairs, hidden run %d", i, skipped[i].ActiveGroups, full[i].ActiveGroups)
						}
						if i < len(full) {
							skipped[i].ActiveGroups = full[i].ActiveGroups
						}
					}
				}
				if !slices.Equal(skipped, full) {
					t.Errorf("RoundInfo streams differ\nmarked: %v\nhidden: %v", skipped, full)
				}
			})
		}
	}
	if found != len(marked) {
		t.Fatalf("found %d of the %d marked cells", found, len(marked))
	}
}

// TestEngineEquivalenceGoldenConsensusHidden replays every golden cell
// whose problem declares core.Consensus — in the equivalence and the
// membership matrices, one shard and three — with the declaration
// hidden, so the monitor judges every round on the merged view instead
// of the shards' extremes and its running h. Both runs must match the
// recorded golden and report the same per-round RoundInfo stream, whose
// H is the monitor's h.
func TestEngineEquivalenceGoldenConsensusHidden(t *testing.T) {
	consensus := []string{
		"min/ring16/churn0.5",
		"min/complete12/partitioner",
		"min/complete8/adversary-feedback",
		"partialmin/ring12/powerloss",
		"min/ring64/pairwise",
		"min/ring16/no-stop-stability",
		"min/ring12+join4ring/churn0.8",
		"min/complete10+join3pref/pairwise",
		"min/ring16+join2ring+amnesiacflap/churn0.9", // amnesia rebase and join
		"min/ring12/amnesiacflap/pairwise",
		"min/ring24+join4ring/pairwise",
	}
	record := func(dst *[]RoundInfo, shards int) func(*Options) {
		return func(o *Options) {
			o.Shards = shards
			o.OnRound = func(ri RoundInfo) { *dst = append(*dst, ri) }
		}
	}
	found := 0
	for _, m := range []struct {
		cases   []goldenCase
		goldens map[string]string
	}{{goldenCases(), engineGoldens}, {joinGoldenCases(), joinGoldens}} {
		for _, c := range m.cases {
			if !slices.Contains(consensus, c.name) {
				continue
			}
			found++
			for _, s := range []int64{1, 2, 3} {
				for _, shards := range []int{1, 3} {
					key := fmt.Sprintf("%s/seed%d", c.name, s)
					t.Run(fmt.Sprintf("%s/shards=%d", key, shards), func(t *testing.T) {
						var marked, hidden []RoundInfo
						hid := false
						gotMarked, err := c.run(s, variant{opts: record(&marked, shards)})
						if err != nil {
							t.Fatal(err)
						}
						gotHidden, err := c.run(s, variant{opts: record(&hidden, shards), hideConsensus: true, hid: &hid})
						if err != nil {
							t.Fatal(err)
						}
						if !hid {
							t.Fatal("the case's problem does not declare core.Consensus")
						}
						if want := m.goldens[key]; gotMarked != want || gotHidden != want {
							t.Errorf("diverged from the golden\nmarked: %s\nhidden: %s\n  want: %s", gotMarked, gotHidden, want)
						}
						if !slices.Equal(marked, hidden) {
							t.Errorf("RoundInfo streams differ\nmarked: %v\nhidden: %v", marked, hidden)
						}
					})
				}
			}
		}
	}
	if found != len(consensus) {
		t.Fatalf("found %d of the %d consensus cells", found, len(consensus))
	}
}

func runGoldenCases(t *testing.T, tweak variant) {
	t.Helper()
	for _, c := range goldenCases() {
		for _, s := range []int64{1, 2, 3} {
			key := fmt.Sprintf("%s/seed%d", c.name, s)
			t.Run(key, func(t *testing.T) {
				got, err := c.run(s, tweak)
				if err != nil {
					t.Fatal(err)
				}
				want, ok := engineGoldens[key]
				if !ok {
					t.Fatalf("no golden recorded for %s; run with SIM_GOLDEN_REGEN=1", key)
				}
				if got != want {
					t.Errorf("engine diverged from seed engine\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
}
