package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/problems"
)

// fingerprint flattens everything observable about a Result into one
// string, so warm-scratch runs can be compared bit for bit against
// single-use runs.
func fingerprint(res *Result[int]) string {
	return fmt.Sprintf("conv=%v round=%d rounds=%d steps=%d msgs=%d viol=%v final=%v target=%s",
		res.Converged, res.Round, res.Rounds, res.GroupSteps, res.Messages,
		res.Violations, res.Final, res.Target.String())
}

// TestRunWithScratchReuseBitIdentical drives one Scratch through a
// heterogeneous sequence of runs — different problems, environments,
// graph sizes, modes, and state layouts — and requires every result to
// match an independent single-use Run bit for bit. This is the warm-
// engine contract the scenario-sweep runner depends on: nothing
// observable may leak from one run into the next through the reused
// trackers, matchers, monitor, streams, or arenas.
func TestRunWithScratchReuseBitIdentical(t *testing.T) {
	sc := NewScratch[int]()
	defer sc.Close()

	mkVals := func(n int, seed int64) []int {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = int((int64(i)*seed*2654435761 + seed) % int64(4*n))
			if vals[i] < 0 {
				vals[i] = -vals[i]
			}
		}
		return vals
	}

	type spec struct {
		name    string
		p       core.Problem[int]
		e       func() env.Environment
		initial []int
		opts    Options
	}
	ring32 := graph.Ring(32)
	ring64 := graph.Ring(64)
	k16 := graph.Complete(16)
	specs := []spec{
		{"min/ring32/component", problems.NewMin(),
			func() env.Environment { return env.NewEdgeChurn(ring32, 0.6) },
			mkVals(32, 3), Options{Seed: 3, StopOnConverged: true, MaxRounds: 60_000}},
		{"min/ring64/sharded", problems.NewMin(),
			func() env.Environment { return env.NewEdgeChurn(ring64, 0.7) },
			mkVals(64, 5), Options{Seed: 5, StopOnConverged: true, MaxRounds: 60_000, Shards: 4, ParallelThreshold: 1}},
		{"sum/k16/pairwise", problems.NewSum(),
			func() env.Environment { return env.NewEdgeChurn(k16, 0.8) },
			mkVals(16, 7), Options{Seed: 7, StopOnConverged: true, MaxRounds: 60_000, Mode: PairwiseMode}},
		{"gcd/ring32/component", problems.NewGCD(),
			func() env.Environment { return env.NewEdgeChurn(ring32, 0.5) },
			func() []int {
				v := mkVals(32, 9)
				for i := range v {
					v[i] = (v[i] + 1) * 6
				}
				return v
			}(), Options{Seed: 9, StopOnConverged: true, MaxRounds: 60_000}},
		// Revisit the first shape so buffers sized by a LARGER run are
		// re-entered by a smaller one.
		{"min/ring32/component/revisit", problems.NewMin(),
			func() env.Environment { return env.NewEdgeChurn(ring32, 0.6) },
			mkVals(32, 11), Options{Seed: 11, StopOnConverged: true, MaxRounds: 60_000}},
		// Pairwise min on the ring the component runs used: the matcher
		// cache must key on the graph, not just last use.
		{"min/ring32/pairwise", problems.NewMin(),
			func() env.Environment { return env.NewEdgeChurn(ring32, 0.9) },
			mkVals(32, 13), Options{Seed: 13, StopOnConverged: true, MaxRounds: 60_000, Mode: PairwiseMode}},
	}

	for _, s := range specs {
		warm, err := RunWith[int](sc, s.p, s.e(), s.initial, s.opts)
		if err != nil {
			t.Fatalf("%s: warm: %v", s.name, err)
		}
		cold, err := Run[int](s.p, s.e(), s.initial, s.opts)
		if err != nil {
			t.Fatalf("%s: cold: %v", s.name, err)
		}
		if got, want := fingerprint(warm), fingerprint(cold); got != want {
			t.Errorf("%s: warm-scratch result diverged from single-use Run\nwarm: %s\ncold: %s", s.name, got, want)
		}
		if !warm.Converged {
			t.Errorf("%s: did not converge", s.name)
		}
	}
}

// TestRunWithResultsDoNotAliasScratch pins the ownership contract: a
// Result returned by RunWith must stay intact after the Scratch executes
// another run (Final, Target, and Violations are caller-owned copies).
func TestRunWithResultsDoNotAliasScratch(t *testing.T) {
	sc := NewScratch[int]()
	defer sc.Close()

	g := graph.Ring(16)
	vals1 := []int{9, 4, 7, 1, 8, 2, 6, 5, 15, 11, 3, 14, 10, 13, 12, 16}
	res1, err := RunWith[int](sc, problems.NewMin(), env.NewEdgeChurn(g, 0.7), vals1,
		Options{Seed: 1, StopOnConverged: true, MaxRounds: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	fp1 := fingerprint(res1)
	finalCopy := append([]int(nil), res1.Final...)
	targetCopy := res1.Target.String()

	// A different run overwrites every scratch buffer.
	vals2 := []int{31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 2}
	if _, err := RunWith[int](sc, problems.NewSum(), env.NewEdgeChurn(graph.Complete(16), 0.9), vals2,
		Options{Seed: 2, StopOnConverged: true, MaxRounds: 60_000, Mode: PairwiseMode}); err != nil {
		t.Fatal(err)
	}

	if got := fingerprint(res1); got != fp1 {
		t.Errorf("first result mutated by later run:\nbefore: %s\nafter:  %s", fp1, got)
	}
	if !ms.OfInts(res1.Final...).Equal(ms.OfInts(finalCopy...)) {
		t.Error("Final aliased scratch state")
	}
	if res1.Target.String() != targetCopy {
		t.Error("Target aliased scratch state")
	}
}
