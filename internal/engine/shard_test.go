package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	ms "repro/internal/multiset"
	"repro/internal/problems"
)

// TestShardsViewMatchesTracker: for random populations, shard counts, and
// delta batches, the merged shard view must equal the single-tracker
// snapshot after every flush.
func TestShardsViewMatchesTracker(t *testing.T) {
	cmp := ms.OrderedCmp[int]()
	rng := rand.New(rand.NewSource(17))
	pool := NewPool(2, 1)
	defer pool.Close()
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		p := 1 + rng.Intn(8)
		states := make([]int, n)
		for i := range states {
			states[i] = rng.Intn(20)
		}
		sh := NewShards(cmp, states, p)
		tr := ms.NewTracker(cmp, states)
		if sh.Len() != n {
			t.Fatalf("trial %d: sharded Len %d, want %d", trial, sh.Len(), n)
		}
		for round := 0; round < 10; round++ {
			// Mutate a random subset of agents (each at most once).
			var olds, news []int
			for a := 0; a < n; a++ {
				if rng.Intn(3) != 0 {
					continue
				}
				nv := rng.Intn(20)
				sh.Stage(a, states[a], nv)
				olds = append(olds, states[a])
				news = append(news, nv)
				states[a] = nv
			}
			sh.Flush(pool)
			tr.Replace(olds, news)
			if got, want := sh.View(), tr.View(); !got.Equal(want) {
				t.Fatalf("trial %d round %d: sharded view %v != tracker %v (p=%d)",
					trial, round, got, want, p)
			}
		}
	}
}

// TestShardsOwnerCoversAllAgents: every agent maps to a valid shard and
// block boundaries tile the index space.
func TestShardsOwnerCoversAllAgents(t *testing.T) {
	cmp := ms.OrderedCmp[int]()
	for _, n := range []int{1, 2, 7, 16, 33} {
		for _, p := range []int{1, 2, 3, 8, 64} {
			states := make([]int, n)
			sh := NewShards(cmp, states, p)
			counts := make([]int, sh.P())
			for a := 0; a < n; a++ {
				o := sh.Owner(a)
				if o < 0 || o >= sh.P() {
					t.Fatalf("n=%d p=%d: owner(%d) = %d out of range [0,%d)", n, p, a, o, sh.P())
				}
				counts[o]++
			}
			total := 0
			for i, c := range counts {
				if c != sh.ShardView(i).Len() {
					t.Fatalf("n=%d p=%d: shard %d owns %d agents but tracks %d", n, p, i, c, sh.ShardView(i).Len())
				}
				total += c
			}
			if total != n {
				t.Fatalf("n=%d p=%d: owners cover %d agents", n, p, total)
			}
		}
	}
}

// secondSmallestProblem overrides Min's f with the §4.3 negative example:
// idempotent but NOT super-idempotent. Embedding the problem interface
// drops Min's core.Consensus declaration, which the overridden f does
// not satisfy.
type secondSmallestProblem struct{ core.Problem[int] }

func (secondSmallestProblem) F() core.Function[int] { return problems.SecondSmallestF() }

// TestObserveRoundShardedMatchesUnsharded: a monitor fed the merged view
// of P shards must produce the same h values and the same violations as a
// monitor fed a one-shard view, for super-idempotent and merely
// idempotent f alike, across a run of random min-adoption pair steps.
// The unchanged-state case is the one a per-shard partial-image
// reduction would get wrong for the merely idempotent f: S = {1,2,3}
// split {1,2} | {3} gives f(f({1,2}) ∪ f({3})) = f({2,2,3}) = {3,3,3} ≠
// f(S) = {2,2,2}.
func TestObserveRoundShardedMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random := make([]int, 24)
	for i := range random {
		random[i] = rng.Intn(50)
	}
	secondSmallest := secondSmallestProblem{problems.NewMin()}
	cases := []struct {
		name    string
		p       core.Problem[int]
		states  []int
		shards  []int
		rounds  int
		stepped bool // each round makes one random min-adoption pair step
		clean   bool // no violation expected
	}{
		{"min", problems.NewMin(), random, []int{1, 3, 8}, 8, true, true},
		{"second-smallest-unchanged", secondSmallest, []int{1, 2, 3}, []int{2}, 1, false, true},
		{"second-smallest-stepped", secondSmallest, random, []int{3, 8}, 8, true, false},
	}
	pool := NewPool(4, 1)
	defer pool.Close()
	for _, c := range cases {
		for _, p := range c.shards {
			t.Run(fmt.Sprintf("%s/p=%d", c.name, p), func(t *testing.T) {
				cmp := c.p.Cmp()
				sh := NewShards(cmp, c.states, p)
				one := NewShards(cmp, c.states, 1)
				monSharded := NewMonitor(c.p, sh, pool)
				monPlain := NewMonitor(c.p, one, pool)
				work := append([]int(nil), c.states...)
				stepRng := rand.New(rand.NewSource(int64(p)))
				for round := 0; round < c.rounds; round++ {
					a, b := stepRng.Intn(len(work)), stepRng.Intn(len(work))
					if c.stepped && a != b && work[a] != work[b] {
						m := min(work[a], work[b])
						for _, x := range [...]*Shards[int]{sh, one} {
							x.Stage(a, work[a], m)
							x.Stage(b, work[b], m)
							x.Flush(pool)
						}
						for _, mon := range [...]*Monitor[int]{monSharded, monPlain} {
							mon.Stage(work[a], m)
							mon.Stage(work[b], m)
						}
						work[a], work[b] = m, m
					}
					hS := monSharded.ObserveRound(round, sh)
					hP := monPlain.ObserveRound(round, one)
					if hS != hP {
						t.Fatalf("round %d: sharded h %g != plain h %g", round, hS, hP)
					}
				}
				vS, vP := monSharded.Violations(), monPlain.Violations()
				if !slices.Equal(vS, vP) {
					t.Fatalf("layout-dependent verdicts: sharded %v, plain %v", vS, vP)
				}
				if c.clean && len(vS) != 0 {
					t.Fatalf("violations on a valid run: %v", vS)
				}
			})
		}
	}
}

// TestObserveRoundShardedDetectsViolation: breaking conservation in one
// shard must be caught by the check on the merged view.
func TestObserveRoundShardedDetectsViolation(t *testing.T) {
	pool := NewPool(1, 1)
	defer pool.Close()
	pr := problems.NewMin()
	states := []int{4, 7, 2, 9, 5, 1}
	sh := NewShards(pr.Cmp(), states, 3)
	mon := NewMonitor[int](pr, sh, pool)
	// Agent 5 (last shard) holds the only 1, the global minimum; losing it
	// changes f(S).
	sh.Stage(5, 1, 3)
	sh.Flush(pool)
	if fx, _ := core.ApplyInto(pr.F(), nil, sh.View()); pr.Equal(fx, mon.Target()) {
		t.Fatal("test setup: the staged delta must break conservation")
	}
	mon.Stage(1, 3)
	mon.ObserveRound(0, sh)
	if v := mon.Violations(); len(v) == 0 || !strings.Contains(v[0], "conservation law violated") {
		t.Fatalf("conservation violation not detected through sharded reduction: %v", v)
	}
}

// TestMinFKeepsIntoFastPath: min's f provides the core.IntoFunction fast
// path the full-path monitor evaluates into its reused buffer.
func TestMinFKeepsIntoFastPath(t *testing.T) {
	if _, ok := problems.MinF().(core.IntoFunction[int]); !ok {
		t.Error("min's f lost its IntoFunction fast path")
	}
}

// TestPoolDoAllBypassesThreshold: DoAll must fan out even when the batch
// is below the pool's engagement threshold.
func TestPoolDoAllBypassesThreshold(t *testing.T) {
	pool := NewPool(4, 1000)
	defer pool.Close()
	got := make([]int, 8)
	pool.DoAll(len(got), func(_, i int) { got[i] = i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("item %d not executed (got %d)", i, v)
		}
	}
	// And Do must still honor the threshold (runs serially, worker 0 only).
	workers := make([]int, 8)
	pool.Do(len(workers), func(w, i int) { workers[i] = w })
	for i, w := range workers {
		if w != 0 {
			t.Fatalf("below-threshold Do used worker %d for item %d", w, i)
		}
	}
}

// TestApplyIntoFastPaths: the IntoFunction fast paths must agree with
// Apply bit for bit — the monitor builds S* from ApplyInto, so a fast
// path that merely compared Equal could still move a golden — on
// randomized inputs and on the empty multiset, and allocate nothing once
// warm. It covers all five fast paths: min, max, sum and gcd over int,
// and the average over float64.
func TestApplyIntoFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, f := range []core.Function[int]{problems.MinF(), problems.MaxF(), problems.SumF(), problems.GCDF()} {
		checkApplyInto(t, f, ms.OrderedCmp[int](), func(a, b int) bool { return a == b },
			func() int { return rng.Intn(61) - 30 })
	}
	checkApplyInto(t, problems.AverageF(), ms.OrderedCmp[float64](),
		func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) },
		func() float64 { return rng.NormFloat64() * 1e3 })

	// Result.Target retains S*, so each Reset of a warm monitor must fill
	// the target into fresh storage: a reused buffer would overwrite the
	// previous run's target in place.
	t.Run("monitor targets do not alias", func(t *testing.T) {
		p := problems.NewMin()
		m := monitorOf(p, 5, 3, 9, 4)
		first := m.Target()
		m.Reset(p, NewShards(p.Cmp(), []int{8, 7, 6, 9}, 1), NewPool(1, 1))
		if want := ms.OfInts(3, 3, 3, 3); !first.Equal(want) {
			t.Fatalf("the first run's target became %v after a Reset, want %v", first, want)
		}
		if want := ms.OfInts(6, 6, 6, 6); !m.Target().Equal(want) {
			t.Fatalf("second target = %v, want %v", m.Target(), want)
		}
	})
}

// checkApplyInto is TestApplyIntoFastPaths for one f: same is bit
// equality on T and draw one random element.
func checkApplyInto[T any](t *testing.T, f core.Function[T], cmp ms.Cmp[T], same func(a, b T) bool, draw func() T) {
	t.Helper()
	if _, ok := f.(core.IntoFunction[T]); !ok {
		t.Errorf("%s does not implement the IntoFunction fast path", f.Name())
		return
	}
	identical := func(a, b ms.Multiset[T]) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !same(a.At(i), b.At(i)) {
				return false
			}
		}
		return true
	}
	var buf []T
	for trial := 0; trial < 100; trial++ {
		vals := make([]T, trial%11) // trial%11 == 0: the empty multiset
		for i := range vals {
			vals[i] = draw()
		}
		x := ms.New(cmp, vals...)
		var got ms.Multiset[T]
		got, buf = core.ApplyInto(f, buf, x)
		if want := f.Apply(x); !identical(got, want) {
			t.Fatalf("%s: ApplyInto(%v) = %v, want %v", f.Name(), x, got, want)
		}
	}
	x := ms.New(cmp, draw(), draw(), draw(), draw(), draw())
	allocs := testing.AllocsPerRun(100, func() {
		_, buf = core.ApplyInto(f, buf, x)
	})
	if allocs != 0 {
		t.Errorf("%s: warm ApplyInto allocated %.0f times per run", f.Name(), allocs)
	}
}
