package engine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// randomMasks draws edge/agent availability masks (sometimes nil, the
// all-up convention).
func randomMasks(g *graph.Graph, rng *rand.Rand) (edgeUp, agentUp []bool) {
	if rng.Intn(4) != 0 {
		edgeUp = make([]bool, g.M())
		for i := range edgeUp {
			edgeUp[i] = rng.Float64() < 0.7
		}
	}
	if rng.Intn(4) != 0 {
		agentUp = make([]bool, g.N())
		for i := range agentUp {
			agentUp[i] = rng.Float64() < 0.8
		}
	}
	return edgeUp, agentUp
}

// match is the test shorthand for the full-rescan Update followed by
// Match — the unprimed path every caller without a change stream uses.
func match(m *PairMatcher, edgeUp, agentUp []bool, seed int64, pool *Pool) []int {
	m.Update(bitset.FromBools(edgeUp), bitset.FromBools(agentUp), nil, nil, false)
	ids, _ := m.Match(seed, pool, nil)
	return ids
}

// TestPairMatcherValidMaximal: on random graphs, masks, blocks, and
// seeds, the matching must be a valid matching (no shared endpoints, only
// usable edges) and maximal (no usable edge with both endpoints free).
func TestPairMatcherValidMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pool := NewPool(3, 1)
	defer pool.Close()
	for trial := 0; trial < 80; trial++ {
		g := graph.ErdosRenyi(2+rng.Intn(30), 0.3, rng)
		m := NewPairMatcher(g, 1+rng.Intn(5))
		for round := 0; round < 4; round++ {
			edgeUp, agentUp := randomMasks(g, rng)
			ids := match(m, edgeUp, agentUp, rng.Int63(), pool)
			claimed := make([]bool, g.N())
			usable := func(id int) bool {
				e := g.Edge(id)
				return (edgeUp == nil || edgeUp[id]) &&
					(agentUp == nil || (agentUp[e.A] && agentUp[e.B]))
			}
			for _, id := range ids {
				e := g.Edge(id)
				if !usable(id) {
					t.Fatalf("trial %d: matched unusable edge %v", trial, e)
				}
				if claimed[e.A] || claimed[e.B] {
					t.Fatalf("trial %d: agent matched twice at edge %v", trial, e)
				}
				claimed[e.A], claimed[e.B] = true, true
				if !m.Matched(e.A) || !m.Matched(e.B) {
					t.Fatalf("trial %d: Matched() disagrees with result at %v", trial, e)
				}
			}
			for id := 0; id < g.M(); id++ {
				e := g.Edge(id)
				if usable(id) && !claimed[e.A] && !claimed[e.B] {
					t.Fatalf("trial %d: matching not maximal — usable edge %v has both endpoints free", trial, e)
				}
			}
		}
	}
}

// TestPairMatcherPoolIndependent: the matched id sequence is a function
// of (seed, partition, masks) only — identical for every pool size and
// across repeated/interleaved calls (scratch reuse must not leak state
// between rounds).
func TestPairMatcherPoolIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.ErdosRenyi(48, 0.2, rng)
	seeds := []int64{1, 7, 42}
	var want [][]int
	for _, poolSize := range []int{1, 2, 8} {
		pool := NewPool(poolSize, 1)
		m := NewPairMatcher(g, 5)
		var got [][]int
		for _, seed := range seeds {
			edgeUp := make([]bool, g.M())
			maskRng := rand.New(rand.NewSource(seed))
			for i := range edgeUp {
				edgeUp[i] = maskRng.Float64() < 0.8
			}
			got = append(got, slices.Clone(match(m, edgeUp, nil, seed, pool)))
		}
		if want == nil {
			want = got
		} else {
			for i := range got {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("pool size %d, seed %d: matching %v != reference %v",
						poolSize, seeds[i], got[i], want[i])
				}
			}
		}
		pool.Close()
	}
}

// TestPairMatcherBlockCountChangesDrawOnly: different block counts may
// draw different matchings (they are part of the algorithm, like the
// seed), but each must still be valid and deterministic for a fixed
// count. Guards against accidentally tying the partition to GOMAXPROCS.
func TestPairMatcherBlockCountChangesDrawOnly(t *testing.T) {
	g := graph.Ring(24)
	pool := NewPool(2, 1)
	defer pool.Close()
	for _, blocks := range []int{1, 2, 3, 24, 100} {
		a := NewPairMatcher(g, blocks)
		b := NewPairMatcher(g, blocks)
		for seed := int64(0); seed < 5; seed++ {
			if !slices.Equal(match(a, nil, nil, seed, pool), match(b, nil, nil, seed, pool)) {
				t.Fatalf("blocks=%d seed=%d: two matchers over the same inputs disagree", blocks, seed)
			}
		}
		if got := a.Blocks(); blocks >= 1 && blocks <= 24 && got != blocks {
			t.Fatalf("Blocks() = %d, want %d", got, blocks)
		}
	}
}

// TestPairMatcherAllocFree: warm Update+Match rounds must not allocate —
// the index and matching buffers are engine-owned, like the component
// path's. Exercises both the full-rescan and the exact-delta Update.
func TestPairMatcherAllocFree(t *testing.T) {
	g := graph.Torus(8, 8)
	pool := NewPool(1, 1)
	defer pool.Close()
	m := NewPairMatcher(g, 4)
	edgeUp := bitset.New(g.M())
	for i := 0; i < g.M(); i++ {
		edgeUp.SetTo(i, i%3 != 0)
	}
	touched := []int{0, 1, 2}
	seed := int64(0)
	m.Update(edgeUp, bitset.Set{}, nil, nil, false)
	m.Match(seed, pool, nil) // warm-up growth
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		m.Update(edgeUp, bitset.Set{}, nil, nil, false)
		m.Match(seed, pool, nil)
	})
	if allocs != 0 {
		t.Errorf("warm rescan Update+Match allocated %.0f times per run", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		seed++
		edgeUp.SetTo(0, seed%2 == 0)
		m.Update(edgeUp, bitset.Set{}, touched, nil, true)
		m.Match(seed, pool, nil)
	})
	if allocs != 0 {
		t.Errorf("warm delta Update+Match allocated %.0f times per run", allocs)
	}
}

// TestPairMatcherKeepFilter pins Match's filter contract: with a keep
// predicate, the returned ids are exactly the subsequence of the
// unfiltered Match whose pairs keep accepts, while the matched count and
// Matched(agent) are identical — the filter never changes which pairs
// claim, so a matcher that skipped the claim for a filtered pair would
// fail here.
func TestPairMatcherKeepFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, poolSize := range []int{1, 4} {
		pool := NewPool(poolSize, 1)
		for trial := 0; trial < 40; trial++ {
			g := graph.ErdosRenyi(2+rng.Intn(60), 0.05+0.3*rng.Float64(), rng)
			label := make([]int, g.N())
			for i := range label {
				label[i] = rng.Intn(3)
			}
			keeps := []struct {
				name string
				keep func(a, b int) bool
			}{
				{"never", func(int, int) bool { return false }},
				{"always", func(int, int) bool { return true }},
				{"labels-differ", func(a, b int) bool { return label[a] != label[b] }},
				{"odd-sum", func(a, b int) bool { return (a+b)%2 == 1 }},
			}
			for _, blocks := range []int{1, 3, 8} {
				m := NewPairMatcher(g, blocks)
				for round := 0; round < 3; round++ {
					edgeUp, agentUp := randomMasks(g, rng)
					seed := rng.Int63()
					all := slices.Clone(match(m, edgeUp, agentUp, seed, pool))
					_, wantMatched := m.Match(seed, pool, nil)
					claimed := make([]bool, g.N())
					for a := range claimed {
						claimed[a] = m.Matched(a)
					}
					if wantMatched != len(all) {
						t.Fatalf("pool=%d trial %d blocks=%d: unfiltered matched = %d, %d ids", poolSize, trial, blocks, wantMatched, len(all))
					}
					for _, k := range keeps {
						var want []int
						for _, id := range all {
							if e := g.Edge(id); k.keep(e.A, e.B) {
								want = append(want, id)
							}
						}
						got, matched := m.Match(seed, pool, k.keep)
						if !slices.Equal(got, want) {
							t.Fatalf("pool=%d trial %d blocks=%d keep=%s: ids %v, want %v", poolSize, trial, blocks, k.name, got, want)
						}
						if matched != wantMatched {
							t.Fatalf("pool=%d trial %d blocks=%d keep=%s: matched = %d, want %d", poolSize, trial, blocks, k.name, matched, wantMatched)
						}
						for a := range claimed {
							if m.Matched(a) != claimed[a] {
								t.Fatalf("pool=%d trial %d blocks=%d keep=%s: Matched(%d) = %v, want %v", poolSize, trial, blocks, k.name, a, m.Matched(a), claimed[a])
							}
						}
					}
				}
			}
		}
		pool.Close()
	}
}
