package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
func match(m *PairMatcher, edgeUp, agentUp []bool, seed int64, pool *Pool) []graph.Edge {
	m.Update(bitset.FromBools(edgeUp), bitset.FromBools(agentUp), nil, nil, false)
	pairs, _ := m.Match(seed, pool, bitset.Set{})
	return pairs
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
			pairs := match(m, edgeUp, agentUp, rng.Int63(), pool)
			claimed := make([]bool, g.N())
			usable := func(id int) bool {
				e := g.Edge(id)
				return (edgeUp == nil || edgeUp[id]) &&
					(agentUp == nil || (agentUp[e.A] && agentUp[e.B]))
			}
			for _, e := range pairs {
				if id, ok := g.EdgeID(e.A, e.B); !ok || !usable(id) {
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

// TestPairMatcherPoolIndependent: the matched pair sequence is a function
// of (seed, partition, masks) only — identical for every pool size and
// across repeated/interleaved calls (scratch reuse must not leak state
// between rounds).
func TestPairMatcherPoolIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.ErdosRenyi(48, 0.2, rng)
	seeds := []int64{1, 7, 42}
	var want [][]graph.Edge
	for _, poolSize := range []int{1, 2, 8} {
		pool := NewPool(poolSize, 1)
		m := NewPairMatcher(g, 5)
		var got [][]graph.Edge
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
// path's. Exercises both the full-rescan and the exact-delta Update, and
// both the keep-all and a filtering keep set.
func TestPairMatcherAllocFree(t *testing.T) {
	g := graph.Torus(8, 8)
	pool := NewPool(1, 1)
	defer pool.Close()
	m := NewPairMatcher(g, 4)
	edgeUp := bitset.New(g.M())
	for i := 0; i < g.M(); i++ {
		edgeUp.SetTo(i, i%3 != 0)
	}
	keep := bitset.New(g.M())
	for i := 0; i < g.M(); i += 5 {
		keep.Set(i)
	}
	touched := []int{0, 1, 2}
	for _, k := range []struct {
		name string
		keep bitset.Set
	}{{"keep-all", bitset.Set{}}, {"keep-set", keep}} {
		seed := int64(0)
		m.Update(edgeUp, bitset.Set{}, nil, nil, false)
		m.Match(seed, pool, k.keep) // warm-up growth
		allocs := testing.AllocsPerRun(50, func() {
			seed++
			m.Update(edgeUp, bitset.Set{}, nil, nil, false)
			m.Match(seed, pool, k.keep)
		})
		if allocs != 0 {
			t.Errorf("%s: warm rescan Update+Match allocated %.0f times per run", k.name, allocs)
		}
		allocs = testing.AllocsPerRun(50, func() {
			seed++
			edgeUp.SetTo(0, seed%2 == 0)
			m.Update(edgeUp, bitset.Set{}, touched, nil, true)
			m.Match(seed, pool, k.keep)
		})
		if allocs != 0 {
			t.Errorf("%s: warm delta Update+Match allocated %.0f times per run", k.name, allocs)
		}
	}
}

// TestPairMatcherKeepFilter pins Match's filter contract: with a keep
// set, the returned pairs are exactly the subsequence of the unfiltered
// Match whose edge ids keep holds, while the matched count and
// Matched(agent) are identical — the filter never changes which pairs
// claim, so a matcher that skipped the claim for a filtered pair would
// fail here. The four keeps are predicates over a pair's endpoints,
// materialized as edge-id sets the way the sim engine's endpoints-differ
// index is.
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
			preds := []struct {
				name string
				keep func(a, b int) bool
			}{
				{"never", func(int, int) bool { return false }},
				{"always", func(int, int) bool { return true }},
				{"labels-differ", func(a, b int) bool { return label[a] != label[b] }},
				{"odd-sum", func(a, b int) bool { return (a+b)%2 == 1 }},
			}
			keeps := make([]bitset.Set, len(preds))
			for k, p := range preds {
				keeps[k] = bitset.New(g.M())
				for id := 0; id < g.M(); id++ {
					e := g.Edge(id)
					keeps[k].SetTo(id, p.keep(e.A, e.B))
				}
			}
			for _, blocks := range []int{1, 3, 8} {
				m := NewPairMatcher(g, blocks)
				for round := 0; round < 3; round++ {
					edgeUp, agentUp := randomMasks(g, rng)
					seed := rng.Int63()
					all := slices.Clone(match(m, edgeUp, agentUp, seed, pool))
					_, wantMatched := m.Match(seed, pool, bitset.Set{})
					claimed := make([]bool, g.N())
					for a := range claimed {
						claimed[a] = m.Matched(a)
					}
					if wantMatched != len(all) {
						t.Fatalf("pool=%d trial %d blocks=%d: unfiltered matched = %d, %d pairs", poolSize, trial, blocks, wantMatched, len(all))
					}
					for k, p := range preds {
						var want []graph.Edge
						for _, e := range all {
							if p.keep(e.A, e.B) {
								want = append(want, e)
							}
						}
						got, matched := m.Match(seed, pool, keeps[k])
						if !slices.Equal(got, want) {
							t.Fatalf("pool=%d trial %d blocks=%d keep=%s: pairs %v, want %v", poolSize, trial, blocks, p.name, got, want)
						}
						if matched != wantMatched {
							t.Fatalf("pool=%d trial %d blocks=%d keep=%s: matched = %d, want %d", poolSize, trial, blocks, p.name, matched, wantMatched)
						}
						for a := range claimed {
							if m.Matched(a) != claimed[a] {
								t.Fatalf("pool=%d trial %d blocks=%d keep=%s: Matched(%d) = %v, want %v", poolSize, trial, blocks, p.name, a, m.Matched(a), claimed[a])
							}
						}
					}
				}
			}
		}
		pool.Close()
	}
}

// TestPairMatcherPinnedDraw pins the drawn matching itself: an FNV-64
// digest of every (kept pairs in order, matched count) over Ring, Grid
// and random graphs × blocks {1, 4}, with edges and agents down, × a
// keep-all, an all-clear and a half-set keep, over 8 seeds each. The
// digests were recorded from the matcher that shuffled edge ids with
// rand.Shuffle and filtered through a per-pair closure; a kernel that
// draws a different permutation, claims differently or orders its output
// differently moves them.
func TestPairMatcherPinnedDraw(t *testing.T) {
	want := map[string]uint64{
		"ring(97)/blocks1":     0xe8f20d4bf7fc1afc,
		"ring(97)/blocks4":     0x574eece609cd1fae,
		"grid(9x11)/blocks1":   0x954fce49e55ce485,
		"grid(9x11)/blocks4":   0xae50283a98b251ae,
		"gnp(80,0.08)/blocks1": 0x26bee5c657cacaa7,
		"gnp(80,0.08)/blocks4": 0xa228699913cbb9fd,
	}
	pool := NewPool(2, 1)
	defer pool.Close()
	graphs := []*graph.Graph{
		graph.Ring(97),
		graph.Grid(9, 11),
		graph.ErdosRenyi(80, 0.08, rand.New(rand.NewSource(67))),
	}
	for _, g := range graphs {
		for _, blocks := range []int{1, 4} {
			name := fmt.Sprintf("%s/blocks%d", g.Name(), blocks)
			mr := rand.New(rand.NewSource(int64(g.M()*10 + blocks)))
			edgeUp, agentUp := bitset.New(g.M()), bitset.New(g.N())
			for i := 0; i < g.M(); i++ {
				edgeUp.SetTo(i, mr.Intn(5) != 0)
			}
			for i := 0; i < g.N(); i++ {
				agentUp.SetTo(i, mr.Intn(10) != 0)
			}
			half := bitset.New(g.M())
			for i := 0; i < g.M(); i++ {
				half.SetTo(i, mr.Intn(2) == 0)
			}
			keeps := []bitset.Set{{}, bitset.New(g.M()), half}
			m := NewPairMatcher(g, blocks)
			m.Update(edgeUp, agentUp, nil, nil, false)
			h := fnv.New64a()
			var buf [8]byte
			for seed := int64(0); seed < 8; seed++ {
				for _, keep := range keeps {
					pairs, matched := m.Match(seed, pool, keep)
					for _, e := range pairs {
						binary.LittleEndian.PutUint32(buf[:4], uint32(e.A))
						binary.LittleEndian.PutUint32(buf[4:], uint32(e.B))
						h.Write(buf[:])
					}
					binary.LittleEndian.PutUint64(buf[:], uint64(matched))
					h.Write(buf[:])
				}
			}
			if got := h.Sum64(); got != want[name] {
				t.Errorf("%s: draw digest %#x, want %#x", name, got, want[name])
			}
		}
	}
}

// TestFisherYatesMatchesStdlib: the matcher's inline shuffle must draw
// exactly rand.Shuffle's permutation on the same SplitMix64 seed, and
// consume exactly its draws (the sources end in the same state). The
// 2²⁰+7 length makes rejections in the bounded draw likely on every
// seed (about n²/2³³ ≈ 128 per shuffle), so the rejection loop is
// exercised too.
func TestFisherYatesMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 4095, 4096, 1<<20 + 7} {
		got := make([]uint64, n)
		want := make([]uint64, n)
		for seed := int64(0); seed < 32; seed++ {
			for i := range got {
				got[i], want[i] = uint64(i), uint64(i)
			}
			inline := splitmixSource{state: uint64(matchStreamSeed(seed, n))}
			inline.shuffle(got)
			std := splitmixSource{state: uint64(matchStreamSeed(seed, n))}
			rand.New(&std).Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: inline shuffle drew a different permutation", n, seed)
			}
			if inline != std {
				t.Fatalf("n=%d seed=%d: inline shuffle consumed different draws (state %#x, stdlib %#x)", n, seed, inline.state, std.state)
			}
		}
	}
}
