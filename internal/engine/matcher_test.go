package engine

import (
	"cmp"
	"encoding/binary"
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

// match is the test shorthand for a Match over every edge.
func match(m *PairMatcher, edgeUp, agentUp []bool, seed int64, pool *Pool) []graph.Edge {
	return m.Match(seed, bitset.FromBools(edgeUp), bitset.FromBools(agentUp), bitset.Set{}, pool)
}

// greedyReference is the matching by its definition: sort the usable
// edges by (SubSeed(seed, e), e) and claim greedily. It reports, per edge
// id, whether the edge is in the matching.
func greedyReference(g *graph.Graph, edgeUp, agentUp []bool, seed int64) []bool {
	var order []int
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if !g.EdgeRetired(id) && (edgeUp == nil || edgeUp[id]) &&
			(agentUp == nil || agentUp[e.A] && agentUp[e.B]) {
			order = append(order, id)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(SubSeed(seed, a), SubSeed(seed, b)), cmp.Compare(a, b))
	})
	in := make([]bool, g.M())
	claimed := make([]bool, g.N())
	for _, id := range order {
		if e := g.Edge(id); !claimed[e.A] && !claimed[e.B] {
			claimed[e.A], claimed[e.B] = true, true
			in[id] = true
		}
	}
	return in
}

// withClosingEdge rebuilds g with the edge {0, N-1} added when it is
// missing, so that a ring splice can open it and leave a retired id.
func withClosingEdge(g *graph.Graph) *graph.Graph {
	edges := g.Edges()
	if _, ok := g.EdgeID(0, g.N()-1); !ok {
		edges = append(edges, graph.NewEdge(0, g.N()-1))
	}
	out, err := graph.New(g.Name(), g.N(), edges)
	if err != nil {
		panic(err)
	}
	return out
}

// TestKeyedMatchingMatchesGreedy checks Match against greedyReference on
// rings, complete graphs, hypercubes and preferential-attachment graphs,
// each also after a join splice that retires an edge, under random
// masks, seeds, pool sizes {1, 2, 4} and three candidate shapes: every
// edge (the zero Set), a random subset, and the edges whose endpoint
// labels differ (the shape of sim's endpoints-differ index). The
// returned pairs must be exactly the reference matching's edges among
// the candidates, in ascending id, and the every-edge answer must be a
// valid maximal matching. Ranks never tie on these inputs, so the
// order's tie-break — equal keys by ascending id — is pinned on below
// itself, the one definition of the order.
func TestKeyedMatchingMatchesGreedy(t *testing.T) {
	for _, c := range []struct {
		x, y ranked
		want int
	}{{ranked{7, 3}, ranked{7, 4}, 1}, {ranked{7, 4}, ranked{7, 3}, 0}, {ranked{6, 9}, ranked{7, 1}, 1},
		{ranked{7, 1}, ranked{6, 9}, 0}, {ranked{7, 3}, ranked{7, 3}, 0}} {
		if got := below(c.x, c.y); got != c.want {
			t.Fatalf("below(%v, %v) = %d, want %d: the order compares keys first and breaks ties by ascending id", c.x, c.y, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(71))
	pref := graph.Ring(6)
	if _, err := pref.AttachPreferential(30, 2, rng); err != nil {
		t.Fatal(err)
	}
	type namedGraph struct {
		name string
		g    *graph.Graph
	}
	var graphs []namedGraph
	// Ring(9000) and Hypercube(11) span several chunkIDs ranges, so the
	// larger pools answer them on concurrent workers sharing the memo.
	for _, ng := range []namedGraph{
		{"ring40", graph.Ring(40)}, {"ring9000", graph.Ring(9000)}, {"complete11", graph.Complete(11)},
		{"hypercube5", graph.Hypercube(5)}, {"hypercube11", graph.Hypercube(11)}, {"pref36", pref},
	} {
		spliced := withClosingEdge(ng.g)
		if _, err := spliced.SpliceRing(3); err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, ng, namedGraph{ng.name + "/spliced", spliced})
	}
	pools := map[int]*Pool{}
	for _, size := range []int{1, 2, 4} {
		pools[size] = NewPool(size, 1)
		defer pools[size].Close()
	}
	for _, ng := range graphs {
		t.Run(ng.name, func(t *testing.T) {
			g := ng.g
			m := NewPairMatcher(g)
			for trial := 0; trial < 12; trial++ {
				edgeUp, agentUp := randomMasks(g, rng)
				seed := rng.Int63()
				want := greedyReference(g, edgeUp, agentUp, seed)
				subset, differ := bitset.New(g.M()), bitset.New(g.M())
				label := make([]int, g.N())
				for i := range label {
					label[i] = rng.Intn(3)
				}
				for id := 0; id < g.M(); id++ {
					e := g.Edge(id)
					subset.SetTo(id, rng.Intn(3) == 0)
					differ.SetTo(id, label[e.A] != label[e.B])
				}
				for _, cand := range []struct {
					name string
					set  bitset.Set
				}{{"all", bitset.Set{}}, {"subset", subset}, {"differ", differ}} {
					var expect []graph.Edge
					for id := 0; id < g.M(); id++ {
						if want[id] && (cand.set.IsZero() || cand.set.Get(id)) {
							expect = append(expect, g.Edge(id))
						}
					}
					for _, size := range []int{1, 2, 4} {
						got := m.Match(seed, bitset.FromBools(edgeUp), bitset.FromBools(agentUp), cand.set, pools[size])
						if !slices.Equal(got, expect) {
							t.Fatalf("%s (M=%d) trial %d candidates=%s pool=%d:\n got %v\nwant %v",
								g.Name(), g.M(), trial, cand.name, size, got, expect)
						}
					}
				}
				checkValidMaximal(t, g, edgeUp, agentUp, match(m, edgeUp, agentUp, seed, pools[2]))
			}
		})
	}
}

// checkValidMaximal fails unless pairs is a matching of usable edges (no
// shared endpoints) that is maximal (no usable edge has both endpoints
// free).
func checkValidMaximal(t *testing.T, g *graph.Graph, edgeUp, agentUp []bool, pairs []graph.Edge) {
	t.Helper()
	usable := func(id int) bool {
		e := g.Edge(id)
		return !g.EdgeRetired(id) && (edgeUp == nil || edgeUp[id]) &&
			(agentUp == nil || (agentUp[e.A] && agentUp[e.B]))
	}
	claimed := make([]bool, g.N())
	for _, e := range pairs {
		if id, ok := g.EdgeID(e.A, e.B); !ok || !usable(id) {
			t.Fatalf("%s: matched unusable edge %v", g.Name(), e)
		}
		if claimed[e.A] || claimed[e.B] {
			t.Fatalf("%s: agent matched twice at edge %v", g.Name(), e)
		}
		claimed[e.A], claimed[e.B] = true, true
	}
	for id := 0; id < g.M(); id++ {
		if e := g.Edge(id); usable(id) && !claimed[e.A] && !claimed[e.B] {
			t.Fatalf("%s: matching not maximal — usable edge %v has both endpoints free", g.Name(), e)
		}
	}
}

// TestPairMatcherValidMaximal: on random graphs, masks and seeds, the
// matching must be a valid matching (no shared endpoints, only usable
// edges) and maximal (no usable edge with both endpoints free).
func TestPairMatcherValidMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pool := NewPool(3, 1)
	defer pool.Close()
	for trial := 0; trial < 80; trial++ {
		g := graph.ErdosRenyi(2+rng.Intn(30), 0.3, rng)
		m := NewPairMatcher(g)
		for round := 0; round < 4; round++ {
			edgeUp, agentUp := randomMasks(g, rng)
			checkValidMaximal(t, g, edgeUp, agentUp, match(m, edgeUp, agentUp, rng.Int63(), pool))
		}
	}
}

// TestPairMatcherPoolIndependent: the matched pair sequence is a function
// of (seed, masks) only — identical for every pool size and across
// repeated/interleaved calls (scratch reuse must not leak state between
// rounds).
func TestPairMatcherPoolIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.ErdosRenyi(48, 0.2, rng)
	seeds := []int64{1, 7, 42}
	var want [][]graph.Edge
	for _, poolSize := range []int{1, 2, 8} {
		pool := NewPool(poolSize, 1)
		m := NewPairMatcher(g)
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

// TestPairMatcherAllocFree: a warm Match must not allocate — the memo,
// the query stacks and the outputs are matcher-owned, like the component
// path's buffers. Exercises both every-edge and a candidate set.
func TestPairMatcherAllocFree(t *testing.T) {
	g := graph.Torus(8, 8)
	pool := NewPool(1, 1)
	defer pool.Close()
	m := NewPairMatcher(g)
	edgeUp := bitset.New(g.M())
	for i := 0; i < g.M(); i++ {
		edgeUp.SetTo(i, i%3 != 0)
	}
	cands := bitset.New(g.M())
	for i := 0; i < g.M(); i += 5 {
		cands.Set(i)
	}
	for _, c := range []struct {
		name string
		set  bitset.Set
	}{{"all", bitset.Set{}}, {"candidates", cands}} {
		seed := int64(0)
		m.Match(seed, edgeUp, bitset.Set{}, c.set, pool) // warm-up growth
		allocs := testing.AllocsPerRun(50, func() {
			seed++
			edgeUp.SetTo(0, seed%2 == 0)
			m.Match(seed, edgeUp, bitset.Set{}, c.set, pool)
		})
		if allocs != 0 {
			t.Errorf("%s: warm Match allocated %.0f times per run", c.name, allocs)
		}
	}
}

// TestPairMatcherKeepFilter pins Match's candidate contract: with a
// candidate set, the returned pairs are exactly the subsequence of the
// every-edge Match whose edge ids the set holds — a candidate set never
// changes the matching, only which of its pairs are asked about. The
// four sets are predicates over a pair's endpoints, materialized as
// edge-id sets the way the sim engine's endpoints-differ index is.
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
			m := NewPairMatcher(g)
			for round := 0; round < 3; round++ {
				edgeUp, agentUp := randomMasks(g, rng)
				seed := rng.Int63()
				all := slices.Clone(match(m, edgeUp, agentUp, seed, pool))
				for k, p := range preds {
					var want []graph.Edge
					for _, e := range all {
						if p.keep(e.A, e.B) {
							want = append(want, e)
						}
					}
					got := m.Match(seed, bitset.FromBools(edgeUp), bitset.FromBools(agentUp), keeps[k], pool)
					if !slices.Equal(got, want) {
						t.Fatalf("pool=%d trial %d keep=%s: pairs %v, want %v", poolSize, trial, p.name, got, want)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestPairMatcherPinnedDraw pins the drawn matching itself: an FNV-64
// digest of the returned pairs, in order, over Ring, Grid and a random
// graph with edges and agents down, × every edge, no candidate and a
// half-set candidate set, over 8 seeds each. A matcher that ranks,
// breaks ties, claims or orders its output differently moves them.
func TestPairMatcherPinnedDraw(t *testing.T) {
	want := map[string]uint64{
		"ring(97)":     0xb8e34ca39d2d1aef,
		"grid(9x11)":   0xdce14b52a2fd4c0e,
		"gnp(80,0.08)": 0x25d6db5b2a2d3683,
	}
	pool := NewPool(2, 1)
	defer pool.Close()
	graphs := []*graph.Graph{
		graph.Ring(97),
		graph.Grid(9, 11),
		graph.ErdosRenyi(80, 0.08, rand.New(rand.NewSource(67))),
	}
	for _, g := range graphs {
		mr := rand.New(rand.NewSource(int64(g.M() * 10)))
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
		cands := []bitset.Set{{}, bitset.New(g.M()), half}
		m := NewPairMatcher(g)
		h := fnv.New64a()
		var buf [8]byte
		for seed := int64(0); seed < 8; seed++ {
			for _, c := range cands {
				for _, e := range m.Match(seed, edgeUp, agentUp, c, pool) {
					binary.LittleEndian.PutUint32(buf[:4], uint32(e.A))
					binary.LittleEndian.PutUint32(buf[4:], uint32(e.B))
					h.Write(buf[:])
				}
			}
		}
		if got := h.Sum64(); got != want[g.Name()] {
			t.Errorf("%s: draw digest %#x, want %#x", g.Name(), got, want[g.Name()])
		}
	}
}
