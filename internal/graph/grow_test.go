package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitset"
)

// liveEdges returns the live (non-retired) edge set in canonical sorted
// order — the topology a grown graph denotes, independent of the
// append-only id history that produced it.
func liveEdges(g *Graph) []Edge {
	var out []Edge
	for id := 0; id < g.M(); id++ {
		if !g.EdgeRetired(id) {
			out = append(out, g.Edge(id))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// neighborSets returns every vertex's sorted neighbor list.
func neighborSets(g *Graph) [][]int {
	out := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
		sort.Ints(ns)
		out[v] = ns
	}
	return out
}

// checkSameTopology asserts that grown and fresh denote the same
// topology: identical live edge sets, adjacency, components, and
// id-resolution behavior — even though their edge-id histories differ.
func checkSameTopology(t *testing.T, grown, fresh *Graph) {
	t.Helper()
	if grown.N() != fresh.N() {
		t.Fatalf("N: grown %d, fresh %d", grown.N(), fresh.N())
	}
	if grown.LiveM() != fresh.LiveM() {
		t.Fatalf("LiveM: grown %d, fresh %d", grown.LiveM(), fresh.LiveM())
	}
	ge, fe := liveEdges(grown), liveEdges(fresh)
	if !reflect.DeepEqual(ge, fe) {
		t.Fatalf("live edge sets differ\n grown: %v\n fresh: %v", ge, fe)
	}
	if !reflect.DeepEqual(neighborSets(grown), neighborSets(fresh)) {
		t.Fatal("adjacency neighbor sets differ")
	}
	if got, want := grown.Components(bitset.NewAllSet(grown.M()), bitset.NewAllSet(grown.N())), fresh.Components(bitset.NewAllSet(fresh.M()), bitset.NewAllSet(fresh.N())); !reflect.DeepEqual(got, want) {
		t.Fatalf("components differ\n grown: %v\n fresh: %v", got, want)
	}
	// Every live edge resolves by endpoints in both graphs; every retired
	// id resolves in neither.
	for _, e := range ge {
		if _, ok := grown.EdgeID(e.A, e.B); !ok {
			t.Fatalf("grown graph cannot resolve live edge %v", e)
		}
		if _, ok := fresh.EdgeID(e.A, e.B); !ok {
			t.Fatalf("fresh graph cannot resolve live edge %v", e)
		}
	}
	for id := 0; id < grown.M(); id++ {
		if grown.EdgeRetired(id) {
			e := grown.Edge(id)
			if got, ok := grown.EdgeID(e.A, e.B); ok && grown.Edge(got) == e && grown.EdgeRetired(got) {
				t.Fatalf("EdgeID resolved retired id %d", got)
			}
		}
	}
}

// TestSpliceRingMatchesFreshRing: splicing k agents into Ring(n) denotes
// exactly Ring(n+k).
func TestSpliceRingMatchesFreshRing(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{3, 1}, {8, 4}, {16, 1}, {5, 7}} {
		g := Ring(tc.n)
		gr, err := g.SpliceRing(tc.k)
		if err != nil {
			t.Fatalf("SpliceRing(%d) on Ring(%d): %v", tc.k, tc.n, err)
		}
		if gr.FirstAgent != tc.n || gr.NewAgents != tc.k {
			t.Fatalf("growth record %+v, want FirstAgent=%d NewAgents=%d", gr, tc.n, tc.k)
		}
		if retired := g.M() - g.LiveM(); retired != 1 {
			t.Fatalf("ring splice retired %d edges, want 1 (the closing edge)", retired)
		}
		checkSameTopology(t, g, Ring(tc.n+tc.k))
	}
}

// TestGrowHypercubeMatchesFreshHypercube: filling the next dimension of
// Hypercube(d) vertex by vertex denotes exactly Hypercube(d+1) once full
// (and a valid intermediate graph at every partial fill).
func TestGrowHypercubeMatchesFreshHypercube(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		n := 1 << uint(d)
		g := Hypercube(d)
		if _, err := g.GrowHypercube(n); err != nil {
			t.Fatalf("GrowHypercube(%d) on Hypercube(%d): %v", n, d, err)
		}
		checkSameTopology(t, g, Hypercube(d+1))

		// Partial fill: grow one vertex at a time; the end state still
		// matches the fresh cube.
		h := Hypercube(d)
		for i := 0; i < n; i++ {
			if _, err := h.GrowHypercube(1); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		checkSameTopology(t, h, Hypercube(d+1))
	}
}

// TestAttachPreferentialMatchesFreshBuild: a preferentially grown graph
// denotes the same topology as a from-scratch graph constructed over its
// final live edge set.
func TestAttachPreferentialMatchesFreshBuild(t *testing.T) {
	g := Complete(6)
	rng := rand.New(rand.NewSource(42))
	m0 := g.M()
	gr, err := g.AttachPreferential(5, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if gr.NewAgents != 5 || g.M()-m0 != 10 || g.LiveM() != g.M() {
		t.Fatalf("growth record %+v with %d new edges, %d retired; want 5 agents x 2 links, nothing retired",
			gr, g.M()-m0, g.M()-g.LiveM())
	}
	fresh, err := New("fresh", g.N(), liveEdges(g))
	if err != nil {
		t.Fatal(err)
	}
	checkSameTopology(t, g, fresh)

	// Same seed, same draws: the attachment is a pure function of
	// (graph, k, m, rng state).
	g2 := Complete(6)
	if _, err := g2.AttachPreferential(5, 2, rand.New(rand.NewSource(42))); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveEdges(g), liveEdges(g2)) {
		t.Fatal("same-seed preferential attachments diverged")
	}
}

// TestCloneIsolation: growth on a clone leaves the original untouched,
// and the clone reproduces the original's topology exactly.
func TestCloneIsolation(t *testing.T) {
	g := Ring(10)
	wantN, wantM := g.N(), g.M()
	wantEdges := liveEdges(g)
	c := g.Clone()
	checkSameTopology(t, c, g)
	if _, err := c.SpliceRing(4); err != nil {
		t.Fatal(err)
	}
	if g.N() != wantN || g.M() != wantM {
		t.Fatalf("growing the clone mutated the original: N=%d M=%d", g.N(), g.M())
	}
	if !reflect.DeepEqual(liveEdges(g), wantEdges) {
		t.Fatal("original edge set changed")
	}
	checkSameTopology(t, c, Ring(14))
}
