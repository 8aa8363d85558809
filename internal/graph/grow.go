// Population growth: incremental topology attachment.
//
// The paper's agents "come and go" (§1.1); this file is the "come" half.
// A Graph can grow mid-run: new agents are appended at the top of the
// index space and new edges are appended at the tail of the edge list, so
// every existing agent index and edge id stays valid. Three attachment
// families are provided, mirroring the static constructors:
//
//   - SpliceRing: open the ring at its closing edge {0, N-1} and splice
//     the newcomers into the gap, so the result is semantically
//     Ring(N+k). The only id ever removed from the live topology is the
//     closing edge, which is *retired* — its id is never reused, and all
//     mask consumers skip it via EdgeRetired.
//   - GrowHypercube: dimension fill — each new vertex v links down to
//     every v with one set bit cleared, so growing 2^d → 2^(d+1) yields
//     exactly Hypercube(d+1). Purely additive.
//   - AttachPreferential: Barabási–Albert style, each newcomer links to
//     m distinct existing vertices with probability ∝ degree+1 on the
//     caller's deterministic substream. Purely additive.
//
// Each operation returns a Growth record (the new agent range); the new
// edges are the ids from the old M up, so the engine catches up in
// O(growth): a growth op invalidates only what it touches.
package graph

import (
	"fmt"
	mathbits "math/bits"
	"sort"

	"repro/internal/bitset"
)

// Intner is the single-method randomness dependency of
// AttachPreferential — satisfied by both *math/rand.Rand and the
// engine's FastRand, without this package importing either.
type Intner interface{ Intn(n int) int }

// Growth records the agents one population-growth operation appended.
type Growth struct {
	// FirstAgent is the index of the first appended agent (== N before
	// the operation); the new agents are FirstAgent..FirstAgent+NewAgents-1.
	FirstAgent int
	// NewAgents is the number of agents appended.
	NewAgents int
}

// LiveM returns the number of live (non-retired) edges. M() counts every
// id ever issued, including retired ones.
func (g *Graph) LiveM() int { return len(g.edges) - g.retiredCount }

// EdgeRetired reports whether edge id has been retired by a growth
// operation. Retired ids keep their Edge entry (masks stay index-stable)
// but are skipped by components, matching, and EdgeID.
//
//det:hotpath
func (g *Graph) EdgeRetired(id int) bool {
	return g.retiredCount != 0 && g.retired.Get(id)
}

// Clone returns a deep copy of the graph sharing no mutable state with
// the original. Sweep workers clone the shared pristine graph before
// running a join-laden cell, so repeated runs always grow from the same
// base.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:            g.n,
		name:         g.name,
		sortedM:      g.sortedM,
		retired:      g.retired.Clone(),
		retiredCount: g.retiredCount,
	}
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	// One flat backing with three-index per-vertex slices, like New: a
	// later per-vertex append reallocates only that vertex's list.
	flat := make([]int, 0, total)
	c.adj = make([][]int, len(g.adj))
	for v, a := range g.adj {
		start := len(flat)
		flat = append(flat, a...)
		c.adj[v] = flat[start:len(flat):len(flat)]
	}
	return c
}

// SpliceRing grows a ring by k agents: the current closing edge {0, N-1}
// is retired and the chain N-1 — N — … — N+k-1 — 0 is spliced into the
// gap, so the live topology afterwards is exactly Ring(N+k)'s. Requires
// N ≥ 3 and a live closing edge (the graph is a ring, original or
// previously spliced).
func (g *Graph) SpliceRing(k int) (Growth, error) {
	if k < 1 {
		return Growth{}, fmt.Errorf("graph: SpliceRing count %d (need ≥ 1)", k)
	}
	if g.n < 3 {
		return Growth{}, fmt.Errorf("graph: SpliceRing on %d vertices (need ≥ 3)", g.n)
	}
	closing, ok := g.EdgeID(0, g.n-1)
	if !ok {
		return Growth{}, fmt.Errorf("graph: SpliceRing: no live closing edge {0,%d} — not a ring", g.n-1)
	}
	oldN := g.n
	gr := Growth{FirstAgent: oldN, NewAgents: k}
	g.retireEdge(closing)
	g.addAgents(k)
	prev := oldN - 1
	for v := oldN; v < oldN+k; v++ {
		g.addEdge(prev, v)
		prev = v
	}
	g.addEdge(0, prev)
	return gr, nil
}

// GrowHypercube appends k agents with hypercube dimension-fill wiring:
// each new vertex v links to every vertex obtained by clearing one set
// bit of v. Growing a Hypercube(d) from 2^d to 2^(d+1) vertices yields
// exactly Hypercube(d+1); partial fills are the natural intermediate
// topologies. Purely additive — no edge is retired.
func (g *Graph) GrowHypercube(k int) (Growth, error) {
	if k < 1 {
		return Growth{}, fmt.Errorf("graph: GrowHypercube count %d (need ≥ 1)", k)
	}
	if g.n < 1 {
		return Growth{}, fmt.Errorf("graph: GrowHypercube on empty graph")
	}
	oldN := g.n
	gr := Growth{FirstAgent: oldN, NewAgents: k}
	g.addAgents(k)
	for v := oldN; v < oldN+k; v++ {
		for b := 0; b < mathbits.Len(uint(v)); b++ {
			if v&(1<<uint(b)) != 0 {
				g.addEdge(v&^(1<<uint(b)), v)
			}
		}
	}
	return gr, nil
}

// AttachPreferential appends k agents, linking each to m distinct
// existing vertices drawn with probability proportional to degree+1
// (Barabási–Albert with add-one smoothing so isolated vertices stay
// reachable). Earlier newcomers are candidate targets for later ones and
// degrees update between newcomers, per the standard sequential model.
// All randomness comes from rng, which callers derive from a seeded
// substream — the result is a pure function of (graph, k, m, rng state).
func (g *Graph) AttachPreferential(k, m int, rng Intner) (Growth, error) {
	if k < 1 || m < 1 {
		return Growth{}, fmt.Errorf("graph: AttachPreferential k=%d m=%d (need ≥ 1)", k, m)
	}
	if g.n < 1 {
		return Growth{}, fmt.Errorf("graph: AttachPreferential on empty graph")
	}
	oldN := g.n
	gr := Growth{FirstAgent: oldN, NewAgents: k}
	g.addAgents(k)
	chosen := make([]int, 0, m)
	for v := oldN; v < oldN+k; v++ {
		want := m
		if want > v {
			want = v
		}
		// Total weight over candidates [0, v): live degree + 1 each.
		total := v
		for u := 0; u < v; u++ {
			total += len(g.adj[u])
		}
		chosen = chosen[:0]
		for len(chosen) < want {
			r := rng.Intn(total)
			u := 0
			for ; u < v-1; u++ {
				w := len(g.adj[u]) + 1
				if r < w {
					break
				}
				r -= w
			}
			dup := false
			for _, c := range chosen {
				if c == u {
					dup = true
					break
				}
			}
			if dup {
				continue // rejected duplicate: redraw from the same stream
			}
			chosen = append(chosen, u)
		}
		sort.Ints(chosen)
		for _, u := range chosen {
			g.addEdge(u, v)
		}
	}
	return gr, nil
}

// addAgents appends k isolated vertices.
func (g *Graph) addAgents(k int) {
	g.n += k
	g.adj = append(g.adj, make([][]int, k)...)
}

// addEdge appends the live edge {a,b} at the tail of the edge list, as
// id M. Callers guarantee the endpoints are in range and the
// edge is not already live (attachment constructions satisfy this by
// always wiring a brand-new vertex).
func (g *Graph) addEdge(a, b int) {
	e := NewEdge(a, b)
	id := len(g.edges)
	g.edges = append(g.edges, e)
	if !g.retired.IsZero() {
		// Keep the retired mask's length equal to M so EdgeRetired can
		// probe any id without a bounds branch.
		g.retired = g.retired.Resized(len(g.edges), false)
	}
	g.adj[e.A] = append(g.adj[e.A], id)
	g.adj[e.B] = append(g.adj[e.B], id)
}

// retireEdge removes edge id from the live topology: its bit is set in
// the retired mask (the id and Edge entry survive so masks stay stable)
// and it is dropped from both adjacency lists.
func (g *Graph) retireEdge(id int) {
	if g.retired.IsZero() {
		g.retired = bitset.New(len(g.edges))
	}
	g.retired.Set(id)
	g.retiredCount++
	e := g.edges[id]
	g.adj[e.A] = removeID(g.adj[e.A], id)
	g.adj[e.B] = removeID(g.adj[e.B], id)
}

func removeID(ids []int, id int) []int {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
