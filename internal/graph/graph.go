// Package graph provides the communication graphs (A, E) over which the
// paper's environment assumptions are stated.
//
// §4 of the paper defines the environment-assumption sets Q in terms of a
// graph whose vertices are agents and whose edges are communication links:
// Q_e means "edge e exists and is available for communication", and
// Q_E = {Q_e | e ∈ E}. Different problems need different graphs — any
// connected graph for minimum and convex hull, a complete graph for sum,
// a linear graph (in index order) for sorting — so this package supplies
// the standard families plus connectivity machinery (connected components
// under an enabled-edge mask) that turns an environment state into the
// partition π of agents into communicating groups.
package graph

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"math/rand"
	"sort"

	"repro/internal/bitset"
)

// Edge is an undirected communication link between two agents, identified
// by their indices. Invariant: A < B.
type Edge struct {
	A, B int
}

// NewEdge returns the canonical form of the edge {a, b}.
func NewEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// String renders the edge as "a—b".
func (e Edge) String() string { return fmt.Sprintf("%d—%d", e.A, e.B) }

// Graph is an undirected graph over agents 0..N-1 with a fixed edge list.
// Edge indices (positions in Edges) identify edges in enabled-edge masks.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int // adjacency as edge indices, per vertex (flat backing)
	name  string

	// Growth state (see grow.go). Edge ids are append-only and stable:
	// sortedM is the length of the canonically sorted prefix EdgeID can
	// binary-search (edges appended by growth land on the tail), and
	// retired marks ids removed from the live topology (never reused).
	sortedM      int
	retired      bitset.Set
	retiredCount int
}

// New builds a graph over n vertices with the given edges. Duplicate and
// self-loop edges are rejected. Edges are stored in canonical sorted order
// so edge indices are deterministic for a given edge set.
func New(name string, n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	canon := make([]Edge, 0, len(edges))
	for _, e := range edges {
		e = NewEdge(e.A, e.B)
		switch {
		case e.A == e.B:
			return nil, fmt.Errorf("graph: self-loop at %d", e.A)
		case e.A < 0 || e.B >= n:
			return nil, fmt.Errorf("graph: edge %v out of range [0,%d)", e, n)
		}
		canon = append(canon, e)
	}
	// Duplicate detection by sort + adjacent compare rather than a map: the
	// map was the dominant construction cost (and allocation) at 10⁷ edges.
	less := func(i, j int) bool {
		if canon[i].A != canon[j].A {
			return canon[i].A < canon[j].A
		}
		return canon[i].B < canon[j].B
	}
	if !sort.SliceIsSorted(canon, less) {
		sort.Slice(canon, less)
	}
	for i := 1; i < len(canon); i++ {
		if canon[i] == canon[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge %v", canon[i])
		}
	}
	g := &Graph{n: n, edges: canon, name: name, sortedM: len(canon)}
	// Counted two-pass adjacency build over one flat backing array.
	deg := make([]int, n+1)
	for _, e := range canon {
		deg[e.A+1]++
		deg[e.B+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	flat := make([]int, 2*len(canon))
	g.adj = make([][]int, n)
	for v := 0; v < n; v++ {
		g.adj[v] = flat[deg[v]:deg[v]:deg[v+1]]
	}
	for idx, e := range canon {
		g.adj[e.A] = append(g.adj[e.A], idx)
		g.adj[e.B] = append(g.adj[e.B], idx)
	}
	return g, nil
}

// mustNew is used by the standard-family constructors, whose edge lists are
// correct by construction.
func mustNew(name string, n int, edges []Edge) *Graph {
	g, err := New(name, n, edges)
	if err != nil {
		panic("graph: internal construction error: " + err.Error())
	}
	return g
}

// Name returns the descriptive name of the graph family instance.
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices (agents).
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns a copy of the edge list; index i in the returned slice is
// the edge id used by enabled masks.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgesView returns the graph's edge list without copying. The returned
// slice is shared and MUST NOT be modified; use it for read-only scans
// where the O(E) copy of Edges would dominate (index builds, per-round
// matching queries).
func (g *Graph) EdgesView() []Edge { return g.edges }

// IncidentEdgeIDs returns the ids of the live edges incident to v. The
// returned slice is shared and MUST NOT be modified; it is the primitive
// the matcher's local queries and the endpoints-differ repair walk.
func (g *Graph) IncidentEdgeIDs(v int) []int { return g.adj[v] }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// EdgeID returns the id of the live edge {a,b} and whether it exists.
// The founding prefix of the edge list is canonically sorted and binary
// searched; edges appended by growth live on the (short) unsorted tail
// and are scanned linearly. Retired edges do not exist.
func (g *Graph) EdgeID(a, b int) (int, bool) {
	e := NewEdge(a, b)
	i := sort.Search(g.sortedM, func(i int) bool {
		if g.edges[i].A != e.A {
			return g.edges[i].A >= e.A
		}
		return g.edges[i].B >= e.B
	})
	if i < g.sortedM && g.edges[i] == e && !g.EdgeRetired(i) {
		return i, true
	}
	for id := g.sortedM; id < len(g.edges); id++ {
		if g.edges[id] == e && !g.EdgeRetired(id) {
			return id, true
		}
	}
	return -1, false
}

// Neighbors returns the vertices adjacent to v.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for _, eid := range g.adj[v] {
		e := g.edges[eid]
		if e.A == v {
			out = append(out, e.B)
		} else {
			out = append(out, e.A)
		}
	}
	return out
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Components returns the partition of agents into connected components of
// the subgraph induced by enabled edges and up agents. This is exactly the
// paper's partition π: each component is a group B of agents that can
// execute a collaborative algorithm; down agents form singleton groups
// that are marked disabled (they "execute no actions and do not change
// state").
//
// edgeUp must have one bit per edge and agentUp one bit per agent. An
// edge is usable only when both endpoints are up.
// Each component's member list is sorted; components are ordered by their
// smallest member, so output is deterministic.
func (g *Graph) Components(edgeUp, agentUp bitset.Set) [][]int {
	return g.ComponentsInto(edgeUp, agentUp, &ComponentScratch{})
}

// ComponentScratch holds the reusable buffers of ComponentsInto so an
// engine can derive the partition π every round without allocating. The
// zero value is ready to use; buffers grow on first use and are retained.
type ComponentScratch struct {
	parent  []int
	compOf  []int // root vertex -> component index, -1 when unassigned
	offsets []int
	fill    []int
	members []int   // flat member storage, segmented by offsets
	comps   [][]int // slice headers into members
}

// ComponentsInto is Components with caller-owned scratch: the returned
// partition (and every member slice in it) aliases cs and is valid only
// until the next call with the same scratch. Output is identical to
// Components: members sorted ascending, components ordered by smallest
// member.
func (g *Graph) ComponentsInto(edgeUp, agentUp bitset.Set, cs *ComponentScratch) [][]int {
	n := g.n
	if n == 0 {
		return [][]int{}
	}
	if cap(cs.parent) < n {
		cs.parent = make([]int, n)
		cs.compOf = make([]int, n)
		cs.fill = make([]int, n)
		cs.members = make([]int, n)
		cs.offsets = make([]int, n+1)
	}
	parent := cs.parent[:n]
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Word-skip scan: a fully-down region costs one word test per 64
	// edges, so the union pass is O(up edges + E/64) instead of O(E).
	// Retired edges are skipped even when the mask still carries their
	// bit — environments are not required to clear retired ids.
	for wi, w := range edgeUp.Words() {
		base := wi << 6
		for w != 0 {
			id := base + mathbits.TrailingZeros64(w)
			w &= w - 1
			if g.retiredCount != 0 && g.retired.Get(id) {
				continue
			}
			if e := g.edges[id]; agentUp.Get(e.A) && agentUp.Get(e.B) {
				ra, rb := find(e.A), find(e.B)
				if ra != rb {
					parent[ra] = rb
				}
			}
		}
	}
	// Pass 1 (ascending): number components in order of first-seen vertex —
	// which is each component's smallest member — and count sizes.
	compOf := cs.compOf[:n]
	fill := cs.fill[:n]
	for i := range compOf {
		compOf[i] = -1
		fill[i] = 0
	}
	numComps := 0
	for v := 0; v < n; v++ {
		r := find(v)
		if compOf[r] < 0 {
			compOf[r] = numComps
			numComps++
		}
		fill[compOf[r]]++
	}
	offsets := cs.offsets[:numComps+1]
	offsets[0] = 0
	for c := 0; c < numComps; c++ {
		offsets[c+1] = offsets[c] + fill[c]
		fill[c] = 0
	}
	// Pass 2 (ascending): fill members, sorted within each component.
	members := cs.members[:n]
	for v := 0; v < n; v++ {
		c := compOf[find(v)]
		members[offsets[c]+fill[c]] = v
		fill[c]++
	}
	if cap(cs.comps) < numComps {
		cs.comps = make([][]int, numComps)
	}
	comps := cs.comps[:numComps]
	for c := 0; c < numComps; c++ {
		comps[c] = members[offsets[c]:offsets[c+1]:offsets[c+1]]
	}
	return comps
}

// Connected reports whether the graph (with all edges enabled) is a single
// connected component. The empty graph is connected vacuously; a graph
// with no edges and ≥2 vertices is not. It builds two all-set masks per
// call, so it belongs in set-up code, not in a round loop.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	return len(g.Components(bitset.NewAllSet(g.M()), bitset.NewAllSet(g.N()))) == 1
}

// Diameter returns the maximum over vertices of shortest-path hop distance,
// or -1 if the graph is disconnected.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	worst := 0
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for src := 0; src < g.n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = queue[:0]
		queue = append(queue, src)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for _, d := range dist {
			if d == -1 {
				return -1
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// --- Standard families (§4 uses line, complete, and "any connected") ---

// Line returns the linear graph 0—1—2—…—(n−1): the paper's environment
// assumption for sorting (§4.4), where each agent communicates with the
// positions to the left and right of its index.
func Line(n int) *Graph {
	edges := make([]Edge, 0, maxInt(0, n-1))
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return mustNew(fmt.Sprintf("line(%d)", n), n, edges)
}

// Ring returns the cycle graph over n vertices (n ≥ 3 for a proper cycle;
// smaller n degrade to line).
func Ring(n int) *Graph {
	if n < 3 {
		g := Line(n)
		g.name = fmt.Sprintf("ring(%d)", n)
		return g
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, NewEdge(i, (i+1)%n))
	}
	return mustNew(fmt.Sprintf("ring(%d)", n), n, edges)
}

// Complete returns K_n: the paper's required assumption for the sum
// problem (§4.2), where any two agents must be able to communicate
// infinitely often.
func Complete(n int) *Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j})
		}
	}
	return mustNew(fmt.Sprintf("complete(%d)", n), n, edges)
}

// Star returns the star graph with vertex 0 as hub.
func Star(n int) *Graph {
	edges := make([]Edge, 0, maxInt(0, n-1))
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{0, i})
	}
	return mustNew(fmt.Sprintf("star(%d)", n), n, edges)
}

// Grid returns the rows×cols 4-neighbour mesh.
func Grid(rows, cols int) *Graph {
	n := rows * cols
	edges := make([]Edge, 0, 2*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)})
			}
		}
	}
	return mustNew(fmt.Sprintf("grid(%dx%d)", rows, cols), n, edges)
}

// ErdosRenyi returns G(n, p) with edges drawn independently with
// probability p from the given source. It does not guarantee connectivity;
// callers that need a connected instance should use ConnectedErdosRenyi.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	edges := make([]Edge, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, Edge{i, j})
			}
		}
	}
	return mustNew(fmt.Sprintf("gnp(%d,%.2f)", n, p), n, edges)
}

// ConnectedErdosRenyi draws G(n, p) instances until one is connected
// (retrying with the same source), up to a bounded number of attempts, and
// falls back to adding a random spanning path when unlucky. The result is
// always connected.
func ConnectedErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	for attempt := 0; attempt < 64; attempt++ {
		g := ErdosRenyi(n, p, rng)
		if g.Connected() {
			return g
		}
	}
	// Fall back: overlay a random Hamiltonian path to force connectivity.
	perm := rng.Perm(n)
	g := ErdosRenyi(n, p, rng)
	edges := g.Edges()
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		seen[e] = true
	}
	for i := 0; i+1 < n; i++ {
		e := NewEdge(perm[i], perm[i+1])
		if !seen[e] {
			edges = append(edges, e)
			seen[e] = true
		}
	}
	return mustNew(fmt.Sprintf("gnp+path(%d,%.2f)", n, p), n, edges)
}

// GeometricPositions places n points uniformly in the unit square.
func GeometricPositions(n int, rng *rand.Rand) [][2]float64 {
	pos := make([][2]float64, n)
	for i := range pos {
		pos[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	return pos
}

// RandomGeometric returns the random geometric graph over the given
// positions with connection radius r: vertices are adjacent when their
// Euclidean distance is at most r. This is the natural model for the
// paper's motivating mobile/wireless agents (§1.1).
func RandomGeometric(pos [][2]float64, r float64) *Graph {
	n := len(pos)
	edges := make([]Edge, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := pos[i][0] - pos[j][0]
			dy := pos[i][1] - pos[j][1]
			if math.Hypot(dx, dy) <= r {
				edges = append(edges, Edge{i, j})
			}
		}
	}
	return mustNew(fmt.Sprintf("rgg(%d,r=%.2f)", n, r), n, edges)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Hypercube returns the d-dimensional hypercube over 2^d vertices:
// vertices are adjacent when their indices differ in exactly one bit. A
// classic low-diameter, low-degree interconnect for scalability
// experiments.
func Hypercube(d int) *Graph {
	n := 1 << uint(d)
	edges := make([]Edge, 0, d*n/2)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << uint(b))
			if v < u {
				edges = append(edges, Edge{v, u})
			}
		}
	}
	return mustNew(fmt.Sprintf("hypercube(%d)", d), n, edges)
}

// Torus returns the rows×cols wraparound mesh (each vertex has degree 4
// for rows, cols ≥ 3).
func Torus(rows, cols int) *Graph {
	n := rows * cols
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	seen := make(map[Edge]bool, 2*n)
	edges := make([]Edge, 0, 2*n)
	add := func(a, b int) {
		if a == b {
			return
		}
		e := NewEdge(a, b)
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			add(id(r, c), id(r, c+1))
			add(id(r, c), id(r+1, c))
		}
	}
	return mustNew(fmt.Sprintf("torus(%dx%d)", rows, cols), n, edges)
}

// BinaryTree returns the complete binary tree over n vertices (vertex 0
// as root; vertex v's children are 2v+1 and 2v+2). Trees are the worst
// case for churn: every edge is a cut edge.
func BinaryTree(n int) *Graph {
	edges := make([]Edge, 0, maxInt(0, n-1))
	for v := 1; v < n; v++ {
		edges = append(edges, NewEdge(v, (v-1)/2))
	}
	return mustNew(fmt.Sprintf("btree(%d)", n), n, edges)
}
