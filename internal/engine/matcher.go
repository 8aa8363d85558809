package engine

import (
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// PairMatcher computes, round by round, a random maximal matching over
// the usable edges of a fixed graph — the group-selection step of
// pairwise gossip — using a partitioned algorithm so that large rounds
// fan out across the worker pool instead of running one serial O(E)
// shuffle on the master stream:
//
//  1. the agents are split into contiguous blocks (graph.EdgePartition,
//     the same blocking rule engine.Shards uses for state); interior
//     edges of distinct blocks never share an endpoint, so each block
//     computes a greedy maximal matching over its usable interior edges
//     independently, on its own substream seeded from (round seed,
//     block index);
//  2. the boundary edges (endpoints in distinct blocks) are reconciled
//     pair-by-pair along the partition's precomputed level schedule
//     (graph.EdgePartition.Levels): within a level no two block pairs
//     share a block, so the pairs of a level run concurrently, each
//     shuffling its own usable boundary edges on its own substream and
//     claiming greedily against the global matched set. Levels are
//     separated by pool barriers, so claims from earlier levels are
//     visible — the "tree order" that replaces the old sequential
//     boundary pass without serializing large-cut graphs.
//
// Every usable interior edge has a matched endpoint after pass 1 within
// its own block, and every usable boundary edge is examined exactly once
// by its pair in pass 2, so the combined matching is maximal. Every
// choice is a function of (round seed, block partition) alone — the
// level schedule is a pure function of the edge set, never of worker
// scheduling, pool size, or the state layout — so results are
// bit-identical for any GOMAXPROCS and any Options.Shards; the block
// count itself is part of the algorithm (different block counts draw
// different, equally valid matchings, exactly like different seeds) and
// is therefore derived from the system size, not from the machine.
//
// Usability is not recomputed from the masks each round. The matcher
// owns a usable-edge delta index: one bitset per bucket (a block's
// interior list, or one block pair's boundary list) over positions in
// that bucket's static ascending edge-id list. Update maintains the
// index from the caller's changed-id stream (environment deltas plus
// dynamics overlay logs) in O(changes); Match then materializes each
// bucket's usable ids by word-skip scan. A caller that cannot bound the
// change set passes exact=false and pays one full O(E) rescan — which is
// also how a matcher revived from a warm cache self-heals, since its
// first Update of a run is always a full rescan.
//
// All buffers are matcher-owned and reused: after warm-up an
// Update+Match round allocates nothing.
type PairMatcher struct {
	g     *graph.Graph
	part  *graph.EdgePartition
	edges []graph.Edge // shared read-only view

	matched []bool // per agent: claimed by the current round's matching

	// Usable-edge delta index. Buckets 0..Blocks-1 are the interior
	// lists; bucket Blocks+k is boundary pair k. bucketOf/bucketPos map
	// an edge id to its bucket and its position in that bucket's static
	// list; bucketBits[b] marks the currently usable positions.
	primed     bool
	bucketOf   []int32
	bucketPos  []int32
	bucketBits []bitset.Set
	bucketIDs  [][]int // static ascending edge ids per bucket (shared with part)

	// Per-bucket scratch (parallel writers touch only their own index):
	// the materialized+shuffled usable ids, the bucket's kept matched ids,
	// and its count of claimed pairs (kept or not).
	work   [][]int
	found  [][]int
	claims []int
	// rands[i] is bucket i's reusable substream. FastRand so the
	// per-round reseed is O(1) — with stdlib sources the O(607) rebuild
	// per Seed would grow linearly in the bucket count (see fastrand.go).
	rands []*FastRand

	// gen is the graph growth generation the index was last sized for;
	// Grow no-ops when it is current (see Grow).
	gen int

	out []int // final matched edge ids in deterministic order

	// Current-round inputs, stashed so the fan-out closures (built once)
	// capture no per-round state and the pool fan-out allocates nothing.
	curSeed  int64
	curKeep  func(a, b int) bool
	curLevel []int
	blockFn  func(worker, b int)
	pairFn   func(worker, i int)
}

// matchStreamSeed derives the substream seed for bucket b (interior
// blocks first, then one stream per boundary pair) from the round's
// matching seed. The prime spreads the substreams across the seed space,
// in the same style as AgentSeed.
func matchStreamSeed(seed int64, b int) int64 { return seed + int64(b+1)*104729 }

// NewPairMatcher builds a matcher for g with the given number of
// contiguous agent blocks (clamped to [1, N]).
func NewPairMatcher(g *graph.Graph, blocks int) *PairMatcher {
	part := g.PartitionEdges(blocks)
	nb := part.Blocks + len(part.Pairs)
	m := &PairMatcher{
		g:          g,
		part:       part,
		gen:        g.Gen(),
		edges:      g.EdgesView(),
		matched:    make([]bool, g.N()),
		bucketOf:   make([]int32, g.M()),
		bucketPos:  make([]int32, g.M()),
		bucketBits: make([]bitset.Set, nb),
		bucketIDs:  make([][]int, nb),
		work:       make([][]int, nb),
		found:      make([][]int, nb),
		claims:     make([]int, nb),
		rands:      make([]*FastRand, nb),
	}
	for b := 0; b < part.Blocks; b++ {
		m.bucketIDs[b] = part.Interior[b]
	}
	for k := range part.Pairs {
		m.bucketIDs[part.Blocks+k] = part.Pairs[k].Edges
	}
	for b, ids := range m.bucketIDs {
		m.bucketBits[b] = bitset.New(len(ids))
		for pos, id := range ids {
			m.bucketOf[id] = int32(b)
			m.bucketPos[id] = int32(pos)
		}
	}
	m.blockFn = func(_, b int) { m.matchBucket(b, m.curSeed, m.curKeep) }
	m.pairFn = func(_, i int) { m.matchBucket(m.part.Blocks+m.curLevel[i], m.curSeed, m.curKeep) }
	return m
}

// Blocks returns the block count of the matcher's partition.
func (m *PairMatcher) Blocks() int { return m.part.Blocks }

// Edge returns the endpoints of the given edge id.
func (m *PairMatcher) Edge(id int) graph.Edge { return m.edges[id] }

// Matched reports whether the given agent was claimed by the matching of
// the most recent Match call.
func (m *PairMatcher) Matched(agent int) bool { return m.matched[agent] }

// stream returns substream i restarted in place for the current round,
// without allocations after first use. Distinct buckets never share an
// entry.
func (m *PairMatcher) stream(i int, seed int64) *rand.Rand {
	if m.rands[i] == nil {
		m.rands[i] = NewFastRand(matchStreamSeed(seed, i))
	} else {
		m.rands[i].Reseed(matchStreamSeed(seed, i))
	}
	return m.rands[i].Rand
}

// usableEdge reports whether edge id can carry a pair step under the
// given masks (zero masks mean all-up, as in graph.Components). Edges
// retired by a topology splice are never usable, whatever the masks say —
// environments are not required to clear retired ids.
func (m *PairMatcher) usableEdge(id int, edgeUp, agentUp bitset.Set) bool {
	if m.g.EdgeRetired(id) {
		return false
	}
	if !edgeUp.IsZero() && !edgeUp.Get(id) {
		return false
	}
	if !agentUp.IsZero() {
		e := m.edges[id]
		if !agentUp.Get(e.A) || !agentUp.Get(e.B) {
			return false
		}
	}
	return true
}

// Grow brings the matcher's structural index in line with its graph
// after population growth, and no-ops when the index is already current
// (so callers can invoke it unconditionally on cache revival). The
// graph's cached partition was extended in place — existing interior
// lists, pair indices, and positions are all preserved, only appended —
// so Grow extends rather than rebuilds: the matched array and the
// id→(bucket, position) maps gain entries for the new agents/edges, new
// boundary pairs gain buckets at the END of the bucket range, and every
// bucket's usable bitset is resized with the new positions CLEAR. The
// caller feeds the growth's new and retired edge ids through the next
// Update's touched stream, which sets the fresh bits correctly — the
// same O(changes) contract every other mutation uses. Per-round draws
// are untouched: bucket substream seeds depend only on bucket index, and
// existing buckets keep their indices.
func (m *PairMatcher) Grow() {
	if m.gen == m.g.Gen() {
		return
	}
	m.gen = m.g.Gen()
	part := m.part
	m.edges = m.g.EdgesView()
	for len(m.matched) < m.g.N() {
		m.matched = append(m.matched, false)
	}
	for len(m.bucketOf) < m.g.M() {
		m.bucketOf = append(m.bucketOf, 0)
		m.bucketPos = append(m.bucketPos, 0)
	}
	nb := part.Blocks + len(part.Pairs)
	for len(m.bucketBits) < nb {
		m.bucketBits = append(m.bucketBits, bitset.Set{})
		m.bucketIDs = append(m.bucketIDs, nil)
		m.work = append(m.work, nil)
		m.found = append(m.found, nil)
		m.claims = append(m.claims, 0)
		m.rands = append(m.rands, nil)
	}
	// Refresh every bucket's id-list alias (partition appends may have
	// reallocated the backing slices) and index the appended tail of each.
	for b := 0; b < part.Blocks; b++ {
		m.bucketIDs[b] = part.Interior[b]
	}
	for k := range part.Pairs {
		m.bucketIDs[part.Blocks+k] = part.Pairs[k].Edges
	}
	for b, ids := range m.bucketIDs {
		old := m.bucketBits[b].Len()
		if old != len(ids) {
			if m.bucketBits[b].IsZero() {
				m.bucketBits[b] = bitset.New(len(ids))
			} else {
				m.bucketBits[b] = m.bucketBits[b].Resized(len(ids), false)
			}
		}
		for pos := old; pos < len(ids); pos++ {
			id := ids[pos]
			m.bucketOf[id] = int32(b)
			m.bucketPos[id] = int32(pos)
		}
	}
}

// Update brings the usable-edge index in line with the round's effective
// masks. touchedEdges and touchedAgents list the ids whose mask entries
// may have changed since the previous Update (a superset is fine);
// exact=false declares the change set unbounded and forces a full O(E)
// rescan. The first Update after construction or a cache revival always
// rescans, so stale index state cannot leak between runs.
//
//det:hotpath
func (m *PairMatcher) Update(edgeUp, agentUp bitset.Set, touchedEdges, touchedAgents []int, exact bool) {
	if !m.primed || !exact {
		m.rebuild(edgeUp, agentUp)
		m.primed = true
		return
	}
	for _, id := range touchedEdges {
		m.reexamine(id, edgeUp, agentUp)
	}
	for _, ag := range touchedAgents {
		for _, id := range m.g.IncidentEdgeIDs(ag) {
			m.reexamine(id, edgeUp, agentUp)
		}
	}
}

// reexamine recomputes edge id's usability and repairs its bucket bit on
// change. O(1) per call.
//
//det:hotpath
func (m *PairMatcher) reexamine(id int, edgeUp, agentUp bitset.Set) {
	now := m.usableEdge(id, edgeUp, agentUp)
	b, pos := m.bucketOf[id], int(m.bucketPos[id])
	if m.bucketBits[b].Get(pos) != now {
		m.bucketBits[b].SetTo(pos, now)
	}
}

// rebuild recomputes every bucket bit from scratch.
func (m *PairMatcher) rebuild(edgeUp, agentUp bitset.Set) {
	for b, ids := range m.bucketIDs {
		bits := m.bucketBits[b]
		bits.ClearAll()
		for pos, id := range ids {
			if m.usableEdge(id, edgeUp, agentUp) {
				bits.Set(pos)
			}
		}
	}
}

// matchBucket materializes bucket b's usable edge ids (ascending, by
// word-skip scan of the index), shuffles them on the bucket substream,
// and claims greedily against the global matched set. A claimed pair is
// recorded in found[b] only when keep (nil keeps every pair) accepts it;
// the claim itself never depends on keep, so the matching does not
// either. Interior buckets of distinct blocks touch disjoint agents;
// boundary-pair buckets are only run concurrently within one schedule
// level, whose pairs are block-disjoint by construction — so concurrent
// matchBucket calls never race. The claim count is kept in a local and
// stored once: incrementing the shared per-bucket slice inside the loop
// would make concurrent buckets false-share its cache lines.
//
//det:hotpath
func (m *PairMatcher) matchBucket(b int, seed int64, keep func(a, b int) bool) {
	ids := m.bucketBits[b].AppendSelected(m.work[b][:0], m.bucketIDs[b])
	rng := m.stream(b, seed)
	//lint:ignore hotalloc the swap closure captures only ids and never escapes Shuffle, so it stays on the stack; the alloc budget benchmarks pin this path at 0 allocs/round
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	found := m.found[b][:0]
	claims := 0
	for _, id := range ids {
		e := m.edges[id]
		if m.matched[e.A] || m.matched[e.B] {
			continue
		}
		m.matched[e.A], m.matched[e.B] = true, true
		claims++
		if keep == nil || keep(e.A, e.B) {
			found = append(found, id)
		}
	}
	m.work[b] = ids
	m.found[b] = found
	m.claims[b] = claims
}

// Match computes the round's maximal matching over the edges currently
// marked usable by the index (call Update first each round). It returns
// the matched edge ids whose endpoints keep accepts (nil keeps every
// pair), in a deterministic order (block 0's pairs, block 1's, …, then
// boundary pair 0's, pair 1's, …), and the number of pairs matched, kept
// or not. keep filters only what is returned: every usable edge claims
// exactly as without it, so the matching, matched and Matched are the
// same for every keep. keep is called concurrently from the pool's
// workers and must only read. The returned slice aliases matcher-owned
// scratch and is valid until the next Match call. seed should be one
// draw from the engine's master stream; pool parallelizes the per-block
// pass and each boundary level (results are identical for every pool
// size).
func (m *PairMatcher) Match(seed int64, pool *Pool, keep func(a, b int) bool) (ids []int, matched int) {
	if !m.primed {
		panic("engine.PairMatcher: Match before Update")
	}
	for i := range m.matched {
		m.matched[i] = false
	}
	blocks := m.part.Blocks
	m.curSeed, m.curKeep = seed, keep
	if blocks == 1 {
		m.matchBucket(0, seed, keep)
	} else {
		pool.DoAll(blocks, m.blockFn)
	}

	// Boundary reconciliation, one level at a time. The DoAll barrier
	// between levels publishes every claim a level made before the next
	// level's pairs read the matched set.
	for _, level := range m.part.Levels {
		if len(level) == 1 {
			m.matchBucket(blocks+level[0], seed, keep)
			continue
		}
		m.curLevel = level
		pool.DoAll(len(level), m.pairFn)
	}

	out := m.out[:0]
	nb := blocks + len(m.part.Pairs)
	for b := 0; b < nb; b++ {
		out = append(out, m.found[b]...)
		matched += m.claims[b]
	}
	m.out = out
	return out, matched
}
