package engine

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// PairMatcher draws the matching of each pairwise round: the greedy
// maximal matching of the usable edges taken in ascending keyed rank.
//
// Edge e ranks by (SubSeed(seed, e), e), where seed is the round's
// MatchSeed, so ties break by id. The round's matching M is what the
// sequential greedy builds when it walks the usable edges in ascending
// rank and claims every edge whose endpoints are both still free. An
// edge is usable when it is not retired, edgeUp holds it and agentUp
// holds both endpoints. Usability is read straight from the masks, so
// there is no index to keep in step with them.
//
// Match never runs that greedy. It answers, for each candidate edge,
// whether the edge is in M by a local query (Nguyen & Onak, FOCS 2008):
// e is in M iff no usable adjacent edge of lower rank is in M. The query
// visits e's lower-ranked usable neighbours in ascending rank and stops
// at the first one in M, which costs O(1) expected probes on a
// bounded-degree graph (Yoshida, Yamamoto & Ito, STOC 2009). A round
// whose candidates are the few pairs that can change therefore costs
// O(candidates), not O(E).
//
// Answers are memoized per agent: matchedBy[v] holds the edge of M at v
// once a query has found it, stamped with the Match call, so nothing is
// ever cleared between rounds. Every decided edge has such an entry at
// one endpoint at least — an edge in M at both, an edge out of M at the
// endpoint it shares with the lower-ranked edge of M that beat it — so a
// repeated query is answered from the memo in O(1). Entries are written
// and read atomically, and only ever with the one true value, so workers
// that query concurrently share answers without a race.
//
// Candidates fan out over the pool in contiguous id ranges, each with its
// own output, concatenated in range order. Every answer is a pure
// function of (ranks, masks), so the result is bit-identical for every
// pool size, shard count and GOMAXPROCS. After warm-up a Match allocates
// nothing.
type PairMatcher struct {
	g *graph.Graph

	// matchedBy[v] is stamp<<32 | id when edge id is v's edge in the
	// matching of the Match call stamped stamp; any other stamp means
	// unknown. Edge ids must therefore fit in 32 bits.
	matchedBy []atomic.Uint64
	stamp     uint32

	scratch []queryScratch // per pool worker slot
	chunks  [][]graph.Edge // per id range: its candidates in the matching
	out     []graph.Edge   // the chunks concatenated, ascending id
	chunkFn func(worker, k int)

	// The current call's inputs, stashed so chunkFn (built once) captures
	// no per-call state and the pool fan-out allocates nothing.
	seed                        int64
	edges                       []graph.Edge
	edgeUp, agentUp, candidates bitset.Set
}

// chunkIDs is the width of the contiguous edge-id range one pool item
// answers: a multiple of 64, so a range covers whole candidate words.
const chunkIDs = 4096

// ranked is an edge id with its rank key.
type ranked struct {
	r  int64
	id int
}

// below is 1 when x comes before y in the matching's edge order — by
// rank key, ties by id — and 0 otherwise. It is the one definition of
// that order, and it compiles to conditional sets: a keep decision on a
// random rank costs no mispredicted branch.
func below(x, y ranked) int {
	return b2i(x.r < y.r) | b2i(x.r == y.r)&b2i(x.id < y.id)
}

// cmpRanked is below as a three-way comparison, for slices.SortFunc.
func cmpRanked(x, y ranked) int { return below(y, x) - below(x, y) }

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// queryFrame is one pending query on a worker's explicit stack: edge e,
// whose lower-ranked neighbours occupy arena[lo:hi] in ascending rank, of
// which arena[lo:pos] are unusable or known to be out of the matching.
type queryFrame struct{ e, lo, hi, pos int }

// queryScratch is one worker's query stack and neighbour arena. The
// arena is itself a stack: a frame's neighbours sit above its parent's.
// Every push and pop writes both slice headers, so the padding keeps
// each worker's scratch on its own cache lines.
type queryScratch struct {
	stack []queryFrame
	arena []ranked
	_     [128 - 48]byte
}

// NewPairMatcher builds a matcher for g. It grows with g: every Match
// sizes its memo to the graph's current population.
func NewPairMatcher(g *graph.Graph) *PairMatcher {
	m := &PairMatcher{g: g}
	m.chunkFn = m.matchChunk
	return m
}

// Match returns, in ascending edge id, the candidate edges that are in
// the round's matching: the greedy maximal matching of the usable edges
// (under edgeUp and agentUp) in ascending (SubSeed(seed, e), e). The
// masks are sized to the graph (one bit per edge, one per agent). The
// zero candidates Set means every edge; otherwise candidates must span
// every edge id. seed is the round's MatchSeed. The masks and
// candidates are read concurrently by the pool's workers and must not
// change during the call. The returned slice aliases matcher-owned
// scratch and is valid until the next Match.
//
//det:hotpath
func (m *PairMatcher) Match(seed int64, edgeUp, agentUp, candidates bitset.Set, pool *Pool) []graph.Edge {
	m.fit(pool.Size())
	m.seed, m.edges = seed, m.g.EdgesView()
	m.edgeUp, m.agentUp, m.candidates = edgeUp, agentUp, candidates
	n := (len(m.edges) + chunkIDs - 1) / chunkIDs
	pool.Do(n, m.chunkFn)
	out := m.out[:0]
	for _, c := range m.chunks[:n] {
		out = append(out, c...)
	}
	m.out = out
	return out
}

// fit opens a new memo stamp and sizes the matcher's scratch to the
// graph, which may have grown since the last call, and to the pool.
func (m *PairMatcher) fit(workers int) {
	if uint64(m.g.M()) > math.MaxUint32 {
		panic("engine.PairMatcher: edge ids ≥ 2³² do not fit the memo words")
	}
	if len(m.matchedBy) < m.g.N() {
		m.matchedBy = make([]atomic.Uint64, m.g.N())
		m.stamp = 0
	}
	m.stamp++
	if m.stamp == 0 { // wrapped: entries of old calls could alias the new stamp
		for i := range m.matchedBy {
			m.matchedBy[i].Store(0)
		}
		m.stamp = 1
	}
	for len(m.scratch) < workers {
		// Sized up front, so a worker's first queries allocate nothing
		// whichever call they come in.
		m.scratch = append(m.scratch, queryScratch{
			stack: make([]queryFrame, 0, 64),
			arena: make([]ranked, 0, 1024),
		})
	}
	for n := (m.g.M() + chunkIDs - 1) / chunkIDs; len(m.chunks) < n; {
		m.chunks = append(m.chunks, nil)
	}
}

// matchChunk answers the candidates of id range k on the given worker.
//
//det:hotpath
func (m *PairMatcher) matchChunk(worker, k int) {
	s := &m.scratch[worker]
	out := m.chunks[k][:0]
	lo, hi := k*chunkIDs, min((k+1)*chunkIDs, len(m.edges))
	if m.candidates.IsZero() {
		for id := lo; id < hi; id++ {
			if m.query(s, id) {
				out = append(out, m.edges[id])
			}
		}
	} else {
		words := m.candidates.Words()
		for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
			for w := words[wi]; w != 0; w &= w - 1 {
				id := wi<<6 | bits.TrailingZeros64(w)
				if m.query(s, id) {
					out = append(out, m.edges[id])
				}
			}
		}
	}
	m.chunks[k] = out
}

// usable reports whether edge id can carry a pair step this round.
//
//det:hotpath
func (m *PairMatcher) usable(id int) bool {
	if m.g.EdgeRetired(id) || !m.edgeUp.Get(id) {
		return false
	}
	e := m.edges[id]
	return m.agentUp.Get(e.A) && m.agentUp.Get(e.B)
}

// decided reports whether the memo already answers edge id, and if so
// whether id is in the matching. Both entries are loaded before either
// is tested, so their cache misses overlap.
//
//det:hotpath
func (m *PairMatcher) decided(id int) (in, ok bool) {
	e := m.edges[id]
	wa, wb := m.matchedBy[e.A].Load(), m.matchedBy[e.B].Load()
	if uint32(wa>>32) == m.stamp {
		return int(uint32(wa)) == id, true
	}
	if uint32(wb>>32) == m.stamp {
		return int(uint32(wb)) == id, true
	}
	return false, false
}

// query reports whether edge e is in the matching. A memo entry answers
// it before its usability is read: an edge the memo holds in the
// matching is usable, and one it puts out is out either way. The recursion
// of the local query runs on s's explicit stack: a frame walks its
// lower-ranked neighbours in ascending rank, descends into the first one
// the memo does not answer, and is out of the matching as soon as one of
// them is in it. A frame whose neighbours are all out is in the matching,
// and its edge is recorded at both endpoints.
//
//det:hotpath
func (m *PairMatcher) query(s *queryScratch, e int) bool {
	if in, ok := m.decided(e); ok {
		return in
	}
	if !m.usable(e) {
		return false
	}
	s.stack, s.arena = s.stack[:0], s.arena[:0]
	ends := m.edges[e]
	m.push(s, ranked{SubSeed(m.seed, e), e}, ends.A, ends.B)
	for {
		top := &s.stack[len(s.stack)-1]
		in := true
		for ; top.pos < top.hi; top.pos++ {
			f := s.arena[top.pos].id
			if !m.usable(f) {
				continue
			}
			fin, ok := m.decided(f)
			if !ok {
				break
			}
			if fin {
				in = false
				break
			}
		}
		if in && top.pos < top.hi {
			// Descend. The child's lower-ranked neighbours at the agent it
			// shares with top rank below top's, so they sit before it in
			// top's frame and are already known out: only its far end is
			// collected.
			f, pe := s.arena[top.pos], m.edges[top.e]
			far := m.edges[f.id].A
			if far == pe.A || far == pe.B {
				far = m.edges[f.id].B
			}
			m.push(s, f, far, -1)
			continue
		}
		// top is decided; unwind. A child in the matching puts its parent
		// out; a child out of it lets the parent go on to its next
		// neighbour.
		for {
			if in {
				e := m.edges[top.e]
				w := uint64(m.stamp)<<32 | uint64(top.e)
				m.matchedBy[e.A].Store(w)
				m.matchedBy[e.B].Store(w)
			}
			s.arena = s.arena[:top.lo]
			s.stack = s.stack[:len(s.stack)-1]
			if len(s.stack) == 0 {
				return in
			}
			top = &s.stack[len(s.stack)-1]
			if !in {
				top.pos++
				break
			}
			in = false
		}
	}
}

// push opens a frame for edge e: its neighbours of lower rank at agent
// v, and at agent w unless w < 0, sorted ascending by rank. Ranks are
// pure arithmetic on ids, so push reads only the adjacency; the walk
// checks each neighbour's usability and memo entry when it reaches it.
//
//det:hotpath
func (m *PairMatcher) push(s *queryScratch, e ranked, v, w int) {
	lo := len(s.arena)
	n := lo
	for _, u := range [2]int{v, w} {
		if u < 0 {
			break
		}
		adj := m.g.IncidentEdgeIDs(u)
		s.arena = slices.Grow(s.arena[:n], len(adj))
		buf := s.arena[:cap(s.arena)]
		for _, f := range adj {
			if f == e.id {
				continue
			}
			// Write, then keep by advancing: a random rank is below e's
			// about half the time, which a branch would mispredict.
			buf[n] = ranked{SubSeed(m.seed, f), f}
			n += below(buf[n], e)
		}
	}
	s.arena = s.arena[:n]
	if nb := s.arena[lo:]; len(nb) <= 32 {
		// Insertion sort: a frame holds about half of e's neighbours, a
		// handful on the bounded-degree graphs this matcher is built for.
		for i := 1; i < len(nb); i++ {
			x, j := nb[i], i
			for ; j > 0 && below(x, nb[j-1]) == 1; j-- {
				nb[j] = nb[j-1]
			}
			nb[j] = x
		}
	} else {
		slices.SortFunc(nb, cmpRanked)
	}
	s.stack = append(s.stack, queryFrame{e: e.id, lo: lo, hi: n, pos: lo})
}
