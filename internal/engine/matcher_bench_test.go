package engine

import (
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// BenchmarkMatcherMatch1e5 measures one near-converged pairwise matching
// at N = 10⁵: Ring(10⁵) with every edge and agent up, a pool of 2, and a
// candidate set holding one edge in 1024 — the shape of the
// endpoints-differ index late in a min run. Only the candidates are
// queried, so the cost is O(candidates), not O(E). The memo, the query
// stacks and the outputs are matcher-owned, so a warm Match allocates
// nothing (budget 0 in scripts/check_alloc_budget.sh).
func BenchmarkMatcherMatch1e5(b *testing.B) {
	g := graph.Ring(100_000)
	m := NewPairMatcher(g)
	edgeUp, agentUp := bitset.NewAllSet(g.M()), bitset.NewAllSet(g.N())
	cands := bitset.New(g.M())
	for id := 0; id < g.M(); id += 1024 {
		cands.Set(id)
	}
	pool := NewPool(2, 1)
	defer pool.Close()
	// Warm-up. A GC cycle starts the runtime's mark workers and empties
	// its parking caches, both of which allocate on next use, so collect
	// first and then let every worker's scratch and the pool's hand-off
	// reach steady state: the measured calls then see only the matcher.
	runtime.GC()
	for i := 0; i < 8; i++ {
		m.Match(int64(i), edgeUp, agentUp, cands, pool)
	}
	// A world restart with a P idle may start an OS thread for it, and
	// that thread's m and g structs (5 objects) would land in the timed
	// op: b.ResetTimer stops the world to read the memory stats. Stop it
	// a few times here, so the spare thread exists before timing starts.
	var ms runtime.MemStats
	for i := 0; i < 4; i++ {
		runtime.ReadMemStats(&ms)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(int64(i), edgeUp, agentUp, cands, pool)
	}
}

// BenchmarkMatcherMatchAll1e5 is BenchmarkMatcherMatch1e5 with every edge
// a candidate: the dense round, where the queries answer the whole
// matching.
func BenchmarkMatcherMatchAll1e5(b *testing.B) {
	g := graph.Ring(100_000)
	m := NewPairMatcher(g)
	edgeUp, agentUp := bitset.NewAllSet(g.M()), bitset.NewAllSet(g.N())
	pool := NewPool(2, 1)
	defer pool.Close()
	m.Match(0, edgeUp, agentUp, bitset.Set{}, pool) // warm-up growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(int64(i), edgeUp, agentUp, bitset.Set{}, pool)
	}
}
