package engine

import (
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// BenchmarkMatcherMatch1e5 measures one near-converged pairwise matching
// at N = 10⁵: Ring(10⁵), a pool of 2, and a candidate set holding one
// edge in 1024 — the shape of the endpoints-differ index late in a min
// run. Only the candidates are queried, so the cost is O(candidates),
// not O(E). The memo, the query stacks and the outputs are
// matcher-owned, so a warm Match allocates nothing (budget 0 in
// scripts/check_alloc_budget.sh).
func BenchmarkMatcherMatch1e5(b *testing.B) {
	g := graph.Ring(100_000)
	m := NewPairMatcher(g)
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
		m.Match(int64(i), bitset.Set{}, bitset.Set{}, cands, pool)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(int64(i), bitset.Set{}, bitset.Set{}, cands, pool)
	}
}

// BenchmarkMatcherMatchAll1e5 is BenchmarkMatcherMatch1e5 with every edge
// a candidate: the dense round, where the queries answer the whole
// matching.
func BenchmarkMatcherMatchAll1e5(b *testing.B) {
	g := graph.Ring(100_000)
	m := NewPairMatcher(g)
	pool := NewPool(2, 1)
	defer pool.Close()
	m.Match(0, bitset.Set{}, bitset.Set{}, bitset.Set{}, pool) // warm-up growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(int64(i), bitset.Set{}, bitset.Set{}, bitset.Set{}, pool)
	}
}
