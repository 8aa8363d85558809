package engine

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// The quiescent-round acceptance benchmark pair: at N = 10⁵ agents, an
// Update with an exact empty change stream (a round in which no mask
// entry moved — static graph, no dynamics events) must be ≥ 10× cheaper
// than the full O(E) usability rescan it replaces. Compare:
//
//	go test ./internal/engine -run '^$' -bench 'MatcherUpdate(Quiescent|Rescan)1e5' -benchmem
//
// Quiescent sits in the nanoseconds (two empty range loops); the rescan
// walks all E edges. The same contrast drives the component-partition
// memo (internal/sim), so this pair stands in for the whole round path.

func benchMatcher1e5() (*PairMatcher, bitset.Set, bitset.Set) {
	g := graph.Ring(100_000)
	m := NewPairMatcher(g, 16)
	edgeUp := bitset.NewAllSet(g.M())
	agentUp := bitset.NewAllSet(g.N())
	m.Update(edgeUp, agentUp, nil, nil, false) // prime
	return m, edgeUp, agentUp
}

// BenchmarkMatcherUpdateQuiescent1e5 measures the O(changes) path with
// zero changes: the per-round index cost of a quiescent graph.
func BenchmarkMatcherUpdateQuiescent1e5(b *testing.B) {
	m, edgeUp, agentUp := benchMatcher1e5()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(edgeUp, agentUp, nil, nil, true)
	}
}

// BenchmarkMatcherUpdateRescan1e5 measures the full O(E) usability
// rescan — what every round paid before the delta index.
func BenchmarkMatcherUpdateRescan1e5(b *testing.B) {
	m, edgeUp, agentUp := benchMatcher1e5()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(edgeUp, agentUp, nil, nil, false)
	}
}

// BenchmarkMatcherUpdateDelta1e5 measures a realistic churn round: 200
// touched edges (0.2% of E) repaired in O(changes).
func BenchmarkMatcherUpdateDelta1e5(b *testing.B) {
	m, edgeUp, agentUp := benchMatcher1e5()
	touched := make([]int, 200)
	for i := range touched {
		touched[i] = i * 499
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(edgeUp, agentUp, touched, nil, true)
	}
}

// BenchmarkMatcherMatch1e5 measures one near-converged pairwise matching
// draw at N = 10⁵: Ring(10⁵) with the block count the sim engine derives
// by default (one block per 4096 agents, so 25), a pool of 2, and a keep
// set holding one edge in 1024 — the shape of the endpoints-differ index
// late in a min run. Every usable edge is still packed, shuffled and
// claimed; only the kept pairs are returned. The kernel's buffers are
// matcher-owned, so a warm Match allocates nothing (budget 0 in
// scripts/check_alloc_budget.sh).
func BenchmarkMatcherMatch1e5(b *testing.B) {
	g := graph.Ring(100_000)
	m := NewPairMatcher(g, (g.N()+1<<12-1)>>12)
	m.Update(bitset.Set{}, bitset.Set{}, nil, nil, false)
	keep := bitset.New(g.M())
	for id := 0; id < g.M(); id += 1024 {
		keep.Set(id)
	}
	pool := NewPool(2, 1)
	defer pool.Close()
	m.Match(0, pool, keep) // warm-up growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(int64(i), pool, keep)
	}
}
