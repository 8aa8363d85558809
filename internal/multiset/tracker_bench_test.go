package multiset

import "testing"

// benchTrackerReplace measures one Replace on a 5×10⁵-value tracker, the
// size of one shard of a 10⁶-agent round at P = 2. The population holds
// the even values 0, 2, …; each op moves k of them to the odd value just
// above and the next op moves them back, so the tracker never drifts.
// at(j) names the j-th edited slot.
func benchTrackerReplace(b *testing.B, k int, at func(j int) int) {
	const n = 500_000
	pop := make([]int, n)
	for i := range pop {
		pop[i] = 2 * i
	}
	tr := NewTracker(OrderedCmp[int](), pop)
	evens, odds := make([]int, k), make([]int, k)
	for j := range evens {
		evens[j] = 2 * at(j)
		odds[j] = evens[j] + 1
	}
	tr.Replace(evens, odds) // grows the scratch buffers once
	tr.Replace(odds, evens)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tr.Replace(evens, odds)
		} else {
			tr.Replace(odds, evens)
		}
	}
}

// BenchmarkTrackerReplaceSparse edits ~1k values clustered in the middle
// of the population — the shape of a near-converged round's flush, where
// only the few sub-maximal values move — so Replace rewrites a span of
// ~1k elements, not 5×10⁵. It allocates nothing once warm
// (budget 0 in scripts/check_alloc_budget.sh).
func BenchmarkTrackerReplaceSparse(b *testing.B) {
	benchTrackerReplace(b, 1024, func(j int) int { return 250_000 + j })
}

// BenchmarkTrackerReplaceDense is the sparse benchmark with its 1k edits
// spread evenly over the whole population: the span is the whole array,
// so this is the cost of a full merge pass.
func BenchmarkTrackerReplaceDense(b *testing.B) {
	benchTrackerReplace(b, 1024, func(j int) int { return j * (500_000 / 1024) })
}
