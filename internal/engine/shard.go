package engine

import (
	ms "repro/internal/multiset"
	"repro/internal/obs"
)

// Shards is the sharded global-state snapshot shared by the engines: the
// positional agent state array is split into P contiguous blocks, each
// owning its own multiset.Tracker, and the global state multiset is
// reduced from the per-shard views by a P-way merge into a reusable
// buffer.
//
// The paper's conservation law is exactly the license for this layout:
// S_{B∪C} = S_B ∪ S_C holds for ANY partition of the agent multiset
// (§2.1), so maintaining shard multisets and merging them on demand is
// observationally identical to maintaining one global multiset — which
// the engine-equivalence golden tests pin bit for bit.
//
// The scalability win is twofold. Deltas are STAGED per shard over a
// whole round and each shard's tracker is repaired once per round — one
// O(k log(n/P) + n/P) merge pass per shard instead of one O(n) pass per
// group step, which is what makes 10⁶-agent rounds affordable. And the P
// repairs are independent, so Flush fans them out across the worker
// pool.
//
// Shards is not safe for concurrent use except where documented: Flush
// parallelizes internally over disjoint shards.
type Shards[T any] struct {
	cmp       ms.Cmp[T]
	blockSize int
	trackers  []*ms.Tracker[T]
	// Staged per-shard deltas for the current round, reused across rounds.
	olds, news [][]T
	// views is reusable scratch for handing the shard views to the merger.
	views  []ms.Multiset[T]
	merger *ms.Merger[T]
	probe  *obs.Probe
	// flushFn is Flush's per-shard repair, built once in Reset.
	flushFn func(worker, i int)
}

// SetProbe attaches (or, with nil, detaches) an observability probe
// recording flush/merge activity: flushes, staged deltas drained, and
// P-way view merges. Per-run configuration on a possibly warm Shards;
// survives Reset. Probes observe, they never change what is flushed.
func (s *Shards[T]) SetProbe(probe *obs.Probe) { s.probe = probe }

// NewShards builds a sharded snapshot of the given positional states
// split into p contiguous blocks (p is clamped to [1, len(states)]).
func NewShards[T any](cmp ms.Cmp[T], states []T, p int) *Shards[T] {
	s := &Shards[T]{}
	s.Reset(cmp, states, p)
	return s
}

// Reset rebinds the sharded snapshot to a fresh population split into p
// blocks, reusing the per-shard trackers, staging buffers, and merger
// whenever the shard count is unchanged; a different p (or a first use)
// rebuilds the tracker array but still reuses the merger and staging
// slices where possible. The resulting state is identical to
// NewShards(cmp, states, p) — the warm-engine contract for sweeps whose
// cells share a layout.
func (s *Shards[T]) Reset(cmp ms.Cmp[T], states []T, p int) {
	n := len(states)
	if p < 1 {
		p = 1
	}
	if p > n && n > 0 {
		p = n
	}
	bs := (n + p - 1) / p
	if bs < 1 {
		bs = 1
	}
	s.cmp = cmp
	s.blockSize = bs
	if len(s.trackers) != p {
		s.trackers = make([]*ms.Tracker[T], p)
		s.olds = make([][]T, p)
		s.news = make([][]T, p)
		s.views = make([]ms.Multiset[T], p)
	}
	if s.merger == nil {
		s.merger = ms.NewMerger(cmp)
	} else {
		s.merger.Reset(cmp)
	}
	if s.flushFn == nil {
		// Built once: it captures only s, so Flush hands the pool the same
		// func value every round instead of allocating a closure per call.
		s.flushFn = func(_, i int) {
			s.trackers[i].Replace(s.olds[i], s.news[i])
			s.olds[i] = s.olds[i][:0]
			s.news[i] = s.news[i][:0]
		}
	}
	for i := 0; i < p; i++ {
		lo, hi := i*bs, (i+1)*bs
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		if s.trackers[i] == nil {
			s.trackers[i] = ms.NewTracker(cmp, states[lo:hi])
		} else {
			s.trackers[i].Reset(cmp, states[lo:hi])
		}
		s.olds[i] = s.olds[i][:0]
		s.news[i] = s.news[i][:0]
	}
}

// P returns the shard count.
func (s *Shards[T]) P() int { return len(s.trackers) }

// Owner returns the shard owning the given agent index. Agents appended
// by population growth (indices at or beyond P·blockSize) clamp to the
// last shard, so growth never moves an existing agent's home.
func (s *Shards[T]) Owner(agent int) int {
	if sh := agent / s.blockSize; sh < len(s.trackers) {
		return sh
	}
	return len(s.trackers) - 1
}

// Append admits joining agents: their states are appended to the LAST
// shard's tracker, matching Owner's clamp for out-of-range indices. The
// shard layout (P, blockSize) is untouched — growth never rebalances
// mid-run, so per-shard draws and merge order are unchanged for every
// existing agent; rebalancing happens only when an explicit epoch calls
// Reset with the full population.
func (s *Shards[T]) Append(vals []T) {
	if len(vals) == 0 {
		return
	}
	s.trackers[len(s.trackers)-1].Append(vals)
}

// Stage records that the given agent's state changed old → new this
// round. The delta is routed to the owning shard and applied at the next
// Flush; each agent may be staged at most once per round (groups are
// disjoint), and old must be the value the shard currently tracks for the
// agent.
func (s *Shards[T]) Stage(agent int, oldV, newV T) {
	sh := s.Owner(agent)
	s.olds[sh] = append(s.olds[sh], oldV)
	s.news[sh] = append(s.news[sh], newV)
}

// Flush repairs every shard's tracker from its staged deltas and clears
// the staging buffers. The per-shard repairs are independent (disjoint
// trackers, disjoint staging), so they fan out across the pool; results
// do not depend on scheduling.
//
//det:hotpath
func (s *Shards[T]) Flush(pool *Pool) {
	if s.probe != nil {
		staged := 0
		for i := range s.olds {
			staged += len(s.olds[i])
		}
		s.probe.Add(obs.CounterShardFlushes, 1)
		s.probe.Add(obs.CounterStagedDeltas, int64(staged))
	}
	pool.DoAll(len(s.trackers), s.flushFn)
}

// ShardView returns shard i's current multiset as a zero-copy view,
// invalidated by the next Flush.
func (s *Shards[T]) ShardView(i int) ms.Multiset[T] { return s.trackers[i].View() }

// Extremes reports the tracked population size and the least and
// greatest state across all shards, read from the sorted ends of each
// shard tracker in O(P) without merging anything. lo and hi are zero
// values when n = 0.
//
//det:hotpath
func (s *Shards[T]) Extremes() (n int, lo, hi T) {
	for _, t := range s.trackers {
		v := t.View()
		k := v.Len()
		if k == 0 {
			continue
		}
		if first := v.At(0); n == 0 || s.cmp(first, lo) < 0 {
			lo = first
		}
		if last := v.At(k - 1); n == 0 || s.cmp(last, hi) > 0 {
			hi = last
		}
		n += k
	}
	return n, lo, hi
}

// View merges the shard views into the global state multiset — the
// P-way ∪ of the paper, into a buffer reused across rounds. With one
// shard there is nothing to merge and the view is that shard's own
// zero-copy view. The view is invalidated by the next View, Flush, or
// Append call. It is what the monitor's full path, set-up, joins and
// amnesia rebases read; the monitor's consensus path reads Extremes
// instead and never merges.
//
//det:hotpath
func (s *Shards[T]) View() ms.Multiset[T] {
	if len(s.trackers) == 1 {
		return s.trackers[0].View()
	}
	if s.probe != nil {
		s.probe.Add(obs.CounterShardMerges, 1)
	}
	for i, t := range s.trackers {
		s.views[i] = t.View()
	}
	return s.merger.Union(s.views...)
}

// Len reports the tracked population size across all shards.
func (s *Shards[T]) Len() int {
	n := 0
	for _, t := range s.trackers {
		n += t.Len()
	}
	return n
}
