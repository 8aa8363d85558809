package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool is a persistent worker pool for data-parallel group steps. It
// replaces the goroutine-per-group-per-round pattern: worker goroutines
// are started lazily on the first batch that meets the threshold and are
// reused for every subsequent round, so the steady-state round loop
// allocates nothing and pays no goroutine start-up cost.
//
// Below the threshold a batch runs serially on the caller's goroutine
// (worker 0) — for the small systems the experiment sweeps simulate, the
// per-group work is far cheaper than any hand-off.
//
// Engaged batches draw their extra workers from the process-wide
// worker-slot budget (AcquireSlots): when pools nest inside an already
// parallel sweep, the combined goroutine count stays capped at
// GOMAXPROCS instead of multiplying, and a batch granted no slots simply
// runs serially — results are identical either way, because work items
// carry their own seeds.
//
// Do passes each callback a stable worker index in [0, Size()) so callers
// can keep per-worker scratch (reusable rand.Rand states, buffers) without
// locking: a given worker index never runs two callbacks concurrently.
type Pool struct {
	size      int
	threshold int
	probe     *obs.Probe

	startOnce sync.Once
	tokens    chan struct{}
	batch     poolBatch
}

type poolBatch struct {
	n    int
	fn   func(worker, i int)
	next atomic.Int64
	wg   sync.WaitGroup
}

// NewPool builds a pool of size workers (≤ 0 means GOMAXPROCS) that
// engages when a batch has at least threshold items (≤ 0 means always
// engage). No goroutines are started until the first engaged batch.
func NewPool(size, threshold int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{size: size, threshold: threshold}
}

// Size returns the number of worker slots (including the caller's slot 0).
func (p *Pool) Size() int { return p.size }

// SetThreshold replaces the engagement threshold. It is for pools that
// outlive a single run (a sim.Scratch's): the threshold is per-run
// configuration — sim.Options.ParallelThreshold — while the workers are
// warm state worth keeping, so a reused pool is re-thresholded instead
// of rebuilt. Must not be called concurrently with Do/DoAll.
func (p *Pool) SetThreshold(threshold int) { p.threshold = threshold }

// SetProbe attaches (or, with nil, detaches) an observability probe
// recording fan-out occupancy: engaged batches, items spanned, serial
// fallbacks, and extra worker slots granted. Like SetThreshold it is
// per-run configuration on a possibly warm pool; must not be called
// concurrently with Do/DoAll. Probes observe scheduling, never alter it.
func (p *Pool) SetProbe(probe *obs.Probe) { p.probe = probe }

// Do runs fn(worker, i) for every i in [0, n) and returns when all calls
// have finished. Calls may run concurrently across distinct worker
// indices; the caller participates as worker 0. Do must not be called
// concurrently with itself, with DoAll, or after Close.
func (p *Pool) Do(n int, fn func(worker, i int)) {
	p.run(n, fn, n >= p.threshold)
}

// DoAll is Do without the engagement threshold: the batch fans out to the
// workers whenever the pool has more than one slot, regardless of n. It
// is for batches whose per-item work is large even when n is small —
// per-shard state maintenance, where n is the shard count but each item
// repairs an entire shard. The same exclusivity rules as Do apply.
func (p *Pool) DoAll(n int, fn func(worker, i int)) {
	p.run(n, fn, true)
}

func (p *Pool) run(n int, fn func(worker, i int), engage bool) {
	if n <= 0 {
		return
	}
	extra := 0
	if p.size > 1 && engage {
		want := p.size - 1
		if want > n-1 {
			want = n - 1 // never wake more workers than items beyond the caller's
		}
		extra = AcquireSlots(want)
	}
	if p.probe != nil {
		p.probe.Add(obs.CounterPoolItems, int64(n))
		if extra == 0 {
			p.probe.Add(obs.CounterPoolSerial, 1)
		} else {
			p.probe.Add(obs.CounterPoolBatches, 1)
			p.probe.Add(obs.CounterPoolSlots, int64(extra))
		}
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Both deferred so a panicking caller-side callback (recoverable by
	// callers; a panic on a worker goroutine kills the process anyway)
	// leaves the pool reusable and the budget exact: in-flight workers
	// finish the old batch before the panic propagates, then the grant is
	// returned. Registration order makes the Wait run first.
	defer ReleaseSlots(extra)
	p.startOnce.Do(p.start)
	b := &p.batch
	b.n = n
	b.fn = fn
	b.next.Store(0)
	b.wg.Add(extra)
	for w := 0; w < extra; w++ {
		p.tokens <- struct{}{}
	}
	defer func() {
		b.wg.Wait()
		b.fn = nil
	}()
	b.drain(0)
}

func (p *Pool) start() {
	// Workers range over a local copy of the channel: Close writes the
	// field from the owning goroutine, which must not race with workers
	// that are still starting up.
	tokens := make(chan struct{})
	p.tokens = tokens
	for w := 1; w < p.size; w++ {
		go func(worker int) {
			for range tokens {
				p.batch.drain(worker)
				p.batch.wg.Done()
			}
		}(w)
	}
}

func (b *poolBatch) drain(worker int) {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return
		}
		b.fn(worker, i)
	}
}

// Close stops the workers. The pool must not be used afterwards. Closing a
// pool that never engaged is a no-op.
func (p *Pool) Close() {
	p.startOnce.Do(func() { /* never started: nothing to stop */ })
	if p.tokens != nil {
		close(p.tokens)
		p.tokens = nil
	}
}
