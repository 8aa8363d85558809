package sched

import "sync"

// Agent scheduling flags, protected by the agent's HOME shard lock. An
// agent's home shard never changes (joiners home on the last shard, the
// engine.Shards append convention), so there is exactly one lock per
// agent's scheduling state and stealing cannot race it: a thief locks the
// victim shard — the home of every agent in the victim's queue — for the
// pop, and ownership of the agent's non-scheduling state (value, stream
// epoch, backoff controller) transfers through that critical section.
const (
	// flagQueued: the agent sits in its home run queue.
	flagQueued uint8 = 1 << iota
	// flagDeferred: the agent has an entry in its home deferred heap.
	flagDeferred
	// flagRunning: a worker is processing the agent right now.
	flagRunning
	// flagRepoll: a message arrived while the agent was running; the
	// finishing worker must requeue it so the message is served.
	flagRepoll
)

// deferEntry is one admission-control deferral: agent may not act before
// virtual time due (the global initiation counter). Ordered by (due,
// agent) so the single-worker drain order is a pure function of the seed.
type deferEntry struct {
	due   int64
	agent int32
}

// shard owns a contiguous agent block [lo, hi): its lock guards their
// inboxes (mailbox.go), their run-queue membership, and their deferred
// heap. One worker goroutine drains it; idle workers steal from other
// shards' queues. It is padded to 128 bytes, a pair of cache lines, so
// one shard's lock never shares a line (or the adjacent line the
// hardware prefetches with it) with a neighbour's run queue.
type shard[T any] struct {
	mu sync.Mutex

	lo, hi int // agent block (hi grows when joiners home here)

	// runq is a FIFO ring deque of agent ids (head/tail indices, grow on
	// wrap when full). Only agents homed on this shard appear in it.
	runq   []int32
	rqHead int
	rqLen  int
	// deferred is a binary min-heap ordered by (due, agent).
	deferred []deferEntry

	// sleeping marks the shard's worker as blocked on wake; set under mu,
	// cleared by the waker before the (capacity-1) send.
	sleeping bool
	wake     chan struct{}

	_ [24]byte
}

// signal hands the shard's worker its wake token. The caller has just
// cleared sleeping under mu; the channel holds one token, and one pending
// token is enough.
func (s *shard[T]) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// rqPush appends a to the run queue. Caller holds mu.
//
//det:hotpath
func (s *shard[T]) rqPush(a int32) {
	if s.rqLen == len(s.runq) {
		s.rqGrow()
	}
	s.runq[(s.rqHead+s.rqLen)&(len(s.runq)-1)] = a
	s.rqLen++
}

// rqPop removes the oldest queued agent; the bool is false when empty.
// Caller holds mu.
//
//det:hotpath
func (s *shard[T]) rqPop() (int32, bool) {
	if s.rqLen == 0 {
		return 0, false
	}
	a := s.runq[s.rqHead]
	s.rqHead = (s.rqHead + 1) & (len(s.runq) - 1)
	s.rqLen--
	return a, true
}

// rqGrow doubles the queue storage (setup-rare: the queue is preallocated
// to the shard's block size and an agent appears at most once).
func (s *shard[T]) rqGrow() {
	old := s.runq
	n := len(old) * 2
	if n == 0 {
		n = 8
	}
	fresh := make([]int32, n)
	for i := 0; i < s.rqLen; i++ {
		fresh[i] = old[(s.rqHead+i)&(len(old)-1)]
	}
	s.runq = fresh
	s.rqHead = 0
}

// heapPush inserts e into the deferred heap. Caller holds mu.
//
//det:hotpath
func (s *shard[T]) heapPush(e deferEntry) {
	h := append(s.deferred, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !deferLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.deferred = h
}

// heapPop removes and returns the earliest deferral; the bool is false
// when the heap is empty. Caller holds mu.
//
//det:hotpath
func (s *shard[T]) heapPop() (deferEntry, bool) {
	h := s.deferred
	n := len(h)
	if n == 0 {
		return deferEntry{}, false
	}
	top := h[0]
	n--
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && deferLess(h[l], h[m]) {
			m = l
		}
		if r < n && deferLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.deferred = h
	return top, true
}

//det:hotpath
func deferLess(a, b deferEntry) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.agent < b.agent
}
