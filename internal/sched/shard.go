package sched

import "sync"

// Agent scheduling flags, protected by the agent's HOME shard lock. An
// agent's home shard never changes (joiners home on the last shard, the
// engine.Shards append convention), so there is exactly one lock per
// agent's scheduling state and stealing cannot race it: a thief locks the
// victim shard — the home of every agent in the victim's queues — for the
// pop, and ownership of the agent's non-scheduling state (value, stream
// epoch, backoff controller) transfers through that critical section.
const (
	// flagQueued: the agent sits in its home run queue.
	flagQueued uint8 = 1 << iota
	// flagMail: the agent sits in its home mail queue.
	flagMail
	// flagDeferred: the agent has an entry in its home deferred heap.
	flagDeferred
	// flagRunning: a worker is processing the agent right now.
	flagRunning
	// flagRepoll: a message arrived while the agent was running; the
	// finishing worker must put it on the mail queue so the message is
	// served.
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
// inboxes (mailbox.go), their queue membership, and their deferred heap.
// One worker goroutine drains it; idle workers steal from other shards'
// queues. It is padded to 256 bytes, two pairs of cache lines, so one
// shard's lock never shares a line (or the adjacent line the hardware
// prefetches with it) with a neighbour's queues.
type shard[T any] struct {
	mu sync.Mutex

	lo, hi int // agent block (hi grows when joiners home here)

	// runq holds the agents waiting to initiate, mailq the agents with a
	// message to serve. Only agents homed on this shard appear in them,
	// each at most once per queue.
	runq, mailq ring
	// deferred is a binary min-heap ordered by (due, agent).
	deferred []deferEntry

	// sleeping marks the shard's worker as blocked on wake; set under mu,
	// cleared by the waker before the (capacity-1) send.
	sleeping bool
	wake     chan struct{}

	_ [112]byte
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

// ring is a FIFO ring deque of agent ids (head index and length over a
// power-of-two buffer that doubles when full). Its shard's lock guards
// it.
type ring struct {
	buf     []int32
	head, n int
}

// push appends a.
//
//det:hotpath
func (q *ring) push(a int32) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = a
	q.n++
}

// pop removes the oldest agent; the bool is false when empty.
//
//det:hotpath
func (q *ring) pop() (int32, bool) {
	if q.n == 0 {
		return 0, false
	}
	a := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return a, true
}

// grow doubles the storage (setup-rare: the queue is preallocated to the
// shard's block size and an agent appears in it at most once).
func (q *ring) grow() {
	old := q.buf
	n := len(old) * 2
	if n == 0 {
		n = 8
	}
	fresh := make([]int32, n)
	for i := 0; i < q.n; i++ {
		fresh[i] = old[(q.head+i)&(len(old)-1)]
	}
	q.buf = fresh
	q.head = 0
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
