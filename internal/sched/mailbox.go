package sched

import "slices"

// Message kinds of the push-pull/busy-guard protocol (see the package
// comment): a request carries the initiator's state to the
// partner; an OK reply carries the initiator's half of the PairStep back;
// a busy reply carries no state and rejects the exchange.
type msgKind uint8

const (
	msgRequest msgKind = iota
	msgReplyOK
	msgReplyBusy
)

// message is one protocol message. Messages live in the run's message
// slots — never on the heap — so an exchange allocates nothing.
type message[T any] struct {
	from  int32
	kind  msgKind
	state T
}

// Link values. A slot's link is notLinked while it sits in no inbox, and
// endOfChain while it is the last slot of one; an inbox's head and tail
// are endOfChain while it is empty.
const (
	endOfChain int32 = -1
	notLinked  int32 = -2
)

// inbox is one agent's mailbox: a FIFO chain of message slots, threaded
// through run.link from the oldest slot (head) to the newest (tail).
//
// Slot s belongs to the exchange agent s initiated. Its request is
// written there, and so is the OK or busy reply that answers it. The
// protocol allows an agent one exchange at a time (it admits no other
// while its half is in flight) and each exchange one message in flight
// (the request, then its reply), so N slots hold every message a run can
// have, and a slot never sits in two inboxes at once: pushing into a
// linked slot is an invariant breach and panics. A push, and the detach
// that hands a whole chain to the worker claiming its agent, happen
// under the agent's home shard lock; the claiming worker walks the
// detached chain with no lock held (takeMsg).
type inbox struct {
	head, tail int32
}

// pushMsg writes m into slot and links the slot at the tail of agent
// to's inbox. Caller holds to's home shard lock.
//
//det:hotpath
func (r *run[T]) pushMsg(to, slot int32, m message[T]) {
	if r.link[slot] != notLinked {
		panic("sched: second message in flight for one exchange (protocol invariant breach)")
	}
	r.msg[slot] = m
	r.link[slot] = endOfChain
	in := &r.inboxes[to]
	if in.tail == endOfChain {
		in.head = slot
	} else {
		r.link[in.tail] = slot
	}
	in.tail = slot
}

// detachLocked empties agent a's inbox and returns the head of the chain
// it held (endOfChain when it was empty). The caller holds a's home shard
// lock and has just claimed a, so the detached chain belongs to the
// claiming worker: nothing else reaches its slots until takeMsg frees
// them, and a message that arrives meanwhile starts a fresh chain.
//
//det:hotpath
func (r *run[T]) detachLocked(a int32) int32 {
	in := &r.inboxes[a]
	s := in.head
	in.head, in.tail = endOfChain, endOfChain
	return s
}

// takeMsg frees slot s of a detached chain and returns its message and
// the next slot of the chain. The slot is free once takeMsg returns, so
// the message's answer may be pushed into it. No lock is held.
//
//det:hotpath
func (r *run[T]) takeMsg(s int32) (message[T], int32) {
	next := r.link[s]
	r.link[s] = notLinked
	return r.msg[s], next
}

// growMailboxes gives agents [len(r.msg), n) an empty inbox and a free
// slot. Existing slots and chains are untouched, so messages in flight
// when joiners arrive stay where they are.
func (r *run[T]) growMailboxes(n int) {
	r.msg = slices.Grow(r.msg, n-len(r.msg))
	r.link = slices.Grow(r.link, n-len(r.link))
	r.inboxes = slices.Grow(r.inboxes, n-len(r.inboxes))
	for len(r.msg) < n {
		r.msg = append(r.msg, message[T]{})
		r.link = append(r.link, notLinked)
		r.inboxes = append(r.inboxes, inbox{head: endOfChain, tail: endOfChain})
	}
}
