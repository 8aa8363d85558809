package sched

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

// message is one protocol message. Messages live in the per-shard mailbox
// slab — never on the heap — so an exchange allocates nothing.
type message[T any] struct {
	from  int32
	kind  msgKind
	state T
}

// ring is one agent's mailbox: a fixed-capacity power-of-two ring of slab
// slots. The protocol bounds occupancy by construction — at most one
// request per live neighbour plus one in-flight reply — so the capacity
// (next power of two ≥ degree+2) can never be exceeded on a correct run;
// overflow is an invariant breach and panics. head and tail are monotonic
// (length = tail − head); off is the ring's base slot in its home shard's
// slab. All pushes and pops happen under the home shard's lock.
type ring struct {
	off        int32
	mask       uint32
	head, tail uint32
}

// pushMsg appends m to the ring backed by slab (a free function rather
// than a method because ring is deliberately not generic: one flat []ring
// indexed by agent id, one slab per shard). Caller holds the home shard's
// lock.
//
//det:hotpath
func pushMsg[T any](r *ring, slab []message[T], m message[T]) {
	if r.tail-r.head > r.mask {
		panic("sched: mailbox overflow (protocol invariant breach: more than degree+2 messages in flight to one agent)")
	}
	slab[uint32(r.off)+(r.tail&r.mask)] = m
	r.tail++
}

// popMsg removes and returns the oldest message, reporting false on an
// empty ring. Caller holds the home shard's lock.
//
//det:hotpath
func popMsg[T any](r *ring, slab []message[T]) (message[T], bool) {
	if r.head == r.tail {
		var zero message[T]
		return zero, false
	}
	m := slab[uint32(r.off)+(r.head&r.mask)]
	r.head++
	return m, true
}

// ringCap returns the power-of-two mailbox capacity for an agent of the
// given degree: the protocol bound (one request per neighbour, one reply)
// plus slack rounded up so the index mask is a single AND.
func ringCap(degree int) uint32 {
	need := uint32(degree + 2)
	c := uint32(1)
	for c < need {
		c <<= 1
	}
	return c
}
