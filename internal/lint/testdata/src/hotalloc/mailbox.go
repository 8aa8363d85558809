// Fixture for the sched mailbox contract: internal/sched's messages live
// in preallocated slots (one per agent, chained into per-agent inboxes),
// so push and pop on the exchange hot path write into existing slots and
// allocate nothing. The clean pair below has that shape — slot writes
// into caller-owned storage, here a ring over a slab — and must pass;
// the boxed variant is the regression the analyzer exists to catch — a
// per-message heap object turns 10⁵-agent runs into allocation storms.
package hotalloc

type msg struct {
	from  int32
	state int
}

type mring struct {
	off        int32
	mask       uint32
	head, tail uint32
}

// pushSlab is a clean push like sched.pushMsg: slot write into a
// caller-owned slab, monotonic tail, no allocation.
//
//det:hotpath
func pushSlab(r *mring, slab []msg, m msg) {
	if r.tail-r.head > r.mask {
		panic("mailbox overflow")
	}
	slab[uint32(r.off)+(r.tail&r.mask)] = m
	r.tail++
}

// popSlab is a clean pop like sched.takeMsg: indexed read, monotonic
// head, the zero value returned by value.
//
//det:hotpath
func popSlab(r *mring, slab []msg) (msg, bool) {
	if r.head == r.tail {
		var zero msg
		return zero, false
	}
	m := slab[uint32(r.off)+(r.head&r.mask)]
	r.head++
	return m, true
}

type boxedRing struct {
	buf []*msg
}

// pushBoxed is the forbidden shape: boxing each message on push costs
// one heap object per exchange.
//
//det:hotpath
func (r *boxedRing) pushBoxed(m msg) {
	p := new(msg) // want `hotpath pushBoxed: new allocates per call`
	*p = m
	r.buf = append(r.buf, p)
}

// pushGrowing is the other forbidden shape: a mailbox that grows per
// message instead of being sized by the protocol bound up front.
//
//det:hotpath
func pushGrowing(m msg) []msg {
	var box []msg
	box = append(box, m) // want `hotpath pushGrowing: append to box, a local slice declared without capacity`
	return box
}
