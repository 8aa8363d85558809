package sched

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/obs"
)

// outcome is what the finishing worker does with a processed agent.
type outcome uint8

const (
	// outPark: the agent waits for an external event (a reply, a wake, a
	// delivery); nothing re-runs it until one arrives.
	outPark outcome = iota
	// outRequeue: the agent goes back to the tail of its home run queue,
	// unless it already sits there. A deferred agent goes there too: a
	// thief takes its deferral only once due and only when the victim's
	// queues are empty, while the run-queue entry is served in turn and
	// initiates once the deadline has passed.
	outRequeue
	// outDefer: the agent goes on its home deferred heap until the due
	// tick (admission control or a delayed send).
	outDefer
)

// ticks converts a wall-clock duration from the AIMD controller or the
// fault layer into virtual ticks at 1µs/tick (minimum 1): the controller
// keeps its calibrated shape, the scheduler keeps its virtual clock.
func ticks(d time.Duration) int64 {
	t := int64(d / time.Microsecond)
	if t < 1 {
		t = 1
	}
	return t
}

// worker drains shard w: due deferrals first, then the mail queue, then
// the run queue, then a steal sweep, then a fast-forwarded deferral,
// then sleep. At Workers=1 this order is the total event order of the
// run — a pure function of the seed — which is exactly the determinism
// pin the golden holds. Every yieldEvery events the worker yields its
// thread, so on an oversubscribed host a worker whose queues never empty
// cannot keep the others, and the messages waiting on their shards, off
// the processor until the runtime preempts it.
func (r *run[T]) worker(w int) {
	me := &r.workers[w]
	own := &r.shards[w]
	for {
		if r.stop.Load() {
			break
		}
		if r.sp.want.Load() {
			r.barrier()
			continue
		}
		r.maybeCheckQuiescence()

		// The event starts before the claim: a worker descheduled between
		// claiming an agent and processing it holds that agent too. The
		// tick stands until the next event starts, so a worker descheduled
		// between events holds its shard's queues, which nobody steals
		// while the other shards stay busy; only a worker with nothing to
		// do is idle.
		r.inflight[w].tick.Store(r.ops.Load())
		a, chain, mail, ok := r.next(own, w)
		if !ok {
			r.inflight[w].tick.Store(idleTick)
			if !r.sleep(own) {
				break
			}
			continue
		}
		r.process(a, chain, mail, me)
		if me.events++; me.events%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	r.sp.mu.Lock()
	r.sp.exited++
	r.sp.cond.Broadcast()
	r.sp.mu.Unlock()
}

// next claims one runnable agent for worker w, with the inbox chain it
// detached in the same critical section, or reports none; mail reports a
// claim from a mail queue. Every flag transition happens under the
// claimed agent's home shard lock — one agent per steal, so a thief
// never moves scheduling state out from under its home lock.
func (r *run[T]) next(own *shard[T], w int) (a, chain int32, mail, ok bool) {
	now := r.now()
	own.mu.Lock()
	if a, chain, ok := r.claimDueLocked(own, now); ok {
		own.mu.Unlock()
		return a, chain, false, true
	}
	if a, chain, ok := r.claimQueuedLocked(&own.mailq, flagMail); ok {
		own.mu.Unlock()
		return a, chain, true, true
	}
	if a, chain, ok := r.claimQueuedLocked(&own.runq, flagQueued); ok {
		own.mu.Unlock()
		return a, chain, false, true
	}
	own.mu.Unlock()

	// Steal: a round-robin sweep over the other shards that starts one
	// past the last victim, so thieves spread over every shard whose
	// worker is off the processor instead of serving the ones just above
	// their own. A thief takes from a victim's run queue before its mail
	// queue: the victim's worker serves its own mail first, so a thief
	// that took mail first would leave the run queue of a shard whose
	// worker is off the processor without an initiation. With both empty
	// it takes a due deferral, which would otherwise wait for that worker
	// past its deadline. A thief never fast-forwards a victim's heap.
	P := len(r.shards)
	me := &r.workers[w]
	for i := 0; i < P-1; i++ {
		off := 1 + (int(me.sweep)+i)%(P-1)
		v := &r.shards[(w+off)%P]
		v.mu.Lock()
		a, chain, ok := r.claimQueuedLocked(&v.runq, flagQueued)
		mail := false
		if !ok {
			a, chain, ok = r.claimQueuedLocked(&v.mailq, flagMail)
			mail = ok
		}
		if !ok {
			a, chain, ok = r.claimDueLocked(v, now)
		}
		v.mu.Unlock()
		if ok {
			me.sweep = int32(off % (P - 1))
			me.steals++
			r.opts.Probe.Add(obs.CounterSchedSteals, 1)
			return a, chain, mail, true
		}
	}

	// Fast-forward: nothing is ready anywhere this worker may look, so
	// the virtual clock jumps to its earliest future deferral and that
	// deferral runs — deadlines shape interleaving, they never cost
	// wall-clock or liveness. Without the clock jump this would spin: a
	// system where every agent waits on a deadline has no initiations to
	// move time forward.
	own.mu.Lock()
	for len(own.deferred) > 0 {
		e, _ := own.heapPop()
		if chain, ok := r.claimLocked(e.agent, flagDeferred); ok {
			own.mu.Unlock()
			r.advance(e.due)
			return e.agent, chain, false, true
		}
	}
	own.mu.Unlock()
	return 0, 0, false, false
}

// claimQueuedLocked claims the first agent on queue q that no other
// worker is running, and detaches its inbox; from is the queue's flag
// (flagQueued for a run queue, flagMail for a mail queue). The caller
// holds the lock of the shard that owns q.
//
//det:hotpath
func (r *run[T]) claimQueuedLocked(q *ring, from uint8) (int32, int32, bool) {
	for {
		a, ok := q.pop()
		if !ok {
			return 0, 0, false
		}
		r.opts.Probe.Add(obs.CounterSchedDepthSum, int64(q.n))
		if chain, ok := r.claimLocked(a, from); ok {
			return a, chain, true
		}
	}
}

// claimDueLocked claims the earliest deferral of shard sh whose due tick
// is at or before now and that no other worker is running, and detaches
// its inbox. The caller holds sh.mu.
//
//det:hotpath
func (r *run[T]) claimDueLocked(sh *shard[T], now int64) (int32, int32, bool) {
	for len(sh.deferred) > 0 && sh.deferred[0].due <= now {
		e, _ := sh.heapPop()
		if chain, ok := r.claimLocked(e.agent, flagDeferred); ok {
			return e.agent, chain, true
		}
	}
	return 0, 0, false
}

// claimLocked marks agent a, just popped from the container its flag
// from names (flagQueued, flagMail or flagDeferred), as running, and
// detaches its inbox for the claiming worker. An agent can sit in its
// run queue, its mail queue and its deferred heap at once, so a later
// pop may find another worker already running it: the pop then becomes
// a repoll for that worker and claimLocked reports false. The caller
// holds a's home shard lock.
//
//det:hotpath
func (r *run[T]) claimLocked(a int32, from uint8) (int32, bool) {
	f := r.flags[a] &^ from
	if f&flagRunning != 0 {
		r.flags[a] = f | flagRepoll
		return 0, false
	}
	r.flags[a] = f | flagRunning
	return r.detachLocked(a), true
}

// sleep blocks the worker until new work can exist for it. Returns false
// when the run is over (stop, or nothing can ever run again). The
// re-check after publishing sleeping closes the lost-wakeup window — a
// waker that saw sleeping=true has already parked its token in the
// capacity-1 channel, so the receive below cannot hang — and the
// runnable==0 check closes the termination one.
func (r *run[T]) sleep(own *shard[T]) bool {
	own.mu.Lock()
	if own.runq.n > 0 || own.mailq.n > 0 || len(own.deferred) > 0 {
		own.mu.Unlock()
		return true
	}
	own.sleeping = true
	own.mu.Unlock()

	if r.stop.Load() || r.sp.want.Load() {
		r.cancelSleep(own)
		return true
	}
	if r.runnable.Load() == 0 {
		// No agent is queued, deferred, or running anywhere, and every
		// in-flight message's target would be queued: nothing can ever
		// happen again. Drained — stop the run (islands, all crashed,
		// budget spent) instead of waiting out the wall-clock timeout.
		r.cancelSleep(own)
		r.halt()
		return false
	}
	r.sleepers.Add(1)
	r.opts.Probe.Add(obs.CounterSchedParks, 1)
	<-own.wake
	r.sleepers.Add(-1)
	return true
}

// cancelSleep retracts a published sleeping mark, consuming the wake
// token if a waker already sent it.
func (r *run[T]) cancelSleep(own *shard[T]) {
	own.mu.Lock()
	was := own.sleeping
	own.sleeping = false
	own.mu.Unlock()
	if !was {
		select {
		case <-own.wake:
		default:
		}
	}
}

// deliver writes m into the message slot of the exchange it belongs to
// (its initiator's), links the slot into agent to's inbox and puts to on
// its home mail queue. The push and the flag transition share to's home
// shard critical section.
//
//det:hotpath
func (r *run[T]) deliver(to, slot int32, m message[T]) {
	sh := r.home(to)
	sh.mu.Lock()
	r.pushMsg(to, slot, m)
	r.enqueueLocked(sh, to, flagMail)
}

// enqueueLocked puts agent a on the queue of sh that flag into names
// (flagQueued: the run queue, flagMail: the mail queue), unless it sits
// there already; a running agent is marked for a repoll instead, which
// its finishing worker turns into a mail-queue push. The caller holds
// sh.mu (a's home shard); enqueueLocked releases it.
//
//det:hotpath
func (r *run[T]) enqueueLocked(sh *shard[T], a int32, into uint8) {
	f := r.flags[a]
	if f&flagRunning != 0 {
		r.flags[a] = f | flagRepoll
		sh.mu.Unlock()
		return
	}
	if f&into != 0 {
		sh.mu.Unlock()
		return
	}
	r.flags[a] = f | into
	if f&(flagQueued|flagMail|flagDeferred) == 0 {
		r.runnable.Add(1)
	}
	q := &sh.runq
	if into == flagMail {
		q = &sh.mailq
	}
	q.push(a)
	r.opts.Probe.Add(obs.CounterSchedEnqueues, 1)
	depth := q.n
	wake := sh.sleeping
	sh.sleeping = false
	sh.mu.Unlock()
	if wake {
		sh.signal()
	} else if depth > 1 && r.sleepers.Load() > 0 {
		r.wakeThief()
	}
}

// wakeThief wakes one sleeping worker so queued work on a busy shard is
// stolen instead of waiting for its owner to come around.
func (r *run[T]) wakeThief() {
	for s := range r.shards {
		sh := &r.shards[s]
		sh.mu.Lock()
		wake := sh.sleeping
		sh.sleeping = false
		sh.mu.Unlock()
		if wake {
			sh.signal()
			return
		}
	}
}

// process runs one scheduling event for agent a: serve the inbox chain
// detached at the claim, then — for an event from the run queue or the
// deferred heap — initiate, complete a delayed send, or park/defer;
// finally settle the scheduling flags. A mail event (mail) initiates
// nothing: it returns an idle agent to its run queue, so each agent
// initiates once per pass of its run queue however much mail it serves.
// The worker owns a's non-scheduling state and the chain's slots for the
// whole call — ownership transferred through the claim. A message that
// arrives meanwhile sets flagRepoll, and finish puts a on its mail queue.
func (r *run[T]) process(a, chain int32, mail bool, me *workerRec) {
	sh := r.home(a)
	out := outPark
	var due int64

	for s := chain; s != endOfChain; {
		var m message[T]
		m, s = r.takeMsg(s)
		r.handle(a, m, me)
	}

	switch {
	case mail:
		out = r.afterMail(a)
	case r.crashed[a]:
		// Frozen: served busy above, initiates nothing, parks.
	case r.awaiting[a]:
		// Mid-exchange: the reply will put us on the mail queue.
	case r.sendTo[a] >= 0:
		// A delayed request is pending; the agent stays receptive until
		// the send tick, then commits its CURRENT state.
		if r.now() >= r.sendDue[a] {
			to := r.sendTo[a]
			r.sendTo[a] = -1
			r.awaiting[a] = true
			r.deliver(to, a, message[T]{from: a, kind: msgRequest, state: r.states[a]})
		} else {
			out, due = outDefer, r.sendDue[a]
		}
	case r.budgetOut.Load():
		// Budget drained: keep serving peers (above), initiate nothing.
	default:
		if r.actDue[a] > r.now() {
			out, due = outDefer, r.actDue[a]
		} else {
			out, due = r.initiate(a, me)
		}
	}

	r.finish(sh, a, out, due)
}

// afterMail is the outcome of a mail event for agent a: an agent free to
// initiate goes back to its run queue; a crashed one, one mid-exchange,
// and every agent once the budget is spent park.
func (r *run[T]) afterMail(a int32) outcome {
	if r.crashed[a] || r.awaiting[a] || r.budgetOut.Load() {
		return outPark
	}
	return outRequeue
}

// finish settles agent a's scheduling flags after one processing event
// and detects the drained-system termination condition. A repoll puts a
// on its mail queue whatever the outcome.
//
//det:hotpath
func (r *run[T]) finish(sh *shard[T], a int32, out outcome, due int64) {
	sh.mu.Lock()
	f := r.flags[a] &^ flagRunning
	pushed := false
	if f&flagRepoll != 0 {
		f &^= flagRepoll
		if f&flagMail == 0 {
			f |= flagMail
			sh.mailq.push(a)
			r.opts.Probe.Add(obs.CounterSchedEnqueues, 1)
			pushed = true
		}
	}
	switch out {
	case outRequeue:
		if f&flagQueued == 0 {
			f |= flagQueued
			sh.runq.push(a)
			r.opts.Probe.Add(obs.CounterSchedEnqueues, 1)
			pushed = true
		}
	case outDefer:
		if f&flagDeferred == 0 {
			f |= flagDeferred
			sh.heapPush(deferEntry{due: due, agent: a})
			pushed = true
		}
	}
	r.flags[a] = f
	// A thief finishing a stolen agent, or a worker settling the partner
	// of an in-event exchange, pushes onto the agent's home shard, whose
	// worker may be asleep; a thief takes a deferral only once it is due
	// and only when its own queues are dry, so without this wake a
	// deferred agent could wait well past its deadline.
	wake := pushed && sh.sleeping
	if wake {
		sh.sleeping = false
	}
	sh.mu.Unlock()
	if wake {
		sh.signal()
	}
	if f&(flagQueued|flagMail|flagDeferred) == 0 {
		if r.runnable.Add(-1) == 0 {
			r.halt()
		}
	}
}

// handle serves one mailbox message for agent a, counting on worker
// record me.
func (r *run[T]) handle(a int32, m message[T], me *workerRec) {
	switch m.kind {
	case msgRequest:
		r.deliver(m.from, m.from, r.answer(a, m, me))
	case msgReplyOK:
		r.awaiting[a] = false
		r.backoff[a].OnSuccess()
		r.opts.Probe.Add(obs.CounterExchDeliver, 1)
		if r.cmp(r.states[a], m.state) != 0 {
			r.states[a] = m.state
			me.adoptions.Add(1)
			me.properSteps++
		}
		r.settleCrash(a)
	case msgReplyBusy:
		r.awaiting[a] = false
		me.rejections++
		r.opts.Probe.Add(obs.CounterExchBusy, 1)
		// Admission control: the AIMD window becomes a virtual-tick
		// deadline before which this agent may serve but not re-initiate.
		window := r.backoff[a].OnRejected()
		r.reseed(a, me.rng)
		jitter := 1 + me.rng.Int63n(ticks(window))
		r.actDue[a] = r.now() + jitter
		r.opts.Probe.Add(obs.CounterSchedAdmits, 1)
		r.opts.Probe.Add(obs.CounterExchBackoffs, 1)
		r.opts.Probe.Add(obs.CounterExchBackoffNs, jitter*int64(time.Microsecond))
		r.settleCrash(a)
	}
}

// answer serves request m at partner a and returns the reply. The busy
// guard: a crashed agent is frozen, an awaiting agent admits no second
// exchange while its half is in flight — both reject, so two initiators
// aimed at each other can never deadlock. Otherwise the pair transition
// is atomic at the partner: adopt our half, return the initiator's.
func (r *run[T]) answer(a int32, m message[T], me *workerRec) message[T] {
	if r.crashed[a] || r.awaiting[a] {
		return message[T]{from: a, kind: msgReplyBusy}
	}
	r.reseed(a, me.rng)
	na, nb := r.p.PairStep(m.state, r.states[a], me.rng.Rand)
	if r.cmp(r.states[a], nb) != 0 {
		r.states[a] = nb
		me.adoptions.Add(1)
	}
	return message[T]{from: a, kind: msgReplyOK, state: na}
}

// settleCrash applies a crash that a dynamics epoch deferred because the
// agent's exchange half was in flight: the pair transition has now
// completed, so freezing is safe — conservation is never torn by a fault.
func (r *run[T]) settleCrash(a int32) {
	if r.pendingCrash[a] {
		r.pendingCrash[a] = false
		r.crashed[a] = true
		r.frozenVals[a] = r.states[a]
	}
}

// reseed rebases the worker's stream for agent a's next drawing event:
// SubSeed(AgentSeed(seed, a), eventIndex). Identity-keyed — which worker
// executes the event never matters — and O(1) per event, so per-agent
// randomness costs a counter, not a generator.
//
//det:hotpath
func (r *run[T]) reseed(a int32, rng *engine.FastRand) {
	rng.Reseed(engine.SubSeed(engine.AgentSeed(r.opts.Seed, int(a)), int(r.eventSeq[a])))
	r.eventSeq[a]++
}

// ticket hands worker me its next initiation number. When its block is
// spent it reserves the next r.block numbers from ops with one add,
// which also moves the virtual clock (now). A refused ticket goes back
// with me.tick--, so the worker draws it again and tickets stay unique.
//
//det:hotpath
func (r *run[T]) ticket(me *workerRec) int64 {
	if me.tick == me.end {
		me.end = r.ops.Add(r.block)
		me.tick = me.end - r.block
	}
	me.tick++
	return me.tick
}

// initiate spends one op on a push-pull exchange attempt by agent a,
// numbered by the worker's next ticket: the budget and the epoch
// trigger read that ticket, not the shared count, and the skew gate
// reads it before it is drawn.
func (r *run[T]) initiate(a int32, me *workerRec) (outcome, int64) {
	rng := me.rng
	lo, hi := r.nbrOff[a], r.nbrOff[a+1]
	if lo == hi {
		return outPark, 0 // isolated agent: nothing to gossip with, ever
	}
	if r.gated(me) {
		// Draw nothing: the agent retries later. While the stall lasts,
		// this worker is held again at the same ticket, and every other
		// worker at its next multiple of heldEvery, so the run stops
		// within about heldEvery+block ops per worker of the bound; the
		// yield lets a worker the Go runtime descheduled run.
		runtime.Gosched()
		return outRequeue, 0
	}
	n := r.ticket(me)
	if n > int64(r.opts.MaxOps) {
		me.tick--
		r.budgetOut.Store(true)
		return outPark, 0
	}
	if r.ap != nil && n >= r.nextEpochAt.Load() {
		// Crossing an epoch boundary requests a safepoint; whichever
		// worker reaches the barrier first conducts it.
		r.sp.want.CompareAndSwap(false, true)
	}
	r.opts.Probe.Add(obs.CounterExchInitiate, 1)

	r.reseed(a, rng)
	pick := r.nbrs[int(lo)+rng.Intn(int(hi-lo))]
	if !r.es.EdgeUp.Get(int(pick.edge)) {
		return outRequeue, 0 // dynamics masked the link this epoch
	}
	if p := r.opts.LinkUpProbability; p < 1 && rng.Float64() >= p {
		return outRequeue, 0 // link down for this attempt
	}
	if f := r.opts.Faults; f != nil {
		if f.LossP > 0 && rng.Float64() < f.LossP {
			// Lost in transit: the initiation is spent, nothing happens.
			me.lost++
			r.opts.Probe.Add(obs.CounterExchLost, 1)
			return outRequeue, 0
		}
		if f.DelayMax > 0 {
			// In-flight delay: commit to the send at a future tick; the
			// agent serves its mailbox in the meantime.
			d := 1 + rng.Int63n(ticks(f.DelayMax))
			due := r.now() + d
			r.sendTo[a] = pick.agent
			r.sendDue[a] = due
			return outDefer, due
		}
	}
	if r.exchangeInEvent(a, pick.agent, me) {
		return outRequeue, 0
	}
	r.awaiting[a] = true
	r.deliver(pick.agent, a, message[T]{from: a, kind: msgRequest, state: r.states[a]})
	return outPark, 0
}

// exchangeInEvent completes initiator a's exchange with partner b inside
// a's event, when b is idle, whatever shard it homes on: no worker runs
// it (so no repoll is pending), it is not on its mail queue and its inbox
// is empty. The worker claims b under b's home shard lock, holding no
// other lock, as a thief claims a stolen agent; runs b's mail event for
// a's request — the pair step, or busy — settles b on its home shard as
// any mail event would, and serves b's reply to a at once: one event
// instead of a request and a reply, each waiting its turn in a queue
// while a rejects every request as busy. When b does not qualify it
// reports false and touches nothing; the request then goes through b's
// inbox, which keeps inbox FIFO order and one message per slot.
func (r *run[T]) exchangeInEvent(a, b int32, me *workerRec) bool {
	sh := r.home(b)
	sh.mu.Lock()
	f := r.flags[b]
	if f&(flagRunning|flagMail) != 0 || r.inboxes[b].head != endOfChain {
		sh.mu.Unlock()
		return false
	}
	if f&(flagQueued|flagDeferred) == 0 {
		r.runnable.Add(1) // a running agent counts; finish uncounts it
	}
	r.flags[b] = f | flagRunning
	sh.mu.Unlock()

	reply := r.answer(b, message[T]{from: a, kind: msgRequest, state: r.states[a]}, me)
	r.finish(sh, b, r.afterMail(b), 0)
	r.handle(a, reply, me)
	return true
}

// gated reports whether the skew gate holds back the ticket worker me
// would draw next — the next of its block, or one past the reserved
// count when the block is spent — read on every heldEvery-th ticket and
// before the draw. A worker held after drawing would keep a reserved
// ticket meanwhile, and a thief finishing the worker's agents after
// another worker spends the rest of the budget would park them, leaving
// that ticket unused and the run short of its budget.
func (r *run[T]) gated(me *workerRec) bool {
	if len(r.inflight) < 2 {
		return false
	}
	n := me.tick + 1
	if me.tick == me.end {
		n = r.ops.Load() + 1
	}
	return n%heldEvery == 0 && r.held(n)
}

// held reports whether some worker's latest event started more than
// maxSkew initiations before ticket n: a round of N, or
// skewPerWorker·Workers when that is larger. Such a worker has been
// descheduled, mid-event, holding its agent — and with it every exchange
// aimed at that agent — or between events, or before its first, holding
// its shard's queues: with exchanges finishing inside the initiator's
// event the other workers' shards rarely run dry, so nobody steals them.
// Letting the others run on would spend the op budget and move the
// virtual clock on without it, turning a stall of the host into a stall
// of simulated agents; held bounds how far the run gets ahead of any
// worker that has work. One worker never holds itself back, so Workers=1
// runs are unaffected.
func (r *run[T]) held(n int64) bool {
	if len(r.inflight) < 2 {
		return false
	}
	bound := n - r.maxSkew
	for i := range r.inflight {
		if r.inflight[i].tick.Load() < bound {
			return true
		}
	}
	return false
}

// maybeCheckQuiescence requests the rate-limited convergence check:
// only when some agent adopted since the last check AND at least
// checkEvery = max(64, N/2) initiations have passed since it, N the
// founding population. Checks stay event-driven and op-bounded — never
// more than one per adoption, never on a wall-clock schedule — and a
// 10⁵-agent run does not stop the world per adoption. The check itself
// runs at a safepoint, where states is authoritative.
func (r *run[T]) maybeCheckQuiescence() {
	if r.checkGates() {
		r.sp.want.Store(true)
		r.barrier()
	}
}

// checkGates reports whether both check gates may pass: the reserved
// ticket count has reached checkAt, and some agent adopted since the
// last check. The ops gate goes first: it fails on all but about one
// loop iteration per checkEvery ops, so the adoption sum, which reads
// every worker's record, is rarely taken. Reserved tickets run ahead of
// initiations made, so quiescent re-gates on the exact count.
func (r *run[T]) checkGates() bool {
	return r.ops.Load() >= r.checkAt && r.adoptions() != r.checkedAdopt
}

// quiescent runs the check with the world stopped and reports whether
// the run may halt: states equals the target and no join is
// outstanding. It runs at every safepoint whose gates pass, whether a
// check or an epoch asked for the safepoint, and several workers may
// have asked for the one safepoint, so the gates are re-read here, the
// ops gate on the exact initiation count: at least checkEvery
// initiations made since the last check. When tickets reserved and not
// yet used hold the exact count short, the workers ask again once a
// fresh block is reserved, not at every loop iteration until then.
func (r *run[T]) quiescent() bool {
	if !r.checkGates() {
		return false
	}
	n := r.exactOps()
	if n-r.lastCheckOps < r.checkEvery {
		r.checkAt = r.ops.Load() + 1
		return false
	}
	r.checkedAdopt = r.adoptions()
	r.lastCheckOps = n
	r.checkAt = n + r.checkEvery
	r.checks++
	if !r.reached() {
		return false
	}
	return r.ap == nil || !r.ap.PendingJoins() // joins outstanding: the target will still move
}

// reached reports whether states equals the target. For a consensus
// problem S* is |S*| copies of c*, so the scan stops at the first agent
// ≠ c*; any other problem copies and sorts the states for the monitor's
// multiset comparison. Both verdicts are the monitor's Reached on the
// same states. No lock is taken: every worker is parked.
func (r *run[T]) reached() bool {
	if c, n, ok := r.mon.ConsensusTarget(); ok {
		if len(r.states) != n {
			return false
		}
		for _, v := range r.states {
			if r.cmp(v, c) != 0 {
				return false
			}
		}
		return true
	}
	r.viewBuf = append(r.viewBuf[:0], r.states...)
	slices.SortFunc(r.viewBuf, r.cmp)
	return r.mon.Reached(ms.View(r.cmp, r.viewBuf))
}

// barrier parks the calling worker for a safepoint. The first worker to
// arrive conducts: it waits for every other live worker to park or
// exit, applies every dynamics epoch whose boundary has passed, runs the
// quiescence check, and releases the fleet. A check that finds
// the target halts the run once the conductor has let go of sp.mu, which
// halt takes.
func (r *run[T]) barrier() {
	sp := &r.sp
	sp.mu.Lock()
	if !sp.want.Load() {
		sp.mu.Unlock()
		return
	}
	if sp.conducting {
		sp.parked++
		sp.cond.Broadcast()
		for sp.want.Load() && !r.stop.Load() {
			sp.cond.Wait()
		}
		sp.parked--
		sp.mu.Unlock()
		return
	}
	sp.conducting = true
	// Wake sleepers so they come park; a worker about to sleep re-checks
	// sp.want after publishing sleeping, so none can miss this.
	for s := range r.shards {
		sh := &r.shards[s]
		sh.mu.Lock()
		wake := sh.sleeping
		sh.sleeping = false
		sh.mu.Unlock()
		if wake {
			sh.signal()
		}
	}
	for sp.parked+sp.exited < len(r.shards)-1 && !r.stop.Load() {
		sp.cond.Wait()
	}
	done := false
	if !r.stop.Load() {
		if r.ap != nil {
			// Boundaries are read off the clock, the reserved count, which
			// covers every ticket drawn: the one that asked for this
			// safepoint always finds its epoch applied.
			now := r.ops.Load()
			for r.nextEpochAt.Load() <= now {
				r.epoch++
				r.applyEpoch(r.epoch)
				r.nextEpochAt.Add(int64(r.opts.OpsPerEpoch))
			}
		}
		done = r.quiescent()
	}
	sp.conducting = false
	sp.want.Store(false)
	sp.cond.Broadcast()
	sp.mu.Unlock()
	if done {
		r.halt()
	}
}

// applyEpoch applies dynamics epoch e while every other worker is parked
// (or, for epoch 0, before any has started): growth first, then the
// epoch's events and mask overlay — the sim round protocol with
// initiations as the clock. The previous epoch's overlay is undone
// before growth: growth copies the base masks, and bits the overlay
// cleared would be carried into the copy with nothing left to restore
// them.
func (r *run[T]) applyEpoch(e int) {
	r.ap.EndRound()
	if gr, ok := r.ap.GrowthFor(e); ok {
		r.applyGrowth(gr)
	}
	r.es = r.ap.BeginRound(e, r.base)
	for _, ag := range r.ap.JustCrashed() {
		a := int32(ag)
		if r.awaiting[a] {
			// An exchange half is in flight: tearing it would break
			// conservation. Freeze after the reply lands (settleCrash).
			r.pendingCrash[a] = true
			continue
		}
		if r.sendTo[a] >= 0 {
			r.sendTo[a] = -1 // the delayed request dies with the sender
		}
		r.crashed[a] = true
		r.frozenVals[a] = r.states[a]
	}
	reset := false
	for _, ag := range r.ap.JustWoken() {
		a := int32(ag)
		if r.pendingCrash[a] {
			r.pendingCrash[a] = false // crash and wake cancelled in flight
			continue
		}
		r.crashed[a] = false
		if r.ap.Amnesiac() && r.cmp(r.states[a], r.initVals[a]) != 0 {
			// Amnesiac rejoin: re-enter with the initial state. A
			// sanctioned discontinuity — the variant rebases below; the
			// conservation law deliberately does not (§3.4 decides
			// which problems survive it, and the monitor reports
			// exactly that at quiescence).
			r.states[a] = r.initVals[a]
			r.workers[0].adoptions.Add(1) // the world is stopped
			reset = true
		}
		sh := r.home(a)
		sh.mu.Lock()
		r.enqueueLocked(sh, a, flagQueued)
	}
	if reset {
		r.mon.RebaseVariant(ms.New(r.cmp, r.states...))
	}
}

// applyGrowth extends every run structure for joiners arriving at a
// safepoint: states, the scheduling arrays, the last shard's
// block (the engine.Shards append rule), CSR (degrees may change
// anywhere), the all-up base masks, one empty inbox and one slot per
// joiner, and the shared monitor's target — the sim applyGrowth
// protocol on the sched runtime.
func (r *run[T]) applyGrowth(gr graph.Growth) {
	n0 := len(r.states)
	joined := r.initVals[gr.FirstAgent : gr.FirstAgent+gr.NewAgents]
	r.states = append(r.states, joined...)
	n := len(r.states)
	for a := n0; a < n; a++ {
		r.frozenVals = append(r.frozenVals, r.states[a])
		r.flags = append(r.flags, 0)
		r.eventSeq = append(r.eventSeq, 0)
		r.awaiting = append(r.awaiting, false)
		r.crashed = append(r.crashed, false)
		r.pendingCrash = append(r.pendingCrash, false)
		r.sendTo = append(r.sendTo, -1)
		r.sendDue = append(r.sendDue, 0)
		r.actDue = append(r.actDue, 0)
		r.backoff = append(r.backoff, AIMD{})
	}
	last := &r.shards[len(r.shards)-1]
	last.hi = n
	r.buildCSR()
	r.base.EdgeUp = r.base.EdgeUp.Resized(r.g.M(), true)
	r.base.AgentUp = r.base.AgentUp.Resized(r.g.N(), true)
	r.growMailboxes(n)

	// The run now answers for the final population: the target absorbs
	// the joiners (exact for super-idempotent f, §3.4), convergence
	// restarts against it, and the variant baseline restarts from the
	// grown state — fresh input may legitimately raise h.
	r.mon.AdmitJoin(joined, ms.New(r.cmp, r.states...))

	for a := n0; a < n; a++ {
		last.mu.Lock()
		r.enqueueLocked(last, int32(a), flagQueued)
	}
}
