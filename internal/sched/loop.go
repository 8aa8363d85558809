package sched

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/env"
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
	// outRequeue: the agent goes straight back on its home run queue.
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

// worker drains shard w: due deferrals first, then the run queue, then a
// steal sweep, then a fast-forwarded deferral, then sleep. At Workers=1
// this order is the total event order of the run — a pure function of
// the seed — which is exactly the determinism pin the golden holds.
func (r *run[T]) worker(w int) {
	rng := engine.NewFastRand(r.opts.Seed)
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
		// claiming an agent and processing it holds that agent too.
		r.inflight[w].tick.Store(r.ops.Load())
		a, ok := r.next(own, w)
		if !ok {
			r.inflight[w].tick.Store(idleTick)
			if !r.sleep(own) {
				break
			}
			continue
		}
		r.process(a, rng)
		r.inflight[w].tick.Store(idleTick)
	}
	r.sp.mu.Lock()
	r.sp.exited++
	r.sp.cond.Broadcast()
	r.sp.mu.Unlock()
}

// next claims one runnable agent for worker w, or reports none. Every
// flag transition happens under the claimed agent's home shard lock —
// one agent per steal, so a thief never moves scheduling state out from
// under its home lock.
func (r *run[T]) next(own *shard[T], w int) (int32, bool) {
	now := r.vnow.Load()
	own.mu.Lock()
	for len(own.deferred) > 0 && own.deferred[0].due <= now {
		e, _ := own.heapPop()
		if r.claimLocked(e.agent, flagDeferred) {
			own.mu.Unlock()
			return e.agent, true
		}
	}
	if a, ok := r.claimQueuedLocked(own); ok {
		own.mu.Unlock()
		return a, true
	}
	own.mu.Unlock()

	// Steal: a deterministic round-robin sweep starting one shard up.
	P := len(r.shards)
	for i := 1; i < P; i++ {
		v := &r.shards[(w+i)%P]
		v.mu.Lock()
		if a, ok := r.claimQueuedLocked(v); ok {
			v.mu.Unlock()
			r.steals.Add(1)
			r.opts.Probe.Add(obs.CounterSchedSteals, 1)
			return a, true
		}
		v.mu.Unlock()
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
		if r.claimLocked(e.agent, flagDeferred) {
			own.mu.Unlock()
			r.advance(e.due)
			return e.agent, true
		}
	}
	own.mu.Unlock()
	return 0, false
}

// claimQueuedLocked claims the first agent on sh's run queue that no
// other worker is running. The caller holds sh.mu.
//
//det:hotpath
func (r *run[T]) claimQueuedLocked(sh *shard[T]) (int32, bool) {
	for {
		a, ok := sh.rqPop()
		if !ok {
			return 0, false
		}
		r.opts.Probe.Add(obs.CounterSchedDepthSum, int64(sh.rqLen))
		if r.claimLocked(a, flagQueued) {
			return a, true
		}
	}
}

// claimLocked marks agent a, just popped from the container its flag
// from names (flagQueued or flagDeferred), as running. An agent can sit
// in its run queue and its deferred heap at once — a message woke it
// while it was deferred — so the second pop may find another worker
// already running it: the pop then becomes a repoll for that worker and
// claimLocked reports false. The caller holds a's home shard lock.
//
//det:hotpath
func (r *run[T]) claimLocked(a int32, from uint8) bool {
	f := r.flags[a] &^ from
	if f&flagRunning != 0 {
		r.flags[a] = f | flagRepoll
		return false
	}
	r.flags[a] = f | flagRunning
	return true
}

// sleep blocks the worker until new work can exist for it. Returns false
// when the run is over (stop, or nothing can ever run again). The
// re-check after publishing sleeping closes the lost-wakeup window — a
// waker that saw sleeping=true has already parked its token in the
// capacity-1 channel, so the receive below cannot hang — and the
// runnable==0 check closes the termination one.
func (r *run[T]) sleep(own *shard[T]) bool {
	own.mu.Lock()
	if own.rqLen > 0 || len(own.deferred) > 0 {
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

// deliver pushes m into agent to's mailbox and makes to runnable. The
// push and the flag transition share to's home shard critical section.
//
//det:hotpath
func (r *run[T]) deliver(to int32, m message[T]) {
	sh := r.home(to)
	sh.mu.Lock()
	pushMsg(&r.rings[to], sh.slab, m)
	r.enqueueLocked(sh, to)
}

// enqueueLocked makes agent a runnable. The caller holds sh.mu (a's home
// shard); enqueueLocked releases it.
//
//det:hotpath
func (r *run[T]) enqueueLocked(sh *shard[T], a int32) {
	f := r.flags[a]
	if f&flagRunning != 0 {
		r.flags[a] = f | flagRepoll
		sh.mu.Unlock()
		return
	}
	if f&flagQueued != 0 {
		sh.mu.Unlock()
		return
	}
	r.flags[a] = f | flagQueued
	if f&flagDeferred == 0 {
		r.runnable.Add(1)
	}
	sh.rqPush(a)
	r.opts.Probe.Add(obs.CounterSchedEnqueues, 1)
	depth := sh.rqLen
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

// process runs one scheduling event for agent a: drain the mailbox, then
// initiate, complete a delayed send, or park/defer; finally settle the
// scheduling flags. The worker owns a's non-scheduling state for the
// whole call — ownership transferred through the queue pop.
func (r *run[T]) process(a int32, rng *engine.FastRand) {
	sh := r.home(a)
	out := outPark
	var due int64

	for {
		sh.mu.Lock()
		m, ok := popMsg(&r.rings[a], sh.slab)
		sh.mu.Unlock()
		if !ok {
			break
		}
		r.handle(a, m, rng)
	}

	switch {
	case r.crashed[a]:
		// Frozen: served busy above, initiates nothing, parks.
	case r.awaiting[a]:
		// Mid-exchange: the reply will re-enqueue us.
	case r.sendTo[a] >= 0:
		// A delayed request is pending; the agent stays receptive until
		// the send tick, then commits its CURRENT state.
		if now := r.vnow.Load(); now >= r.sendDue[a] {
			to := r.sendTo[a]
			r.sendTo[a] = -1
			r.awaiting[a] = true
			r.deliver(to, message[T]{from: a, kind: msgRequest, state: r.states[a]})
		} else {
			out, due = outDefer, r.sendDue[a]
		}
	case r.budgetOut.Load():
		// Budget drained: keep serving peers (above), initiate nothing.
	default:
		if now := r.vnow.Load(); r.actDue[a] > now {
			out, due = outDefer, r.actDue[a]
		} else {
			out, due = r.initiate(a, rng)
		}
	}

	r.finish(sh, a, out, due)
}

// finish settles agent a's scheduling flags after one processing event
// and detects the drained-system termination condition.
//
//det:hotpath
func (r *run[T]) finish(sh *shard[T], a int32, out outcome, due int64) {
	sh.mu.Lock()
	f := r.flags[a] &^ flagRunning
	if f&flagRepoll != 0 {
		f &^= flagRepoll
		if out == outPark {
			out = outRequeue
		}
	}
	pushed := false
	switch out {
	case outRequeue:
		if f&flagQueued == 0 {
			f |= flagQueued
			sh.rqPush(a)
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
	// A thief finishing a stolen agent pushes onto the agent's home
	// shard, whose worker may be asleep; thieves never take deferrals, so
	// without this wake a deferred agent could wait forever.
	wake := pushed && sh.sleeping
	if wake {
		sh.sleeping = false
	}
	sh.mu.Unlock()
	if wake {
		sh.signal()
	}
	if f&(flagQueued|flagDeferred) == 0 {
		if r.runnable.Add(-1) == 0 {
			r.halt()
		}
	}
}

// handle serves one mailbox message for agent a.
func (r *run[T]) handle(a int32, m message[T], rng *engine.FastRand) {
	switch m.kind {
	case msgRequest:
		if r.crashed[a] || r.awaiting[a] {
			// The busy guard: a crashed agent is frozen, an awaiting
			// agent admits no second exchange while its half is in
			// flight — both reject, so two initiators aimed at each
			// other can never deadlock.
			r.deliver(m.from, message[T]{from: a, kind: msgReplyBusy})
			return
		}
		// The pair transition, atomic at the partner: adopt our half,
		// return the initiator's.
		r.reseed(a, rng)
		na, nb := r.p.PairStep(m.state, r.states[a], rng.Rand)
		if r.cmp(r.states[a], nb) != 0 {
			r.states[a] = nb
			r.post(a, nb)
		}
		r.deliver(m.from, message[T]{from: a, kind: msgReplyOK, state: na})
	case msgReplyOK:
		r.awaiting[a] = false
		r.backoff[a].OnSuccess()
		r.opts.Probe.Add(obs.CounterExchDeliver, 1)
		if r.cmp(r.states[a], m.state) != 0 {
			r.states[a] = m.state
			r.post(a, m.state)
			r.properSteps.Add(1)
		}
		r.settleCrash(a)
	case msgReplyBusy:
		r.awaiting[a] = false
		r.rejections.Add(1)
		r.opts.Probe.Add(obs.CounterExchBusy, 1)
		// Admission control: the AIMD window becomes a virtual-tick
		// deadline before which this agent may serve but not re-initiate.
		window := r.backoff[a].OnRejected()
		r.reseed(a, rng)
		jitter := 1 + rng.Int63n(ticks(window))
		r.actDue[a] = r.vnow.Load() + jitter
		r.opts.Probe.Add(obs.CounterSchedAdmits, 1)
		r.opts.Probe.Add(obs.CounterExchBackoffs, 1)
		r.opts.Probe.Add(obs.CounterExchBackoffNs, jitter*int64(time.Microsecond))
		r.settleCrash(a)
	}
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
	rng.Reseed(engine.SubSeed(r.seedBase[a], int(r.eventSeq[a])))
	r.eventSeq[a]++
}

// initiate spends one op on a push-pull exchange attempt by agent a.
func (r *run[T]) initiate(a int32, rng *engine.FastRand) (outcome, int64) {
	lo, hi := r.nbrOff[a], r.nbrOff[a+1]
	if lo == hi {
		return outPark, 0 // isolated agent: nothing to gossip with, ever
	}
	n := r.ops.Add(1)
	if n > int64(r.opts.MaxOps) {
		r.ops.Add(-1)
		r.budgetOut.Store(true)
		return outPark, 0
	}
	if n%heldEvery == 0 && r.held(n) {
		// Refund the op and draw nothing: the agent retries later. While
		// the stall lasts, the next initiator draws this n again and is
		// held again, so the run stops within about heldEvery ops of the
		// bound; the yield lets a worker the Go runtime descheduled
		// finish its event.
		r.ops.Add(-1)
		runtime.Gosched()
		return outRequeue, 0
	}
	r.advance(n)
	if r.ap != nil && n >= r.nextEpochAt.Load() {
		// Crossing an epoch boundary requests a safepoint; whichever
		// worker reaches the barrier first conducts it.
		r.sp.want.CompareAndSwap(false, true)
	}
	r.opts.Probe.Add(obs.CounterExchInitiate, 1)

	r.reseed(a, rng)
	pick := r.nbrs[int(lo)+rng.Intn(int(hi-lo))]
	if !r.es.EdgeIsUp(int(pick.edge)) {
		return outRequeue, 0 // dynamics masked the link this epoch
	}
	if p := r.opts.LinkUpProbability; p < 1 && rng.Float64() >= p {
		return outRequeue, 0 // link down for this attempt
	}
	if f := r.opts.Faults; f != nil {
		if f.LossP > 0 && rng.Float64() < f.LossP {
			// Lost in transit: the initiation is spent, nothing happens.
			r.lost.Add(1)
			r.opts.Probe.Add(obs.CounterExchLost, 1)
			return outRequeue, 0
		}
		if f.DelayMax > 0 {
			// In-flight delay: commit to the send at a future tick; the
			// agent serves its mailbox in the meantime.
			d := 1 + rng.Int63n(ticks(f.DelayMax))
			due := r.vnow.Load() + d
			r.sendTo[a] = pick.agent
			r.sendDue[a] = due
			return outDefer, due
		}
	}
	r.awaiting[a] = true
	r.deliver(pick.agent, message[T]{from: a, kind: msgRequest, state: r.states[a]})
	return outPark, 0
}

// held reports whether some worker's event started more than maxSkew
// initiations before op n: a round of N, or skewPerWorker·Workers when
// that is larger. Such a worker has been descheduled mid-event, holding
// its agent — and with it every exchange aimed at that agent. Letting
// the others run on would spend the op budget and move the virtual
// clock on without it, turning a stall of the host into a stall of a
// simulated agent; held bounds how far the run gets ahead of any event
// in flight. One worker never holds itself back, so Workers=1 runs are
// unaffected.
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

// maybeCheckQuiescence runs the rate-limited convergence check: only
// when some agent adopted since the last check AND at least CheckEvery
// initiations have passed since it. Checks stay event-driven and
// op-bounded — never more than one per adoption, never on a wall-clock
// schedule — and a 10⁵-agent run does not pay a board scan per
// adoption.
func (r *run[T]) maybeCheckQuiescence() {
	ad := r.adoptions.Load()
	if ad == r.checkedAdopt.Load() {
		return
	}
	if r.ops.Load()-r.lastCheckOps.Load() < int64(r.opts.CheckEvery) {
		return
	}
	if !r.checkMu.TryLock() {
		return
	}
	defer r.checkMu.Unlock()
	ad = r.adoptions.Load()
	if ad == r.checkedAdopt.Load() {
		return
	}
	r.checkedAdopt.Store(ad)
	r.lastCheckOps.Store(r.ops.Load())
	r.checks.Add(1)

	if r.boardReached() {
		if r.ap != nil && r.ap.PendingJoins() {
			return // joins outstanding: the target will still move
		}
		r.halt()
	}
}

// boardReached reports whether the board equals the target. For a
// consensus problem S* is |S*| copies of c*, so the board is scanned slot
// by slot under its lock and the scan stops at the first slot ≠ c*;
// any other problem copies the board under the slot locks and sorts it
// for the monitor's multiset comparison. Both verdicts are the
// monitor's Reached on the same snapshot.
func (r *run[T]) boardReached() bool {
	if c, n, ok := r.mon.ConsensusTarget(); ok {
		if len(r.board) != n {
			return false
		}
		for i := range r.board {
			sl := &r.board[i]
			sl.mu.Lock()
			eq := r.cmp(sl.v, c) == 0
			sl.mu.Unlock()
			if !eq {
				return false
			}
		}
		return true
	}
	r.viewBuf = r.viewBuf[:0]
	for i := range r.board {
		sl := &r.board[i]
		sl.mu.Lock()
		r.viewBuf = append(r.viewBuf, sl.v)
		sl.mu.Unlock()
	}
	slices.SortFunc(r.viewBuf, r.cmp)
	return r.mon.Reached(ms.View(r.cmp, r.viewBuf))
}

// barrier parks the calling worker for a dynamics safepoint. The first
// worker to arrive conducts: it waits for every other live worker to
// park or exit, applies every epoch whose boundary has passed, and
// releases the fleet.
func (r *run[T]) barrier() {
	sp := &r.sp
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if !sp.want.Load() {
		return
	}
	if sp.conducting {
		sp.parked++
		sp.cond.Broadcast()
		for sp.want.Load() && !r.stop.Load() {
			sp.cond.Wait()
		}
		sp.parked--
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
	if !r.stop.Load() {
		now := r.ops.Load()
		for r.nextEpochAt.Load() <= now {
			r.epoch++
			r.applyEpoch(r.epoch)
			r.nextEpochAt.Add(int64(r.opts.OpsPerEpoch))
		}
	}
	sp.conducting = false
	sp.want.Store(false)
	sp.cond.Broadcast()
}

// applyEpoch applies dynamics epoch e while every other worker is parked
// (or, for epoch 0, before any has started): growth first, then the
// epoch's events and mask overlay — the sim round protocol with
// initiations as the clock.
func (r *run[T]) applyEpoch(e int) {
	if gr, ok := r.ap.GrowthFor(e); ok {
		r.applyGrowth(gr)
	}
	r.ap.EndRound()
	r.es = r.ap.BeginRound(e, env.State{})
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
			r.post(a, r.states[a])
			reset = true
		}
		sh := r.home(a)
		sh.mu.Lock()
		r.enqueueLocked(sh, a)
	}
	if reset {
		r.mon.RebaseVariant(ms.New(r.cmp, r.states...))
	}
}

// applyGrowth extends every run structure for joiners arriving at a
// safepoint: states and board, the scheduling arrays, the last shard's
// block (the engine.Shards append rule), CSR and mailboxes (degrees may
// change anywhere), and the shared monitor's target — the sim applyGrowth
// protocol on the sched runtime.
func (r *run[T]) applyGrowth(gr graph.Growth) {
	n0 := len(r.states)
	joined := r.initVals[gr.FirstAgent : gr.FirstAgent+gr.NewAgents]
	r.states = append(r.states, joined...)
	n := len(r.states)
	for a := n0; a < n; a++ {
		r.frozenVals = append(r.frozenVals, r.states[a])
		r.flags = append(r.flags, 0)
		r.seedBase = append(r.seedBase, engine.AgentSeed(r.opts.Seed, a))
		r.eventSeq = append(r.eventSeq, 0)
		r.awaiting = append(r.awaiting, false)
		r.crashed = append(r.crashed, false)
		r.pendingCrash = append(r.pendingCrash, false)
		r.sendTo = append(r.sendTo, -1)
		r.sendDue = append(r.sendDue, 0)
		r.actDue = append(r.actDue, 0)
		r.backoff = append(r.backoff, AIMD{})
	}
	board := make([]boardSlot[T], n)
	for i := 0; i < n0; i++ {
		board[i].v = r.board[i].v
	}
	for a := n0; a < n; a++ {
		board[a].v = r.states[a]
	}
	r.board = board

	last := &r.shards[len(r.shards)-1]
	last.hi = n
	r.buildCSR()
	r.buildMailboxes()

	// The run now answers for the final population: the target absorbs
	// the joiners (exact for super-idempotent f, §3.4), convergence
	// restarts against it, and the variant baseline restarts from the
	// grown state — fresh input may legitimately raise h.
	r.mon.AdmitJoin(joined, ms.New(r.cmp, r.states...))

	for a := n0; a < n; a++ {
		last.mu.Lock()
		r.enqueueLocked(last, int32(a))
	}
}
