// Package sched is the asynchronous realization of the paper's §4.5
// remark that the step relation "can be easily implemented by
// asynchronous message passing": agents gossip whenever they like over
// whatever links the environment currently allows, with no round
// structure, and the conservation law plus variant descent still carry
// the system to f(S(0)). A sharded event-loop actor scheduler executes
// the protocol, so 10⁵–10⁶ agents cost P worker goroutines and zero
// per-exchange allocations.
//
// Protocol (push-pull gossip with a busy guard):
//
//   - an initiating agent picks a random neighbour whose link is up and
//     sends it its state;
//   - the partner — unless it is itself awaiting a reply, or crashed —
//     computes PairStep(initiator, partner), adopts its half and replies
//     with the initiator's half, so the pair transition is atomic at the
//     partner; a busy partner replies "busy" and nothing changes;
//   - the initiator admits no other exchange while its half is in flight
//     (its mailbox drains to busy replies), so two agents initiating at
//     each other can never deadlock and every completed exchange is
//     exactly a PairStep of the problem — a D-step;
//   - a busy-rejected initiator backs off before re-initiating, serving
//     its mailbox meanwhile. Without the backoff the system can
//     phase-lock into a busy storm — every agent perpetually
//     mid-initiate, every request answered busy. The window is adaptive:
//     each agent derives it from its observed rejection rate with an AIMD
//     controller (backoff.go).
//
// The global multiset passes through transient states where one half has
// been adopted and the other is in flight, so conservation and variant
// descent are asserted at quiescence — via the same engine.Monitor the
// round-based engine uses — against authoritative states gathered after
// every worker has stopped. The convergence check that decides when to
// stop reads the same states array, at a safepoint with the world
// stopped, so every agent-state read outside a worker happens with no
// worker running.
//
// Architecture:
//
//   - N agents are split into P contiguous blocks (the engine.Shards
//     block-sizing convention; joiners home on the LAST shard). Each
//     shard's lock guards its agents' inboxes — FIFO chains through one
//     message slot per agent, since an exchange has at most one message
//     in flight and an agent initiates one exchange at a time, so no
//     per-exchange channel or heap allocation — plus two FIFO queues, a
//     run queue of agents waiting to initiate and a mail queue of agents
//     with a message to serve, and a deferred min-heap; the shard is
//     drained by one worker goroutine, due deferrals first, then mail,
//     then initiations. A delivery puts its target on the mail queue, so
//     a message waits for the mail ahead of it, not for a pass of the
//     run queue, and a mail event returns an idle agent to the run queue
//     instead of initiating, so each agent initiates once per pass.
//     Claiming an agent detaches its whole inbox in the same critical
//     section, so an event locks the agent's shard twice — claim and
//     finish — however many messages it serves; a message arriving
//     mid-event starts a fresh chain, and the agent goes on its mail
//     queue when the event ends.
//
//   - An exchange whose partner shares the initiator's shard and is
//     idle — not running, not on its mail queue, inbox empty —
//     completes inside the initiator's event: the worker claims the
//     partner, runs its mail event for the request and serves the reply
//     at once, so nobody waits on it and nobody is rejected busy meanwhile.
//     Every other exchange, and every delayed send, goes through the
//     partner's inbox.
//
//   - Workers whose queues run dry steal runnable agents from other
//     shards, a victim's run queue before its mail queue (one agent per
//     steal, so every scheduling-flag mutation happens under the agent's
//     home shard lock), and every worker yields its thread every
//     yieldEvery events, so an oversubscribed host cannot starve the
//     shards whose workers are off the processor.
//
//   - Time is virtual: the global initiation counter, or a later
//     deadline that a fast-forward jumped to. The AIMD window is
//     ADMISSION CONTROL: a rejected agent is pushed on its home deferred
//     heap with a deadline in virtual ticks and the worker moves on. A
//     worker with no due or queued work fast-forwards its earliest
//     deferral rather than sleeping, so deadlines shape interleaving
//     without ever costing wall-clock, and a run on a dead-quiet system
//     terminates immediately.
//
//   - Determinism keys on stable agent identity, never on workers or
//     scheduling: every event that draws randomness (an initiation, a
//     served request, a busy-reply jitter) reseeds the worker's FastRand
//     with engine.SubSeed(engine.AgentSeed(seed, agent), eventIndex) —
//     O(1) reseeds, no per-agent generator state beyond a counter. Each
//     worker's stream and counters sit on its own padded record, so
//     counting an event dirties no line another worker writes. With
//     Workers=1 the whole run — pops, steals (none), deferrals,
//     convergence checks — is a pure function of the seed, which is the
//     replay pin the 1-worker golden holds (with one shard there is
//     nothing to steal).
//
//   - Dynamics and convergence checks run at SAFEPOINTS: every
//     OpsPerEpoch initiations the crossing worker requests a
//     stop-the-world pause, all workers park at a barrier, and the
//     first to arrive applies one dynamics "round" — graph growth
//     (Join), crash/wake with amnesiac resets, and the partition/burst
//     edge-mask overlay, reusing dynamics.Applier verbatim — then
//     resumes the fleet. A rate-limited quiescence check requests the
//     same pause and compares the stopped states with the target. A
//     crash landing on an agent whose exchange half is in flight is
//     DEFERRED until the reply is adopted, so the pair transition is
//     never torn by a fault.
//
// Link availability is a per-initiation Bernoulli draw on the
// initiator's stream (an O(E) link-table refresh does not scale to 10⁶
// edges), and a system with no runnable agent — islands, everyone
// crashed, budget drained — terminates immediately instead of waiting
// out the wall-clock timeout.
package sched

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/obs"
)

// Options configures a sharded-scheduler run. The zero value of every
// field selects a sensible default.
type Options struct {
	// Seed drives every random draw (neighbour selection, link and fault
	// draws, backoff jitter), keyed per agent identity.
	Seed int64
	// Workers is the number of shards and worker goroutines (default
	// GOMAXPROCS, clamped to the agent count). Workers=1 is the
	// deterministic replay configuration the golden test pins.
	Workers int
	// LinkUpProbability is the chance an initiation finds its link up
	// (1.0 = static network). Drawn per initiation on the initiator's
	// stream — see the package comment for the divergence note.
	LinkUpProbability float64
	// MaxOps bounds initiated exchanges (default max(1e6, 100·N)).
	MaxOps int
	// Timeout bounds wall-clock time (default 30s). Virtual time makes
	// this a safety net, not a scheduling instrument.
	Timeout time.Duration
	// Faults injects message loss and delivery delay at the exchange
	// layer (dynamics.Faults), on the initiator's stream. Delays are in
	// virtual ticks derived from DelayMax at 1µs/tick.
	Faults *dynamics.Faults
	// Dynamics scripts crash/wake, partition/burst windows, joins, and
	// amnesiac rejoins, applied at epoch safepoints (one schedule "round"
	// per OpsPerEpoch initiations). When it schedules joins, initial must
	// hold founding+joiner states (the sim convention).
	Dynamics *dynamics.Schedule
	// OpsPerEpoch is the epoch length in initiations (default N): the
	// sched analogue of a round for Dynamics schedules.
	OpsPerEpoch int
	// Probe records the exchange lifecycle and the scheduler's own
	// counters (enqueues, queue-depth samples, steals, admissions, parks)
	// on the observability layer. Counters only; never consulted for
	// scheduling, so attaching one leaves the 1-worker golden
	// byte-identical.
	Probe *obs.Probe
}

// Result reports an asynchronous run.
type Result[T any] struct {
	// Converged reports whether the final multiset equals the target.
	Converged bool
	// Ops counts initiated exchanges (including busy rejections).
	Ops int
	// ProperSteps counts exchanges that changed the initiator's state.
	ProperSteps int
	// Violations lists monitor failures asserted at quiescence (the
	// conservation law f(S) = S*, the net descent of the variant h, and
	// frozen-state conservation under a dynamics schedule); empty on a
	// correct run.
	Violations []string
	// Final holds the final (positional) agent states.
	Final []T
	// Target is f(S(0)), extended by any scheduled joiners.
	Target ms.Multiset[T]
	// QuiescenceChecks counts how many times the quiescence detector
	// compared the agent states, stopped at a safepoint, with the
	// target. Checks are adoption-gated — at most
	// one per adoption, never on a wall-clock schedule — so this is
	// bounded by the number of adoptions (at most 2·Ops), never by run
	// duration.
	QuiescenceChecks int
	// Rejections counts busy-rejected initiations — the contention signal
	// the AIMD backoff feeds on (Rejections ≤ Ops − ProperSteps).
	Rejections int
	// Lost counts initiated exchanges whose request was dropped in
	// transit by the fault layer (0 when Options.Faults is nil).
	Lost int
	// Elapsed is the wall-clock duration of the run, stamped via the
	// sanctioned obs clock so throughput is derivable without benchmark
	// scaffolding.
	Elapsed time.Duration
	// Steals counts agents idle workers claimed from other shards.
	Steals int
	// Dynamics reports what a dynamics schedule actually did (crashes,
	// recoveries, joins, amnesiac resets); nil when no schedule ran.
	Dynamics *dynamics.Report
}

// ProperStepsPerSec derives the throughput figure the E20 scaling table
// reports: proper steps per wall-clock second, 0 when Elapsed is zero
// (a run that converged before its clock ticked, or a hand-built Result).
func (r *Result[T]) ProperStepsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.ProperSteps) / r.Elapsed.Seconds()
}

// Run executes problem p over graph g from the given initial states on
// the sharded event-loop scheduler until the observed state multiset
// equals the (possibly join-extended) target or a budget is exhausted.
func Run[T any](p core.Problem[T], g *graph.Graph, initial []T, opts Options) (*Result[T], error) {
	clk := obs.NewWallClock()
	start := clk.Now()

	n := g.N()
	if n == 0 {
		return nil, errors.New("sched: empty system")
	}
	joiners := 0
	if opts.Dynamics != nil {
		joiners = opts.Dynamics.TotalJoiners()
	}
	if len(initial) != n+joiners {
		if joiners > 0 {
			return nil, fmt.Errorf("sched: %d initial states for %d founding agents + %d scheduled joiners", len(initial), n, joiners)
		}
		return nil, fmt.Errorf("sched: %d initial states for %d agents", len(initial), n)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers > n {
		opts.Workers = n
	}
	if opts.MaxOps <= 0 {
		opts.MaxOps = 1_000_000
		if m := 100 * n; m > opts.MaxOps {
			opts.MaxOps = m
		}
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.LinkUpProbability <= 0 {
		opts.LinkUpProbability = 1
	}
	if opts.OpsPerEpoch <= 0 {
		opts.OpsPerEpoch = n
	}
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
	}
	if opts.Dynamics != nil {
		if last := opts.Dynamics.LastJoinRound(); last >= 0 && last*opts.OpsPerEpoch >= opts.MaxOps {
			return nil, fmt.Errorf("sched: MaxOps %d cannot reach join epoch %d of a schedule with horizon %d (OpsPerEpoch %d); raise MaxOps or lower OpsPerEpoch",
				opts.MaxOps, last, opts.Dynamics.Horizon(), opts.OpsPerEpoch)
		}
	}

	cmp := p.Cmp()
	mon := engine.NewMonitor(p, engine.NewShards(cmp, initial[:n], 1), engine.NewPool(1, 1))
	res := &Result[T]{Target: mon.Target()}
	if _, reached := mon.FirstReach(); reached && opts.Dynamics == nil {
		res.Converged = true
		res.Final = append([]T(nil), initial...)
		res.Elapsed = time.Duration(clk.Now() - start)
		return res, nil
	}

	r := &run[T]{
		p:          p,
		g:          g,
		cmp:        cmp,
		opts:       opts,
		mon:        mon,
		initVals:   initial,
		checkEvery: int64(max(64, n/2)),
	}
	r.setup(n)

	if opts.Dynamics != nil {
		r.ap = opts.Dynamics.NewApplier(g, opts.Seed)
		// Epoch 0 fires before any exchange, like sim's round 0.
		r.applyEpoch(0)
	}

	timer := time.AfterFunc(opts.Timeout, r.halt)
	defer timer.Stop()

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(w)
		}(w)
	}
	wg.Wait()
	r.settle()

	res.Final = r.states
	res.Ops = int(r.ops.Load())
	t := r.totals()
	res.ProperSteps = int(t.properSteps)
	res.Rejections = int(t.rejections)
	res.Lost = int(t.lost)
	res.Steals = int(t.steals)
	res.QuiescenceChecks = r.checks
	res.Target = mon.Target()
	// Conservation and net variant descent are judged once, on the final
	// state, at the epoch index CheckFrozen uses. Converged is whether that
	// state equals the target — never the monitor's sticky first-reach
	// record, which Reset may have set before dynamics moved the state.
	// The final state is handed over as a one-shard layout, as sim does
	// below its shard threshold; sched stages no changes through the
	// monitor, so h is synced from that state first.
	final := engine.NewShards(cmp, r.states, 1)
	epoch := res.Ops / opts.OpsPerEpoch
	res.Converged = mon.Reached(final.View())
	mon.SyncVariant(final.View())
	mon.ObserveRound(epoch, final)
	if r.ap != nil {
		// Frozen-state conservation: agents crashed at quiescence must
		// hold exactly the state recorded when they froze.
		frozen := make([]int, 0, 8)
		for a := range r.states {
			if r.crashed[a] {
				frozen = append(frozen, a)
			}
		}
		mon.CheckFrozen(epoch, cmp, frozen, r.frozenVals, r.states)
		rep := r.ap.Report()
		res.Dynamics = &rep
	}
	res.Violations = mon.Violations()
	res.Elapsed = time.Duration(clk.Now() - start)
	return res, nil
}

// nbEntry is one CSR neighbour record: the peer agent and the connecting
// edge id (for the dynamics edge-mask check).
type nbEntry struct {
	agent int32
	edge  int32
}

// run is one execution's complete state.
type run[T any] struct {
	p    core.Problem[T]
	g    *graph.Graph
	cmp  func(a, b T) int
	opts Options

	mon *engine.Monitor[T]
	ap  *dynamics.Applier

	shards    []shard[T]
	blockSize int // founding block size: agent a homes on shard min(a/blockSize, P-1)

	// Agent arrays, indexed by id. Scheduling flags live in flags under
	// the home shard lock; everything else is owned by the worker
	// currently processing the agent (ownership transfers through the
	// queue locks) or by the safepoint conductor (all workers parked).
	states       []T
	initVals     []T // founding + joiners, the amnesiac reset source
	frozenVals   []T
	flags        []uint8
	eventSeq     []uint32
	awaiting     []bool
	crashed      []bool
	pendingCrash []bool
	sendTo       []int32 // delayed request's target (-1 = none)
	sendDue      []int64
	actDue       []int64 // admission deadline in virtual ticks
	backoff      []AIMD

	// Mailboxes: msg[s] is the message slot of the exchange agent s
	// initiated, link threads the slots into per-agent FIFO inboxes
	// (mailbox.go). Guarded by the home shard lock of the inbox a slot
	// sits in, or owned by the worker that detached the slot's chain.
	msg     []message[T]
	link    []int32
	inboxes []inbox

	// CSR neighbour lists, rebuilt at join safepoints.
	nbrOff []int32
	nbrs   []nbEntry

	// base is the all-up edge/agent masks, grown with the graph; es is
	// the current epoch's effective masks — base under the dynamics
	// overlay, or base itself without a schedule. Both are written only
	// at safepoints; workers read es.
	base, es env.State

	// Virtual time and budget: ops is the global initiation counter, and
	// the virtual clock is now() = max(ops, vnow), where vnow holds only
	// the deadlines of fast-forwarded deferrals. Without them a moment
	// where every agent is deferred (a busy storm, an all-delayed epoch)
	// would freeze the clock the deferrals are waiting on: nobody
	// initiates, ops never moves, the system spins until the wall-clock
	// net. An initiation moves the clock by its add to ops alone, so it
	// costs no second write to a shared line.
	ops         atomic.Int64
	vnow        atomic.Int64
	budgetOut   atomic.Bool
	nextEpochAt atomic.Int64
	epoch       int // next epoch to apply; safepoint-requester-owned

	// inflight[w] is the op count at which worker w began its current
	// scheduling event, or idleTick between events. Initiations hold
	// back while any event is more than maxSkew ops old (see held).
	inflight []inflightTick
	maxSkew  int64

	// runnable counts agents that are queued, deferred, or running; the
	// transition to zero means nothing can ever happen again.
	runnable atomic.Int64

	// workers[w] is worker w's stream and counters. Result and the
	// quiescence check sum the records; a safepoint conductor, with
	// every other worker parked, counts on workers[0].
	workers []workerRec

	// Quiescence-check state, written only by a safepoint conductor, so
	// workers read it unlocked.
	checks       int
	checkedAdopt int64 // adoptions count consumed by the last check
	lastCheckOps int64
	checkEvery   int64 // least initiations between checks: max(64, N/2)
	viewBuf      []T   // sorted states copy for a non-consensus problem's check

	// Stop machinery and the safepoint barrier.
	stop     atomic.Bool
	sp       safepoint
	sleepers atomic.Int64
}

// workerRec is one worker's random stream and counters, padded to 128
// bytes, a pair of cache lines: no other worker writes it, so counting
// an event keeps its line in the worker's own cache. adoptions is atomic
// because every worker's quiescence gate sums it, about once per
// checkEvery ops; the other counters are read once the workers have
// stopped.
type workerRec struct {
	rng *engine.FastRand
	tally
	adoptions atomic.Int64
	// events counts the worker's events, for the yield every yieldEvery.
	events int64
	_      [128 - 56]byte
}

// tally is the counters a Result reports, kept per worker and summed.
type tally struct {
	properSteps, rejections, lost, steals int64
}

// inflightTick is one worker's event start, padded to its own cache
// line: its worker writes it twice per event.
type inflightTick struct {
	tick atomic.Int64
	_    [56]byte
}

// idleTick marks a worker that is between events: never old.
const idleTick = math.MaxInt64

// skewPerWorker is the least skew, per worker, that held tolerates. An
// event takes microseconds, so in a healthy run the other workers start
// a handful of initiations during it; only a worker the OS or the Go
// runtime has descheduled mid-event falls this far behind.
const skewPerWorker = 64

// heldEvery is how often, in initiations, the gate is consulted: the
// check reads every worker's line, so it runs on every heldEvery-th op
// only.
const heldEvery = 32

// yieldEvery is how often, in events, a worker yields its thread with
// runtime.Gosched. With more workers than threads a worker whose queues
// never empty never steals and never sleeps, so without the yield the
// other workers — and the mail waiting on their shards — run only when
// the Go runtime preempts it, every 10 ms.
const yieldEvery = 256

// safepoint is the stop-the-world barrier dynamics epochs and
// quiescence checks run under.
type safepoint struct {
	mu         sync.Mutex
	cond       *sync.Cond
	want       atomic.Bool
	conducting bool // a worker is already conducting this safepoint
	parked     int
	exited     int
}

// setup builds every run structure for the founding population.
func (r *run[T]) setup(n int) {
	P := r.opts.Workers
	r.blockSize = (n + P - 1) / P
	r.shards = make([]shard[T], P)
	r.inflight = make([]inflightTick, P)
	r.workers = make([]workerRec, P)
	for w := range r.inflight {
		r.inflight[w].tick.Store(idleTick)
		r.workers[w].rng = engine.NewFastRand(r.opts.Seed)
	}
	// One round — every agent's fair share of one initiation — and never
	// less than skewPerWorker per worker.
	r.maxSkew = int64(max(n, skewPerWorker*P))
	r.states = append([]T(nil), r.initVals[:n]...)
	r.frozenVals = make([]T, n)
	r.flags = make([]uint8, n)
	r.eventSeq = make([]uint32, n)
	r.awaiting = make([]bool, n)
	r.crashed = make([]bool, n)
	r.pendingCrash = make([]bool, n)
	r.sendTo = make([]int32, n)
	r.sendDue = make([]int64, n)
	r.actDue = make([]int64, n)
	r.backoff = make([]AIMD, n)
	for a := 0; a < n; a++ {
		r.sendTo[a] = -1
	}
	r.buildCSR()
	r.base = env.AllUp(r.g)
	r.es = r.base
	for s := range r.shards {
		sh := &r.shards[s]
		sh.lo = s * r.blockSize
		sh.hi = sh.lo + r.blockSize
		if sh.lo > n {
			sh.lo = n
		}
		if sh.hi > n || s == len(r.shards)-1 {
			sh.hi = n
		}
		sh.wake = make(chan struct{}, 1)
	}
	r.growMailboxes(n)
	r.sp.cond = sync.NewCond(&r.sp.mu)
	r.nextEpochAt.Store(int64(r.opts.OpsPerEpoch))
	// Seed the adoption cursor one behind so the first rate-limit window
	// always produces a check even if no agent ever adopts (an initial
	// state already at the target under a dynamics schedule).
	r.checkedAdopt = -1

	// Every agent starts runnable, enqueued on its home shard in id
	// order.
	r.runnable.Store(int64(n))
	for s := range r.shards {
		sh := &r.shards[s]
		c := pow2(sh.hi - sh.lo)
		sh.runq.buf = make([]int32, c)
		sh.mailq.buf = make([]int32, c)
		for a := sh.lo; a < sh.hi; a++ {
			r.flags[a] = flagQueued
			sh.runq.push(int32(a))
		}
		if cap(sh.deferred) == 0 {
			sh.deferred = make([]deferEntry, 0, sh.hi-sh.lo+1)
		}
	}
}

// buildCSR (re)builds the flat neighbour lists from the graph, skipping
// retired edges. O(N+E); called at setup and join safepoints.
func (r *run[T]) buildCSR() {
	n := r.g.N()
	if cap(r.nbrOff) < n+1 {
		r.nbrOff = make([]int32, n+1)
	}
	r.nbrOff = r.nbrOff[:n+1]
	for i := range r.nbrOff {
		r.nbrOff[i] = 0
	}
	edges := r.g.EdgesView()
	live := 0
	for id := range edges {
		if r.g.EdgeRetired(id) {
			continue
		}
		r.nbrOff[edges[id].A+1]++
		r.nbrOff[edges[id].B+1]++
		live++
	}
	for i := 1; i <= n; i++ {
		r.nbrOff[i] += r.nbrOff[i-1]
	}
	if cap(r.nbrs) < 2*live {
		r.nbrs = make([]nbEntry, 2*live)
	}
	r.nbrs = r.nbrs[:2*live]
	fill := make([]int32, n)
	for id := range edges {
		if r.g.EdgeRetired(id) {
			continue
		}
		e := edges[id]
		r.nbrs[r.nbrOff[e.A]+fill[e.A]] = nbEntry{agent: int32(e.B), edge: int32(id)}
		fill[e.A]++
		r.nbrs[r.nbrOff[e.B]+fill[e.B]] = nbEntry{agent: int32(e.A), edge: int32(id)}
		fill[e.B]++
	}
}

// home returns the agent's home shard index: contiguous blocks of the
// founding block size, with every overflow id (joiners) homed on the
// last shard — the engine.Shards append convention.
//
//det:hotpath
func (r *run[T]) home(a int32) *shard[T] {
	s := int(a) / r.blockSize
	if s >= len(r.shards) {
		s = len(r.shards) - 1
	}
	return &r.shards[s]
}

// halt stops the run: all sleepers wake, barrier waiters recheck, and
// every worker exits at its next loop top.
func (r *run[T]) halt() {
	r.stop.Store(true)
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
	r.sp.mu.Lock()
	r.sp.cond.Broadcast()
	r.sp.mu.Unlock()
}

// settle completes the exchanges a halt cut short, once every worker has
// stopped. An OK reply still in its initiator's inbox carries one half
// of a pair transition whose other half the partner has already adopted,
// so the initiator adopts it here; unserved requests and busy replies
// changed no state and are dropped.
func (r *run[T]) settle() {
	for a := range r.inboxes {
		for s := r.detachLocked(int32(a)); s != endOfChain; {
			var m message[T]
			m, s = r.takeMsg(s)
			if m.kind == msgReplyOK {
				r.handle(int32(a), m, &r.workers[0]) // adopting a reply draws nothing
			}
		}
	}
}

// totals sums the workers' counters.
func (r *run[T]) totals() tally {
	var t tally
	for w := range r.workers {
		c := &r.workers[w].tally
		t.properSteps += c.properSteps
		t.rejections += c.rejections
		t.lost += c.lost
		t.steals += c.steals
	}
	return t
}

// adoptions sums the workers' adoption counts.
func (r *run[T]) adoptions() int64 {
	var n int64
	for w := range r.workers {
		n += r.workers[w].adoptions.Load()
	}
	return n
}

// now reads the virtual clock: the initiation count, or a later
// fast-forwarded deadline.
//
//det:hotpath
func (r *run[T]) now() int64 {
	return max(r.ops.Load(), r.vnow.Load())
}

// advance moves the fast-forward clock to at least tick (monotonic
// CAS-max; concurrent advances commute).
//
//det:hotpath
func (r *run[T]) advance(tick int64) {
	for {
		cur := r.vnow.Load()
		if tick <= cur || r.vnow.CompareAndSwap(cur, tick) {
			return
		}
	}
}

// pow2 rounds n up to a power of two (minimum 8).
func pow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}
