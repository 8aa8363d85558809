// Package engine is the shared core of the two execution engines — the
// round-based simulator (internal/sim) and the asynchronous message-passing
// scheduler (internal/sched).
//
// Both engines realize the same execution model (Chandy & Charpentier,
// ICDCS 2007, §2.1): agents transitions interleave with environment
// transitions, every agents transition must be a step of the relation D,
// and the run is judged by the same pair of global properties — the
// conservation law f(S) = S* (§3.2) and the monotone descent of the
// variant h (§3.5). Before this package existed those monitors, the
// convergence detector, and the deterministic seeding discipline were
// implemented twice and had started to diverge; sim and sched now build
// on the primitives here:
//
//   - Monitor: the run's one judge against the target S* = f(S(0)) —
//     conservation-law checking, variant-descent checking, first-reach
//     detection, and D-step verification (the proof obligation "R
//     implements D" of §3.7), with the violation-reporting format both
//     engines share. For a problem that declares core.Consensus with a
//     core.Additive variant it judges a round in O(P + changes) from the
//     shards' extremes and a running h; every other problem is judged on
//     the merged global view;
//   - GroupSeed, SubSeed and FastRand: per-group step seeds keyed on (run
//     seed, round, smallest member), so results are independent of
//     goroutine scheduling and of which groups step; the O(1)-reseed
//     stream a worker steps a group on; and the per-agent seed
//     derivation the asynchronous scheduler uses;
//   - Pool: a persistent worker pool sized to GOMAXPROCS that replaces the
//     goroutine-per-group-per-round pattern, engaging only above a
//     group-count threshold so small systems run serially and
//     allocation-free.
package engine

import (
	"fmt"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// HEps is the strict-decrease slack of every engine monitor's D-step and
// variant-descent checks. It absorbs float noise in the geometric and
// averaging variants; an integer-valued h moves by at least 1, so for it
// the slack changes no verdict.
const HEps = 1e-9

// Monitor judges one run of either engine against its target S*: it
// watches for violations of the paper's two global invariants, records
// the first observation that reaches S*, and verifies individual steps
// against the relation D. It is NOT safe for concurrent use; engines
// observe from their coordinating goroutine.
//
// ObserveRound takes one of two exact paths, chosen by the problem's
// declarations alone. The consensus path — p declares core.Consensus and
// p.H() is core.Additive — reads n, min and max from the P shard
// trackers and reports a running h that Stage keeps current, so a round
// costs O(P + changes) and nothing is merged or filled. Every other
// problem takes the full path: f and h are evaluated on the merged
// global view. Both paths give identical verdicts, h values and first
// reaches; the tests keep the full path as the consensus path's oracle.
type Monitor[T any] struct {
	f          core.Function[T]
	h          core.Variant[T]
	equal      func(a, b ms.Multiset[T]) bool
	target     ms.Multiset[T]
	lastH      float64
	violations []string
	// reached records whether an observation has reached the target since
	// the last Reset or AdmitJoin, and reachRound the index it was
	// recorded at; the record is sticky until a join clears it.
	reached    bool
	reachRound int
	// fBuf backs the full path's per-round f evaluation when f provides
	// the core.IntoFunction fast path, so the conservation check allocates
	// nothing in steady state. The consensus path never grows it.
	fBuf []T
	// cons and add are set together exactly on the consensus path, and
	// hSum is the running Σ Term — h of the state the caller's shards
	// hold, kept current by Stage and resynced from a full view by Reset,
	// AdmitJoin, RebaseVariant and SyncVariant.
	cons core.Consensus[T]
	add  core.Additive[T]
	hSum int64
}

// NewMonitor builds a Monitor for problem p from the initial state
// multiset: the target S* = f(S(0)) is fixed here, the variant baseline
// is h(S(0)), and an initial state that already equals S* is recorded as
// reached at index 0.
func NewMonitor[T any](p core.Problem[T], initial ms.Multiset[T]) *Monitor[T] {
	m := &Monitor[T]{}
	m.Reset(p, initial)
	return m
}

// Reset rebinds the monitor to a new run — problem p, initial state
// multiset — keeping the per-round evaluation buffer fBuf warm, so
// a monitor reused across the cells of a scenario sweep re-pays none of
// its steady-state scratch. The target multiset and the violations slice
// are deliberately NOT reused: both are retained by callers through
// Result, so each run gets fresh storage for them.
func (m *Monitor[T]) Reset(p core.Problem[T], initial ms.Multiset[T]) {
	m.f, m.h, m.equal = p.F(), p.H(), p.Equal
	m.cons, m.add = nil, nil
	if c, ok := p.(core.Consensus[T]); ok {
		if a, ok := m.h.(core.Additive[T]); ok {
			m.cons, m.add = c, a
		}
	}
	m.target = m.f.Apply(initial)
	m.lastH = m.resyncH(initial)
	m.violations = nil
	m.reached, m.reachRound = m.equal(initial, m.target), 0
}

// resyncH returns h(now), first recomputing the consensus path's running
// sum from the full view.
func (m *Monitor[T]) resyncH(now ms.Multiset[T]) float64 {
	if m.add == nil {
		return m.h.Value(now)
	}
	m.hSum = 0
	for i := 0; i < now.Len(); i++ {
		m.hSum += m.add.Term(now.At(i))
	}
	return float64(m.hSum)
}

// Target returns the goal multiset S* = f(S(0)) (extended by AdmitJoin).
func (m *Monitor[T]) Target() ms.Multiset[T] { return m.target }

// ConsensusTarget reports S* as |S*| copies of c* when the monitor is on
// the consensus path (ok true; c is the zero value when |S*| = 0). A
// state then equals S* exactly when it has |S*| members and every one is
// cmp-equal to c*, which a poller can decide by scanning the states
// without sorting them. On the full path ok is false.
func (m *Monitor[T]) ConsensusTarget() (c T, n int, ok bool) {
	if m.cons == nil {
		return c, 0, false
	}
	if n = m.target.Len(); n > 0 {
		c = m.target.At(0)
	}
	return c, n, true
}

// Reached reports whether now equals the target, without recording
// anything — the stateless probe used by pollers.
func (m *Monitor[T]) Reached(now ms.Multiset[T]) bool { return m.equal(now, m.target) }

// FirstReach returns the index recorded at the first observation that
// reached the target — 0 for an initial state already there, round+1 for
// ObserveRound(round, ·) — and whether any observation has reached it
// since the last Reset or AdmitJoin.
func (m *Monitor[T]) FirstReach() (round int, ok bool) { return m.reachRound, m.reached }

// ObserveRound checks the global state s holds after a round — called
// after s.Flush — against the conservation law f(S) = S* and the
// monotone descent of h relative to the previous observation. The first
// observation equal to S* is recorded as reached at round+1 (the number
// of rounds executed) and never moved afterwards. It returns the current
// h value.
//
// On the consensus path the round is judged from s.Extremes in O(P):
// f(S) = S* iff |S| = |S*| and Consensus(min S, max S) = c*, and S = S*
// iff in addition min S = max S = c*; h is the running sum Stage keeps,
// so the caller must have staged every change s flushed (or resynced h
// through SyncVariant). On the full path f and h are evaluated on the
// merged s.View — f through the core.ApplyInto fast path into a
// monitor-owned buffer, so for functions that provide it the check
// allocates nothing. Either way verdicts never depend on the shard
// layout.
//
//det:hotpath
func (m *Monitor[T]) ObserveRound(round int, s *Shards[T]) float64 {
	var conserved, reached bool
	var nowH float64
	if c, want, ok := m.ConsensusTarget(); ok {
		n, lo, hi := s.Extremes()
		cmp := m.target.Cmp()
		conserved = n == want && (n == 0 || cmp(m.cons.Consensus(lo, hi), c) == 0)
		reached = n == want && (n == 0 || cmp(lo, c) == 0 && cmp(hi, c) == 0)
		nowH = float64(m.hSum)
	} else {
		global := s.View()
		var fx ms.Multiset[T]
		fx, m.fBuf = core.ApplyInto(m.f, m.fBuf, global)
		conserved = m.equal(fx, m.target)
		nowH = m.h.Value(global)
		reached = !m.reached && m.equal(global, m.target)
	}
	if !conserved {
		m.AddViolation("round %d: conservation law violated: f(S) ≠ S*", round)
	}
	if nowH > m.lastH+HEps {
		m.AddViolation("round %d: variant increased %g → %g", round, m.lastH, nowH)
	}
	m.lastH = nowH
	if reached && !m.reached {
		m.reached, m.reachRound = true, round+1
	}
	return nowH
}

// Stage records that one agent's state changed old → new, keeping the
// consensus path's running h current; on the full path, which evaluates
// h afresh every round, it does nothing. An engine stages here every
// change it stages into the Shards it hands to ObserveRound.
//
//det:hotpath
func (m *Monitor[T]) Stage(oldV, newV T) {
	if m.add != nil {
		m.hSum += m.add.Term(newV) - m.add.Term(oldV)
	}
}

// AdmitJoin re-aims the run at the grown population; now is the state
// with the joiners applied. It extends the conservation target for the
// sanctioned growth: target' = f(target ∪ joined) = f(f(S(0)) ∪ joined).
// When f is super-idempotent this is EXACTLY f(S(0) ∪ joined) by §3.4
// (f(f(X) ∪ Y) = f(X ∪ Y)) — the target a fresh run over the whole
// population would fix — so admitting joiners against the already-reduced
// target never masks or manufactures a violation. It clears the
// first-reach record, since the run must (re)reach the NEW target, and
// rebases the variant baseline to h(now), since fresh input may
// legitimately raise h.
func (m *Monitor[T]) AdmitJoin(joined []T, now ms.Multiset[T]) {
	if len(joined) > 0 {
		y := ms.New(m.target.Cmp(), joined...)
		m.target = m.f.Apply(m.target.Union(y))
	}
	m.reached, m.reachRound = false, 0
	m.lastH = m.resyncH(now)
}

// RebaseVariant resets the variant baseline to h(now). A sanctioned
// discontinuity — an amnesiac rejoin resetting an agent to its initial
// state — may raise h without any agent taking an illegal step; callers
// invoke this at such rounds so the descent check resumes from the
// post-discontinuity value instead of reporting the jump as a violation.
// (A join rebases through AdmitJoin.)
func (m *Monitor[T]) RebaseVariant(now ms.Multiset[T]) { m.lastH = m.resyncH(now) }

// SyncVariant sets the h the next ObserveRound reports to h(now) without
// moving the descent baseline. An engine that does not stage its changes
// through Stage — sched, which judges only its final state — calls it
// before that observation, so the descent check compares the real h(now)
// against the baseline.
func (m *Monitor[T]) SyncVariant(now ms.Multiset[T]) {
	if m.add != nil {
		m.resyncH(now)
	}
}

// CheckFrozen verifies the dynamics layer's frozen-state contract: a
// crashed agent "executes no actions and does not change state", so for
// every agent in frozen (ids into the positional state array) the
// current state must equal the state recorded when the agent crashed
// (want, indexed by agent id). Any drift is an engine bug — a group or
// matching that included a supposedly excluded agent — and is recorded
// as a monitor violation like any conservation failure.
func (m *Monitor[T]) CheckFrozen(round int, cmp func(a, b T) int, frozen []int, want, states []T) {
	for _, a := range frozen {
		if cmp(want[a], states[a]) != 0 {
			m.violations = append(m.violations,
				fmt.Sprintf("round %d: frozen agent %d changed state while crashed", round, a))
		}
	}
}

// VerifyStep decides whether before → after is a step of the relation D
// under the monitor's f, h, equality, and HEps — proof obligation
// "R implements D" as a runtime check.
func (m *Monitor[T]) VerifyStep(before, after ms.Multiset[T]) core.StepVerdict {
	return core.CheckDStep(m.f, m.h, m.equal, before, after, HEps)
}

// AddViolation records a formatted violation.
func (m *Monitor[T]) AddViolation(format string, args ...any) {
	m.violations = append(m.violations, fmt.Sprintf(format, args...))
}

// Violations returns the violations recorded so far (nil on a clean run).
func (m *Monitor[T]) Violations() []string { return m.violations }

// groupTag separates the group-step substream family from every other
// use of SubSeed on the same run seed: sweep cells use small indices and
// dynamics its own tag, so without it a group's seed could equal a
// dynamics per-round seed. (The first SHA-256 initial hash word: an
// arbitrary large constant.)
const groupTag = 0x6a09_e667

// GroupSeed is the seed of the private step stream of the group whose
// smallest member is member, in round round of the run seeded runSeed.
// The seed is keyed on the group's identity, not drawn in group order
// from the master stream — the counter-based discipline of Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3" (SC 2011) — so a group's
// randomness does not depend on which other groups exist, which of them
// step or are skipped, or which worker runs it. The groups of one round
// are disjoint, so their smallest members, and their streams, are
// distinct.
func GroupSeed(runSeed int64, round, member int) int64 {
	return SubSeed(GroupRoundSeed(runSeed, round), member)
}

// GroupRoundSeed is GroupSeed's per-round base: GroupSeed(s, r, m) ==
// SubSeed(GroupRoundSeed(s, r), m), so an engine that steps many groups
// in one round derives it once per round.
func GroupRoundSeed(runSeed int64, round int) int64 {
	return SubSeed(SubSeed(runSeed, groupTag), round)
}

// AgentSeed derives the per-agent stream seed the asynchronous scheduler
// keys each agent's events on (7919 is prime, so agent streams are spread
// across the seed space).
func AgentSeed(base int64, agent int) int64 { return base + int64(agent)*7919 }
