// Package dynamics is the scripted fault-and-dynamism layer: a
// declarative, seed-deterministic schedule of dynamism events applied on
// top of whatever environment a run uses.
//
// The paper's subject is computation in DYNAMIC distributed systems —
// "agents enter and leave the system, and the interaction graph shifts,
// while the computation remains correct" — yet an env.Environment models
// only stationary randomness (churn probabilities, mobility). A Schedule
// adds the scripted, scenario-shaped dynamism the theory is actually
// about:
//
//   - agent CRASH / RECOVER: a crashed agent's state is frozen and the
//     agent is excluded from groups and matchings — exactly the paper's
//     "disabled agent executes no actions and does not change state",
//     but driven by a script (or a seeded random process) instead of an
//     iid coin;
//   - graph PARTITION / HEAL: the cut edges of a block partition are
//     masked off for a window of rounds, then restored — §1's "the set
//     of processes may be partitioned into subsets that cannot
//     communicate", with the heal round recorded so experiments can
//     measure rounds-to-reconverge;
//   - churn BURSTS: a window during which every edge is additionally
//     dropped with some probability each round — a temporary
//     availability override on top of the environment's own behaviour.
//
// (Message loss and delay for the asynchronous scheduler are the fourth
// primitive; they live in Faults, injected at the exchange layer by
// internal/sched.)
//
// A Schedule is engine-agnostic: the round engine (internal/sim) applies
// one schedule round per simulation round, and the sharded scheduler
// (internal/sched) applies one per epoch of OpsPerEpoch initiations at a
// stop-the-world safepoint — the same script, the same Applier, on both
// realizations of the paper's execution model.
//
// Determinism contract. A Schedule is pure data; all per-run state lives
// in an Applier. Every random draw the applier makes comes from a
// per-round substream seeded engine.SubSeed(SubSeed(runSeed, seedTag),
// round), tagged apart from the engine's environment, matching and group
// streams and never dependent on what previous rounds drew — so dynamics
// are a pure function of (run seed, round) and results are bit-identical
// for every state layout (Shards), worker count, and GOMAXPROCS. A nil
// Schedule (sim.Options.Dynamics == nil) leaves the
// engine untouched, and an empty schedule (NewSchedule with no rules)
// is behaviourally identical to nil — both are pinned by the sim golden
// matrix.
//
// Incrementality contract. The applier never rewrites an environment
// mask. It maintains the live-agent set and the active cut-edge set
// incrementally (O(changes) at event rounds), overlays them onto the
// environment's own State buffer by writing false to exactly the
// entries that were up, and undoes exactly those writes at the end of
// the round — so a steady-state round with an active partition costs
// O(cut size + frozen agents), and a round with no active dynamism
// costs nothing and allocates nothing.
//
// Zero values. Following the multiset.Merger convention, a zero-value
// Schedule or Rule panics early with a descriptive message the moment it
// is used: schedules must be built with NewSchedule from the Rule
// constructors, which validate rounds, windows, probabilities, and ids
// at construction time rather than failing obscurely mid-run.
package dynamics

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
)

// seedTag separates the dynamics substream family from every other use
// of engine.SubSeed on the same run seed (sweep cells use small indices;
// this is an arbitrary large constant).
const seedTag = 0x00d1_fa57

// growTag derives the growth substream base from the dynamics base. It is
// negative so it can never collide with the per-round event substreams
// SubSeed(base, round), whose indices are the (non-negative) round
// numbers: preferential-attachment draws must not perturb — or be
// perturbed by — the same round's event draws.
const growTag = -0x6a01_2e77

// Schedule is an immutable, declarative set of dynamism rules. Build one
// with NewSchedule; the zero value panics on use. A Schedule carries no
// per-run state and may be shared by any number of concurrent runs —
// each run owns an Applier.
type Schedule struct {
	rules []rule
	built bool
}

// NewSchedule composes a schedule from rules. An empty schedule is valid
// and behaviourally identical to no dynamics at all (the alloc-budget
// benchmark pins that it adds ~0 allocs/round).
func NewSchedule(rules ...Rule) *Schedule {
	s := &Schedule{built: true}
	for i, r := range rules {
		if !r.ok {
			panic(fmt.Sprintf("dynamics.NewSchedule: rule %d is a zero-value Rule; build rules with At/Every/Partition/PartitionCycle/CutEdges/Burst/RandomCrashes/Join/AmnesiacRejoin", i))
		}
		s.rules = append(s.rules, r.r)
	}
	return s
}

// Rules returns the number of rules in the schedule.
func (s *Schedule) Rules() int {
	s.check()
	return len(s.rules)
}

// TotalJoiners returns the total number of agents the schedule's Join
// rules will add over the whole run — the engine sizes the initial-state
// array (founding population + joiners, in join order) from this.
func (s *Schedule) TotalJoiners() int {
	s.check()
	k := 0
	for i := range s.rules {
		if s.rules[i].kind == ruleJoin {
			k += s.rules[i].joinK
		}
	}
	return k
}

// Horizon returns the last round at which one of the schedule's
// one-shot rules still fires or changes scripted state: the latest At
// round, window end, or Join round (−1 for an empty schedule or one
// with only recurring rules — Every, RandomCrashes, cyclic partitions —
// which have no finite horizon). Engines that map schedule rounds onto
// another clock — the sched runtime applies one round per OpsPerEpoch
// initiations — use this to check the whole script fits inside the
// run's budget.
func (s *Schedule) Horizon() int {
	s.check()
	h := -1
	for i := range s.rules {
		r := &s.rules[i]
		switch r.kind {
		case ruleAt, ruleJoin:
			if r.round > h {
				h = r.round
			}
		case ruleCutWindow, ruleBurst:
			if !r.cyclic && r.to-1 > h {
				h = r.to - 1
			}
		}
	}
	return h
}

// LastJoinRound returns the latest round at which a Join rule fires
// (−1 when the schedule has none) — engines must not stop on
// convergence before every scheduled join has been applied.
func (s *Schedule) LastJoinRound() int {
	s.check()
	last := -1
	for i := range s.rules {
		if s.rules[i].kind == ruleJoin && s.rules[i].round > last {
			last = s.rules[i].round
		}
	}
	return last
}

// Amnesiac reports whether the schedule carries the AmnesiacRejoin
// policy flag: recoveries re-enter with their initial state.
func (s *Schedule) Amnesiac() bool {
	s.check()
	for i := range s.rules {
		if s.rules[i].kind == ruleAmnesiac {
			return true
		}
	}
	return false
}

func (s *Schedule) check() {
	if s == nil || !s.built {
		panic("dynamics: zero-value Schedule; build with dynamics.NewSchedule(...)")
	}
}

// Rule is one scheduled dynamism rule — a timed Event (At, Every), a
// masking window (Partition, PartitionCycle, CutEdges, Burst), or a
// random crash/recovery process (RandomCrashes). The zero value panics
// when passed to NewSchedule.
type Rule struct {
	ok bool
	r  rule
}

type ruleKind int

const (
	ruleAt ruleKind = iota
	ruleEvery
	ruleCutWindow // partition or explicit cut: a window of masked edges
	ruleBurst     // per-round random extra edge loss inside a window
	ruleRandomCrashes
	ruleJoin     // population growth: k agents attach at a scheduled round
	ruleAmnesiac // policy flag: recoveries are amnesiac rejoins
)

type rule struct {
	kind ruleKind
	ev   Event // At / Every

	round, every int // At round; Every period; Join round

	// Join rules: how many agents arrive and which attachment family
	// splices them in (see JoinTopos). joinM is the links-per-joiner
	// parameter of preferential attachment.
	joinK    int
	joinTopo string
	joinM    int

	// Window rules. A one-shot window is [from, to); a cyclic window
	// (PartitionCycle) is up during rounds r with r%(healthy+down) >=
	// healthy.
	from, to      int
	healthy, down int
	cyclic        bool

	parts  int   // partition windows: contiguous block count
	cutIDs []int // explicit cut windows: edge ids

	q        float64 // burst: per-edge per-round extra drop probability
	rate     float64 // random crashes: per-live-agent per-round crash probability
	recoverP float64 // random crashes: per-crashed-agent per-round wake probability
}

// At schedules ev to fire once, at the given round. Rounds are 0-based,
// matching sim.RoundInfo.Round; negative rounds panic early.
func At(round int, ev Event) Rule {
	if round < 0 {
		panic(fmt.Sprintf("dynamics.At: negative round %d", round))
	}
	if ev == nil {
		panic("dynamics.At: nil Event")
	}
	return Rule{ok: true, r: rule{kind: ruleAt, round: round, ev: ev}}
}

// Every schedules ev to fire at every positive multiple of k (rounds k,
// 2k, 3k, …). k ≤ 0 panics early.
func Every(k int, ev Event) Rule {
	if k <= 0 {
		panic(fmt.Sprintf("dynamics.Every: non-positive period %d", k))
	}
	if ev == nil {
		panic("dynamics.Every: nil Event")
	}
	return Rule{ok: true, r: rule{kind: ruleEvery, every: k, ev: ev}}
}

// Partition masks every edge between distinct blocks of a parts-way
// contiguous agent partition for rounds [from, to) — the same block rule
// env.Partitioner and the sharded state layout use. The heal (round to)
// is recorded in the Report so experiments can measure reconvergence.
func Partition(parts, from, to int) Rule {
	if parts < 2 {
		panic(fmt.Sprintf("dynamics.Partition: need at least 2 parts, got %d", parts))
	}
	checkWindow("dynamics.Partition", from, to)
	return Rule{ok: true, r: rule{kind: ruleCutWindow, parts: parts, from: from, to: to}}
}

// PartitionCycle is the repeating form of Partition: healthy rounds of
// full connectivity alternating with down rounds of a parts-way block
// partition, forever. Every down→healthy transition is a recorded heal.
func PartitionCycle(parts, healthy, down int) Rule {
	if parts < 2 {
		panic(fmt.Sprintf("dynamics.PartitionCycle: need at least 2 parts, got %d", parts))
	}
	if healthy < 1 || down < 1 {
		panic(fmt.Sprintf("dynamics.PartitionCycle: phase lengths must be positive, got healthy=%d down=%d", healthy, down))
	}
	return Rule{ok: true, r: rule{kind: ruleCutWindow, parts: parts, cyclic: true, healthy: healthy, down: down}}
}

// CutEdges masks the given edge ids for rounds [from, to). Ids are
// validated against the run's graph when the Applier is built.
func CutEdges(ids []int, from, to int) Rule {
	if len(ids) == 0 {
		panic("dynamics.CutEdges: empty edge list")
	}
	checkWindow("dynamics.CutEdges", from, to)
	for _, id := range ids {
		if id < 0 {
			panic(fmt.Sprintf("dynamics.CutEdges: negative edge id %d", id))
		}
	}
	return Rule{ok: true, r: rule{kind: ruleCutWindow, cutIDs: append([]int(nil), ids...), from: from, to: to}}
}

// Burst drops every edge independently with probability q each round of
// [from, to), on top of whatever the environment already masked — a
// temporary churn-probability override (availability multiplied by
// 1−q for the window).
func Burst(q float64, from, to int) Rule {
	if !(q > 0 && q <= 1) {
		panic(fmt.Sprintf("dynamics.Burst: drop probability %g outside (0, 1]", q))
	}
	checkWindow("dynamics.Burst", from, to)
	return Rule{ok: true, r: rule{kind: ruleBurst, q: q, from: from, to: to}}
}

// RandomCrashes crashes each live agent independently with probability
// rate per round, and wakes each crashed agent independently with
// probability 1/meanDown per round (so outages last meanDown rounds in
// expectation). Sampling uses geometric gap skipping, so a round costs
// O(1 + n·rate + crashed), not O(n).
func RandomCrashes(rate float64, meanDown int) Rule {
	if !(rate > 0 && rate < 1) {
		panic(fmt.Sprintf("dynamics.RandomCrashes: crash rate %g outside (0, 1)", rate))
	}
	if meanDown < 1 {
		panic(fmt.Sprintf("dynamics.RandomCrashes: mean downtime %d rounds below 1", meanDown))
	}
	return Rule{ok: true, r: rule{kind: ruleRandomCrashes, rate: rate, recoverP: 1 / float64(meanDown)}}
}

// JoinTopos lists the attachment families Join accepts: "ring" splices
// the joiners into the ring's closing edge (graph.SpliceRing),
// "hypercube" fills the next dimension's vertices (graph.GrowHypercube),
// and "pref" attaches each joiner to 2 existing agents drawn
// preferentially by degree (graph.AttachPreferential).
func JoinTopos() []string { return []string{"ring", "hypercube", "pref"} }

// Join schedules k agents to JOIN the system at the given round,
// attached to the live topology by the named family (see JoinTopos).
// The joiners arrive live, with agent ids assigned append-only past the
// current population; the engine is responsible for supplying their
// initial states and extending the conservation target per §3.4
// (f(f(X) ∪ Y) = f(X ∪ Y)). Growth mutates the run's graph — sweep
// runs clone the pristine topology per cell.
func Join(k int, topo string, round int) Rule {
	if k < 1 {
		panic(fmt.Sprintf("dynamics.Join: non-positive joiner count %d", k))
	}
	if round < 0 {
		panic(fmt.Sprintf("dynamics.Join: negative round %d", round))
	}
	ok := false
	for _, t := range JoinTopos() {
		if topo == t {
			ok = true
			break
		}
	}
	if !ok {
		panic(fmt.Sprintf("dynamics.Join: unknown attachment family %q (know %s)", topo, joinToposList()))
	}
	return Rule{ok: true, r: rule{kind: ruleJoin, round: round, joinK: k, joinTopo: topo, joinM: 2}}
}

func joinToposList() string {
	s := ""
	for i, t := range JoinTopos() {
		if i > 0 {
			s += ", "
		}
		s += t
	}
	return s
}

// AmnesiacRejoin marks every recovery in the schedule as an AMNESIAC
// rejoin: instead of waking with its frozen (pre-crash) state, the agent
// re-enters the computation with its INITIAL state, as if it had never
// participated — the paper's §3.4 re-entry model, where correctness
// under rejoin is exactly super-idempotence of f. The engine performs
// the state reset (the applier only reports who woke, via JustWoken);
// the monitor rebases its variant baseline at such rounds, and for
// non-super-idempotent f (sum, average) the conservation law is
// EXPECTED to break — that detection is experiment E19's subject.
func AmnesiacRejoin() Rule {
	return Rule{ok: true, r: rule{kind: ruleAmnesiac}}
}

// checkWindow validates a [from, to) round window.
func checkWindow(what string, from, to int) {
	if from < 0 {
		panic(fmt.Sprintf("%s: negative start round %d", what, from))
	}
	if to <= from {
		panic(fmt.Sprintf("%s: empty window [%d, %d)", what, from, to))
	}
}

// activeAt reports whether a window rule masks edges during round r.
func (r *rule) activeAt(round int) bool {
	if r.cyclic {
		return round%(r.healthy+r.down) >= r.healthy
	}
	return round >= r.from && round < r.to
}

// Event is something a timed rule (At, Every) does to the agent
// population when it fires. The set is closed: events are built with
// CrashAgents, RecoverAgents, CrashRandom, and RecoverAll.
type Event interface {
	fire(a *Applier, round int)
	fmt.Stringer
}

type crashAgents struct{ agents []int }

// CrashAgents crashes the listed agents (ids are validated against the
// run's graph when the Applier is built; crashing an already-crashed
// agent is a no-op).
func CrashAgents(agents ...int) Event {
	if len(agents) == 0 {
		panic("dynamics.CrashAgents: empty agent list")
	}
	for _, a := range agents {
		if a < 0 {
			panic(fmt.Sprintf("dynamics.CrashAgents: negative agent id %d", a))
		}
	}
	return crashAgents{agents: append([]int(nil), agents...)}
}

func (e crashAgents) fire(a *Applier, _ int) {
	for _, ag := range e.agents {
		a.crash(ag)
	}
}
func (e crashAgents) String() string { return fmt.Sprintf("crash%v", e.agents) }

type recoverAgents struct{ agents []int }

// RecoverAgents wakes the listed agents (waking a live agent is a
// no-op).
func RecoverAgents(agents ...int) Event {
	if len(agents) == 0 {
		panic("dynamics.RecoverAgents: empty agent list")
	}
	for _, a := range agents {
		if a < 0 {
			panic(fmt.Sprintf("dynamics.RecoverAgents: negative agent id %d", a))
		}
	}
	return recoverAgents{agents: append([]int(nil), agents...)}
}

func (e recoverAgents) fire(a *Applier, _ int) {
	for _, ag := range e.agents {
		a.wake(ag)
	}
}
func (e recoverAgents) String() string { return fmt.Sprintf("recover%v", e.agents) }

type crashRandom struct{ k int }

// CrashRandom crashes exactly k agents drawn uniformly without
// replacement from the currently live population (all of them when
// fewer than k are live).
func CrashRandom(k int) Event {
	if k < 1 {
		panic(fmt.Sprintf("dynamics.CrashRandom: non-positive count %d", k))
	}
	return crashRandom{k: k}
}

func (e crashRandom) fire(a *Applier, _ int) {
	n := a.g.N()
	liveCount := n - len(a.frozen)
	if liveCount <= e.k {
		for ag := 0; ag < n; ag++ {
			if a.live.Get(ag) {
				a.crash(ag)
			}
		}
		return
	}
	// Exact uniform sampling without replacement: pick the r-th agent by
	// rank among the live agents not yet picked, k times. One draw per
	// pick, deterministic given (seed, round) and the live set. All k
	// draws come first; each rank is shifted past the earlier picks at or
	// below it (ascending) to give its rank in the original live order,
	// O(k²) in all. One pass over the live set's words then maps the
	// sorted ranks to agents, and the agents crash in pick order.
	picks, sorted := a.pickRanks[:0], a.pickSorted[:0]
	for picked := 0; picked < e.k; picked++ {
		r := a.rng.Intn(liveCount - picked)
		for _, s := range sorted {
			if s > r {
				break
			}
			r++
		}
		picks = append(picks, r)
		i, _ := slices.BinarySearch(sorted, r)
		sorted = slices.Insert(sorted, i, r)
	}
	agents := appendRanked(a.pickAgents[:0], a.live.Words(), sorted)
	for _, r := range picks {
		i, _ := slices.BinarySearch(sorted, r)
		a.crash(agents[i])
	}
	a.pickRanks, a.pickSorted, a.pickAgents = picks, sorted, agents
}
func (e crashRandom) String() string { return fmt.Sprintf("crash-random(%d)", e.k) }

// appendRanked appends to dst the position of the r-th set bit of words
// (counting from 0) for each r in ranks, which must be ascending and
// below the number of set bits. Whole words below the next rank are
// skipped by their popcount, so the pass costs one popcount per word
// plus a select inside the word of each rank.
func appendRanked(dst []int, words []uint64, ranks []int) []int {
	wi, below := 0, 0 // below: set bits in words[:wi]
	for _, r := range ranks {
		for c := bits.OnesCount64(words[wi]); below+c <= r; c = bits.OnesCount64(words[wi]) {
			below += c
			wi++
		}
		w := words[wi]
		for j := r - below; j > 0; j-- {
			w &= w - 1 // drop the lowest set bit
		}
		dst = append(dst, wi<<6|bits.TrailingZeros64(w))
	}
	return dst
}

type recoverAll struct{}

// RecoverAll wakes every crashed agent.
func RecoverAll() Event { return recoverAll{} }

func (recoverAll) fire(a *Applier, _ int) {
	// wake mutates a.frozen; drain from the back so the iteration stays
	// well-defined.
	for len(a.frozen) > 0 {
		a.wake(a.frozen[len(a.frozen)-1])
	}
}
func (recoverAll) String() string { return "recover-all" }

// Report accumulates what a run's dynamics actually did — the
// convergence-under-churn observables experiments aggregate.
type Report struct {
	// Crashes and Recoveries count agent sleep/wake transitions applied.
	Crashes, Recoveries int
	// Heals counts cut-window ends (partition heals) that took effect;
	// LastHealRound is the round of the most recent one (−1 when none).
	// Rounds-to-reconverge after the final heal is the convergence round
	// minus LastHealRound.
	Heals         int
	LastHealRound int
	// MaskedEdgeRounds sums, over rounds, the number of edges the
	// dynamics layer forced down that the environment had up.
	MaskedEdgeRounds int
	// FrozenAgentRounds sums, over rounds, the number of crashed agents.
	FrozenAgentRounds int
	// Joins counts agents added by Join rules; AmnesiacResets counts
	// recoveries that re-entered with their initial state (every
	// recovery, when the schedule carries AmnesiacRejoin).
	Joins          int
	AmnesiacResets int
}

// Applier is one run's mutable dynamics state: the live-agent set, the
// active cut windows, the per-round substream, and the overlay undo
// logs. It belongs to one run (one goroutine) at a time and is reused
// across runs via Reset — the warm-engine contract sim.Scratch extends
// to dynamics.
type Applier struct {
	s    *Schedule
	g    *graph.Graph
	base int64

	live        bitset.Set
	frozen      []int // crashed agents, ascending — the frozen-check list
	justCrashed []int // agents crashed by the current BeginRound
	justWoken   []int // agents woken by the current BeginRound
	wakeScratch []int

	// CrashRandom scratch: the picks' ranks in the original live order,
	// in pick order and ascending, and the agents of the ascending ranks.
	pickRanks, pickSorted, pickAgents []int

	// Population growth: remaining scheduled joiners, the amnesiac
	// policy flag, and the growth substream base (negative-tag sibling of
	// the per-round event substreams — see growTag).
	joinsLeft int
	amnesiac  bool
	growBase  int64

	winActive []bool  // per rule: window currently masking
	winCut    [][]int // per rule: lazily computed cut edge ids

	burstIDs []int // this round's burst-dropped edge ids

	// Overlay undo logs: exactly the mask entries BeginRound set false.
	curEdgeUp, curAgentUp bitset.Set
	edgeUndo, agentUndo   []int

	rng *engine.FastRand
	rep Report
}

// NewApplier builds the per-run applier for schedule s over graph g,
// deriving every random draw from runSeed. Agent and edge ids referenced
// by the schedule are validated against g here, with early panics.
func (s *Schedule) NewApplier(g *graph.Graph, runSeed int64) *Applier {
	a := &Applier{}
	a.Reset(s, g, runSeed)
	return a
}

// Reset rebinds the applier to a new run: all agents live, no windows
// active, report zeroed, substream base re-derived from runSeed. Buffers
// are kept warm; an applier reused across sweep cells re-pays nothing
// beyond mask resizing when the graph changes.
func (a *Applier) Reset(s *Schedule, g *graph.Graph, runSeed int64) {
	s.check()
	a.s, a.g = s, g
	a.base = engine.SubSeed(runSeed, seedTag)
	a.growBase = engine.SubSeed(a.base, growTag)
	a.joinsLeft = s.TotalJoiners()
	a.amnesiac = s.Amnesiac()
	a.validate()

	if n := g.N(); a.live.Len() == n {
		a.live.SetAll()
	} else {
		a.live = bitset.NewAllSet(n)
	}
	a.frozen = a.frozen[:0]
	a.justCrashed = a.justCrashed[:0]
	a.justWoken = a.justWoken[:0]
	a.burstIDs = a.burstIDs[:0]
	a.edgeUndo, a.agentUndo = a.edgeUndo[:0], a.agentUndo[:0]
	a.curEdgeUp, a.curAgentUp = bitset.Set{}, bitset.Set{}

	if cap(a.winActive) < len(s.rules) {
		a.winActive = make([]bool, len(s.rules))
		a.winCut = make([][]int, len(s.rules))
	}
	a.winActive = a.winActive[:len(s.rules)]
	a.winCut = a.winCut[:len(s.rules)]
	for i := range a.winActive {
		a.winActive[i] = false
		a.winCut[i] = nil // cut sets are graph-dependent; recompute lazily
	}

	if a.rng == nil {
		a.rng = engine.NewFastRand(a.base)
	}
	a.rep = Report{LastHealRound: -1}
}

// validate checks every id the schedule references against the graph.
// Scripted agent ids may address joiners (ids in [N, N + TotalJoiners)):
// crashing or waking an agent that has not yet joined panics at fire
// time, not here.
func (a *Applier) validate() {
	n, m := a.g.N()+a.s.TotalJoiners(), a.g.M()
	for i := range a.s.rules {
		r := &a.s.rules[i]
		switch r.kind {
		case ruleAt, ruleEvery:
			switch ev := r.ev.(type) {
			case crashAgents:
				checkAgentIDs("dynamics.CrashAgents", ev.agents, n)
			case recoverAgents:
				checkAgentIDs("dynamics.RecoverAgents", ev.agents, n)
			}
		case ruleCutWindow:
			for _, id := range r.cutIDs {
				if id >= m {
					panic(fmt.Sprintf("dynamics.CutEdges: edge id %d out of range for graph %s with %d edges", id, a.g.Name(), m))
				}
			}
		}
	}
}

func checkAgentIDs(what string, ids []int, n int) {
	for _, id := range ids {
		if id >= n {
			panic(fmt.Sprintf("%s: agent id %d out of range for %d agents", what, id, n))
		}
	}
}

// crash freezes agent ag (no-op when already crashed).
func (a *Applier) crash(ag int) {
	if ag >= a.live.Len() {
		panic(fmt.Sprintf("dynamics: crash of agent %d scheduled before it joins (population is %d)", ag, a.live.Len()))
	}
	if !a.live.Get(ag) {
		return
	}
	a.live.Clear(ag)
	a.frozen = insertSorted(a.frozen, ag)
	a.justCrashed = append(a.justCrashed, ag)
	a.rep.Crashes++
}

// wake unfreezes agent ag (no-op when live).
func (a *Applier) wake(ag int) {
	if ag >= a.live.Len() {
		panic(fmt.Sprintf("dynamics: recovery of agent %d scheduled before it joins (population is %d)", ag, a.live.Len()))
	}
	if a.live.Get(ag) {
		return
	}
	a.live.Set(ag)
	a.frozen = removeSorted(a.frozen, ag)
	a.justWoken = append(a.justWoken, ag)
	a.rep.Recoveries++
	if a.amnesiac {
		a.rep.AmnesiacResets++
	}
}

func insertSorted(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// cutFor returns rule i's cut edge ids, computing them on first use: the
// inter-block edges of the contiguous partition (Partition,
// PartitionCycle) or the validated explicit list (CutEdges).
func (a *Applier) cutFor(i int) []int {
	if a.winCut[i] != nil {
		return a.winCut[i]
	}
	r := &a.s.rules[i]
	if r.cutIDs != nil {
		a.winCut[i] = r.cutIDs
		return r.cutIDs
	}
	n := a.g.N()
	per := (n + r.parts - 1) / r.parts
	if per == 0 {
		per = 1
	}
	var ids []int
	for id := 0; id < a.g.M(); id++ {
		if a.g.EdgeRetired(id) {
			continue
		}
		e := a.g.Edge(id)
		if e.A/per != e.B/per {
			ids = append(ids, id)
		}
	}
	if ids == nil {
		ids = []int{} // non-nil marks "computed"
	}
	a.winCut[i] = ids
	return ids
}

// GrowthFor applies the round's Join rules, if any, mutating the run's
// graph through the incremental attachment paths (graph.SpliceRing,
// GrowHypercube, AttachPreferential) and returning the merged Growth
// record. The engine calls this at the TOP of each round, before the
// environment steps and before BeginRound: the joiners participate in
// the very round they arrive. Returns (zero, false) on rounds with no
// scheduled join — the steady-state fast path, one counter test.
//
//det:hotpath
func (a *Applier) GrowthFor(round int) (graph.Growth, bool) {
	if a.joinsLeft == 0 {
		return graph.Growth{}, false
	}
	return a.growthSlow(round)
}

// growthSlow is GrowthFor off the fast path: at most once per join
// round. Preferential-attachment draws come from the growth substream
// SubSeed(growBase, round) — disjoint by construction from the event
// substreams (growTag < 0, rounds ≥ 0) — and a.rng is reseeded again by
// BeginRound before any event fires, so growth and events cannot
// perturb each other's draws.
func (a *Applier) growthSlow(round int) (graph.Growth, bool) {
	var total graph.Growth
	any := false
	reseeded := false
	for i := range a.s.rules {
		r := &a.s.rules[i]
		if r.kind != ruleJoin || r.round != round {
			continue
		}
		var gr graph.Growth
		var err error
		switch r.joinTopo {
		case "ring":
			gr, err = a.g.SpliceRing(r.joinK)
		case "hypercube":
			gr, err = a.g.GrowHypercube(r.joinK)
		case "pref":
			if !reseeded {
				a.rng.Reseed(engine.SubSeed(a.growBase, round))
				reseeded = true
			}
			gr, err = a.g.AttachPreferential(r.joinK, r.joinM, a.rng)
		}
		if err != nil {
			panic(fmt.Sprintf("dynamics.Join(%d, %q, %d): attachment failed on graph %s: %v", r.joinK, r.joinTopo, round, a.g.Name(), err))
		}
		if !any {
			total, any = gr, true
		} else {
			total.NewAgents += gr.NewAgents
		}
		a.joinsLeft -= r.joinK
		a.rep.Joins += r.joinK
	}
	if !any {
		return graph.Growth{}, false
	}
	// Joiners arrive live.
	a.live = a.live.Resized(a.g.N(), true)
	// The block-partition cut lists were built for the smaller
	// topology: their block size is a function of the current population
	// (explicit CutEdges lists are untouched — they name founding edges
	// by id, and ids are stable).
	for i := range a.winCut {
		if a.s.rules[i].kind == ruleCutWindow && a.s.rules[i].cutIDs == nil {
			a.winCut[i] = nil
		}
	}
	return total, true
}

// PendingJoins reports whether any scheduled join has not yet fired —
// engines must not stop on convergence while this holds.
func (a *Applier) PendingJoins() bool { return a.joinsLeft > 0 }

// BeginRound applies the schedule for one round: it fires the round's
// events (updating the live set and window states incrementally), then
// overlays the dynamics masks onto the environment state by writing
// false to exactly the up entries being suppressed, and returns the
// effective state. The input masks must be sized to the current graph
// (env.State's contract); the returned State aliases them, and EndRound
// MUST be called after the round's masks have been consumed and
// before the environment's next Step, to undo the overlay writes.
func (a *Applier) BeginRound(round int, es env.State) env.State {
	if round < 0 {
		panic(fmt.Sprintf("dynamics.Applier.BeginRound: negative round %d", round))
	}
	a.justCrashed = a.justCrashed[:0]
	a.justWoken = a.justWoken[:0]
	a.burstIDs = a.burstIDs[:0]
	if len(a.s.rules) == 0 {
		return es
	}
	// One substream per round: every draw below is a function of
	// (run seed, round) and the deterministic schedule state only.
	a.rng.Reseed(engine.SubSeed(a.base, round))

	anyCut := false
	for i := range a.s.rules {
		r := &a.s.rules[i]
		switch r.kind {
		case ruleAt:
			if round == r.round {
				r.ev.fire(a, round)
			}
		case ruleEvery:
			if round > 0 && round%r.every == 0 {
				r.ev.fire(a, round)
			}
		case ruleCutWindow:
			want := r.activeAt(round)
			if want != a.winActive[i] {
				a.winActive[i] = want
				if !want {
					a.rep.Heals++
					a.rep.LastHealRound = round
				}
			}
			anyCut = anyCut || want
		case ruleBurst:
			if r.activeAt(round) {
				a.burstIDs = env.SampleBernoulli(a.burstIDs, a.g.M(), r.q, a.rng.Rand)
			}
		case ruleRandomCrashes:
			// Crashes: geometric gap skipping over the agent ids, so the
			// draw count is O(1 + n·rate); already-crashed hits are no-ops.
			// The crash ids borrow the recoveries' scratch slice.
			a.wakeScratch = env.SampleBernoulli(a.wakeScratch[:0], a.g.N(), r.rate, a.rng.Rand)
			for _, ag := range a.wakeScratch {
				a.crash(ag)
			}
			// Recoveries: one draw per crashed agent, ascending order.
			a.wakeScratch = a.wakeScratch[:0]
			for _, ag := range a.frozen {
				if a.rng.Float64() < r.recoverP {
					a.wakeScratch = append(a.wakeScratch, ag)
				}
			}
			for _, ag := range a.wakeScratch {
				a.wake(ag)
			}
		}
	}

	// Overlay: edges first.
	eu := es.EdgeUp
	if anyCut {
		for i := range a.s.rules {
			if a.s.rules[i].kind == ruleCutWindow && a.winActive[i] {
				for _, id := range a.cutFor(i) {
					if eu.Get(id) {
						eu.Clear(id)
						a.edgeUndo = append(a.edgeUndo, id)
					}
				}
			}
		}
	}
	for _, id := range a.burstIDs {
		if eu.Get(id) {
			eu.Clear(id)
			a.edgeUndo = append(a.edgeUndo, id)
		}
	}
	// Then the live set.
	au := es.AgentUp
	for _, ag := range a.frozen {
		if au.Get(ag) {
			au.Clear(ag)
			a.agentUndo = append(a.agentUndo, ag)
		}
	}
	a.curEdgeUp, a.curAgentUp = eu, au
	a.rep.MaskedEdgeRounds += len(a.edgeUndo)
	a.rep.FrozenAgentRounds += len(a.frozen)
	return env.State{EdgeUp: eu, AgentUp: au}
}

// EndRound undoes BeginRound's overlay writes, restoring the
// environment's buffers to exactly the values its Step produced.
func (a *Applier) EndRound() {
	for _, id := range a.edgeUndo {
		a.curEdgeUp.Set(id)
	}
	for _, ag := range a.agentUndo {
		a.curAgentUp.Set(ag)
	}
	a.edgeUndo, a.agentUndo = a.edgeUndo[:0], a.agentUndo[:0]
	a.curEdgeUp, a.curAgentUp = bitset.Set{}, bitset.Set{}
}

// JustCrashed returns the agents crashed by the most recent BeginRound —
// the engine snapshots their states as the frozen reference values. The
// slice aliases applier scratch, valid until the next BeginRound.
func (a *Applier) JustCrashed() []int { return a.justCrashed }

// JustWoken returns the agents woken by the most recent BeginRound, in
// wake order. Under an amnesiac schedule (Amnesiac true) the engine
// resets each of them to its initial state before the round's groups
// step. The slice aliases applier scratch, valid until the next
// BeginRound.
func (a *Applier) JustWoken() []int { return a.justWoken }

// Amnesiac reports whether recoveries are amnesiac rejoins for this run.
func (a *Applier) Amnesiac() bool { return a.amnesiac }

// Frozen returns the currently crashed agents in ascending order — the
// list the engine's frozen-state conservation check walks each round.
// The slice aliases applier state, valid until the next BeginRound.
func (a *Applier) Frozen() []int { return a.frozen }

// Report returns the dynamics observables accumulated so far.
func (a *Applier) Report() Report { return a.rep }
