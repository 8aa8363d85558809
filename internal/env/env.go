// Package env models the paper's environment: the component of a dynamic
// distributed system that enables and disables agents and communication
// links (§1.2, §2.1).
//
// The environment has its own state and transitions; agents cannot
// influence it, and designers cannot specify it. The only designer-visible
// knob is the assumption set Q of predicates on environment states, each of
// which must hold infinitely often (equation (2)). In §4 every Q is of the
// form Q_E = {Q_e | e ∈ E} for a communication graph E, where Q_e reads
// "edge e is available".
//
// A State here is therefore a mask over the edges of a graph plus a mask
// over agents ("disabled" agents execute no actions and keep their state).
// Environment implementations produce a State per round; the FairnessProbe
// measures empirically whether each Q_e held infinitely often — i.e.
// whether the run actually satisfied (2) — so experiments can correlate
// convergence with the assumption the correctness theorem needs.
//
// Masks are bit-packed (internal/bitset), and environments with sparse
// transitions repair one buffer in place each round. Environments do not
// report which entries flipped: a consumer that needs to know whether a
// round's masks moved compares them with a copy it kept (the round
// engine's partition memo does, in O(E/64) words).
package env

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// State is one environment state G restricted to what affects agents: which
// edges are available and which agents are enabled. Masks are owned by the
// environment and must be treated as read-only by consumers; engines copy
// what they retain. A zero EdgeUp/AgentUp mask means "everything up" —
// the same absent-mask convention graph.ComponentsInto uses.
type State struct {
	EdgeUp  bitset.Set // indexed by edge id of the underlying graph
	AgentUp bitset.Set // indexed by agent id
}

// AllUp returns a State with every edge and agent enabled.
func AllUp(g *graph.Graph) State {
	return State{EdgeUp: bitset.NewAllSet(g.M()), AgentUp: bitset.NewAllSet(g.N())}
}

// EdgeIsUp reports whether edge id is up (absent mask means all up).
func (s State) EdgeIsUp(id int) bool { return s.EdgeUp.IsZero() || s.EdgeUp.Get(id) }

// AgentIsUp reports whether agent a is up (absent mask means all up).
func (s State) AgentIsUp(a int) bool { return s.AgentUp.IsZero() || s.AgentUp.Get(a) }

// Usable reports whether edge id with endpoints a and b can carry an
// interaction: the edge and both endpoints are up.
func (s State) Usable(id, a, b int) bool {
	return s.EdgeIsUp(id) && s.AgentIsUp(a) && s.AgentIsUp(b)
}

// Clone deep-copies the state.
func (s State) Clone() State {
	return State{EdgeUp: s.EdgeUp.Clone(), AgentUp: s.AgentUp.Clone()}
}

// UpEdgeCount returns the number of available edges.
func (s State) UpEdgeCount() int { return s.EdgeUp.Count() }

// UpAgentCount returns the number of enabled agents.
func (s State) UpAgentCount() int { return s.AgentUp.Count() }

// stateBuf is the reusable State every environment hands out from Step.
// The package contract (see State) is that consumers treat the masks as
// read-only and copy what they retain, so an environment can repair one
// buffer per round instead of allocating two masks — which keeps the
// simulation engines' round loops allocation-free.
type stateBuf struct {
	s State
}

// allUp returns the buffer reset to every edge and agent enabled,
// allocating only on first use.
func (b *stateBuf) allUp(g *graph.Graph) State {
	if b.s.EdgeUp.IsZero() {
		b.s = AllUp(g)
		return b.s
	}
	b.s.EdgeUp.SetAll()
	b.s.AgentUp.SetAll()
	return b.s
}

// edgesDown returns the buffer with every agent enabled and every edge
// disabled.
func (b *stateBuf) edgesDown(g *graph.Graph) State {
	s := b.allUp(g)
	s.EdgeUp.ClearAll()
	return s
}

// grow resizes a primed buffer to g's current sizes, filling the new edge
// entries with edgeFill and bringing the new agents up. A buffer that was
// never primed (zero masks) has nothing to carry over — the next allUp
// sizes it correctly.
func (b *stateBuf) grow(g *graph.Graph, edgeFill bool) {
	if b.s.EdgeUp.IsZero() {
		return
	}
	if b.s.EdgeUp.Len() < g.M() {
		b.s.EdgeUp = b.s.EdgeUp.Resized(g.M(), edgeFill)
	}
	if b.s.AgentUp.Len() < g.N() {
		b.s.AgentUp = b.s.AgentUp.Resized(g.N(), true)
	}
}

// Environment produces a sequence of environment states over a fixed
// communication graph. The engine hands Step a fresh stream each round,
// keyed on (run seed, round), and an implementation may draw any number
// of values from it: a round's state is a function of the round, its
// stream and the environment's own state, so runs are reproducible from a
// seed and no other consumer's draws depend on how many Step took. The
// State returned by Step is owned by the environment and is typically the
// same buffer repaired in place each round: consumers must finish with
// (or copy) one round's State before requesting the next.
type Environment interface {
	// Name identifies the model in tables.
	Name() string
	// Graph returns the underlying communication graph (A, E).
	Graph() *graph.Graph
	// Step returns the environment state for the given round. Successive
	// calls model the environment's own state transitions; implementations
	// may keep internal state (e.g. mobility positions).
	Step(round int, rng *rand.Rand) State
}

// Growable is implemented by environments that support population growth
// mid-run. Grow is called after the underlying graph gained agents and/or
// edges (the graph is already grown when Grow runs): the environment must
// resize its masks so every new agent and edge id is covered, with the
// NEW entries up — joiners arrive alive, and their availability is then
// governed by the environment's ordinary transitions from the next Step
// on. Environments need not clear retired edge ids; every mask consumer
// skips them via graph.EdgeRetired. Environments whose state is
// structurally tied to the founding topology (Partitioner's cut set,
// Adversary's scoring, Mobile's pair-per-edge layout) do not implement
// the interface, and the engines reject join schedules over them.
type Growable interface {
	Environment
	Grow()
}

// --- Static: the benign environment ---

// Static keeps every edge and agent up forever: the "benign conditions"
// under which the paper's problems are easy and the algorithms run at full
// speed.
type Static struct {
	g *graph.Graph
	s State
}

// NewStatic builds a Static environment over g.
func NewStatic(g *graph.Graph) *Static { return &Static{g: g, s: AllUp(g)} }

// Name implements Environment.
func (e *Static) Name() string { return "static" }

// Graph implements Environment.
func (e *Static) Graph() *graph.Graph { return e.g }

// Step implements Environment.
func (e *Static) Step(int, *rand.Rand) State { return e.s }

// Grow implements Growable: the all-up masks simply extend, all-up.
func (e *Static) Grow() {
	if e.s.EdgeUp.Len() < e.g.M() {
		e.s.EdgeUp = e.s.EdgeUp.Resized(e.g.M(), true)
	}
	if e.s.AgentUp.Len() < e.g.N() {
		e.s.AgentUp = e.s.AgentUp.Resized(e.g.N(), true)
	}
}

// --- EdgeChurn: independent random link availability ---

// EdgeChurn makes each edge independently available with probability P each
// round (noise, wireless interference). Agents stay up. P = 1 reduces to
// Static. Every edge is up with positive probability each round, so each
// Q_e holds infinitely often with probability 1: assumption (2) is
// satisfied and the correctness theorem applies — convergence merely slows
// down as P drops, which experiment E4 measures.
//
// Step costs O(1 + M·min(P, 1−P)) expected, not O(M): each round samples
// only the MINORITY edges — the ones that deviate from the more likely
// value — by geometric gap skipping on the round's stream, repairing the
// previous round's minority entries in place instead of rewriting the
// whole mask. At P = 0.999 on a 10⁶-edge graph that is ~10³ mask writes
// per round instead of 10⁶, which is what makes large-N churn rounds
// affordable (E15). The sampled distribution is exactly iid Bernoulli(P)
// per edge per round.
type EdgeChurn struct {
	g *graph.Graph
	// P is the per-round, per-edge availability probability.
	P float64

	buf stateBuf
	// flips holds the edge ids currently set to the minority value, so
	// the next round can undo exactly those writes. majority records the
	// fill value the rest of the mask holds (true when P ≥ 0.5); if P is
	// changed mid-run across 0.5 the mask is refilled once.
	flips      []int
	majority   bool
	maskPrimed bool
}

// NewEdgeChurn builds an EdgeChurn environment over g.
func NewEdgeChurn(g *graph.Graph, p float64) *EdgeChurn { return &EdgeChurn{g: g, P: p} }

// Name implements Environment.
func (e *EdgeChurn) Name() string { return fmt.Sprintf("edge-churn(p=%.2f)", e.P) }

// Graph implements Environment.
func (e *EdgeChurn) Graph() *graph.Graph { return e.g }

// geometricGap returns the number of majority-valued edges preceding the
// next minority edge: Geometric(q) on {0, 1, …} via inversion. 1−U is in
// (0, 1], so its logarithm is finite; logOneMinusQ is the precomputed
// log1p(−q), which is nonzero for every q in (0, 1] — including denormal
// q, where log(1−q) would round to log(1.0) = 0 and the division would
// produce ±Inf. Gaps at or beyond limit saturate to limit, so the
// float→int conversion can never overflow into a negative index.
func geometricGap(rng *rand.Rand, logOneMinusQ float64, limit int) int {
	u := 1 - rng.Float64()
	g := math.Log(u) / logOneMinusQ
	if !(g < float64(limit)) { // catches +Inf and NaN too
		return limit
	}
	return int(g)
}

// sampleFlips appends to dst[:0] the ascending ids in [0, m) of the
// minority edges for one round: each id independently selected with
// probability q via geometric gap skipping, consuming one draw per
// selected id (plus one final overshoot draw).
//
//det:hotpath
func sampleFlips(dst []int, m int, q float64, rng *rand.Rand) []int {
	dst = dst[:0]
	if q <= 0 || m == 0 {
		return dst
	}
	l := math.Log1p(-q)
	for id := geometricGap(rng, l, m); id < m; id += 1 + geometricGap(rng, l, m) {
		dst = append(dst, id)
	}
	return dst
}

// Step implements Environment.
func (e *EdgeChurn) Step(_ int, rng *rand.Rand) State {
	majority := e.P >= 0.5
	q := 1 - e.P // minority probability
	if !majority {
		q = e.P
	}
	var s State
	if !e.maskPrimed || majority != e.majority {
		// First round (or P crossed ½): fill the whole mask once.
		s = e.buf.allUp(e.g)
		s.EdgeUp.FillValue(majority)
		e.majority = majority
		e.maskPrimed = true
		e.flips = e.flips[:0]
	} else {
		// Steady state: undo only last round's minority entries.
		s = e.buf.s
		for _, id := range e.flips {
			s.EdgeUp.SetTo(id, majority)
		}
	}
	e.flips = sampleFlips(e.flips, e.g.M(), q, rng)
	for _, id := range e.flips {
		s.EdgeUp.SetTo(id, !majority)
	}
	return s
}

// Grow implements Growable. New edge entries take the majority value and
// new agents come up; the very next Step samples the new edges iid like
// every other (sampleFlips ranges over the grown M).
func (e *EdgeChurn) Grow() { e.buf.grow(e.g, e.majority) }

// --- PowerLoss: agents go down and come back ---

// PowerLoss disables each agent independently with probability P each round
// (battery exhaustion, duty cycling). A disabled agent takes no steps and
// keeps its state, exactly as §1.1 prescribes. Edges are up, but an edge is
// unusable unless both endpoints are up.
type PowerLoss struct {
	g *graph.Graph
	// P is the per-round, per-agent outage probability.
	P float64

	buf stateBuf
}

// NewPowerLoss builds a PowerLoss environment over g.
func NewPowerLoss(g *graph.Graph, p float64) *PowerLoss { return &PowerLoss{g: g, P: p} }

// Name implements Environment.
func (e *PowerLoss) Name() string { return fmt.Sprintf("power-loss(p=%.2f)", e.P) }

// Graph implements Environment.
func (e *PowerLoss) Graph() *graph.Graph { return e.g }

// Step implements Environment.
func (e *PowerLoss) Step(_ int, rng *rand.Rand) State {
	s := e.buf.s
	if s.EdgeUp.IsZero() {
		s = e.buf.allUp(e.g)
	}
	n := s.AgentUp.Len()
	for i := 0; i < n; i++ {
		s.AgentUp.SetTo(i, rng.Float64() >= e.P)
	}
	return s
}

// Grow implements Growable: new agents arrive up (the next Step's
// Bernoulli pass covers them — it ranges over the grown mask), new edges
// are up.
func (e *PowerLoss) Grow() { e.buf.grow(e.g, true) }

// --- Partitioner: adversarial network splits that heal ---

// Partitioner alternates between a healthy phase (everything up) and a
// partitioned phase in which the agent set is split into Parts contiguous
// blocks with every inter-block edge cut. It models the paper's headline
// scenario: "the set of processes may be partitioned into subsets that
// cannot communicate with each other". During the partition, each block is
// a group that must behave as if it were the entire system —
// self-similarity made observable (experiment E5).
//
// The inter-block cut set is static, so it is computed once as a bitset:
// phase transitions are two word-level mask operations, and rounds within
// a phase write nothing.
type Partitioner struct {
	g *graph.Graph
	// Parts is the number of blocks during the partitioned phase (≥ 2).
	Parts int
	// HealthyRounds and PartitionRounds are the phase lengths.
	HealthyRounds, PartitionRounds int

	buf      stateBuf
	cutMask  bitset.Set
	prevPart bool
	primed   bool
}

// NewPartitioner builds a Partitioner with the given phase structure.
func NewPartitioner(g *graph.Graph, parts, healthyRounds, partitionRounds int) *Partitioner {
	if parts < 2 {
		parts = 2
	}
	return &Partitioner{g: g, Parts: parts, HealthyRounds: healthyRounds, PartitionRounds: partitionRounds}
}

// Name implements Environment.
func (e *Partitioner) Name() string {
	return fmt.Sprintf("partitioner(%d parts, %d/%d)", e.Parts, e.HealthyRounds, e.PartitionRounds)
}

// Graph implements Environment.
func (e *Partitioner) Graph() *graph.Graph { return e.g }

// Partitioned reports whether the given round falls in a partitioned phase.
func (e *Partitioner) Partitioned(round int) bool {
	period := e.HealthyRounds + e.PartitionRounds
	if period <= 0 {
		return false
	}
	return round%period >= e.HealthyRounds
}

// Block returns the partition block of agent a during partitioned phases.
func (e *Partitioner) Block(a int) int {
	per := (e.g.N() + e.Parts - 1) / e.Parts
	if per == 0 {
		return 0
	}
	return a / per
}

func (e *Partitioner) ensureCut() {
	if !e.cutMask.IsZero() {
		return
	}
	e.cutMask = bitset.New(e.g.M())
	for id, edge := range e.g.EdgesView() {
		if e.Block(edge.A) != e.Block(edge.B) {
			e.cutMask.Set(id)
		}
	}
}

// Step implements Environment.
func (e *Partitioner) Step(round int, _ *rand.Rand) State {
	part := e.Partitioned(round)
	var s State
	if !e.primed {
		s = e.buf.allUp(e.g)
		e.ensureCut()
		if part {
			s.EdgeUp.AndNot(e.cutMask)
		}
		e.primed = true
	} else {
		s = e.buf.s
		if part != e.prevPart {
			if part {
				s.EdgeUp.AndNot(e.cutMask)
			} else {
				s.EdgeUp.Or(e.cutMask)
			}
		}
	}
	e.prevPart = part
	return s
}

// --- Adversary: targeted edge cuts under a fairness budget ---

// Adversary is a stronger opponent: each round it cuts the CutFraction of
// edges it believes are most useful (those whose endpoints currently have
// the most distinct states, as reported through a feedback hook), but it is
// subject to a fairness budget: every edge is forcibly enabled at least
// once every Window rounds, so the assumption (2) still holds and the
// correctness theorem still applies. Setting Window ≤ 0 removes the budget
// and lets the adversary starve edges forever — the configuration used to
// demonstrate what happens when (2) is violated (experiment E12).
//
// The adversary rescores and re-ranks every edge each round.
type Adversary struct {
	g *graph.Graph
	// CutFraction in [0,1] is the fraction of edges cut each round.
	CutFraction float64
	// Window is the fairness budget; ≤ 0 disables fairness.
	Window int
	// Useful scores an edge's current usefulness; higher is more useful to
	// the agents and hence more attractive to cut. The simulation engine
	// installs a hook based on live agent states. A nil Useful falls back
	// to uniform random cuts.
	Useful func(e graph.Edge) float64

	lastEnabled []int // round at which each edge was last enabled
	buf         stateBuf
	order       []adversaryScore // reusable per-round scoring scratch
}

// adversaryScore pairs an edge id with the adversary's score for it.
type adversaryScore struct {
	id    int
	score float64
}

// NewAdversary builds an Adversary cutting the given fraction of edges with
// the given fairness window.
func NewAdversary(g *graph.Graph, cutFraction float64, window int) *Adversary {
	return &Adversary{g: g, CutFraction: cutFraction, Window: window,
		lastEnabled: make([]int, g.M())}
}

// SetUseful installs the usefulness oracle the adversary targets. The
// simulation engine wires this to live agent state (an edge is useful when
// its endpoints currently disagree) when Options.AdversaryFeedback is set.
func (e *Adversary) SetUseful(useful func(graph.Edge) float64) { e.Useful = useful }

// Name implements Environment.
func (e *Adversary) Name() string {
	fair := "fair"
	if e.Window <= 0 {
		fair = "UNFAIR"
	}
	return fmt.Sprintf("adversary(cut=%.2f, %s)", e.CutFraction, fair)
}

// Graph implements Environment.
func (e *Adversary) Graph() *graph.Graph { return e.g }

// Step implements Environment.
func (e *Adversary) Step(round int, rng *rand.Rand) State {
	s := e.buf.allUp(e.g)
	m := e.g.M()
	cut := int(math.Round(e.CutFraction * float64(m)))
	if cut > m {
		cut = m
	}
	// Score edges: adversary cuts the most useful first.
	if e.order == nil {
		e.order = make([]adversaryScore, m)
	}
	order := e.order
	for id := 0; id < m; id++ {
		sc := rng.Float64() // tie-break / fallback
		if e.Useful != nil {
			sc += 1000 * e.Useful(e.g.Edge(id))
		}
		order[id] = adversaryScore{id, sc}
	}
	// Partial selection of the top `cut` by score.
	for i := 0; i < cut; i++ {
		best := i
		for j := i + 1; j < m; j++ {
			if order[j].score > order[best].score {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
		s.EdgeUp.Clear(order[i].id)
	}
	// Fairness budget: re-enable any edge starved past the window.
	if e.Window > 0 {
		for id := 0; id < m; id++ {
			if s.EdgeUp.Get(id) {
				e.lastEnabled[id] = round
			} else if round-e.lastEnabled[id] >= e.Window {
				s.EdgeUp.Set(id)
				e.lastEnabled[id] = round
			}
		}
	}
	return s
}

// --- Starver: violates (2) on purpose ---

// Starver keeps a fixed set of edges permanently down and everything else
// permanently up. It violates assumption (2) for the starved edges, and is
// used to demonstrate the necessity of the environment assumptions: sum
// over a complete graph minus a starved star around the eventual collector
// cannot terminate, while min converges via alternate routes (E12).
type Starver struct {
	g *graph.Graph
	// starved is sorted and deduplicated: detlint's mapiter triage
	// replaced the original map[int]bool — Clear is commutative so the
	// produced mask was identical either way, but a deterministic scan
	// order costs nothing and leaves nothing for the analyzer to argue
	// about.
	starved []int
	buf     stateBuf
	primed  bool
}

// NewStarver builds a Starver that permanently disables the given edge ids.
func NewStarver(g *graph.Graph, starvedEdges []int) *Starver {
	ids := append([]int(nil), starvedEdges...)
	sort.Ints(ids)
	ids = slices.Compact(ids)
	return &Starver{g: g, starved: ids}
}

// Name implements Environment.
func (e *Starver) Name() string { return fmt.Sprintf("starver(%d edges)", len(e.starved)) }

// Graph implements Environment.
func (e *Starver) Graph() *graph.Graph { return e.g }

// Grow implements Growable: newly attached edges are not starved, so
// they extend the mask up; the starved id set is fixed at construction.
func (e *Starver) Grow() { e.buf.grow(e.g, true) }

// Step implements Environment.
func (e *Starver) Step(int, *rand.Rand) State {
	if !e.primed {
		s := e.buf.allUp(e.g)
		for _, id := range e.starved {
			s.EdgeUp.Clear(id)
		}
		e.primed = true
		return s
	}
	return e.buf.s
}

// --- RoundRobin: minimal fairness ---

// RoundRobin enables exactly one edge per round, cycling through the edge
// list. It is the weakest environment satisfying (2) over the whole graph:
// every Q_e holds infinitely often, but only one group of two agents can
// collaborate at a time. It bounds the slow extreme of the adaptivity
// spectrum in E4/E11. Each round writes at most two mask entries: the
// previous and the current enabled edge.
type RoundRobin struct {
	g   *graph.Graph
	buf stateBuf

	prevEdge int
	primed   bool
}

// NewRoundRobin builds a RoundRobin environment over g.
func NewRoundRobin(g *graph.Graph) *RoundRobin { return &RoundRobin{g: g, prevEdge: -1} }

// Name implements Environment.
func (e *RoundRobin) Name() string { return "round-robin(1 edge/round)" }

// Graph implements Environment.
func (e *RoundRobin) Graph() *graph.Graph { return e.g }

// Grow implements Growable: new edges join the cycle down (exactly one
// edge is up per round; the round counter reaches them in turn), new
// agents up. A round whose cursor lands on a retired id enables only
// that unusable edge — consumers skip it and the round idles, preserving
// the one-draw-per-round structure.
func (e *RoundRobin) Grow() { e.buf.grow(e.g, false) }

// Step implements Environment.
func (e *RoundRobin) Step(round int, _ *rand.Rand) State {
	cur := -1
	if e.g.M() > 0 {
		cur = round % e.g.M()
	}
	var s State
	if !e.primed {
		s = e.buf.edgesDown(e.g)
		if cur >= 0 {
			s.EdgeUp.Set(cur)
		}
		e.primed = true
	} else {
		s = e.buf.s
		if e.prevEdge >= 0 && e.prevEdge != cur {
			s.EdgeUp.Clear(e.prevEdge)
		}
		if cur >= 0 {
			s.EdgeUp.Set(cur)
		}
	}
	e.prevEdge = cur
	return s
}

// --- Mobile: random-waypoint mobility over a geometric graph ---

// Mobile models the paper's mobile-agent motivation: agents move in the
// unit square (random-waypoint) and can communicate exactly when within
// Radius of each other. The underlying graph must be complete — edges
// correspond to agent pairs — and availability is derived from positions,
// so connectivity waxes and wanes as agents travel. Every pairwise
// distance is recomputed per round.
type Mobile struct {
	g      *graph.Graph
	Radius float64
	Speed  float64

	pos    [][2]float64
	dst    [][2]float64
	inited bool
	buf    stateBuf
}

// NewMobile builds a Mobile environment over the complete graph g (one edge
// per agent pair).
func NewMobile(g *graph.Graph, radius, speed float64) (*Mobile, error) {
	if g.M() != g.N()*(g.N()-1)/2 {
		return nil, fmt.Errorf("env: Mobile requires the complete graph, got %s with %d edges", g.Name(), g.M())
	}
	return &Mobile{g: g, Radius: radius, Speed: speed}, nil
}

// Name implements Environment.
func (e *Mobile) Name() string {
	return fmt.Sprintf("mobile(r=%.2f, v=%.3f)", e.Radius, e.Speed)
}

// Graph implements Environment.
func (e *Mobile) Graph() *graph.Graph { return e.g }

// Positions returns a copy of the current agent positions (for examples
// that visualize the run). Before the first Step it returns nil.
func (e *Mobile) Positions() [][2]float64 {
	if !e.inited {
		return nil
	}
	out := make([][2]float64, len(e.pos))
	copy(out, e.pos)
	return out
}

// Step implements Environment.
func (e *Mobile) Step(_ int, rng *rand.Rand) State {
	n := e.g.N()
	if !e.inited {
		e.pos = graph.GeometricPositions(n, rng)
		e.dst = graph.GeometricPositions(n, rng)
		e.inited = true
	}
	// Move every agent toward its waypoint; pick a new one on arrival.
	for i := 0; i < n; i++ {
		dx := e.dst[i][0] - e.pos[i][0]
		dy := e.dst[i][1] - e.pos[i][1]
		d := math.Hypot(dx, dy)
		if d <= e.Speed {
			e.pos[i] = e.dst[i]
			e.dst[i] = [2]float64{rng.Float64(), rng.Float64()}
			continue
		}
		e.pos[i][0] += dx / d * e.Speed
		e.pos[i][1] += dy / d * e.Speed
	}
	s := e.buf.allUp(e.g)
	for id := 0; id < e.g.M(); id++ {
		edge := e.g.Edge(id)
		dx := e.pos[edge.A][0] - e.pos[edge.B][0]
		dy := e.pos[edge.A][1] - e.pos[edge.B][1]
		s.EdgeUp.SetTo(id, math.Hypot(dx, dy) <= e.Radius)
	}
	return s
}

// --- FairnessProbe: empirical check of assumption (2) ---

// FairnessProbe observes the sequence of environment states and reports,
// per edge, how often Q_e held. It turns the paper's environment
// assumption (2) into a measurable quantity: a run over which some edge
// never (or too rarely) came up is outside the theorem's hypotheses, and
// experiments report it as such.
//
// The probe is transition-based: it stores the previous round's mask and
// updates per-edge statistics only where the mask changed, which Observe
// finds with a word-level XOR scan (O(M/64 + flips) per round). Up-time
// and gap figures are reconstructed lazily at query time from run
// boundaries, so steady state costs nothing per edge.
type FairnessProbe struct {
	rounds int
	prev   bitset.Set // up-ness as of the last observed round
	// Per-edge run bookkeeping. For an edge currently up, runStart is the
	// round its current up-run began; accUp counts up-rounds in completed
	// runs only. lastUpEnd is the last round of the most recent completed
	// up-run (0 if none), and maxGap the largest closed gap — the gap
	// still open at query time is folded in by the accessors.
	accUp       []int
	runStart    []int
	lastUpEnd   []int
	maxGap      []int
	diffScratch []int
}

// NewFairnessProbe builds a probe for a graph with m edges.
func NewFairnessProbe(m int) *FairnessProbe {
	return &FairnessProbe{
		prev:      bitset.New(m),
		accUp:     make([]int, m),
		runStart:  make([]int, m),
		lastUpEnd: make([]int, m),
		maxGap:    make([]int, m),
		// Worst-case diff capacity up front: the round-1 full diff (every
		// up edge flips from the all-clear initial state) must not grow
		// the scratch by repeated doubling.
		diffScratch: make([]int, 0, m),
	}
}

// transition records that edge id flipped to nowUp at round r.
func (p *FairnessProbe) transition(id int, nowUp bool, r int) {
	if nowUp {
		if gap := r - p.lastUpEnd[id]; gap > p.maxGap[id] {
			p.maxGap[id] = gap
		}
		p.runStart[id] = r
	} else {
		p.accUp[id] += r - p.runStart[id]
		p.lastUpEnd[id] = r - 1
	}
}

// Observe records one environment state, finding the changed edges by a
// word-level diff against the previous round.
func (p *FairnessProbe) Observe(s State) {
	p.rounds++
	r := p.rounds
	if s.EdgeUp.IsZero() {
		// Absent mask: everything up. Flip any edge currently tracked down.
		for id := 0; id < p.prev.Len(); id++ {
			if !p.prev.Get(id) {
				p.transition(id, true, r)
				p.prev.Set(id)
			}
		}
		return
	}
	p.diffScratch = s.EdgeUp.AppendDiff(p.prev, p.diffScratch[:0])
	for _, id := range p.diffScratch {
		p.transition(id, s.EdgeUp.Get(id), r)
	}
	p.prev.Copy(s.EdgeUp)
}

// Rounds returns how many states were observed.
func (p *FairnessProbe) Rounds() int { return p.rounds }

// upFor returns the number of observed rounds edge id was available.
func (p *FairnessProbe) upFor(id int) int {
	n := p.accUp[id]
	if p.prev.Get(id) {
		n += p.rounds - p.runStart[id] + 1
	}
	return n
}

// UpFraction returns the fraction of observed rounds in which edge id was
// available.
func (p *FairnessProbe) UpFraction(id int) float64 {
	if p.rounds == 0 {
		return 0
	}
	return float64(p.upFor(id)) / float64(p.rounds)
}

// MaxGap returns the longest observed stretch of rounds during which edge
// id was unavailable, counting a still-open gap through the last observed
// round.
func (p *FairnessProbe) MaxGap(id int) int {
	g := p.maxGap[id]
	if !p.prev.Get(id) {
		if open := p.rounds - p.lastUpEnd[id]; open > g {
			g = open
		}
	}
	return g
}

// Starved returns the ids of edges that were never available — witnesses
// that the run violated assumption (2) for those Q_e.
func (p *FairnessProbe) Starved() []int {
	var out []int
	for id := range p.accUp {
		if p.upFor(id) == 0 {
			out = append(out, id)
		}
	}
	return out
}
