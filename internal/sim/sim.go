// Package sim is the round-based simulation engine for dynamic distributed
// systems, implementing the paper's execution model (§2.1).
//
// A system transition is either an environment transition or an agents
// transition; the engine alternates them. Each round:
//
//  1. the environment transitions (env.Environment.Step), yielding the set
//     of available edges and enabled agents;
//  2. the partition π of agents is derived: the connected components of
//     the enabled subgraph (a disabled agent is a singleton group that
//     takes no action — it "executes no actions and does not change
//     state");
//  3. every group in π executes one collaborative step of R concurrently
//     (a persistent worker pool fans the disjoint groups out across
//     GOMAXPROCS workers — groups are disjoint, so the paper's "disjoint
//     sets of agents can execute the algorithm concurrently" is realized
//     literally; small rounds run serially, which is cheaper and
//     bit-for-bit identical because every group steps on a private stream
//     keyed on (run seed, round, smallest member) — engine.GroupSeed —
//     never on its position in a draw order). In PairwiseMode the groups
//     are the pairs of a random maximal matching: the greedy matching of
//     the usable edges in an order keyed on (seed, round), answered by
//     local queries from the pairs that can change (engine.PairMatcher),
//     after which the matched pairs step like any other groups.
//
// Self-similarity is structural: a group step sees nothing but the states
// of the group's own members, and the same GroupStep code runs for every
// group of every size.
//
// The engine doubles as a runtime verifier. With Options.CheckSteps it
// checks that every executed group step is a D-step (proof obligation
// "R implements D" of §3.7), and it always monitors the conservation law
// f(S) = S* (§3.2) and the monotone descent of the variant h on the global
// state, recording the first round at which the state reaches the target.
// Violations are recorded in the Result and fail tests. The monitor (the
// run's one judge, convergence included) and the keyed seeds are shared
// with the asynchronous runtime via internal/engine. The environment, the
// matching and every group draw on streams keyed on (seed, round) and
// themselves (engine.RoundSeed). Options.OnRound is the one per-round
// outlet for progress (h, step counts).
//
// A Scratch is the engine's one warm handle: the worker pool, the step
// and environment streams and every reusable buffer. Run builds one per
// call; RunWith reuses a caller's across runs.
//
// The round loop is allocation-free in steady state: the global state
// multiset is kept in an engine.Shards — per-shard multiset.Trackers whose
// changed members are staged during the round and repaired once at its
// end instead of re-sorted from scratch — the partition is derived into
// reusable scratch (graph.ComponentsInto), and all matching and group
// buffers are engine-owned and reused across rounds. Components and
// matched pairs step through one job list (stepGroups).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/obs"
)

// Mode selects how groups execute steps each round.
type Mode int

const (
	// ComponentMode gives every connected component one collaborative
	// group step per round (the fastest refinement of D the environment
	// allows — "efficient computations in benign environments").
	ComponentMode Mode = iota
	// PairwiseMode restricts interaction to a random maximal matching
	// over the available edges, one PairStep per matched edge: classic
	// gossip, the minimal refinement. Used by the ablation experiments
	// and by problems (like sum) whose environment assumptions are
	// stated pairwise. The matching is the greedy maximal matching of the
	// usable edges in ascending engine.MatchSeed rank (engine.PairMatcher),
	// and the pair steps run on private seeded streams, so pairwise
	// rounds parallelize exactly like component rounds.
	PairwiseMode
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ComponentMode:
		return "component"
	case PairwiseMode:
		return "pairwise"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// parallelThreshold is the group count at which a round's group steps
// fan out to the worker pool; below it they run serially on the caller's
// goroutine. Group steps on the small systems the experiments sweep are
// far cheaper than a hand-off, so the threshold is high. Results do not
// depend on it: every group steps on a stream keyed on (seed, round,
// smallest member).
const parallelThreshold = 32

// DefaultShardThreshold is the agent count at which Options.Shards == 0
// splits the state into GOMAXPROCS shards; below it the state is one
// shard. A small system's once-per-round repair is cheap, and more shards
// would only add merge overhead. Results are bit-identical for every shard
// count.
const DefaultShardThreshold = 1 << 14

// Options configures a simulation run.
type Options struct {
	// MaxRounds bounds the run; 0 means the DefaultMaxRounds.
	MaxRounds int
	// Seed drives all randomness, keyed on (Seed, round); runs are
	// reproducible bit for bit.
	Seed int64
	// Mode selects component-wide or pairwise steps.
	Mode Mode
	// CheckSteps verifies every group step is a D-step (slower; on in
	// tests, off in benchmarks unless measuring the monitor). The
	// strict-decrease slack is engine.HEps.
	CheckSteps bool
	// StopOnConverged stops as soon as the state multiset equals the
	// target f(S(0)). When false the run continues to MaxRounds,
	// verifying stability of the goal state (spec (4)).
	StopOnConverged bool
	// Shards sets the shard count P of the state: the agent array is split
	// into P contiguous shards, each owning its own multiset tracker with
	// deltas staged per round; the monitor reads the shards' extremes for
	// a consensus problem and a P-way merge of the shard views otherwise
	// (see engine.Shards and engine.Monitor). 0 or negative
	// means auto — one shard below DefaultShardThreshold agents, GOMAXPROCS
	// shards at or above it; > 0 forces that many shards (clamped to the
	// agent count). Results are bit-identical for every P — the
	// conservation law S_{B∪C} = S_B ∪ S_C holds for any partition of the
	// agent multiset, which is exactly the paper's license to shard.
	Shards int
	// OnRound, when non-nil, is called after every round with live
	// progress — the engine's one per-round outlet: examples, the CLI and
	// the experiment harness collect what they need of it (an h
	// trajectory, per-round step counts) without the engine retaining
	// traces.
	OnRound func(RoundInfo)
	// Dynamics, when non-nil, applies a scripted fault-and-dynamism
	// schedule on top of the environment: agent crash/recover (a crashed
	// agent's state is frozen and it is excluded from groups and
	// matchings), partition/heal windows, and churn bursts — see
	// internal/dynamics. The schedule's masks are overlaid between the
	// environment step and group formation each round (groups form over
	// the EFFECTIVE masks), its randomness comes from
	// engine.SubSeed substreams of (Seed, round), tagged apart from the
	// engine's own, so results are bit-identical for every Shards,
	// worker pool, and GOMAXPROCS, and the frozen-state conservation
	// contract is checked by the monitor every round. nil (and an empty
	// schedule) leave the engine bit-identical to the pre-dynamics
	// goldens.
	Dynamics *dynamics.Schedule
	// Probe, when non-nil, attaches the observability layer (internal/obs):
	// the round loop brackets each phase — environment step, dynamics
	// apply, matcher update, match, group step, monitor — with probe
	// timers, and the engine's work counters (groups, matched pairs, shard
	// flushes, pool fan-out) accumulate into the probe's RoundReport. The
	// contract is observe-never-perturb: the probe never draws from or
	// reorders the seeded streams, so an attached probe changes NO result
	// bytes (pinned by the probed golden replay tests); a nil probe costs
	// one pointer check per site. The
	// probe's timer methods are driven from the run's goroutine — give
	// concurrent runs their own probes and merge the reports.
	Probe *obs.Probe
	// AdversaryFeedback, when the environment has a SetUseful oracle (an
	// *env.Adversary), wires it to live agent state: an edge is
	// "useful" (and therefore cut first) exactly when its endpoints
	// currently hold different states. This realizes the paper's
	// strongest opponent — one that watches the computation — while the
	// fairness window keeps assumption (2) intact.
	AdversaryFeedback bool
}

// RoundInfo is the per-round progress report passed to Options.OnRound.
type RoundInfo struct {
	// Round is the round just executed (0-based).
	Round int
	// ActiveGroups is the number of groups that could act this round. In
	// ComponentMode it counts every component of up agents, including the
	// ones the engine skipped because they could only stutter. In
	// PairwiseMode it counts the pairs the matcher returned, which are the
	// pairs stepped: for a core.StutterOnEqual problem only the matched
	// pairs whose endpoints differ, since a round that asks only about
	// those never learns the full matching's size.
	ActiveGroups int
	// ProperSteps is how many of them changed state.
	ProperSteps int
	// H is the global variant value after the round.
	H float64
	// Converged reports whether the state equals the target.
	Converged bool
}

// DefaultMaxRounds bounds runs whose Options leave MaxRounds zero.
const DefaultMaxRounds = 10_000

// Result reports a simulation run.
type Result[T any] struct {
	// Converged reports whether the state reached the target f(S(0)).
	Converged bool
	// Round is the first round at which the target held (or the last
	// round executed when not converged).
	Round int
	// Rounds is the total number of rounds executed.
	Rounds int
	// GroupSteps counts proper (non-stutter) group steps.
	GroupSteps int
	// Messages estimates communication: 2(|B|−1) per proper component
	// step (gather + scatter along a spanning tree), 2 per proper pair
	// step.
	Messages int
	// Violations lists monitor failures (empty on a correct run).
	Violations []string
	// Final holds the final agent states (positional).
	Final []T
	// Target is f(S(0)), extended by every join the run admitted.
	Target ms.Multiset[T]
	// Dynamics reports what the dynamics schedule did (nil when
	// Options.Dynamics was nil): crash/recover counts, heal rounds for
	// reconvergence metrics, masked-edge totals.
	Dynamics *dynamics.Report
}

// runner holds the engine state of a run: the warm execution machinery
// (worker pool, per-worker step streams, environment stream, monitor) plus
// every scratch buffer the round loop reuses so that steady-state rounds
// allocate nothing. A runner lives inside a Scratch and survives from one
// run to the next — RunWith rebinds the per-run fields and hands the warm
// state straight to the next run.
type runner[T any] struct {
	p    core.Problem[T]
	e    env.Environment
	g    *graph.Graph
	opts Options
	cmp  ms.Cmp[T]
	// stutterOnEqual caches core.IsStutterOnEqual(p) for the run: groups
	// whose members all hold cmp-equal states skip the step pipeline.
	stutterOnEqual bool

	// obs is the run's observability probe (nil = off).
	obs *obs.Probe

	// pool is the persistent worker pool (goroutines survive between runs,
	// so only the first engaged batch pays start-up); rands holds one
	// O(1)-reseed step stream per pool worker slot, built on first use;
	// envRand is the environment's, reseeded with engine.EnvSeed each
	// round.
	pool    *engine.Pool
	rands   []*engine.FastRand
	envRand *engine.FastRand
	mon     *engine.Monitor[T]
	// shards holds the state multiset (see Options.Shards); it points into
	// the Scratch's cache, which persists across runs.
	shards *engine.Shards[T]

	states []T
	res    *Result[T]

	// Component-mode scratch. comps is the most recent partition π and
	// compEdgeUp/compAgentUp are copies of the effective masks it was
	// derived from (see partition); compsValid is cleared at run start and
	// by growth, whose graph the kept partition no longer describes.
	compScratch             graph.ComponentScratch
	comps                   [][]int
	compEdgeUp, compAgentUp bitset.Set
	compsValid              bool

	// The round's group jobs, in either mode, and the arenas their slices
	// point into: a component's members alias comps and its before states
	// are copied into beforeArena; a matched pair takes two slots of each
	// arena. stepFn steps job i on worker w.
	jobs        []groupJob[T]
	memberArena []int
	beforeArena []T
	afterArena  []T
	stepFn      func(worker, i int)
	// roundSeed is this round's engine.RoundSeed: a group's step stream
	// is engine.SubSeed(roundSeed, smallest member).
	roundSeed int64

	// Pairwise-mode scratch: the matcher (resolved per run from the
	// Scratch's cache) and, for a core.StutterOnEqual problem (differOn),
	// the endpoints-differ index whose edges are the matcher's candidates:
	// bit id of differ is set iff edge id's endpoints hold cmp-different
	// states, the pairs that can change. It is built in one O(E) pass
	// before the run's first match (differBuilt), its differChunk-edge
	// ranges fanned out on the pool by buildFn, and then repaired before
	// each match from differDirty, the agents staged since — O(changes).
	matcher     *engine.PairMatcher
	differOn    bool
	differBuilt bool
	differ      bitset.Set
	differDirty []int
	buildFn     func(worker, k int)

	// Proper-step detection scratch (sorted copies of a group's before and
	// after states, compared as zero-copy multiset views).
	sortA, sortB []T

	// Dynamics state (nil applier when Options.Dynamics is nil): the
	// schedule applier plus the crash-time snapshot of every frozen
	// agent's state, which the monitor's frozen-state check compares
	// against each round.
	dyn        *dynamics.Applier
	frozenVals []T

	// Membership state, populated only when the schedule joins agents or
	// wakes them amnesiacally: the full initial-state array (founding
	// population followed by joiners in join order — joiner values and
	// amnesiac resets both read it positionally).
	initVals []T
}

// maxCachedMatchers bounds a Scratch's pairwise-matcher cache; see the
// eviction comment in RunWith.
const maxCachedMatchers = 64

// Scratch is the warm engine RunWith executes against: the persistent
// worker pool, one reusable step stream per worker, the environment
// stream, plus every engine-owned buffer a run reuses — the state shard
// set, the monitor's evaluation buffers, the group job arenas, the
// component scratch, and a cache of pairwise matchers keyed by graph.
//
// One Scratch belongs to one executing goroutine at a time. Handing the
// same Scratch to a sequence of runs (the scenario-sweep runner's warm
// workers do exactly this) makes every run after the first skip engine
// set-up allocations entirely; results are bit-identical to independent
// Run calls with the same Options, because nothing observable leaks from
// one run to the next — every reused structure is Reset to the state a
// fresh one would have, and every stream is reseeded from (Options.Seed,
// round) before it is drawn from.
type Scratch[T any] struct {
	r runner[T]

	// Warm caches the runner binds per run.
	shards   *engine.Shards[T]
	matchers map[*graph.Graph]*engine.PairMatcher
	dyn      *dynamics.Applier
}

// NewScratch builds an empty Scratch whose pool has GOMAXPROCS worker
// slots and engages at parallelThreshold items. No goroutines are
// started until the first engaged batch; Close stops them.
func NewScratch[T any]() *Scratch[T] {
	sc := &Scratch[T]{}
	sc.r.pool = engine.NewPool(0, parallelThreshold)
	sc.r.rands = make([]*engine.FastRand, sc.r.pool.Size())
	sc.r.envRand = engine.NewFastRand(0)
	return sc
}

// Close stops the Scratch's pool workers. The Scratch must not be used
// afterwards.
func (sc *Scratch[T]) Close() { sc.r.pool.Close() }

// groupJob is one group's step — a connected component's or a matched
// pair's. members and before point into engine scratch and are valid for
// the current round only; after is produced by the problem's GroupStep
// (PairStep for a pair) on the stream keyed on members[0], the group's
// smallest member, so the steps can run on any worker in any order
// without results depending on scheduling.
type groupJob[T any] struct {
	members []int
	before  []T
	after   []T
}

// Run simulates problem p over environment e from the given initial
// (positional) agent states.
func Run[T any](p core.Problem[T], e env.Environment, initial []T, opts Options) (*Result[T], error) {
	sc := NewScratch[T]()
	defer sc.Close()
	return RunWith(sc, p, e, initial, opts)
}

// CheckGrowth reports the error RunWith returns for a dynamics schedule
// that adds joiners agents to an environment that cannot grow
// (env.Growable), and nil when the pair can run.
func CheckGrowth(e env.Environment, joiners int) error {
	if _, ok := e.(env.Growable); joiners > 0 && !ok {
		return fmt.Errorf("sim: dynamics schedule adds %d agents but environment %q cannot grow (env.Growable)", joiners, e.Name())
	}
	return nil
}

// RunWith is Run against borrowed scratch: it executes the identical
// algorithm — results are bit-for-bit what Run returns for the same
// arguments — but reuses the Scratch's warm engine state (pool workers,
// trackers, matchers, arenas, monitor buffers) instead of rebuilding it,
// so a sequence of runs on one Scratch pays engine set-up once. This is
// the entry point the scenario-sweep batch runner (internal/sweep)
// drives; Run itself is RunWith over a single-use Scratch.
func RunWith[T any](sc *Scratch[T], p core.Problem[T], e env.Environment, initial []T, opts Options) (*Result[T], error) {
	g := e.Graph()
	// A join-bearing schedule enlarges the population mid-run: the caller
	// supplies initial states for the FINAL population — founding agents
	// first, then joiners in join order — and growth mutates the run's
	// graph in place (sweep cells clone the pristine topology per run).
	joiners := 0
	if opts.Dynamics != nil {
		joiners = opts.Dynamics.TotalJoiners()
	}
	if len(initial) != g.N()+joiners {
		if joiners > 0 {
			return nil, fmt.Errorf("sim: %d initial states for %d agents + %d scheduled joiners", len(initial), g.N(), joiners)
		}
		return nil, fmt.Errorf("sim: %d initial states for %d agents", len(initial), g.N())
	}
	if err := CheckGrowth(e, joiners); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return nil, errors.New("sim: empty system")
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	r := &sc.r
	r.p, r.e, r.g, r.opts, r.cmp = p, e, g, opts, p.Cmp()
	r.stutterOnEqual = core.IsStutterOnEqual(p)
	r.states = append(r.states[:0], initial[:g.N()]...)
	r.initVals = r.initVals[:0]
	if joiners > 0 || (opts.Dynamics != nil && opts.Dynamics.Amnesiac()) {
		r.initVals = append(r.initVals, initial...)
	}
	// Rebind the observability probe every run: a nil opts.Probe must also
	// CLEAR any probe a previous run on this warm scratch attached.
	r.obs = opts.Probe
	r.pool.SetProbe(opts.Probe)
	if sc.shards == nil {
		sc.shards = new(engine.Shards[T])
	}
	sc.shards.Reset(r.cmp, r.states, resolveShards(opts.Shards, g.N()), r.pool)
	r.shards = sc.shards
	r.shards.SetProbe(opts.Probe)
	if r.mon == nil {
		r.mon = engine.NewMonitor(p, r.shards, r.pool)
	} else {
		r.mon.Reset(p, r.shards, r.pool)
	}
	r.res = &Result[T]{}
	if r.stepFn == nil {
		// Built once per Scratch: the closure captures the runner, whose
		// per-run fields are rebound above, so it serves every run.
		r.stepFn = func(worker, i int) {
			j := &r.jobs[i]
			rng := r.workerRand(worker, engine.SubSeed(r.roundSeed, j.members[0]))
			if r.opts.Mode == PairwiseMode {
				j.after[0], j.after[1] = r.p.PairStep(j.before[0], j.before[1], rng)
			} else {
				j.after = r.p.GroupStep(j.before, rng)
			}
		}
	}
	r.dyn = nil
	if opts.Dynamics != nil {
		if sc.dyn == nil {
			sc.dyn = opts.Dynamics.NewApplier(g, opts.Seed)
		} else {
			sc.dyn.Reset(opts.Dynamics, g, opts.Seed)
		}
		r.dyn = sc.dyn
		// Crash-time state snapshots, indexed by agent; only the entries
		// of currently frozen agents are meaningful.
		if cap(r.frozenVals) < g.N() {
			r.frozenVals = make([]T, g.N())
		}
		r.frozenVals = r.frozenVals[:g.N()]
	}

	r.matcher = nil
	r.differOn = r.stutterOnEqual && opts.Mode == PairwiseMode
	r.differBuilt = false
	r.differDirty = r.differDirty[:0]
	if opts.Mode == PairwiseMode {
		if sc.matchers == nil {
			sc.matchers = make(map[*graph.Graph]*engine.PairMatcher)
		}
		if sc.matchers[g] == nil {
			// The cache is bounded: a long-lived Scratch sweeping many
			// distinct graphs must not retain an O(N) matcher (and pin its
			// graph) per graph forever. Eviction is wholesale — cache misses
			// change set-up cost only, never results — and the bound is
			// far above the distinct graphs of any one scenario grid, so
			// steady-state sweeps never evict.
			if len(sc.matchers) >= maxCachedMatchers {
				clear(sc.matchers)
			}
			sc.matchers[g] = engine.NewPairMatcher(g)
		}
		r.matcher = sc.matchers[g]
	}

	if opts.AdversaryFeedback {
		if ad, ok := e.(interface {
			SetUseful(func(graph.Edge) float64)
		}); ok {
			ad.SetUseful(func(edge graph.Edge) float64 {
				if r.cmp(r.states[edge.A], r.states[edge.B]) != 0 {
					return 1
				}
				return 0
			})
		}
	}

	res := r.res
	r.compsValid = false

	round := 0
	for ; round < maxRounds; round++ {
		// A converged run with joins still pending keeps going: the join
		// retargets convergence to the final population's S*.
		if _, converged := r.mon.FirstReach(); converged && opts.StopOnConverged && (r.dyn == nil || !r.dyn.PendingJoins()) {
			break
		}
		r.obs.BeginRound(round)
		// Population growth first — joiners participate in the very round
		// they arrive: the graph attaches them, the environment, matcher,
		// and state snapshot grow in place, and the conservation target is
		// extended per §3.4 (f(f(X) ∪ Y) = f(X ∪ Y)).
		if r.dyn != nil {
			r.obs.Begin(obs.PhaseDynamics)
			if gr, ok := r.dyn.GrowthFor(round); ok {
				r.applyGrowth(gr)
			}
			r.obs.End(obs.PhaseDynamics)
		}
		// Environment transition, then the dynamics overlay: the schedule
		// fires this round's events and masks its cut edges and crashed
		// agents on top of whatever the environment produced (writing
		// false to exactly the suppressed up-entries; EndRound below
		// undoes exactly those writes before the environment's next
		// Step). Groups therefore form over the effective masks.
		r.obs.Begin(obs.PhaseEnvStep)
		r.envRand.Reseed(engine.EnvSeed(opts.Seed, round))
		es := e.Step(round, r.envRand.Rand)
		r.obs.End(obs.PhaseEnvStep)
		if err := es.CheckSized(r.g); err != nil {
			return nil, fmt.Errorf("sim: environment %q round %d: %w", e.Name(), round, err)
		}
		if r.dyn != nil {
			r.obs.Begin(obs.PhaseDynamics)
			es = r.dyn.BeginRound(round, es)
			for _, a := range r.dyn.JustCrashed() {
				r.frozenVals[a] = r.states[a]
			}
			// Amnesiac rejoins: every agent woken this round re-enters with
			// its INITIAL state (§3.4's re-entry model) — a sanctioned
			// discontinuity, so the variant baseline is rebased; whether the
			// conservation law survives it is exactly what the monitor then
			// measures (it does iff f is super-idempotent).
			if r.dyn.Amnesiac() && len(r.dyn.JustWoken()) > 0 {
				r.applyAmnesia(r.dyn.JustWoken())
			}
			r.obs.End(obs.PhaseDynamics)
		}

		// Agents transition: groups step concurrently.
		r.roundSeed = engine.RoundSeed(opts.Seed, round)
		stepsBefore := res.GroupSteps
		var activeGroups int
		switch opts.Mode {
		case PairwiseMode:
			activeGroups = r.stepPairs(es, round)
		default:
			activeGroups = r.stepComponents(es)
		}
		if r.obs != nil {
			r.obs.Add(obs.CounterGroups, int64(activeGroups))
		}

		// Global monitors: conservation law, variant descent and first
		// reach of the target, on the incrementally maintained snapshot —
		// the round's staged deltas are applied first (one parallel repair
		// per shard), then the monitor judges the shards (in O(P) for a
		// consensus problem, on the merged view otherwise).
		r.obs.Begin(obs.PhaseMonitor)
		r.shards.Flush(r.pool)
		nowH := r.mon.ObserveRound(round, r.shards)
		r.obs.End(obs.PhaseMonitor)

		if r.dyn != nil {
			r.obs.Begin(obs.PhaseDynamics)
			// Frozen-state conservation: a crashed agent was excluded from
			// every group and matching this round, so its state must still
			// equal its crash-time snapshot.
			r.mon.CheckFrozen(round, r.cmp, r.dyn.Frozen(), r.frozenVals, r.states)
			r.dyn.EndRound()
			r.obs.End(obs.PhaseDynamics)
		}

		if opts.OnRound != nil {
			_, converged := r.mon.FirstReach()
			opts.OnRound(RoundInfo{
				Round: round, ActiveGroups: activeGroups,
				ProperSteps: res.GroupSteps - stepsBefore,
				H:           nowH, Converged: converged,
			})
		}
	}
	res.Rounds = round
	res.Round, res.Converged = r.mon.FirstReach()
	if !res.Converged {
		res.Round = round
	}
	res.Target = r.mon.Target()
	// The state buffer is scratch-owned and will be overwritten by the
	// next run; the Result gets its own copy (same one-allocation cost the
	// single-use path always paid for its initial-state copy).
	res.Final = append(make([]T, 0, len(r.states)), r.states...)
	res.Violations = r.mon.Violations()
	if r.dyn != nil {
		rep := r.dyn.Report()
		res.Dynamics = &rep
	}
	return res, nil
}

// resolveShards maps Options.Shards to a shard count for n agents.
func resolveShards(opt, n int) int {
	switch {
	case opt > 0:
		return min(opt, n)
	case n >= DefaultShardThreshold:
		return goruntime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// applyDelta stages a group step's changes for the end-of-round repair
// (olds and news are parallel slices along members). It must be called
// for every executed step, proper or not: a permutation that crosses
// shard boundaries (a swap stutter) changes the per-shard multisets even
// though the group multiset is unchanged, so each member whose own value
// changed is staged with its owning shard.
func (r *runner[T]) applyDelta(members []int, olds, news []T) {
	for i, a := range members {
		if r.cmp(olds[i], news[i]) != 0 {
			r.stage(a, olds[i], news[i])
		}
	}
}

// stage records one agent's state change old → new with every consumer
// of a round's deltas: the owning shard, repaired at the next Flush, the
// monitor's running h and, when it is on, the endpoints-differ index,
// repaired before the next match.
func (r *runner[T]) stage(a int, oldV, newV T) {
	r.shards.Stage(a, oldV, newV)
	r.mon.Stage(oldV, newV)
	if r.differOn {
		r.differDirty = append(r.differDirty, a)
	}
}

// differChunk is the width of the edge-id range one pool item of the
// endpoints-differ build covers: a multiple of 64, so no two items write
// one bitset word.
const differChunk = 4096

// syncDiffer brings the endpoints-differ index in line with the states.
// The run's first call builds it over the pool, one differChunk range of
// edge ids per item; later calls recompute only the edges incident to
// the agents staged since the previous call.
func (r *runner[T]) syncDiffer() {
	edges := r.g.EdgesView()
	if !r.differBuilt {
		if r.differ.Len() != len(edges) {
			r.differ = bitset.New(len(edges))
		} else {
			r.differ.ClearAll()
		}
		if r.buildFn == nil {
			// Built once per Scratch, like stepFn: it reads the run's
			// graph, states and index through the runner.
			r.buildFn = func(_, k int) {
				edges := r.g.EdgesView()
				lo, hi := k*differChunk, min((k+1)*differChunk, len(edges))
				for id, e := range edges[lo:hi] {
					if r.cmp(r.states[e.A], r.states[e.B]) != 0 {
						r.differ.Set(lo + id)
					}
				}
			}
		}
		r.pool.Do((len(edges)+differChunk-1)/differChunk, r.buildFn)
		r.differBuilt = true
	} else {
		for _, a := range r.differDirty {
			for _, id := range r.g.IncidentEdgeIDs(a) {
				e := edges[id]
				r.differ.SetTo(id, r.cmp(r.states[e.A], r.states[e.B]) != 0)
			}
		}
	}
	r.differDirty = r.differDirty[:0]
}

// applyGrowth threads one round's population growth through every layer
// that was sized to the old population: the environment's masks, the
// positional state array and its incremental snapshot (appended, never
// rebuilt — last-shard rule), the endpoints-differ index, and the
// monitor's target (§3.4), first-reach record and variant baseline. The
// matcher sizes itself to the graph on its next match. The
// graph itself already grew —
// the applier's GrowthFor mutated it through the incremental attachment
// paths — so this is purely the engine-side catch-up, O(growth), not
// O(population).
func (r *runner[T]) applyGrowth(gr graph.Growth) {
	r.e.(env.Growable).Grow() // guaranteed Growable by the RunWith gate
	joined := r.initVals[gr.FirstAgent : gr.FirstAgent+gr.NewAgents]
	r.states = append(r.states, joined...)
	r.shards.Append(joined)
	var zero T
	for len(r.frozenVals) < r.g.N() {
		r.frozenVals = append(r.frozenVals, zero)
	}
	// The new edges come clear and every one of them is incident to a
	// joiner, so marking the joiners dirty repairs them at the next match.
	if r.differBuilt {
		r.differ = r.differ.Resized(r.g.M(), false)
		for a := gr.FirstAgent; a < gr.FirstAgent+gr.NewAgents; a++ {
			r.differDirty = append(r.differDirty, a)
		}
	}
	// The run now answers for the FINAL population: the target absorbs
	// the joiners' values (exact for super-idempotent f), convergence
	// restarts against the new target, and the variant baseline restarts
	// from the grown state (fresh input may legitimately raise h).
	r.mon.AdmitJoin(joined, r.shards.View())
	// The kept partition describes the old graph.
	r.compsValid = false
}

// applyAmnesia resets every agent woken this round to its initial state
// and repairs the incremental snapshot accordingly: the resets are staged
// and flushed immediately so the round's own group steps still stage each
// agent at most once per flush. The variant baseline is rebased because
// the reset is a sanctioned discontinuity — the conservation law is
// deliberately NOT touched, so the monitor reports exactly the violations
// §3.4 predicts for non-super-idempotent f.
func (r *runner[T]) applyAmnesia(woken []int) {
	changed := false
	for _, a := range woken {
		if r.cmp(r.states[a], r.initVals[a]) == 0 {
			continue // the frozen state IS the initial state: nothing to repair
		}
		changed = true
		r.stage(a, r.states[a], r.initVals[a])
		r.states[a] = r.initVals[a]
	}
	if !changed {
		return
	}
	r.shards.Flush(r.pool)
	r.mon.RebaseVariant(r.shards.View())
}

// classifyStep reports whether a group step was proper: its before and
// after states differ as multisets under the problem's equality
// (tolerance-aware for geometry). It sorts scratch copies and compares
// zero-copy views, so the hot path allocates nothing.
func (r *runner[T]) classifyStep(before, after []T) bool {
	r.sortA = append(r.sortA[:0], before...)
	r.sortB = append(r.sortB[:0], after...)
	slices.SortFunc(r.sortA, r.cmp)
	slices.SortFunc(r.sortB, r.cmp)
	return !r.p.Equal(ms.View(r.cmp, r.sortA), ms.View(r.cmp, r.sortB))
}

// stepComponents runs one ComponentMode round: every connected component
// of up agents executes one group step; the worker pool runs components
// concurrently when the round is large enough (groups are disjoint, so
// writes never overlap). Each component steps on the stream keyed on its
// smallest member (engine.GroupSeed), so its randomness does not depend on
// the other components. Under a core.StutterOnEqual problem a component
// whose members all hold equal states is counted but not stepped: its
// step would be a stutter. The return value counts every component of up
// agents, stepped or not.
func (r *runner[T]) stepComponents(es env.State) int {
	// Component mode's group formation is the partition derivation, so it
	// times under PhaseMatch (memo hits cost a mask compare).
	r.obs.Begin(obs.PhaseMatch)
	comps := r.partition(es)
	r.obs.End(obs.PhaseMatch)

	r.obs.Begin(obs.PhaseGroupStep)
	r.jobs = r.jobs[:0]
	arena := r.beforeArena[:0]
	active := 0
	for _, comp := range comps {
		// Disabled agents form singleton components that take no action;
		// any component containing a down agent is necessarily that
		// singleton (components never join down agents).
		if len(comp) == 1 && !es.AgentUp.Get(comp[0]) {
			continue
		}
		active++
		if r.stutterOnEqual && r.allEqual(comp) {
			continue // can only stutter: nothing to step, verify or stage
		}
		start := len(arena)
		for _, a := range comp {
			arena = append(arena, r.states[a])
		}
		r.jobs = append(r.jobs, groupJob[T]{
			members: comp,
			before:  arena[start:len(arena):len(arena)],
		})
	}
	r.beforeArena = arena[:0]
	r.stepGroups()
	r.obs.End(obs.PhaseGroupStep)
	return active
}

// partition returns the round's π: the connected components of the
// enabled subgraph under the effective masks es. π is a function of the
// graph and those two masks alone (§2.1), so the runner keeps copies of
// the masks it last partitioned and re-derives π only when one differs —
// an O(E/64)-word compare — or growth cleared compsValid; otherwise it
// reuses the kept partition and skips the O(E) union-find pass. Group
// seeds are keyed on members, not drawn, so reuse cannot change a result.
//
//det:hotpath
func (r *runner[T]) partition(es env.State) [][]int {
	sameE := keepMask(&r.compEdgeUp, es.EdgeUp)
	sameA := keepMask(&r.compAgentUp, es.AgentUp)
	if !sameE || !sameA || !r.compsValid {
		r.comps = r.g.ComponentsInto(es.EdgeUp, es.AgentUp, &r.compScratch)
		r.compsValid = true
	}
	return r.comps
}

// keepMask reports whether kept already holds m's bits and, when it does
// not, copies m into it: in place when the lengths match, so a steady
// run's re-derivations allocate nothing, and into a fresh set only when
// the length changed (growth, or a warm scratch's first run on a graph of
// another size).
//
//det:hotpath
func keepMask(kept *bitset.Set, m bitset.Set) bool {
	if kept.Equal(m) {
		return true
	}
	if kept.Len() == m.Len() {
		kept.Copy(m)
	} else {
		*kept = m.Clone()
	}
	return false
}

// allEqual reports whether every member of a group holds a state cmp-equal
// to the first member's — under a core.StutterOnEqual problem, a group
// that can only stutter.
func (r *runner[T]) allEqual(members []int) bool {
	first := r.states[members[0]]
	for _, a := range members[1:] {
		if r.cmp(first, r.states[a]) != 0 {
			return false
		}
	}
	return true
}

// stepPairs runs one PairwiseMode round: the matcher returns the pairs of
// the round's matching — the greedy maximal matching of the usable edges
// in ascending engine.MatchSeed rank, see engine.PairMatcher — and each
// returned pair executes one PairStep on the stream keyed on its smallest
// member, as component groups do. Under a core.StutterOnEqual problem the
// staged deltas first repair the endpoints-differ index, and only its
// edges are asked about: an equal-state pair can only stutter, so the
// match and the step cost O(pairs that can change), not O(E). Without
// the marker every usable edge is asked about. Either way a returned pair
// is in the one matching the round's keyed ranks define, independent of
// the shard count, the pool and the marker, so results are bit-identical
// for every shard count, pool engagement and GOMAXPROCS. The return
// value is the number of pairs returned, which are the pairs stepped.
func (r *runner[T]) stepPairs(es env.State, round int) int {
	var candidates bitset.Set
	if r.differOn {
		r.obs.Begin(obs.PhaseMatcherUpdate)
		r.syncDiffer()
		candidates = r.differ
		r.obs.End(obs.PhaseMatcherUpdate)
	}
	r.obs.Begin(obs.PhaseMatch)
	pairs := r.matcher.Match(engine.MatchSeed(r.opts.Seed, round), es.EdgeUp, es.AgentUp, candidates, r.pool)
	r.obs.End(obs.PhaseMatch)
	if r.obs != nil {
		r.obs.Add(obs.CounterMatchedPairs, int64(len(pairs)))
	}

	r.obs.Begin(obs.PhaseGroupStep)
	n := 2 * len(pairs)
	members := slices.Grow(r.memberArena[:0], n)[:n]
	before := slices.Grow(r.beforeArena[:0], n)[:n]
	after := slices.Grow(r.afterArena[:0], n)[:n]
	r.memberArena, r.beforeArena, r.afterArena = members, before, after
	r.jobs = r.jobs[:0]
	for k, e := range pairs { // canonical: e.A < e.B, so members[0] is the smaller
		i := 2 * k
		members[i], members[i+1] = e.A, e.B
		before[i], before[i+1] = r.states[e.A], r.states[e.B]
		r.jobs = append(r.jobs, groupJob[T]{
			members: members[i : i+2 : i+2],
			before:  before[i : i+2 : i+2],
			after:   after[i : i+2 : i+2],
		})
	}
	r.stepGroups()
	r.obs.End(obs.PhaseGroupStep)
	return len(pairs)
}

// stepGroups runs the round's group jobs — components or matched pairs —
// and folds their results into the run, in job order: each job steps on
// the pool, then is verified as a D-step when Options.CheckSteps is set,
// classified proper or stutter (a proper step costs 2(|B|−1) messages,
// 2 for a pair), staged with the shards and the monitor, and written
// back to the positional states.
func (r *runner[T]) stepGroups() {
	r.pool.Do(len(r.jobs), r.stepFn)
	for i := range r.jobs {
		j := &r.jobs[i]
		if r.opts.CheckSteps {
			beforeM := ms.New(r.cmp, j.before...)
			afterM := ms.New(r.cmp, j.after...)
			if v := r.mon.VerifyStep(beforeM, afterM); !v.OK {
				if r.opts.Mode == PairwiseMode {
					r.mon.AddViolation("pair (%d,%d): %v", j.members[0], j.members[1], v)
				} else {
					r.mon.AddViolation("group %v: %v", j.members, v)
				}
			}
		}
		if r.classifyStep(j.before, j.after) {
			r.res.GroupSteps++
			r.res.Messages += 2 * (len(j.members) - 1)
		}
		r.applyDelta(j.members, j.before, j.after)
		for idx, a := range j.members {
			r.states[a] = j.after[idx]
		}
	}
}

// workerRand returns worker w's reusable step stream, restarted in place
// at seed. Reseeding is O(1) (see engine.FastRand); distinct worker
// indices never share an entry, so the only coordination needed is the
// pool's own batch barrier.
func (r *runner[T]) workerRand(w int, seed int64) *rand.Rand {
	if r.rands[w] == nil {
		r.rands[w] = engine.NewFastRand(seed)
	} else {
		r.rands[w].Reseed(seed)
	}
	return r.rands[w].Rand
}

// Converges is a convenience wrapper for tests and experiments: it runs
// the simulation and reports whether it converged without violations,
// with diagnostics when it did not.
func Converges[T any](p core.Problem[T], e env.Environment, initial []T, opts Options) (*Result[T], error) {
	res, err := Run(p, e, initial, opts)
	if err != nil {
		return nil, err
	}
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("sim: %d monitor violations; first: %s", len(res.Violations), res.Violations[0])
	}
	return res, nil
}
