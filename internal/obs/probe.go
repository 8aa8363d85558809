package obs

import (
	"context"
	"math/bits"
	"runtime/pprof"
	"sync/atomic"
)

// Phase identifies one instrumented stage of the engine. The sim round
// loop brackets each stage with Begin/End; the sweep runner times whole
// cells under PhaseCell.
type Phase uint8

const (
	// PhaseEnvStep is the environment transition (Environment.Step).
	PhaseEnvStep Phase = iota
	// PhaseDynamics covers the scripted dynamics schedule: growth
	// application, overlay begin (crash/partition/churn masks), amnesia,
	// the frozen-state check, and end-of-round overlay release.
	PhaseDynamics
	// PhaseTouched once timed the assembly of a per-round changed-id
	// stream. The round engine no longer builds one — component mode's
	// partition memo compares the effective masks instead — so no engine
	// records this phase and it reads zero; the constant stays so that
	// reports and benchmark harnesses naming it keep their layout.
	PhaseTouched
	// PhaseMatcherUpdate is the endpoints-differ index's build and repair
	// before the match (pairwise mode, core.StutterOnEqual problems only).
	PhaseMatcherUpdate
	// PhaseMatch is group formation: the matcher's queries for the pairs
	// to step in pairwise mode, or the component-partition derivation
	// (memo hit or recompute) in component mode.
	PhaseMatch
	// PhaseGroupStep is group execution: building group jobs, the pool
	// fan-out running Step/PairStep, and applying the resulting states.
	PhaseGroupStep
	// PhaseMonitor is invariant maintenance: the sharded tracker flush
	// and the monitor's per-round observation.
	PhaseMonitor
	// PhaseCell times one whole sweep cell (sim.RunWith end to end).
	PhaseCell
	// NumPhases bounds the fixed per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"env", "dynamics", "touched", "update", "match", "step", "monitor", "cell",
}

// String returns the short phase name used in trace events, report
// tables, and pprof labels.
func (ph Phase) String() string {
	if ph < NumPhases {
		return phaseNames[ph]
	}
	return "unknown"
}

// Counter identifies one monotonically increasing work counter. Counters
// are updated atomically, so any goroutine (pool workers, async agents)
// may add to them; phase timers, in contrast, belong to the single
// goroutine driving the round loop.
type Counter uint8

const (
	// CounterRounds counts engine rounds observed via BeginRound.
	CounterRounds Counter = iota
	// CounterGroups counts the round's groups: in component mode every
	// component of up agents, stepped or skipped; in pairwise mode the
	// pairs the matcher returned, which are the pairs stepped.
	CounterGroups
	// CounterMatchedPairs counts the pairs the matcher returned, which
	// are the pairs stepped: for a core.StutterOnEqual problem only the
	// matched pairs whose endpoints differ, not the full matching.
	CounterMatchedPairs
	// CounterTouchedEdges / CounterTouchedAgents once counted the
	// changed-id stream's ids. Like PhaseTouched, no engine produces them
	// any more; they read zero and stay for report layout.
	CounterTouchedEdges
	CounterTouchedAgents
	// CounterShardFlushes counts Shards.Flush calls; CounterStagedDeltas
	// the per-shard staged tracker deltas they drained;
	// CounterShardMerges the P-way View merges.
	CounterShardFlushes
	CounterStagedDeltas
	CounterShardMerges
	// CounterPoolBatches counts pool fan-outs (Do/DoAll calls that
	// engaged workers); CounterPoolItems the items they spanned;
	// CounterPoolSerial the calls that ran inline below the threshold;
	// CounterPoolSlots the extra worker slots granted by the
	// process-wide budget — together the fan-out occupancy picture.
	CounterPoolBatches
	CounterPoolItems
	CounterPoolSerial
	CounterPoolSlots
	// CounterCells counts sweep cells completed.
	CounterCells
	// CounterExchInitiate / CounterExchBusy / CounterExchDeliver /
	// CounterExchLost count the async runtime's exchange lifecycle:
	// initiations, busy rejections, adopted replies, and messages lost
	// to scripted faults. CounterExchBackoffs counts backoff windows
	// entered and CounterExchBackoffNs their summed duration.
	CounterExchInitiate
	CounterExchBusy
	CounterExchDeliver
	CounterExchLost
	CounterExchBackoffs
	CounterExchBackoffNs
	// CounterSchedEnqueues / CounterSchedDepthSum / CounterSchedSteals /
	// CounterSchedAdmits / CounterSchedParks count the sharded scheduler's
	// event loop: agents made runnable, run-queue depth sampled at each
	// pop (divide by pops for mean depth), agents stolen by idle workers,
	// busy-rejected agents re-admitted with an AIMD deadline, and workers
	// parked on an empty system.
	CounterSchedEnqueues
	CounterSchedDepthSum
	CounterSchedSteals
	CounterSchedAdmits
	CounterSchedParks
	// NumCounters bounds the fixed counter array.
	NumCounters
)

var counterNames = [NumCounters]string{
	"rounds", "groups", "matched_pairs", "touched_edges", "touched_agents",
	"shard_flushes", "staged_deltas", "shard_merges",
	"pool_batches", "pool_items", "pool_serial", "pool_extra_slots",
	"cells",
	"exch_initiate", "exch_busy", "exch_deliver", "exch_lost",
	"exch_backoffs", "exch_backoff_ns",
	"sched_enqueues", "sched_depth_sum", "sched_steals",
	"sched_admits", "sched_parks",
}

// String returns the counter's snake_case name used in report tables.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "unknown"
}

// HistBuckets is the number of log2 latency buckets per phase: bucket b
// holds durations in [2^(b-1), 2^b) ns, so 40 buckets span sub-ns to
// ~9 minutes; longer durations clamp into the last bucket.
const HistBuckets = 40

// Config configures a Probe. The zero value is valid: real wall clock,
// no trace, shard 0, no pprof labels.
type Config struct {
	// Clock supplies phase timing; nil selects the real monotonic clock.
	Clock Clock
	// Trace, when non-nil, receives one JSONL event per phase segment
	// and per sweep cell. Several probes may share one TraceWriter.
	Trace *TraceWriter
	// Shard stamps this probe's trace events (e.g. the sweep worker
	// index) so events from probes sharing a TraceWriter stay separable.
	Shard int
	// PprofLabels attaches a pprof "phase" label to the calling
	// goroutine for the duration of each phase, so CPU profiles
	// attribute samples to phases. Off by default: label switching has
	// measurable (if small) per-phase cost.
	PprofLabels bool
}

// phaseAgg accumulates one phase's timing on the probe's owning
// goroutine (no atomics: timers are single-goroutine by contract).
type phaseAgg struct {
	count   int64
	totalNs int64
	maxNs   int64
	hist    [HistBuckets]int64
}

// Probe is the engine's observability hook. All methods are
// nil-receiver-safe: a nil *Probe is the disabled state and costs one
// pointer check per instrumented site. When enabled, the hot-path
// methods (BeginRound, Begin, End, Add) are allocation-free —
// preallocated per-phase slots, no closures — so probed runs keep the
// engine's allocation budgets.
//
// Concurrency: Add is safe from any goroutine (atomic counters);
// BeginRound/Begin/End/ObserveNs must be called from a single goroutine
// at a time (the round-loop or sweep-worker goroutine that owns the
// probe). Give each concurrent worker its own Probe and Merge the
// reports.
type Probe struct {
	clock Clock
	trace *TraceWriter
	shard int

	pprofOn bool
	labels  [NumPhases]context.Context
	basectx context.Context

	round    int64
	open     [NumPhases]int64
	agg      [NumPhases]phaseAgg
	counters [NumCounters]atomic.Int64
}

// NewProbe builds an enabled probe from cfg.
func NewProbe(cfg Config) *Probe {
	p := &Probe{clock: cfg.Clock, trace: cfg.Trace, shard: cfg.Shard}
	if p.clock == nil {
		p.clock = NewWallClock()
	}
	if cfg.PprofLabels {
		p.pprofOn = true
		p.basectx = context.Background()
		for ph := Phase(0); ph < NumPhases; ph++ {
			p.labels[ph] = pprof.WithLabels(p.basectx, pprof.Labels("phase", ph.String()))
		}
	}
	return p
}

// BeginRound marks the start of round r: subsequent phase events carry
// this round number, and the rounds counter advances.
//
//det:hotpath
func (p *Probe) BeginRound(r int) {
	if p == nil {
		return
	}
	p.round = int64(r)
	p.counters[CounterRounds].Add(1)
}

// Begin opens a timing segment for ph. Segments of distinct phases may
// nest (PhaseCell wraps a whole run); reopening the same phase before
// End discards the earlier start.
//
//det:hotpath
func (p *Probe) Begin(ph Phase) {
	if p == nil {
		return
	}
	if p.pprofOn {
		pprof.SetGoroutineLabels(p.labels[ph])
	}
	p.open[ph] = p.clock.Now()
}

// End closes the current segment for ph, folding its duration into the
// phase's aggregate and emitting a trace event if a sink is attached.
//
//det:hotpath
func (p *Probe) End(ph Phase) {
	if p == nil {
		return
	}
	ns := p.clock.Now() - p.open[ph]
	if p.pprofOn {
		pprof.SetGoroutineLabels(p.basectx)
	}
	p.observe(ph, ns)
}

// ObserveNs folds an externally measured duration into ph's aggregate —
// for callers that already hold a duration (e.g. the sweep runner's
// per-cell wall clock) rather than bracketing with Begin/End.
//
//det:hotpath
func (p *Probe) ObserveNs(ph Phase, ns int64) {
	if p == nil {
		return
	}
	p.observe(ph, ns)
}

//det:hotpath
func (p *Probe) observe(ph Phase, ns int64) {
	a := &p.agg[ph]
	a.count++
	a.totalNs += ns
	if ns > a.maxNs {
		a.maxNs = ns
	}
	b := 0
	if ns > 0 {
		b = bits.Len64(uint64(ns))
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	a.hist[b]++
	if p.trace != nil {
		p.trace.Phase(p.shard, int(p.round), ph, ns)
	}
}

// Add adds n to counter c. Safe from any goroutine.
//
//det:hotpath
func (p *Probe) Add(c Counter, n int64) {
	if p == nil {
		return
	}
	p.counters[c].Add(n)
}

// Cell records completion of sweep cell index with the given duration:
// the cells counter advances, the duration folds into PhaseCell, and a
// cell trace event is emitted. The round number stamped on the trace
// event is the cell index.
func (p *Probe) Cell(index int, ns int64) {
	if p == nil {
		return
	}
	p.counters[CounterCells].Add(1)
	a := &p.agg[PhaseCell]
	a.count++
	a.totalNs += ns
	if ns > a.maxNs {
		a.maxNs = ns
	}
	b := 0
	if ns > 0 {
		b = bits.Len64(uint64(ns))
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	a.hist[b]++
	if p.trace != nil {
		p.trace.Cell(p.shard, index, ns)
	}
}

// Report snapshots the probe's aggregates. Counters are read atomically;
// phase timers are read as-is, so call Report only when the probed run
// is not mid-phase on another goroutine.
func (p *Probe) Report() RoundReport {
	var r RoundReport
	if p == nil {
		return r
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		a := &p.agg[ph]
		r.Phases[ph] = PhaseStats{Count: a.count, TotalNs: a.totalNs, MaxNs: a.maxNs, Hist: a.hist}
	}
	for c := Counter(0); c < NumCounters; c++ {
		r.Counters[c] = p.counters[c].Load()
	}
	return r
}
