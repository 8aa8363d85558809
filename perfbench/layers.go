package main

import (
	"repro/internal/obs"
)

// simTotals accumulates the traced ops of a sim workload: the probe
// report, plus what the benchmark measures around its calls.
type simTotals struct {
	cells   int
	cellNs  float64 // summed cell wall time
	opNs    float64 // summed wall time of the sweep calls
	proper  float64 // proper group steps
	workers int     // sweep workers the cells shared
}

// roundPhases are the probe phases that make up a sim round.
var roundPhases = []obs.Phase{
	obs.PhaseEnvStep, obs.PhaseDynamics, obs.PhaseTouched, obs.PhaseMatcherUpdate,
	obs.PhaseMatch, obs.PhaseGroupStep, obs.PhaseMonitor,
}

// simLayers fills in the env, dynamics, sim, engine and sweep metrics from
// a traced sim workload's probe report and totals.
func simLayers(m map[string]float64, rep obs.RoundReport, t simTotals) {
	rounds := float64(rep.Rounds())
	if rounds == 0 {
		return
	}
	ph := func(p obs.Phase) float64 { return float64(rep.PhaseNs(p)) }
	ctr := func(c obs.Counter) float64 { return float64(rep.Counters[c]) }
	perRound := func(x float64) float64 { return x / rounds }

	m["env.step_ns_per_round"] = perRound(ph(obs.PhaseEnvStep))
	m["env.touched_edges_per_round"] = perRound(ctr(obs.CounterTouchedEdges))
	m["dynamics.ns_per_round"] = perRound(ph(obs.PhaseDynamics))

	m["sim.touched_ns_per_round"] = perRound(ph(obs.PhaseTouched))
	m["sim.step_ns_per_round"] = perRound(ph(obs.PhaseGroupStep))
	m["sim.groups_per_round"] = perRound(ctr(obs.CounterGroups))
	m["sim.step_useful_ratio"] = ratio(t.proper, ctr(obs.CounterGroups))
	m["sim.round_ns"] = perRound(t.cellNs)
	m["sim.hot_share"] = ratio(ph(obs.PhaseGroupStep)+ph(obs.PhaseMonitor), t.cellNs)
	m["sim.delta_share"] = ratio(ph(obs.PhaseEnvStep)+ph(obs.PhaseDynamics)+ph(obs.PhaseTouched)+ph(obs.PhaseMatcherUpdate), t.cellNs)

	m["engine.matcher_update_ns_per_round"] = perRound(ph(obs.PhaseMatcherUpdate))
	m["engine.match_ns_per_round"] = perRound(ph(obs.PhaseMatch))
	m["engine.matched_pairs_per_round"] = perRound(ctr(obs.CounterMatchedPairs))
	m["engine.monitor_ns_per_round"] = perRound(ph(obs.PhaseMonitor))
	m["engine.staged_deltas_per_round"] = perRound(ctr(obs.CounterStagedDeltas))
	m["engine.shard_merges_per_round"] = perRound(ctr(obs.CounterShardMerges))
	m["engine.pool_items_per_round"] = perRound(ctr(obs.CounterPoolItems))
	m["engine.pool_serial_frac"] = ratio(ctr(obs.CounterPoolSerial), ctr(obs.CounterPoolSerial)+ctr(obs.CounterPoolBatches))

	phased := 0.0
	for _, p := range roundPhases {
		phased += ph(p)
	}
	m["sweep.worker_idle_frac"] = 1 - ratio(t.cellNs, float64(t.workers)*t.opNs)
	m["sweep.cell_self_ns"] = ratio(t.cellNs-phased, float64(t.cells))
}
