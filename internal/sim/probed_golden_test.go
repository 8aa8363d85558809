package sim

// Probed golden replays: the observe-never-perturb contract, pinned.
//
// Every golden matrix (engine equivalence, join-laden membership, empty
// dynamics) re-runs with a RECORDING probe attached — fake clock so
// every phase bracket takes a nonzero observed duration, plus a JSONL
// trace sink so the encode path runs too — and the summaries must stay
// byte-identical to the unprobed goldens across every state layout
// (serial, pooled, sharded, sharded+pooled). The harness also asserts
// the probes actually observed the runs: a probe that silently detached
// (a wiring regression in RunWith) would pass the byte-identity check
// for the wrong reason.

import (
	"fmt"
	"io"
	goruntime "runtime"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/obs"
)

// withProbe wraps a golden-case tweak so every run gets a FRESH probe
// (obs timers are per-run, and goldens run concurrently under t.Run).
// The returned collect function merges every probe's report so callers
// can assert the probes were engaged.
func withProbe(base func(*Options)) (tweak func(*Options), collect func() obs.RoundReport) {
	var probes []*obs.Probe
	tweak = func(o *Options) {
		if base != nil {
			base(o)
		}
		p := obs.NewProbe(obs.Config{
			Clock: &obs.FakeClock{Step: 1},
			Trace: obs.NewTraceWriter(io.Discard),
		})
		o.Probe = p
		probes = append(probes, p)
	}
	collect = func() obs.RoundReport {
		var merged obs.RoundReport
		for _, p := range probes {
			merged = merged.Merge(p.Report())
		}
		return merged
	}
	return tweak, collect
}

// requireEngaged fails the test if the merged report shows the probes
// never saw a round or a phase sample.
func requireEngaged(t *testing.T, rep obs.RoundReport) {
	t.Helper()
	if rep.Rounds() == 0 {
		t.Fatal("probes attached but observed zero rounds — probe wiring is dead")
	}
	var samples int64
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		samples += rep.Phases[ph].Count
	}
	if samples == 0 {
		t.Fatal("probes attached but recorded zero phase samples")
	}
}

// TestEngineEquivalenceGoldenProbed replays the full equivalence matrix
// with a recording probe on every layout variant. Identical goldens with
// probes on IS the observability contract: enabling tracing changes no
// result bytes.
func TestEngineEquivalenceGoldenProbed(t *testing.T) {
	variants := []struct {
		name      string
		base      func(*Options)
		threshold int
	}{
		{"serial", nil, 0},
		{"parallel", nil, 1},
		{"sharded", func(o *Options) { o.Shards = 4 }, 0},
		{"sharded-parallel", func(o *Options) {
			o.Shards = 3 // deliberately not a divisor of any case's agent count
		}, 1},
	}
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			tweak, collect := withProbe(v.base)
			runGoldenCases(t, variant{opts: tweak, threshold: v.threshold})
			rep := collect()
			requireEngaged(t, rep)
			if v.threshold == 1 && rep.Counters[obs.CounterPoolBatches] == 0 {
				t.Fatal("pooled variant never engaged the worker pool")
			}
		})
	}
}

// TestMembershipGoldenProbed replays the join-laden membership matrix
// probed — growth rounds (graph splice, matcher/tracker extension,
// amnesiac resets) emit phase samples and dynamics counters without
// touching results — serially and with sharding+pooling forced on.
func TestMembershipGoldenProbed(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	for _, p := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			tweak, collect := withProbe(func(o *Options) { o.Shards = p })
			v := variant{opts: tweak}
			if p != 0 {
				v.threshold = 1
			}
			runJoinGoldenCases(t, v)
			requireEngaged(t, collect())
		})
	}
}

// TestEngineEquivalenceGoldenProbedDynamics replays the goldens with an
// EMPTY dynamics schedule and a probe attached at once: the dynamics
// hook and the observability hook stack without perturbing results.
func TestEngineEquivalenceGoldenProbedDynamics(t *testing.T) {
	tweak, collect := withProbe(func(o *Options) { o.Dynamics = dynamics.NewSchedule() })
	runGoldenCases(t, variant{opts: tweak})
	requireEngaged(t, collect())
}
