package main

import (
	"fmt"
	"math/rand"
	"time"

	selfsim "repro"
	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
)

// The sched-hypercube-1e5 workload: async min over a 2¹⁷-agent hypercube
// on the sharded scheduler, run to convergence under a light epoch
// schedule.
const (
	schedDim    = 17
	schedBudget = 60 // initiations per agent
	schedLinkUp = 0.9
)

// schedDynamics is one partition window plus a 64-agent crash/recover,
// in epochs of N initiations, so the stop-the-world safepoint stays on
// the path.
func schedDynamics() *dynamics.Schedule {
	return dynamics.NewSchedule(
		dynamics.Partition(2, 2, 6),
		dynamics.At(3, dynamics.CrashRandom(64)),
		dynamics.At(8, dynamics.RecoverAll()),
	)
}

// schedInputs draws the initial states from the seed: distinct-ish values
// above 1 and one planted global minimum of 1.
func schedInputs(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int, n)
	for i := range vals {
		vals[i] = 2 + rng.Intn(1_000_000)
	}
	vals[rng.Intn(n)] = 1
	return vals
}

type schedW struct {
	seed int64
	g    *graph.Graph
	vals []int
	dyn  *dynamics.Schedule

	probe *obs.Probe
	// Traced-run totals.
	traced                                      int
	ops, proper, rejections, lost, steals, chks float64
}

func newSched(seed int64) *schedW {
	return &schedW{seed: seed, dyn: schedDynamics(), probe: obs.NewProbe(obs.Config{})}
}

// options returns the k-th run's options; its seed is a substream of the
// workload seed.
func (s *schedW) options(traced bool, k int) selfsim.SchedOptions {
	o := selfsim.SchedOptions{
		Seed:              engine.SubSeed(s.seed, k),
		Workers:           workers,
		LinkUpProbability: schedLinkUp,
		MaxOps:            schedBudget * s.g.N(),
		Timeout:           60 * time.Second,
		Dynamics:          s.dyn,
	}
	if traced {
		o.Probe = s.probe
	}
	return o
}

func (s *schedW) setup(tr *tracer, parent int, traced bool) (float64, error) {
	sp := tr.begin("graph.build", parent)
	s.g = selfsim.Hypercube(schedDim)
	tr.end(sp)

	sp = tr.begin("inputs", parent)
	s.vals = schedInputs(s.g.N(), s.seed)
	tr.end(sp)

	// The warm-up run is one epoch without dynamics: it grows the heap to
	// the run's working set and starts the scheduler once.
	o := s.options(false, -1)
	o.MaxOps, o.Dynamics = s.g.N(), nil
	if traced {
		o.Probe = obs.NewProbe(obs.Config{}) // discarded: set-up is not a measured op
	}
	sp = tr.begin("warmup", parent)
	_, err := selfsim.SimulateSched(selfsim.NewMin(), s.g, s.vals, o)
	tr.end(sp)
	return 0, err
}

func (s *schedW) op(tr *tracer, parent int, traced bool, k int) opResult {
	o := s.options(traced, k)
	start := time.Now()
	sp := tr.begin("selfsim.SimulateSched", parent)
	res, err := selfsim.SimulateSched(selfsim.NewMin(), s.g, s.vals, o)
	tr.end(sp)
	ns := float64(time.Since(start).Nanoseconds())
	if err == nil {
		err = checkSched(res)
	}
	if err != nil {
		logf("%s op failed: %v", wlSched, err)
		return opResult{attempted: 1, failed: 1}
	}
	if traced {
		s.traced++
		s.ops += float64(res.Ops)
		s.proper += float64(res.ProperSteps)
		s.rejections += float64(res.Rejections)
		s.lost += float64(res.Lost)
		s.steals += float64(res.Steals)
		s.chks += float64(res.QuiescenceChecks)
	}
	epochs := float64(res.Ops) / float64(s.g.N())
	return opResult{
		cells:     []cellSample{{ns: ns, rounds: epochs, proper: float64(res.ProperSteps)}},
		attempted: 1,
	}
}

// checkSched verifies a run converged with zero violations and every agent
// at the global minimum.
func checkSched(res *selfsim.AsyncResult[int]) error {
	if !res.Converged || len(res.Violations) != 0 {
		return fmt.Errorf("converged=%v violations=%v", res.Converged, res.Violations)
	}
	for a, v := range res.Final {
		if v != 1 {
			return fmt.Errorf("agent %d settled at %d, want 1", a, v)
		}
	}
	return nil
}

func (s *schedW) prepare(bool) error { return nil }

func (s *schedW) layers(m map[string]float64) {
	if s.traced == 0 {
		return
	}
	runs := float64(s.traced)
	rep := s.probe.Report()
	ctr := func(c obs.Counter) float64 { return float64(rep.Counters[c]) }
	m["sched.ops"] = s.ops / runs
	m["sched.proper_ratio"] = ratio(s.proper, s.ops)
	m["sched.busy_ratio"] = ratio(s.rejections, s.ops)
	m["sched.lost"] = s.lost / runs
	m["sched.steals"] = s.steals / runs
	m["sched.mean_queue_depth"] = ratio(ctr(obs.CounterSchedDepthSum), ctr(obs.CounterSchedEnqueues))
	m["sched.admits"] = ctr(obs.CounterSchedAdmits) / runs
	m["sched.parks"] = ctr(obs.CounterSchedParks) / runs
	m["sched.backoffs"] = ctr(obs.CounterExchBackoffs) / runs
	m["sched.quiescence_checks"] = s.chks / runs
}

func (s *schedW) close() {}
