package main

import (
	"fmt"
	"math/rand"
	"time"

	selfsim "repro"
	"repro/internal/dynamics"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The sim-sparse-1e6 workload: pairwise min on a 10⁶-ring at 99.9% edge
// availability, from a near-converged start, a fixed round budget per op,
// with one 64-agent crash window per op so the dynamics layer runs too.
const (
	sparseN      = 1_000_000
	sparseRounds = 16
	sparseWarmup = 2 // rounds of the set-up run that grows the engine
	sparseHigh   = 1 << 20
	sparseOdds   = 1024 // one agent in sparseOdds starts below sparseHigh
)

// nearConvergedMin is min consensus from a near-converged start: every
// agent holds sparseHigh except about one in sparseOdds, which holds a
// random smaller value.
func nearConvergedMin() problems.Desc {
	return problems.Desc{
		Name: "min-nearconverged",
		New:  func(int) selfsim.Problem[int] { return selfsim.NewMin() },
		Init: func(n int, rng *rand.Rand) []int {
			vals := make([]int, n)
			for i := range vals {
				vals[i] = sparseHigh
				if rng.Intn(sparseOdds) == 0 {
					vals[i] = rng.Intn(sparseHigh)
				}
			}
			return vals
		},
	}
}

type sparse struct {
	seed    int64
	cell    sweep.Cell
	wantMin int
	w       *sweep.Worker
	probe   *obs.Probe
	tot     simTotals
}

func newSparse(seed int64) *sparse {
	return &sparse{seed: seed, probe: obs.NewProbe(obs.Config{}), tot: simTotals{workers: 1}}
}

// sparseCell builds the workload's cell over g from the seed.
func sparseCell(g *graph.Graph, seed int64) sweep.Cell {
	dyn := dynamics.FlapDesc(64, 2, 10)
	return sweep.Cell{
		Env:      env.ChurnDesc(0.999),
		Problem:  nearConvergedMin(),
		Topo:     "ring",
		Graph:    g,
		Dyn:      dyn,
		Mode:     sim.PairwiseMode,
		InitSeed: seed,
		Opts: sim.Options{Seed: seed + 1, Mode: sim.PairwiseMode, MaxRounds: sparseRounds,
			Dynamics: dyn.New(g)},
	}
}

func (s *sparse) setup(tr *tracer, parent int, traced bool) (float64, error) {
	sp := tr.begin("graph.build", parent)
	g := selfsim.Ring(sparseN)
	tr.end(sp)

	sp = tr.begin("inputs", parent)
	s.cell = sparseCell(g, s.seed)
	// The worker draws the same initial states from the same seed; the
	// benchmark draws them once to know the answer.
	init := s.cell.Problem.Init(sparseN, rand.New(rand.NewSource(s.cell.InitSeed)))
	s.wantMin = minOf(init)
	tr.end(sp)

	if s.w != nil {
		s.w.Close()
	}
	s.w = sweep.NewWorker()
	s.w.KeepFinal = true
	warm := s.cell
	warm.Opts.MaxRounds = sparseWarmup
	if traced {
		s.w.Probe = obs.NewProbe(obs.Config{}) // discarded: set-up is not a measured op
	}
	sp = tr.begin("warmup", parent)
	cr, err := s.w.Do(warm)
	tr.end(sp)
	s.w.Probe = nil
	if err != nil {
		return 0, err
	}
	if err := s.check(cr, sparseWarmup); err != nil {
		return 0, fmt.Errorf("warm-up run: %w", err)
	}
	return float64(cr.Duration.Nanoseconds()), nil
}

// check verifies a run: no violations, the whole round budget ran, and
// the minimum survived.
func (s *sparse) check(cr sweep.CellResult, rounds int) error {
	switch {
	case cr.Violations != 0:
		return fmt.Errorf("%d monitor violations", cr.Violations)
	case cr.Rounds != rounds:
		return fmt.Errorf("ran %d rounds, want %d", cr.Rounds, rounds)
	case minOf(cr.Final) != s.wantMin:
		return fmt.Errorf("min(final) = %d, want min(initial) = %d", minOf(cr.Final), s.wantMin)
	}
	return nil
}

func (s *sparse) op(tr *tracer, parent int, traced bool, _ int) opResult {
	s.w.Probe = nil
	if traced {
		s.w.Probe = s.probe
	}
	start := time.Now()
	sp := tr.begin("sweep.Worker.Do", parent)
	cr, err := s.w.Do(s.cell)
	tr.end(sp)
	ns := float64(time.Since(start).Nanoseconds())
	if err == nil {
		err = s.check(cr, sparseRounds)
	}
	if err != nil {
		logf("%s op failed: %v", wlSparse, err)
		return opResult{attempted: 1, failed: 1}
	}
	if traced {
		s.tot.cells++
		s.tot.cellNs += ns
		s.tot.opNs += float64(time.Since(start).Nanoseconds())
		s.tot.proper += float64(cr.GroupSteps)
	}
	return opResult{
		cells:     []cellSample{{ns: ns, rounds: float64(cr.Rounds), proper: float64(cr.GroupSteps)}},
		attempted: 1,
	}
}

func (s *sparse) prepare(bool) error { return nil }

func (s *sparse) layers(m map[string]float64) { simLayers(m, s.probe.Report(), s.tot) }

func (s *sparse) close() {
	if s.w != nil {
		s.w.Close()
	}
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
