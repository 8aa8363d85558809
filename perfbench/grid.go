package main

import (
	"fmt"
	"time"

	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// gridAxes is the sim-grid-churn scenario grid: half the edges flip each
// round, every dynamics family, sizes across the single-tracker range.
func gridAxes(seed int64) sweep.Axes {
	return sweep.Axes{
		Envs:     []env.Desc{env.ChurnDesc(0.5)},
		Problems: []problems.Desc{problems.MinDesc(), problems.MaxDesc(), problems.GCDDesc()},
		Topos:    []sweep.Topo{sweep.HypercubeTopo(), sweep.TorusTopo()},
		Sizes:    []int{64, 1024, 4096},
		Dynamics: []dynamics.Desc{
			dynamics.NoneDesc(),
			dynamics.CrashesDesc(0.02, 15),
			dynamics.PartitionDesc(2, 0, 40),
			dynamics.FlapDesc(3, 0, 30),
			dynamics.JoinDesc(8, "pref", 5),
		},
		Modes:     []sim.Mode{sim.ComponentMode, sim.PairwiseMode},
		BaseSeed:  seed,
		MaxRounds: 60_000,
	}
}

type grid struct {
	seed    int64
	g       *sweep.Grid
	warm    *sweep.Grid
	runners map[bool]*sweep.Runner
	base    obs.RoundReport // the traced runner's probes after its warm-up
	rep     obs.RoundReport // traced ops of the runners already replaced
	tot     simTotals
}

func newGrid(seed int64) *grid {
	return &grid{seed: seed, runners: map[bool]*sweep.Runner{}, tot: simTotals{workers: workers}}
}

func (g *grid) setup(tr *tracer, parent int, traced bool) (float64, error) {
	// Grid expansion builds every (topology, size) graph and dynamics
	// schedule, and derives every cell's seeds.
	sp := tr.begin("graph.build", parent)
	gr, err := gridAxes(g.seed).Grid()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	g.g = gr
	// The warm-up grid is one no-dynamics min cell per (topology, size,
	// mode), on the same graph instances, so the workers' matcher caches
	// and arenas are grown before the first measured op.
	g.warm = &sweep.Grid{}
	for _, c := range gr.Cells {
		if c.Problem.Name == "min" && c.Dyn.Name == "none" {
			g.warm.Cells = append(g.warm.Cells, c)
		}
	}

	if r := g.runners[traced]; r != nil {
		if traced {
			g.rep = g.rep.Merge(r.ObsReport().Sub(g.base))
		}
		r.Close()
	}
	opts := sweep.Options{Workers: workers}
	if traced {
		opts.NewProbe = func(int) *obs.Probe { return obs.NewProbe(obs.Config{}) }
	}
	r := sweep.NewRunner(opts)
	g.runners[traced] = r
	sp = tr.begin("warmup", parent)
	res, err := r.Run(g.warm)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	for _, cr := range res.Cells {
		if err := checkCell(cr); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	if traced {
		g.base = r.ObsReport()
	}
	return float64(res.Cells[0].Duration.Nanoseconds()), nil
}

// prepare gives every op freshly built graphs and a freshly warmed runner.
// A pass's throughput moves by about ten percent with the heap layout the
// graphs and the workers' buffers land on, so a run that kept one engine
// would inherit one layout's luck; fresh engines average over several.
func (g *grid) prepare(traced bool) error {
	_, err := g.setup(nil, 0, traced)
	return err
}

// checkCell verifies a grid cell converged with zero violations.
func checkCell(cr sweep.CellResult) error {
	if !cr.Converged || cr.Violations != 0 {
		c := cr.Cell
		return fmt.Errorf("cell %d (%s/%s/%s/%d/%s/%s): converged=%v violations=%d",
			c.Index, c.Env.Name, c.Problem.Name, c.Topo, c.Graph.N(), c.Dyn.Name, c.Mode, cr.Converged, cr.Violations)
	}
	return nil
}

// pass returns the grid re-seeded for the k-th op: the same cells, graphs
// and schedules, with every cell's seeds drawn from the k-th substream of
// the workload seed. Ops thus cover different draws, so a run's figures
// average over more than one grid's luck.
func (g *grid) pass(k int) *sweep.Grid {
	seed := engine.SubSeed(g.seed, k)
	p := &sweep.Grid{Cells: append([]sweep.Cell(nil), g.g.Cells...)}
	for i := range p.Cells {
		p.Cells[i].InitSeed = engine.SubSeed(seed, 2*i+1)
		p.Cells[i].Opts.Seed = engine.SubSeed(seed, 2*i)
	}
	return p
}

func (g *grid) op(tr *tracer, parent int, traced bool, k int) opResult {
	p := g.pass(k)
	start := time.Now()
	sp := tr.begin("sweep.Runner.Run", parent)
	res, err := g.runners[traced].Run(p)
	tr.end(sp)
	opNs := float64(time.Since(start).Nanoseconds())
	out := opResult{attempted: len(p.Cells)}
	if err != nil {
		logf("%s op failed: %v", wlGrid, err)
		out.failed = out.attempted
		return out
	}
	for _, cr := range res.Cells {
		if err := checkCell(cr); err != nil {
			logf("%s: %v", wlGrid, err)
			out.failed++
			continue
		}
		c := cellSample{ns: float64(cr.Duration.Nanoseconds()), rounds: float64(cr.Round), proper: float64(cr.GroupSteps)}
		out.cells = append(out.cells, c)
		if traced {
			g.tot.cells++
			g.tot.cellNs += c.ns
			g.tot.proper += c.proper
		}
	}
	if traced {
		g.tot.opNs += opNs
	}
	return out
}

func (g *grid) layers(m map[string]float64) {
	rep := g.rep
	if r := g.runners[true]; r != nil {
		rep = rep.Merge(r.ObsReport().Sub(g.base))
	}
	simLayers(m, rep, g.tot)
}

func (g *grid) close() {
	for _, r := range g.runners {
		r.Close()
	}
}
