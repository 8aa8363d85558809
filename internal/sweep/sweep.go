// Package sweep is the batched scenario-grid runner: it executes every
// cell of a declarative (environment × problem × topology × size ×
// dynamics × mode × seed) grid in one process, on warm engines.
//
// The paper's self-similar framing is what makes this a single subsystem
// rather than a script: every combination of environment, problem,
// topology, and seed is a run of the SAME engine — the algorithms "speed
// up or slow down depending on the resources available" but never change
// shape — so a scenario matrix is just the engine applied pointwise over
// a product of axes. The runner exploits that uniformity for throughput:
//
//   - Warm engines. Each sweep worker owns one sim.Scratch (a persistent
//     worker pool, per-worker O(1)-reseed streams, the environment
//     stream, state trackers, shard sets, pairwise matchers, group arenas,
//     monitor buffers), handed from cell to cell via sim.RunWith.
//     Steady-state cells therefore re-pay none of the engine set-up that
//     a cold sim.Run performs — BenchmarkSweepGrid and the CI allocation
//     budget pin this.
//
//   - Determinism independent of scheduling. Every cell's run seed (and
//     its initial-state seed) is derived from the grid's base seed and
//     the CELL INDEX via engine.SubSeed FastRand substreams — never from
//     the identity of the worker that happens to execute the cell — and
//     sim.RunWith is bit-identical to sim.Run by the warm-run contract,
//     so a grid's results (and its rendered Table) are byte-identical for
//     every worker count, including fully serial execution. The golden
//     test in sweep_test.go pins this against independent sim.Run calls.
//
//   - Bounded parallelism. Cells fan out on an engine.Pool, whose extra
//     workers come from the process-wide engine.AcquireSlots budget; the
//     sharded, pool-parallel runs INSIDE cells draw from the same budget,
//     so a grid nesting 10⁵-agent sharded cells never oversubscribes the
//     machine (workers × shards stays capped at GOMAXPROCS).
//
// Results stream into a Table (CSV and Markdown emitters) that
// cmd/sweep renders directly and experiment E16 embeds. Axes are
// declared over the env/problems registries (env.Desc, problems.Desc),
// so grids are data, not code.
package sweep

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/problems"
	"repro/internal/sim"
)

// Topo is a named topology family: a graph constructor parameterized by
// the requested system size. Families with structural constraints
// (hypercube, torus) round the size to the nearest realizable one — the
// cell records the actual agent count of the graph built.
type Topo struct {
	// Name identifies the family in axes and tables.
	Name string
	// New builds the family's graph for (approximately) n agents.
	New func(n int) *graph.Graph
}

// RingTopo, LineTopo, CompleteTopo, StarTopo, TreeTopo are the exact-size
// families.
func RingTopo() Topo     { return Topo{Name: "ring", New: graph.Ring} }
func LineTopo() Topo     { return Topo{Name: "line", New: graph.Line} }
func CompleteTopo() Topo { return Topo{Name: "complete", New: graph.Complete} }
func StarTopo() Topo     { return Topo{Name: "star", New: graph.Star} }
func TreeTopo() Topo     { return Topo{Name: "tree", New: graph.BinaryTree} }

// HypercubeTopo rounds n up to the next power of two.
func HypercubeTopo() Topo {
	return Topo{Name: "hypercube", New: func(n int) *graph.Graph {
		d := 0
		for 1<<uint(d) < n {
			d++
		}
		return graph.Hypercube(d)
	}}
}

// TorusTopo builds the square torus nearest to n agents.
func TorusTopo() Topo {
	return Topo{Name: "torus", New: func(n int) *graph.Graph {
		r := int(math.Round(math.Sqrt(float64(n))))
		if r < 2 {
			r = 2
		}
		return graph.Torus(r, r)
	}}
}

// ParseTopo resolves a topology family by name — the CLI-facing half of
// the topology axis.
func ParseTopo(name string) (Topo, error) {
	all := []Topo{RingTopo(), LineTopo(), CompleteTopo(), StarTopo(), TreeTopo(), HypercubeTopo(), TorusTopo()}
	name = strings.TrimSpace(name)
	for _, t := range all {
		if t.Name == name {
			return t, nil
		}
	}
	known := make([]string, len(all))
	for i, t := range all {
		known[i] = t.Name
	}
	return Topo{}, fmt.Errorf("sweep: unknown topology %q (know %s)", name, strings.Join(known, ", "))
}

// Axes declares a scenario grid: the cartesian product of the listed
// environments, problems, topologies, sizes, dynamics schedules, and
// modes, replicated over Seeds independent seed substreams. Expansion
// (Axes.Grid) is pure — the same Axes always yield the same cells with
// the same derived seeds.
type Axes struct {
	// Envs, Problems, Topos, Sizes are the product axes; each must be
	// non-empty.
	Envs     []env.Desc
	Problems []problems.Desc
	Topos    []Topo
	Sizes    []int
	// Dynamics is the fault-schedule axis (see dynamics.Desc); empty
	// defaults to {dynamics.NoneDesc()} — no dynamics, the pre-axis grid
	// shape (cell indices, and therefore per-cell seeds, are unchanged).
	Dynamics []dynamics.Desc
	// Modes defaults to {sim.ComponentMode} when empty.
	Modes []sim.Mode
	// Seeds is the number of seed replicas per combination (default 1).
	Seeds int
	// BaseSeed is the root of every cell's seed substream (see Cell).
	BaseSeed int64
	// MaxRounds caps each cell (0 = sim.DefaultMaxRounds).
	MaxRounds int
	// Shards and ParallelThreshold are forwarded to every cell's
	// sim.Options (zero = auto, as in sim).
	Shards, ParallelThreshold int
}

// Cell is one fully resolved grid point: everything an independent
// sim.Run needs to reproduce its result bit for bit.
type Cell struct {
	// Index is the cell's position in grid expansion order; the seed
	// substreams are derived from it.
	Index int
	// Env and Problem are the registry descriptors of the cell's axes.
	Env     env.Desc
	Problem problems.Desc
	// Topo names the topology family; Graph is the instantiated graph
	// (shared between cells of the same family and size).
	Topo  string
	Graph *graph.Graph
	// Dyn is the dynamics-schedule descriptor of the cell's fault axis
	// (zero value and the none family both mean no dynamics); the built
	// schedule itself rides in Opts.Dynamics.
	Dyn dynamics.Desc
	// Mode is the interaction granularity.
	Mode sim.Mode
	// Replica is the cell's index along the seed axis.
	Replica int
	// InitSeed seeds the initial-state draw (Problem.Init); Opts.Seed
	// drives the run itself. Both are engine.SubSeed substreams of the
	// grid's BaseSeed at this cell's index — never functions of worker
	// identity — so results cannot depend on which worker runs the cell.
	InitSeed int64
	// Opts is the exact sim.Options an independent sim.Run would receive.
	Opts sim.Options
}

// Grid is an expanded scenario grid: the cell list in deterministic
// expansion order (environments outermost, then problems, topologies,
// sizes, dynamics, modes, seed replicas innermost).
type Grid struct {
	Cells []Cell
}

// Grid expands the axes into the full cell list. It validates the axes
// and builds each (topology, size) graph exactly once, so cells of the
// same family and size share a graph instance — which is also what lets
// a warm worker reuse its cached pairwise matcher across them.
func (a Axes) Grid() (*Grid, error) {
	switch {
	case len(a.Envs) == 0:
		return nil, errors.New("sweep: no environments")
	case len(a.Problems) == 0:
		return nil, errors.New("sweep: no problems")
	case len(a.Topos) == 0:
		return nil, errors.New("sweep: no topologies")
	case len(a.Sizes) == 0:
		return nil, errors.New("sweep: no sizes")
	}
	for _, n := range a.Sizes {
		if n < 2 {
			return nil, fmt.Errorf("sweep: size %d below the 2-agent minimum", n)
		}
	}
	modes := a.Modes
	if len(modes) == 0 {
		modes = []sim.Mode{sim.ComponentMode}
	}
	dyns := a.Dynamics
	if len(dyns) == 0 {
		dyns = []dynamics.Desc{dynamics.NoneDesc()}
	}
	for _, d := range dyns {
		if d.New == nil {
			return nil, fmt.Errorf("sweep: dynamics descriptor %q has no constructor", d.Name)
		}
	}
	seeds := a.Seeds
	if seeds <= 0 {
		seeds = 1
	}

	type gkey struct {
		topo string
		n    int
	}
	graphs := make(map[gkey]*graph.Graph)
	g := &Grid{}
	idx := 0
	for _, e := range a.Envs {
		for _, p := range a.Problems {
			for _, topo := range a.Topos {
				for _, n := range a.Sizes {
					k := gkey{topo.Name, n}
					if graphs[k] == nil {
						graphs[k] = topo.New(n)
					}
					for _, dyn := range dyns {
						// One immutable schedule per (dynamics, graph) — all
						// per-run state lives in the engine's applier, so the
						// mode/seed cells of a combination share it; built
						// against the cell's actual graph so partition cuts
						// and agent ids resolve correctly.
						sched := dyn.New(graphs[k])
						for _, mode := range modes {
							for rep := 0; rep < seeds; rep++ {
								g.Cells = append(g.Cells, Cell{
									Index:    idx,
									Env:      e,
									Problem:  p,
									Topo:     topo.Name,
									Graph:    graphs[k],
									Dyn:      dyn,
									Mode:     mode,
									Replica:  rep,
									InitSeed: engine.SubSeed(a.BaseSeed, 2*idx+1),
									Opts: sim.Options{
										Seed:              engine.SubSeed(a.BaseSeed, 2*idx),
										Mode:              mode,
										MaxRounds:         a.MaxRounds,
										StopOnConverged:   true,
										Shards:            a.Shards,
										ParallelThreshold: a.ParallelThreshold,
										Dynamics:          sched,
									},
								})
								idx++
							}
						}
					}
				}
			}
		}
	}
	return g, nil
}
