package sweep

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/problems"
	"repro/internal/sim"
)

// quickAxes is the shared ≥3-axis test grid: 2 environments × 4 problems
// × 2 topologies × 2 modes × 4 seeds — the acceptance-criterion shape
// (≥ 2 environments × ≥ 3 problems × ≥ 4 seeds) plus the modes axis.
// MaxRounds is capped because sum under pairwise gossip on a ring
// rightfully stalls (§4.2's environment obligation) — non-convergence is
// a recorded outcome, not an error.
func quickAxes() Axes {
	return Axes{
		Envs:      []env.Desc{env.ChurnDesc(0.9), env.StaticDesc()},
		Problems:  []problems.Desc{problems.MinDesc(), problems.MaxDesc(), problems.GCDDesc(), problems.SumDesc()},
		Topos:     []Topo{RingTopo(), CompleteTopo()},
		Sizes:     []int{24},
		Modes:     []sim.Mode{sim.ComponentMode, sim.PairwiseMode},
		Seeds:     4,
		BaseSeed:  42,
		MaxRounds: 400,
	}
}

func cellFingerprint(c CellResult) string {
	return fmt.Sprintf("i=%d conv=%v round=%d rounds=%d steps=%d msgs=%d viol=%d final=%v",
		c.Cell.Index, c.Converged, c.Round, c.Rounds, c.GroupSteps, c.Messages, c.Violations, c.Final)
}

// TestGridMatchesIndependentRuns is the sweep determinism golden test:
// every cell of a grid run on warm, pool-fanned workers must be
// bit-identical — including final states — to an independent cold
// sim.Run built from nothing but the cell's own fields, and the rendered
// table must be byte-identical across worker counts (1, 2, GOMAXPROCS).
func TestGridMatchesIndependentRuns(t *testing.T) {
	grid, err := quickAxes().Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 2*4*2*2*4 {
		t.Fatalf("grid has %d cells, want %d", len(grid.Cells), 2*4*2*2*4)
	}

	var tables []string
	var first *Result
	for _, workers := range []int{1, 2, 0} {
		res, err := Run(grid, Options{Workers: workers, KeepFinal: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tables = append(tables, res.Table.CSV())
		if first == nil {
			first = res
		} else {
			for i := range res.Cells {
				if got, want := cellFingerprint(res.Cells[i]), cellFingerprint(first.Cells[i]); got != want {
					t.Fatalf("workers=%d: cell %d diverged\ngot:  %s\nwant: %s", workers, i, got, want)
				}
			}
		}
	}
	for i := 1; i < len(tables); i++ {
		if tables[i] != tables[0] {
			t.Fatalf("table bytes depend on worker count:\n%s\nvs\n%s", tables[0], tables[i])
		}
	}

	// Cold reference: rebuild each cell independently, straight through
	// sim.Run, and require identical results.
	converged := 0
	for i, c := range grid.Cells {
		n := c.Graph.N()
		p := c.Problem.New(n)
		initial := c.Problem.Init(n, rand.New(rand.NewSource(c.InitSeed)))
		res, err := sim.Run[int](p, c.Env.New(c.Graph), initial, c.Opts)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want := CellResult{
			Cell: c, Converged: res.Converged, Round: res.Round, Rounds: res.Rounds,
			GroupSteps: res.GroupSteps, Messages: res.Messages,
			Violations: len(res.Violations), Final: res.Final,
		}
		if got, wantFP := cellFingerprint(first.Cells[i]), cellFingerprint(want); got != wantFP {
			t.Errorf("cell %d: grid result diverged from independent sim.Run\ngrid: %s\ncold: %s", i, got, wantFP)
		}
		if res.Converged {
			converged++
		}
	}
	// Sanity on the grid's content: the consensus problems must converge
	// everywhere; only sum cells may stall.
	if converged == 0 || converged == len(grid.Cells) {
		t.Errorf("converged cells = %d of %d — grid exercises nothing", converged, len(grid.Cells))
	}
	for _, c := range first.Cells {
		if c.Cell.Problem.Name != "sum" && !c.Converged {
			t.Errorf("cell %d (%s/%s/%s): consensus cell did not converge",
				c.Cell.Index, c.Cell.Env.Name, c.Cell.Problem.Name, c.Cell.Topo)
		}
		if c.Violations != 0 {
			t.Errorf("cell %d: %d monitor violations", c.Cell.Index, c.Violations)
		}
	}
}

// TestSweepSeedsAreSubstreams pins the seed-derivation contract: cell
// seeds come from engine.SubSeed at the cell index — distinct per cell,
// reproducible from (BaseSeed, Index) alone.
func TestSweepSeedsAreSubstreams(t *testing.T) {
	grid, err := quickAxes().Grid()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int)
	for _, c := range grid.Cells {
		if want := engine.SubSeed(42, 2*c.Index); c.Opts.Seed != want {
			t.Fatalf("cell %d: run seed %d, want substream %d", c.Index, c.Opts.Seed, want)
		}
		if want := engine.SubSeed(42, 2*c.Index+1); c.InitSeed != want {
			t.Fatalf("cell %d: init seed %d, want substream %d", c.Index, c.InitSeed, want)
		}
		if prev, dup := seen[c.Opts.Seed]; dup {
			t.Fatalf("cells %d and %d share run seed %d", prev, c.Index, c.Opts.Seed)
		}
		seen[c.Opts.Seed] = c.Index
	}
}

// TestSweepNestedShardedRespectsBudget: a grid whose cells force the
// sharded, pool-parallel layout must keep the process-wide extra-worker
// count within the engine.AcquireSlots budget — sweep workers and the
// pools nested inside their cells draw from the same pot.
func TestSweepNestedShardedRespectsBudget(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	engine.ResetSlotPeak()

	a := Axes{
		Envs:              []env.Desc{env.ChurnDesc(0.6)},
		Problems:          []problems.Desc{problems.MinDesc()},
		Topos:             []Topo{RingTopo()},
		Sizes:             []int{64},
		Modes:             []sim.Mode{sim.ComponentMode, sim.PairwiseMode},
		Seeds:             4,
		BaseSeed:          7,
		MaxRounds:         60_000,
		Shards:            4,
		ParallelThreshold: 1,
	}
	grid, err := a.Grid()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if !c.Converged || c.Violations != 0 {
			t.Errorf("cell %d: converged=%v violations=%d", c.Cell.Index, c.Converged, c.Violations)
		}
	}
	budget := goruntime.GOMAXPROCS(0) - 1
	if peak := engine.SlotPeak(); peak > budget {
		t.Errorf("sweep held %d extra-worker slots, budget is %d", peak, budget)
	} else if peak == 0 {
		t.Error("budget never engaged — sweep not routed through AcquireSlots")
	}
}

// TestWarmCellsAllocateLessThanCold is the warm-engine acceptance
// criterion as a machine-independent test: steady-state cells on a warm
// Worker must allocate well under half of what a cold Worker pays for
// the same cell (which re-pays trackers, matcher, arenas, monitor, and
// streams every time).
func TestWarmCellsAllocateLessThanCold(t *testing.T) {
	cell := benchCell()

	warmWorker := NewWorker()
	defer warmWorker.Close()
	if _, err := warmWorker.Do(cell); err != nil { // prime
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(5, func() {
		if _, err := warmWorker.Do(cell); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(5, func() {
		w := NewWorker()
		defer w.Close()
		if _, err := w.Do(cell); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per cell: warm=%.0f cold=%.0f", warm, cold)
	if warm*2 >= cold {
		t.Errorf("warm cells allocate %.0f, cold %.0f — warm reuse must save more than half", warm, cold)
	}
}

// benchCell is the steady-state cell BenchmarkSweepGrid and the
// warm-reuse test share: pairwise min on K64 under light churn — pair
// steps and the matcher are allocation-free, so the cell's allocations
// are engine set-up (cold) versus per-run bookkeeping (warm).
func benchCell() Cell {
	a := Axes{
		Envs:     []env.Desc{env.ChurnDesc(0.9)},
		Problems: []problems.Desc{problems.MinDesc()},
		Topos:    []Topo{CompleteTopo()},
		Sizes:    []int{64},
		Modes:    []sim.Mode{sim.PairwiseMode},
		Seeds:    1,
		BaseSeed: 3,
	}
	grid, err := a.Grid()
	if err != nil {
		panic(err)
	}
	return grid.Cells[0]
}

// TestTableEmitters pins the table shapes both emitters promise.
func TestTableEmitters(t *testing.T) {
	tbl := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	if got, want := tbl.CSV(), "a,b\n1,2\n3,4\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	md := tbl.Markdown()
	if !strings.HasPrefix(md, "| a | b |\n|---|---|\n") || !strings.Contains(md, "| 3 | 4 |") {
		t.Errorf("Markdown emitter malformed:\n%s", md)
	}
}

// TestAxesValidation: empty axes and degenerate sizes must fail loudly.
func TestAxesValidation(t *testing.T) {
	base := quickAxes()
	for name, mutate := range map[string]func(*Axes){
		"no envs":     func(a *Axes) { a.Envs = nil },
		"no problems": func(a *Axes) { a.Problems = nil },
		"no topos":    func(a *Axes) { a.Topos = nil },
		"no sizes":    func(a *Axes) { a.Sizes = nil },
		"size 1":      func(a *Axes) { a.Sizes = []int{1} },
	} {
		a := base
		mutate(&a)
		if _, err := a.Grid(); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// Defaults: empty Modes and Seeds expand to component mode, 1 seed.
	a := base
	a.Modes, a.Seeds = nil, 0
	grid, err := a.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 4 * 2 * 1 * 1; len(grid.Cells) != want {
		t.Errorf("defaulted grid has %d cells, want %d", len(grid.Cells), want)
	}
	for _, c := range grid.Cells {
		if c.Mode != sim.ComponentMode {
			t.Errorf("cell %d: mode %v, want component default", c.Index, c.Mode)
		}
	}
}

// TestParseTopo round-trips every family and rejects junk.
func TestParseTopo(t *testing.T) {
	for _, name := range []string{"ring", "line", "complete", "star", "tree", "hypercube", "torus"} {
		topo, err := ParseTopo(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if topo.Name != name {
			t.Errorf("ParseTopo(%q).Name = %q", name, topo.Name)
		}
		if g := topo.New(16); g.N() < 2 {
			t.Errorf("%s: graph for n=16 has %d agents", name, g.N())
		}
	}
	if _, err := ParseTopo("moebius"); err == nil {
		t.Error("unknown topology must error")
	}
	// Structural families round the size.
	hyper, _ := ParseTopo("hypercube")
	if g := hyper.New(100); g.N() != 128 {
		t.Errorf("hypercube(100) has %d agents, want 128", g.N())
	}
	torus, _ := ParseTopo("torus")
	if g := torus.New(100); g.N() != 100 {
		t.Errorf("torus(100) has %d agents, want 100", g.N())
	}
}

// dynamicsAxes is the fault-schedule grid the dynamics determinism and
// axis tests share: every registry family crossed with two problems and
// both interaction modes.
func dynamicsAxes() Axes {
	return Axes{
		Envs:     []env.Desc{env.ChurnDesc(0.9)},
		Problems: []problems.Desc{problems.MinDesc(), problems.GCDDesc()},
		Topos:    []Topo{RingTopo()},
		Sizes:    []int{32},
		Dynamics: []dynamics.Desc{
			dynamics.NoneDesc(),
			dynamics.CrashesDesc(0.02, 10),
			dynamics.PartitionDesc(2, 1, 25),
			dynamics.FlapDesc(3, 2, 20),
			dynamics.BurstDesc(0.5, 0, 15),
		},
		Modes:     []sim.Mode{sim.ComponentMode, sim.PairwiseMode},
		Seeds:     3,
		BaseSeed:  23,
		MaxRounds: 60_000,
	}
}

func dynFingerprint(c CellResult) string {
	fp := cellFingerprint(c)
	if c.Dyn != nil {
		fp += fmt.Sprintf(" dyn=%+v", *c.Dyn)
	}
	return fp
}

// TestSweepDynamicsDeterministicAcrossWorkersAndShards is the sweep half
// of the dynamics determinism satellite: a grid with a -dynamics axis
// must produce identical cell results — including the dynamics reports —
// for every worker count (1, 2, GOMAXPROCS) and for forced state-shard
// counts 1 and 4, and the dynamics cells must stay correct (the
// conservation law and the frozen-state check hold everywhere; every
// consensus cell reconverges through its faults).
func TestSweepDynamicsDeterministicAcrossWorkersAndShards(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a := dynamicsAxes()
			a.Shards = shards
			grid, err := a.Grid()
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 * 2 * 1 * 1 * 5 * 2 * 3; len(grid.Cells) != want {
				t.Fatalf("grid has %d cells, want %d", len(grid.Cells), want)
			}
			var first *Result
			for _, workers := range []int{1, 2, 0} {
				res, err := Run(grid, Options{Workers: workers, KeepFinal: true})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if first == nil {
					first = res
					continue
				}
				for i := range res.Cells {
					if got, want := dynFingerprint(res.Cells[i]), dynFingerprint(first.Cells[i]); got != want {
						t.Fatalf("workers=%d: cell %d diverged\ngot:  %s\nwant: %s", workers, i, got, want)
					}
				}
			}
			sawDynamics := false
			for _, c := range first.Cells {
				if c.Violations != 0 {
					t.Errorf("cell %d (%s): %d violations", c.Cell.Index, c.Cell.Dyn.Name, c.Violations)
				}
				if !c.Converged {
					t.Errorf("cell %d (%s/%s/%s): did not reconverge through its faults",
						c.Cell.Index, c.Cell.Problem.Name, c.Cell.Dyn.Name, c.Cell.Mode)
				}
				if c.Cell.Dyn.Name != "none" {
					sawDynamics = true
					if c.Dyn == nil {
						t.Fatalf("cell %d: dynamics cell carries no report", c.Cell.Index)
					}
				} else if c.Dyn != nil {
					t.Fatalf("cell %d: none cell carries a dynamics report", c.Cell.Index)
				}
			}
			if !sawDynamics {
				t.Fatal("grid exercised no dynamics cells")
			}
		})
	}
}

// TestSweepDynamicsCellsMatchIndependentRuns extends the golden contract
// to the dynamics axis: every dynamics cell rebuilt from its own fields
// through a cold sim.Run must match the grid result bit for bit.
func TestSweepDynamicsCellsMatchIndependentRuns(t *testing.T) {
	grid, err := dynamicsAxes().Grid()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(grid, Options{KeepFinal: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range grid.Cells {
		n := c.Graph.N()
		p := c.Problem.New(n)
		initial := c.Problem.Init(n, rand.New(rand.NewSource(c.InitSeed)))
		cold, err := sim.Run[int](p, c.Env.New(c.Graph), initial, c.Opts)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want := CellResult{
			Cell: c, Converged: cold.Converged, Round: cold.Round, Rounds: cold.Rounds,
			GroupSteps: cold.GroupSteps, Messages: cold.Messages,
			Violations: len(cold.Violations), Final: cold.Final, Dyn: cold.Dynamics,
		}
		if got, wantFP := dynFingerprint(res.Cells[i]), dynFingerprint(want); got != wantFP {
			t.Errorf("cell %d (%s): grid diverged from independent run\ngrid: %s\ncold: %s",
				i, c.Dyn.Name, got, wantFP)
		}
	}
}

// membershipAxes is the membership grid the join-axis tests share:
// join and amnesiac-rejoin families next to a plain cell and a no-op
// schedule-free cell.
func membershipAxes() Axes {
	return Axes{
		Envs:     []env.Desc{env.ChurnDesc(0.9)},
		Problems: []problems.Desc{problems.MinDesc()},
		Topos:    []Topo{RingTopo()},
		Sizes:    []int{24},
		Dynamics: []dynamics.Desc{
			dynamics.NoneDesc(),
			dynamics.JoinDesc(4, "ring", 8),
			dynamics.AmnesiacFlapDesc(3, 2, 12),
		},
		Modes:     []sim.Mode{sim.ComponentMode, sim.PairwiseMode},
		Seeds:     3,
		BaseSeed:  31,
		MaxRounds: 60_000,
	}
}

// TestSweepMembershipDeterministicAcrossWorkers is the sweep half of the
// growable-population contract: a grid with a join axis must produce
// identical cell results for every worker count, join cells must report
// their joins and a grown final population, and — because cells of one
// (topology, size) share a pristine graph instance — running join cells
// must never mutate that shared graph (each join cell runs on a private
// clone).
func TestSweepMembershipDeterministicAcrossWorkers(t *testing.T) {
	grid, err := membershipAxes().Grid()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 * 1 * 1 * 1 * 3 * 2 * 3; len(grid.Cells) != want {
		t.Fatalf("grid has %d cells, want %d", len(grid.Cells), want)
	}
	var first *Result
	for _, workers := range []int{1, 2, 0} {
		res, err := Run(grid, Options{Workers: workers, KeepFinal: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = res
			continue
		}
		for i := range res.Cells {
			if got, want := dynFingerprint(res.Cells[i]), dynFingerprint(first.Cells[i]); got != want {
				t.Fatalf("workers=%d: cell %d diverged\ngot:  %s\nwant: %s", workers, i, got, want)
			}
		}
	}
	for _, c := range grid.Cells {
		if c.Graph.N() != 24 || c.Graph.M() != 24 {
			t.Fatalf("cell %d mutated the shared pristine graph: n=%d m=%d", c.Index, c.Graph.N(), c.Graph.M())
		}
	}
	sawJoin := false
	for _, c := range first.Cells {
		if c.Violations != 0 {
			t.Errorf("cell %d (%s): %d violations", c.Cell.Index, c.Cell.Dyn.Name, c.Violations)
		}
		if !c.Converged {
			t.Errorf("cell %d (%s/%s): did not reconverge", c.Cell.Index, c.Cell.Dyn.Name, c.Cell.Mode)
		}
		joiners := 0
		if c.Cell.Opts.Dynamics != nil {
			joiners = c.Cell.Opts.Dynamics.TotalJoiners()
		}
		if want := 24 + joiners; len(c.Final) != want {
			t.Errorf("cell %d (%s): final population %d, want %d", c.Cell.Index, c.Cell.Dyn.Name, len(c.Final), want)
		}
		if joiners > 0 {
			sawJoin = true
			if c.Dyn == nil || c.Dyn.Joins != joiners {
				t.Errorf("cell %d: dynamics report %+v, want Joins=%d", c.Cell.Index, c.Dyn, joiners)
			}
		}
	}
	if !sawJoin {
		t.Fatal("grid exercised no join cells")
	}
}

// TestSweepMembershipCellsMatchIndependentRuns extends the cold-run
// golden contract to join cells: rebuilding a join cell from its own
// fields — final-population problem sizing, a private graph clone — must
// reproduce the grid result bit for bit.
func TestSweepMembershipCellsMatchIndependentRuns(t *testing.T) {
	grid, err := membershipAxes().Grid()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(grid, Options{KeepFinal: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range grid.Cells {
		rg := c.Graph
		joiners := 0
		if c.Opts.Dynamics != nil {
			joiners = c.Opts.Dynamics.TotalJoiners()
		}
		if joiners > 0 {
			rg = rg.Clone()
		}
		n := rg.N() + joiners
		p := c.Problem.New(n)
		initial := c.Problem.Init(n, rand.New(rand.NewSource(c.InitSeed)))
		cold, err := sim.Run[int](p, c.Env.New(rg), initial, c.Opts)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want := CellResult{
			Cell: c, Converged: cold.Converged, Round: cold.Round, Rounds: cold.Rounds,
			GroupSteps: cold.GroupSteps, Messages: cold.Messages,
			Violations: len(cold.Violations), Final: cold.Final, Dyn: cold.Dynamics,
		}
		if got, wantFP := dynFingerprint(res.Cells[i]), dynFingerprint(want); got != wantFP {
			t.Errorf("cell %d (%s): grid diverged from independent run\ngrid: %s\ncold: %s",
				i, c.Dyn.Name, got, wantFP)
		}
	}
}
