// Command selfsim runs one self-similar computation under a chosen
// dynamic environment and reports how it went.
//
//	selfsim -problem min -graph ring -n 16 -env churn -p 0.3 -seed 7
//	selfsim -problem sum -graph complete -n 8 -mode pairwise
//	selfsim -problem sort -graph line -n 12 -env partition
//	selfsim -problem hull -graph ring -n 10 -env mobile
//
// Problems: min, max, sum, average, gcd, minpair, sort, hull.
// Graphs: line, ring, complete, star, grid, random.
// Environments: static, churn, power, partition, adversary, unfair,
// roundrobin, mobile.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/problems"
	"repro/internal/sim"
)

func main() {
	var (
		problem   = flag.String("problem", "min", "min | max | sum | average | gcd | minpair | sort | hull")
		graphName = flag.String("graph", "ring", "line | ring | complete | star | grid | random")
		n         = flag.Int("n", 16, "number of agents")
		envName   = flag.String("env", "churn", "static | churn | power | partition | adversary | unfair | roundrobin | mobile")
		p         = flag.Float64("p", 0.5, "availability probability (churn/power) or cut fraction (adversary)")
		seed      = flag.Int64("seed", 1, "random seed")
		mode      = flag.String("mode", "component", "component | pairwise")
		maxRounds = flag.Int("rounds", 100000, "maximum rounds")
		verbose   = flag.Bool("v", false, "print the h trajectory")
	)
	flag.Parse()

	g, err := buildGraph(*graphName, *n, *seed)
	if err != nil {
		fail(err)
	}
	e, err := buildEnv(*envName, g, *p)
	if err != nil {
		fail(err)
	}
	opts := sim.Options{
		Seed: *seed, StopOnConverged: true, MaxRounds: *maxRounds,
		CheckSteps: true, HEps: 1e-9,
	}
	var hTrace []float64 // the global variant h after every round, under -v
	if *verbose {
		opts.OnRound = func(ri sim.RoundInfo) { hTrace = append(hTrace, ri.H) }
	}
	if *mode == "pairwise" {
		opts.Mode = sim.PairwiseMode
	}

	//lint:ignore detrand CLI demo input generation from the -seed flag; documented output transcripts depend on this exact stdlib stream
	rng := rand.New(rand.NewSource(*seed))
	vals := rng.Perm(4 * *n)[:*n]

	switch *problem {
	case "min":
		res, err := sim.Run[int](problems.NewMin(), e, vals, opts)
		report(res, err, *verbose, hTrace)
	case "max":
		res, err := sim.Run[int](problems.NewMax(4**n+1), e, vals, opts)
		report(res, err, *verbose, hTrace)
	case "sum":
		res, err := sim.Run[int](problems.NewSum(), e, vals, opts)
		report(res, err, *verbose, hTrace)
	case "gcd":
		for i := range vals {
			vals[i] = (vals[i] + 1) * 3
		}
		res, err := sim.Run[int](problems.NewGCD(), e, vals, opts)
		report(res, err, *verbose, hTrace)
	case "average":
		fv := make([]float64, *n)
		for i, v := range vals {
			fv[i] = float64(v)
		}
		res, err := sim.Run[float64](problems.NewAverage(1e-9), e, fv, opts)
		report(res, err, *verbose, hTrace)
	case "minpair":
		res, err := sim.Run[problems.Pair](problems.NewMinPair(*n, 4**n+1), e, problems.InitialPairs(vals), opts)
		report(res, err, *verbose, hTrace)
	case "sort":
		sp, err := problems.NewSorting(vals)
		if err != nil {
			fail(err)
		}
		res, err := sim.Run[problems.Item](sp, e, problems.InitialItems(vals), opts)
		report(res, err, *verbose, hTrace)
	case "hull":
		pts := make([]geom.Point, *n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		res, err := sim.Run[problems.HullState](problems.NewHull(pts), e, problems.InitialHulls(pts), opts)
		report(res, err, *verbose, hTrace)
	default:
		fail(fmt.Errorf("unknown problem %q", *problem))
	}
}

func buildGraph(name string, n int, seed int64) (*graph.Graph, error) {
	switch name {
	case "line":
		return graph.Line(n), nil
	case "ring":
		return graph.Ring(n), nil
	case "complete":
		return graph.Complete(n), nil
	case "star":
		return graph.Star(n), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid(side, side), nil
	case "random":
		//lint:ignore detrand one-shot CLI topology construction from the -seed flag, before any engine runs
		return graph.ConnectedErdosRenyi(n, 0.2, rand.New(rand.NewSource(seed))), nil
	default:
		return nil, fmt.Errorf("unknown graph %q", name)
	}
}

func buildEnv(name string, g *graph.Graph, p float64) (env.Environment, error) {
	switch name {
	case "static":
		return env.NewStatic(g), nil
	case "churn":
		return env.NewEdgeChurn(g, p), nil
	case "power":
		return env.NewPowerLoss(g, p), nil
	case "partition":
		return env.NewPartitioner(g, 2, 5, 20), nil
	case "adversary":
		return env.NewAdversary(g, p, 10), nil
	case "unfair":
		return env.NewAdversary(g, p, 0), nil
	case "roundrobin":
		return env.NewRoundRobin(g), nil
	case "mobile":
		return env.NewMobile(g, 0.35, 0.05)
	default:
		return nil, fmt.Errorf("unknown environment %q", name)
	}
}

func report[T any](res *sim.Result[T], err error, verbose bool, hTrace []float64) {
	if err != nil {
		fail(err)
	}
	fmt.Printf("converged:    %v\n", res.Converged)
	fmt.Printf("round:        %d\n", res.Round)
	fmt.Printf("group steps:  %d\n", res.GroupSteps)
	fmt.Printf("messages:     %d\n", res.Messages)
	fmt.Printf("violations:   %d\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	fmt.Printf("target:       %s\n", truncate(fmt.Sprint(res.Target), 100))
	fmt.Printf("final states: %s\n", truncate(fmt.Sprint(res.Final), 100))
	if verbose {
		fmt.Printf("h trajectory: %v\n", hTrace)
	}
	if !res.Converged || len(res.Violations) > 0 {
		os.Exit(1)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "selfsim:", err)
	os.Exit(2)
}
