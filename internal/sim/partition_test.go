package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/problems"
)

// shadowRound replays one round's mask production outside the engine: the
// environment steps on the round's keyed stream, then the dynamics
// applier (if any) grows the graph and overlays its masks, exactly as the
// round loop orders them. It returns the round's effective masks; the
// caller must call dyn.EndRound before the next round.
func shadowRound(e env.Environment, dyn *dynamics.Applier, seed int64, round int) env.State {
	if dyn != nil {
		if _, ok := dyn.GrowthFor(round); ok {
			e.(env.Growable).Grow()
		}
	}
	es := e.Step(round, engine.NewFastRand(engine.EnvSeed(seed, round)).Rand)
	if dyn != nil {
		es = dyn.BeginRound(round, es)
	}
	return es
}

// TestPartitionMatchesEffectiveMasks is the partition oracle for component
// mode's memo: after every round, the masks the memo kept must equal that
// round's effective masks, rebuilt by a shadow copy of the environment and
// the dynamics schedule driven alongside the run, and the partition the
// round stepped must equal a fresh ComponentsInto over the kept masks. A
// memo that reused π across a mask change, or kept a stale copy, fails
// here. It covers every environment type × dynamics {none; partition
// cycle + random crashes + burst; ring join} × Shards {1, 3}. The join
// runs only over environments that can grow (env.Growable) on a ring.
func TestPartitionMatchesEffectiveMasks(t *testing.T) {
	type envCase struct {
		topo func() *graph.Graph
		mk   func(g *graph.Graph) env.Environment
	}
	ring := func() *graph.Graph { return graph.Ring(24) }
	envs := map[string]envCase{
		"static":      {ring, func(g *graph.Graph) env.Environment { return env.NewStatic(g) }},
		"churn":       {ring, func(g *graph.Graph) env.Environment { return env.NewEdgeChurn(g, 0.7) }},
		"powerloss":   {ring, func(g *graph.Graph) env.Environment { return env.NewPowerLoss(g, 0.1) }},
		"partitioner": {ring, func(g *graph.Graph) env.Environment { return env.NewPartitioner(g, 3, 4, 3) }},
		"adversary":   {ring, func(g *graph.Graph) env.Environment { return env.NewAdversary(g, 0.3, 4) }},
		"starver":     {ring, func(g *graph.Graph) env.Environment { return env.NewStarver(g, []int{0, 5, 11}) }},
		"roundrobin":  {ring, func(g *graph.Graph) env.Environment { return env.NewRoundRobin(g) }},
		"mobile": {func() *graph.Graph { return graph.Complete(10) }, func(g *graph.Graph) env.Environment {
			e, err := env.NewMobile(g, 0.4, 0.05)
			if err != nil {
				panic(err)
			}
			return e
		}},
		"markov":   {ring, func(g *graph.Graph) env.Environment { return env.NewMarkovLinks(g, 0.15, 0.35) }},
		"daynight": {ring, func(g *graph.Graph) env.Environment { return env.NewDayNight(g, 3, 2) }},
		"compose": {ring, func(g *graph.Graph) env.Environment {
			e, err := env.NewCompose(env.NewMarkovLinks(g, 0.15, 0.35), env.NewPowerLoss(g, 0.1))
			if err != nil {
				panic(err)
			}
			return e
		}},
	}
	dyns := map[string]func() *dynamics.Schedule{
		"nodyn": func() *dynamics.Schedule { return nil },
		"faults": func() *dynamics.Schedule {
			return dynamics.NewSchedule(
				dynamics.PartitionCycle(2, 9, 4),
				dynamics.RandomCrashes(0.08, 5),
				dynamics.Burst(0.5, 30, 45),
			)
		},
		"join": func() *dynamics.Schedule { return dynamics.NewSchedule(dynamics.Join(6, "ring", 5)) },
	}
	const seed, rounds = 7, 60
	for envName, ec := range envs {
		for dynName, mkd := range dyns {
			if dynName == "join" {
				if _, ok := ec.mk(ec.topo()).(env.Growable); !ok || envName == "mobile" {
					continue // RunWith rejects joins over an environment that cannot grow
				}
			}
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", envName, dynName, shards), func(t *testing.T) {
					g := ec.topo()
					sched := mkd()
					shadowG := ec.topo()
					shadowEnv := ec.mk(shadowG)
					var shadowDyn *dynamics.Applier
					joiners := 0
					if s := mkd(); s != nil {
						shadowDyn = s.NewApplier(shadowG, seed)
						joiners = s.TotalJoiners()
					}
					rng := rand.New(rand.NewSource(11))
					vals := make([]int, g.N()+joiners)
					for i := range vals {
						vals[i] = rng.Intn(8 * g.N())
					}
					sc := NewScratch[int]()
					defer sc.Close()
					checked := 0
					opts := Options{
						Seed: seed, Mode: ComponentMode, Shards: shards,
						MaxRounds: rounds, CheckSteps: true, Dynamics: sched,
						OnRound: func(ri RoundInfo) {
							want := shadowRound(shadowEnv, shadowDyn, seed, ri.Round)
							r := &sc.r
							if !r.compEdgeUp.Equal(want.EdgeUp) || !r.compAgentUp.Equal(want.AgentUp) {
								t.Fatalf("round %d: the memo's kept masks are not the round's effective masks", ri.Round)
							}
							if shadowDyn != nil {
								shadowDyn.EndRound()
							}
							fresh := r.g.ComponentsInto(r.compEdgeUp, r.compAgentUp, &graph.ComponentScratch{})
							if !slices.EqualFunc(r.comps, fresh, slices.Equal[[]int]) {
								t.Fatalf("round %d: stepped partition %v, fresh derivation %v", ri.Round, r.comps, fresh)
							}
							checked++
						},
					}
					res, err := RunWith(sc, problems.NewMin(), ec.mk(g), vals, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Violations) > 0 {
						t.Fatalf("violations: %v", res.Violations)
					}
					if checked != rounds {
						t.Fatalf("checked %d rounds, want %d", checked, rounds)
					}
					if dynName == "join" && res.Dynamics.Joins == 0 {
						t.Fatal("vacuous: no agent joined")
					}
				})
			}
		}
	}
}

// componentParent returns the union-find parent array of a component
// scratch — the buffer every ComponentsInto call rewrites, and nothing
// else reads between calls.
func componentParent(cs *graph.ComponentScratch) []int {
	f := reflect.ValueOf(cs).Elem().FieldByName("parent")
	return *(*[]int)(unsafe.Pointer(f.UnsafeAddr()))
}

// TestPartitionMemoHitsOnSteadyMasks pins when component mode derives π:
// exactly on the rounds whose effective masks differ from the previous
// round's. A static ring with one agent crashed from round 5 to round 15
// changes its masks at rounds 0, 5 and 15 only; on every other round the
// memo must reuse the kept partition, crash window included, although
// the dynamics overlay re-suppresses the crashed agent every round. Each
// OnRound poisons the scratch's parent array, which only a derivation
// rewrites, so a derivation shows as a poison gone by the next OnRound.
func TestPartitionMemoHitsOnSteadyMasks(t *testing.T) {
	const n, poison = 64, -1
	g := graph.Ring(n)
	vals := make([]int, n)
	for i := range vals {
		vals[i] = (i*37 + 11) % (4 * n)
	}
	sc := NewScratch[int]()
	defer sc.Close()
	var derived []int
	opts := Options{
		Seed: 3, Mode: ComponentMode, MaxRounds: 30, CheckSteps: true,
		Dynamics: dynamics.NewSchedule(
			dynamics.At(5, dynamics.CrashAgents(3)),
			dynamics.At(15, dynamics.RecoverAgents(3)),
		),
		OnRound: func(ri RoundInfo) {
			parent := componentParent(&sc.r.compScratch)
			if parent[0] != poison {
				derived = append(derived, ri.Round)
			}
			parent[0] = poison
		},
	}
	res, err := RunWith(sc, problems.NewMin(), env.NewStatic(g), vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 || res.Rounds != 30 {
		t.Fatalf("rounds=%d violations=%v", res.Rounds, res.Violations)
	}
	if want := []int{0, 5, 15}; !slices.Equal(derived, want) {
		t.Fatalf("π derived on rounds %v, want %v", derived, want)
	}
}
