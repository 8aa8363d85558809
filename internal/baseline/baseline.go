// Package baseline implements the non-self-similar comparison algorithms
// the paper positions itself against (§5): "for each agent to take
// repeated global snapshots or to employ group communication protocols …
// these approaches work well in systems that are relatively static but are
// inefficient in dynamic systems."
//
// Two baselines are provided:
//
//   - Snapshot: a coordinator builds a spanning tree over available edges
//     and collects every agent's value; if any tree edge becomes
//     unavailable mid-collection the snapshot aborts and restarts. This is
//     the brittle "repeated global snapshots" strategy: it makes no
//     progress at all unless the environment stays good long enough for a
//     full collection, and partitions starve it forever.
//
//   - Flooding: every agent keeps the set of (agent, value) pairs it has
//     heard of and exchanges full sets over available edges (epidemic /
//     group-communication style). It is robust like the self-similar
//     algorithms but pays Θ(N) state and message size per agent, versus
//     O(1) for the self-similar solutions — the cost experiment E11
//     quantifies.
//
// Both baselines run under exactly the same env.Environment as the
// self-similar engine, so comparisons are apples to apples.
package baseline

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/env"
)

// Result reports a baseline run.
type Result struct {
	// Converged reports whether the goal was reached.
	Converged bool
	// Round is the first round at which the goal held (or the executed
	// round count when not converged).
	Round int
	// Messages counts messages sent.
	Messages int
	// Restarts counts snapshot aborts (Snapshot only).
	Restarts int
	// MaxStateSize is the largest per-agent state (in values) observed
	// (Flooding: up to N; Snapshot: coordinator reaches N).
	MaxStateSize int
}

// Snapshot runs the coordinator-snapshot baseline for an aggregate
// function over int values (the aggregate itself is irrelevant to the
// dynamics — collection is the hard part). The coordinator is agent 0.
//
// Each round, the coordinator grows a spanning tree over currently
// available edges (one hop per round, modelling request propagation); an
// agent joins the tree when a tree member reaches it over an available
// edge. If any tree edge is unavailable in a round, the whole collection
// aborts and restarts from scratch — a collected snapshot must be
// consistent, and the paper's point is precisely that dynamic environments
// keep invalidating it.
func Snapshot(e env.Environment, values []int, maxRounds int, seed int64) (*Result, error) {
	g := e.Graph()
	if len(values) != g.N() {
		return nil, fmt.Errorf("baseline: %d values for %d agents", len(values), g.N())
	}
	rng := engine.NewFastRand(0)
	res := &Result{}

	n := g.N()
	inTree := make([]bool, n)
	treeEdges := make([]int, 0, n-1)
	reset := func() {
		for i := range inTree {
			inTree[i] = false
		}
		inTree[0] = true
		treeEdges = treeEdges[:0]
	}
	reset()
	res.MaxStateSize = 1
	frontier := make([]bool, n)

	for round := 0; round < maxRounds; round++ {
		rng.Reseed(engine.EnvSeed(seed, round))
		s := e.Step(round, rng.Rand)

		// Abort if the environment broke any collected tree edge or took
		// down a tree member.
		broken := false
		for _, id := range treeEdges {
			edge := g.Edge(id)
			if !s.Usable(id, edge.A, edge.B) {
				broken = true
				break
			}
		}
		if !s.AgentUp.Get(0) {
			broken = true
		}
		if broken {
			res.Restarts++
			reset()
			continue
		}

		// Grow the tree one hop per round: any non-member adjacent (over
		// an available edge) to an agent that was a member at the start
		// of the round joins (request+reply = 2 messages). The frontier
		// is frozen so propagation takes one round per hop.
		copy(frontier, inTree)
		for id, edge := range g.EdgesView() {
			if !s.Usable(id, edge.A, edge.B) {
				continue
			}
			var other int
			switch {
			case frontier[edge.A] && !inTree[edge.B]:
				other = edge.B
			case frontier[edge.B] && !inTree[edge.A]:
				other = edge.A
			default:
				continue
			}
			inTree[other] = true
			treeEdges = append(treeEdges, id)
			res.Messages += 2
		}

		size := 0
		for _, in := range inTree {
			if in {
				size++
			}
		}
		if size > res.MaxStateSize {
			res.MaxStateSize = size
		}
		if size == n {
			res.Converged = true
			res.Round = round + 1
			return res, nil
		}
	}
	res.Round = maxRounds
	return res, nil
}

// Flooding runs the epidemic baseline: each agent holds the set of
// (agent id, value) pairs it knows; over every available edge both
// endpoints merge their sets; an agent "knows the answer" when it has all
// N pairs, and the run converges when every agent does.
func Flooding(e env.Environment, values []int, maxRounds int, seed int64) (*Result, error) {
	g := e.Graph()
	n := g.N()
	if len(values) != n {
		return nil, fmt.Errorf("baseline: %d values for %d agents", len(values), n)
	}
	rng := engine.NewFastRand(0)
	res := &Result{}

	know := make([][]bool, n)
	counts := make([]int, n)
	for i := range know {
		know[i] = make([]bool, n)
		know[i][i] = true
		counts[i] = 1
	}
	res.MaxStateSize = 1

	for round := 0; round < maxRounds; round++ {
		rng.Reseed(engine.EnvSeed(seed, round))
		s := e.Step(round, rng.Rand)
		for id, edge := range g.EdgesView() {
			if !s.Usable(id, edge.A, edge.B) {
				continue
			}
			a, b := edge.A, edge.B
			// Exchange full sets (2 messages of size ≤ N values each;
			// count messages, track state size separately).
			res.Messages += 2
			for i := 0; i < n; i++ {
				if know[a][i] != know[b][i] {
					know[a][i] = true
					know[b][i] = true
				}
			}
			ca, cb := 0, 0
			for i := 0; i < n; i++ {
				if know[a][i] {
					ca++
				}
				if know[b][i] {
					cb++
				}
			}
			counts[a], counts[b] = ca, cb
			if ca > res.MaxStateSize {
				res.MaxStateSize = ca
			}
		}
		all := true
		for i := 0; i < n; i++ {
			if counts[i] != n {
				all = false
				break
			}
		}
		if all {
			res.Converged = true
			res.Round = round + 1
			return res, nil
		}
	}
	res.Round = maxRounds
	return res, nil
}
