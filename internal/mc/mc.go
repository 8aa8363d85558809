// Package mc is an exhaustive model checker for small instances of the
// paper's dynamic systems. It discharges the §3.7 proof obligations as
// machine checks over the full reachable state graph:
//
//   - "R implements D": every explored transition is validated as a
//     D-step (f conserved, h strictly decreased);
//   - "agents eventually transit out of nonoptimal states" (9): every
//     reachable non-goal state has at least one proper transition enabled
//     under some group the environment can form — together with the
//     escape postulate (1) and the environment assumption (2), this gives
//     convergence under every fair schedule;
//   - stability (4): goal states admit no proper transitions.
//
// Because the paper's state spaces are infinite, exhaustive checking works
// on finite sub-instances (few agents, small value domains). That cannot
// prove the general theorems, but it verifies the implementation against
// them exactly where the theorems say what must happen — and it refutes
// conclusively when something is wrong (as it does for the Fig. 1 variant
// and the §4.3 printed variant; see the tests).
package mc

import (
	"fmt"
	"sort"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// Spec describes one finite instance to explore.
type Spec[T any] struct {
	// Initial is the initial (positional) agent state vector.
	Initial []T
	// Groups are the agent groups the environment can form (e.g. all
	// edges of a communication graph, plus larger components). Singleton
	// groups are allowed but can only stutter under a correct algorithm.
	Groups [][]int
	// Succ enumerates the possible next state vectors of a group holding
	// the given states (positional, same length). The identity need not
	// be included; stutters are always allowed implicitly.
	Succ func(states []T) [][]T
	// Problem supplies f, h, the state order, and equality for
	// validation.
	Problem core.Problem[T]
	// MaxStates aborts exploration beyond this many states (guard against
	// accidental explosion); 0 means 1_000_000.
	MaxStates int
}

// Report summarizes an exhaustive exploration.
type Report struct {
	// States is the number of reachable states (including the initial).
	States int
	// Transitions is the number of proper (state-changing) transitions
	// explored.
	Transitions int
	// GoalStates is the number of reachable states satisfying S = f(S) =
	// f(S(0)).
	GoalStates int
	// NonDSteps lists transitions that are not D-steps (obligation "R
	// implements D" violated).
	NonDSteps []string
	// DeadEnds lists non-goal states with no proper transition under any
	// group (obligation (9) violated: the state cannot be escaped even
	// with every group enabled).
	DeadEnds []string
	// UnstableGoals lists goal states with a proper outgoing transition
	// (stability (4) violated).
	UnstableGoals []string
	// Truncated reports that exploration hit MaxStates.
	Truncated bool
}

// OK reports whether all three obligations held on the explored instance.
func (r *Report) OK() bool {
	return !r.Truncated && len(r.NonDSteps) == 0 && len(r.DeadEnds) == 0 && len(r.UnstableGoals) == 0
}

// Summary renders a one-line verdict.
func (r *Report) Summary() string {
	return fmt.Sprintf("states=%d transitions=%d goals=%d nonD=%d deadEnds=%d unstableGoals=%d truncated=%v",
		r.States, r.Transitions, r.GoalStates, len(r.NonDSteps), len(r.DeadEnds), len(r.UnstableGoals), r.Truncated)
}

// Explore runs the exhaustive BFS over the instance's state graph.
func Explore[T any](spec Spec[T]) (*Report, error) {
	if spec.Succ == nil || spec.Problem == nil {
		return nil, fmt.Errorf("mc: Succ and Problem are required")
	}
	if len(spec.Initial) == 0 {
		return nil, fmt.Errorf("mc: empty initial state")
	}
	maxStates := spec.MaxStates
	if maxStates <= 0 {
		maxStates = 1_000_000
	}
	p := spec.Problem
	cmp := p.Cmp()
	f, h := p.F(), p.H()
	target := f.Apply(ms.New(cmp, spec.Initial...))

	encode := func(states []T) string {
		return fmt.Sprintf("%v", states)
	}
	isGoal := func(states []T) bool {
		return p.Equal(ms.New(cmp, states...), target)
	}

	rep := &Report{}
	seen := map[string][]T{}
	start := append([]T(nil), spec.Initial...)
	seen[encode(start)] = start
	queue := [][]T{start}
	rep.States = 1

	for len(queue) > 0 {
		if rep.States > maxStates {
			rep.Truncated = true
			break
		}
		cur := queue[0]
		queue = queue[1:]
		curGoal := isGoal(cur)
		if curGoal {
			rep.GoalStates++
		}
		properOut := false

		for _, group := range spec.Groups {
			gs := make([]T, len(group))
			for i, a := range group {
				gs[i] = cur[a]
			}
			beforeM := ms.New(cmp, gs...)
			for _, next := range spec.Succ(gs) {
				if len(next) != len(group) {
					return nil, fmt.Errorf("mc: Succ returned %d states for a group of %d", len(next), len(group))
				}
				afterM := ms.New(cmp, next...)
				if p.Equal(beforeM, afterM) {
					continue // stutter: always allowed, never explored
				}
				properOut = true
				rep.Transitions++
				if v := core.CheckDStep(f, h, p.Equal, beforeM, afterM, 0); !v.OK {
					rep.NonDSteps = append(rep.NonDSteps,
						fmt.Sprintf("state %v group %v → %v: %v", cur, group, next, v))
				}
				succ := append([]T(nil), cur...)
				for i, a := range group {
					succ[a] = next[i]
				}
				key := encode(succ)
				if _, ok := seen[key]; !ok {
					seen[key] = succ
					queue = append(queue, succ)
					rep.States++
				}
			}
		}

		switch {
		case curGoal && properOut:
			rep.UnstableGoals = append(rep.UnstableGoals, encode(cur))
		case !curGoal && !properOut:
			rep.DeadEnds = append(rep.DeadEnds, encode(cur))
		}
	}
	sort.Strings(rep.DeadEnds)
	return rep, nil
}

// ProblemSucc builds a successor enumerator from a problem's own
// (deterministic) GroupStep: the single transition the implemented
// algorithm would take. Checking with it verifies the implementation; it
// does not explore the full relation D.
func ProblemSucc[T any](p core.Problem[T]) func(states []T) [][]T {
	return func(states []T) [][]T {
		return [][]T{p.GroupStep(states, nil)}
	}
}

// DomainSucc builds a successor enumerator that explores the FULL
// relation D over a finite per-agent domain: every assignment of the
// group's members to domain values that conserves f and strictly
// decreases h. Use only with tiny domains and groups
// (|domain|^|group| assignments are enumerated).
func DomainSucc[T any](p core.Problem[T], domain []T, hEps float64) func(states []T) [][]T {
	f, h := p.F(), p.H()
	cmp := p.Cmp()
	return func(states []T) [][]T {
		var out [][]T
		beforeM := ms.New(cmp, states...)
		fBefore := f.Apply(beforeM)
		hBefore := h.Value(beforeM)
		assign := make([]T, len(states))
		var rec func(i int)
		rec = func(i int) {
			if i == len(states) {
				afterM := ms.New(cmp, assign...)
				if p.Equal(beforeM, afterM) {
					return
				}
				if !p.Equal(f.Apply(afterM), fBefore) {
					return
				}
				if !(h.Value(afterM) < hBefore-hEps) {
					return
				}
				out = append(out, append([]T(nil), assign...))
				return
			}
			for _, v := range domain {
				assign[i] = v
				rec(i + 1)
			}
		}
		rec(0)
		return out
	}
}

// AllPairs returns every 2-element group over n agents: the group
// structure induced by a complete communication graph under pairwise
// interaction.
func AllPairs(n int) [][]int {
	var out [][]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, []int{i, j})
		}
	}
	return out
}

// PathPairs returns the adjacent pairs 0–1, 1–2, …: the group structure of
// a line graph.
func PathPairs(n int) [][]int {
	var out [][]int
	for i := 0; i+1 < n; i++ {
		out = append(out, []int{i, i + 1})
	}
	return out
}

// WholeGroup returns the single group of all n agents.
func WholeGroup(n int) [][]int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return [][]int{g}
}
