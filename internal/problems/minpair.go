package problems

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// Pair is the agent state for the §4.3 generalized problem: X is the
// agent's estimate of the smallest value, Y its estimate of the second
// smallest. Initially X = Y = the agent's own value.
type Pair struct {
	X, Y int
}

// String renders the pair as (x, y).
func (p Pair) String() string { return fmt.Sprintf("(%d, %d)", p.X, p.Y) }

// ComparePairs orders pairs lexicographically.
func ComparePairs(a, b Pair) int {
	if a.X != b.X {
		return a.X - b.X
	}
	return a.Y - b.Y
}

// minPairOf computes the paper's f on the distinct values appearing as
// first or second elements: the smallest two distinct values (x, y) —
// except when all values are equal, in which case the multiset is
// unchanged (signalled by ok=false).
func minPairOf(values func(yield func(int))) (Pair, bool) {
	const unset = int(^uint(0) >> 1) // max int
	m1, m2 := unset, unset
	values(func(v int) {
		switch {
		case v < m1:
			if m1 < m2 {
				m2 = m1
			}
			m1 = v
		case v > m1 && v < m2:
			m2 = v
		}
	})
	if m2 == unset {
		return Pair{}, false // at most one distinct value
	}
	return Pair{m1, m2}, true
}

// MinPairF is the paper's §4.3 generalized function: every pair becomes
// (x, y) where x and y are the two smallest distinct values appearing in
// the multiset (as first or second elements), except when all values are
// equal, in which case the multiset is unchanged.
// f({(2,5),(3,4),(2,7)}) = {(2,3),(2,3),(2,3)};
// f({(2,2),(2,2)}) = {(2,2),(2,2)}.
func MinPairF() core.Function[Pair] {
	return core.FuncOf("min-pair", func(x ms.Multiset[Pair]) ms.Multiset[Pair] {
		if x.IsEmpty() {
			return x
		}
		target, ok := minPairOf(func(yield func(int)) {
			x.ForEach(func(p Pair) { yield(p.X); yield(p.Y) })
		})
		if !ok {
			return x
		}
		return x.Map(func(Pair) Pair { return target })
	})
}

// MinPair is the §4.3 problem: compute both the smallest and the second
// smallest value, the super-idempotent generalization of the (not
// super-idempotent) second-smallest function.
//
// DEVIATION FROM THE PAPER: the printed variant h(S) = Σ (xa + ya) does
// not satisfy the paper's own §3.5 requirement that h be minimized,
// subject to f(S) = S*, uniquely at S*. Counterexample (N = 2, initial
// values {2, 5}): S(0) = {(2,2),(5,5)} has h = 14, and S* = f(S(0)) =
// {(2,5),(2,5)} also has h = 14 — so no sequence of strictly-h-decreasing,
// f-conserving steps can reach S*, and the intermediate {(2,2),(2,5)}
// (h = 11) is an inescapable non-goal minimum of h on the constraint
// surface. We therefore use a corrected variant of summation form (8):
//
//	ha(x, y) = K·x + φ(x, y),  φ(x, y) = y if y > x, else C
//
// where C is a strict upper bound on all values and K = N·C + 1. The K·x
// term makes any decrease of a first component dominate; when every first
// component is settled, φ drives second components: an unresolved pair
// (y = x) costs C, more than any resolved estimate, and resolved
// estimates decrease toward the true second-smallest. h is minimized on
// the constraint surface uniquely at S*, and every group step of R below
// strictly decreases it. TestMinPairPaperVariantFlaw machine-checks the
// flaw in the printed variant.
type MinPair struct {
	// N is the number of agents; C is a strict upper bound on values.
	N, C int
}

// NewMinPair returns the min-pair problem for n agents with all values
// < bound.
func NewMinPair(n, bound int) *MinPair { return &MinPair{N: n, C: bound} }

// Name implements core.Problem.
func (*MinPair) Name() string { return "min-pair" }

// Cmp implements core.Problem.
func (*MinPair) Cmp() ms.Cmp[Pair] { return ComparePairs }

// Requirement implements core.Problem.
func (*MinPair) Requirement() core.Requirement { return core.AnyConnected }

// Equal implements core.Problem.
func (*MinPair) Equal(a, b ms.Multiset[Pair]) bool { return a.Equal(b) }

// F implements core.Problem.
func (*MinPair) F() core.Function[Pair] { return MinPairF() }

// H implements core.Problem: the corrected summation-form variant (see
// the type comment).
func (p *MinPair) H() core.Variant[Pair] {
	c := float64(p.C)
	k := float64(p.N)*c + 1
	return core.SummationVariant[Pair]("K·x+φ(x,y)", func(v Pair) float64 {
		phi := c
		if v.Y > v.X {
			phi = float64(v.Y)
		}
		return k*float64(v.X) + phi
	})
}

// PaperH is the variant printed in §4.3, h(S) = Σ (xa + ya), kept so that
// tests and cmd/figures can demonstrate that it fails the §3.5
// requirement.
func (*MinPair) PaperH() core.Variant[Pair] {
	return core.SummationVariant[Pair]("Σ(x+y) [paper]", func(v Pair) float64 {
		return float64(v.X + v.Y)
	})
}

// GroupStep implements core.Problem: every member adopts the group's
// (smallest, second-smallest-distinct) pair; a group with a single
// distinct value stutters.
func (*MinPair) GroupStep(states []Pair, _ *rand.Rand) []Pair {
	out := copyStates(states)
	target, ok := minPairOf(func(yield func(int)) {
		for _, p := range states {
			yield(p.X)
			yield(p.Y)
		}
	})
	if !ok {
		return out
	}
	for i := range out {
		out[i] = target
	}
	return out
}

// PairStep implements core.Problem.
func (p *MinPair) PairStep(a, b Pair, rng *rand.Rand) (Pair, Pair) {
	s := p.GroupStep([]Pair{a, b}, rng)
	return s[0], s[1]
}

// InitialPairs builds the §4.3 initial state: each agent starts with
// (x, x) for its own value x.
func InitialPairs(values []int) []Pair {
	out := make([]Pair, len(values))
	for i, v := range values {
		out[i] = Pair{v, v}
	}
	return out
}
