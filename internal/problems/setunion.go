package problems

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// Set is an agent state holding a set over a universe of at most 64
// elements, as a bitmask. It is the state type of the set-union consensus
// problem — e.g. "which events has the network observed", the classic
// gossip payload.
type Set uint64

// SetOf builds a Set from element indices (0–63).
func SetOf(elems ...int) Set {
	var s Set
	for _, e := range elems {
		s |= 1 << uint(e)
	}
	return s
}

// Contains reports membership of element e.
func (s Set) Contains(e int) bool { return s&(1<<uint(e)) != 0 }

// Card returns the cardinality.
func (s Set) Card() int { return bits.OnesCount64(uint64(s)) }

// String renders the set as {e0, e1, …}.
func (s Set) String() string {
	var parts []string
	for e := 0; e < 64; e++ {
		if s.Contains(e) {
			parts = append(parts, fmt.Sprint(e))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// SetUnionF is f for set-union consensus: every agent's set becomes the
// union of all sets. Union is a commutative, associative, idempotent
// operator, so the §3.4 ◦-operator lemma makes f super-idempotent.
func SetUnionF() core.Function[Set] {
	return core.FuncOf("set-union", func(x ms.Multiset[Set]) ms.Multiset[Set] {
		if x.IsEmpty() {
			return x
		}
		var u Set
		x.ForEach(func(s Set) { u |= s })
		return x.Map(func(Set) Set { return u })
	})
}

// SetUnion is set-union consensus: every agent ends with the union of all
// initial sets. Not in the paper, but the most common gossip aggregate in
// practice; another instance of the ◦-operator recipe. The variant is
// h(S) = Σ (64 − |sa|), summation form, well-founded, strictly decreasing
// whenever any agent learns an element.
type SetUnion struct{}

// NewSetUnion returns the set-union consensus problem.
func NewSetUnion() *SetUnion { return &SetUnion{} }

// Name implements core.Problem.
func (*SetUnion) Name() string { return "set-union" }

// Cmp implements core.Problem.
func (*SetUnion) Cmp() ms.Cmp[Set] {
	return func(a, b Set) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
}

// Requirement implements core.Problem.
func (*SetUnion) Requirement() core.Requirement { return core.AnyConnected }

// Equal implements core.Problem.
func (*SetUnion) Equal(a, b ms.Multiset[Set]) bool { return a.Equal(b) }

// F implements core.Problem.
func (*SetUnion) F() core.Function[Set] { return SetUnionF() }

// H implements core.Problem: h(S) = Σ (64 − |sa|).
func (*SetUnion) H() core.Variant[Set] {
	return core.SummationVariant[Set]("Σ(64−|s|)", func(s Set) float64 {
		return float64(64 - s.Card())
	})
}

// GroupStep implements core.Problem: everyone adopts the group union.
func (*SetUnion) GroupStep(states []Set, _ *rand.Rand) []Set {
	var u Set
	for _, s := range states {
		u |= s
	}
	out := make([]Set, len(states))
	for i := range out {
		out[i] = u
	}
	return out
}

// PairStep implements core.Problem.
func (*SetUnion) PairStep(a, b Set, _ *rand.Rand) (Set, Set) {
	u := a | b
	return u, u
}

// --- Median: a designer's would-be f that the checkers reject ---

// MedianF is the lower-median consensus function: every value becomes the
// lower median of the multiset. Like second-smallest (§4.3), it is
// idempotent but NOT super-idempotent, so the self-similar strategy does
// not apply to it directly — the checkers refute it mechanically (see
// examples/designcheck and the tests). It is included as the "designer's
// first attempt" in the methodology walkthrough.
func MedianF() core.Function[int] {
	return core.FuncOf("median", func(x ms.Multiset[int]) ms.Multiset[int] {
		if x.IsEmpty() {
			return x
		}
		med := x.At((x.Len() - 1) / 2) // lower median of the sorted bag
		return x.Map(func(int) int { return med })
	})
}
