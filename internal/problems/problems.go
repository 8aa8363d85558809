// Package problems implements every example problem of the paper's §4 as a
// core.Problem, plus the negative examples (second-smallest, naive
// circumscribing circle) as raw functions whose failure of
// super-idempotence is demonstrated by the checkers in internal/core.
//
// Problems implemented:
//
//   - Semilattice: consensus under any commutative, associative,
//     idempotent operator ⊕ — the §3.4 ◦-operator lemma as one generic
//     problem (f = |X| copies of ⊕X, h = Σ term(xa)). Min, Max, GCD and
//     SetUnion are its instances.
//   - Min (§4.1): consensus on the minimum; h(S) = Σ xa.
//   - Max: the mirror image of Min (an obvious extension the paper's
//     methodology covers; h uses an upper bound on values).
//   - GCD: consensus on the greatest common divisor; h(S) = Σ xa.
//   - SetUnion: consensus on the union of ≤64-element sets;
//     h(S) = Σ (64 − |sa|).
//   - Sum (§4.2): non-consensus; one agent ends with the sum, the rest
//     with zero; h(S) = (Σ xa)² − Σ xa².
//   - Average: consensus on the mean over float states — the paper's §3.1
//     motivating example of a sensor-network f; a continuous-state case
//     (§1.2) whose variant is well-founded only up to a tolerance.
//   - SecondSmallest (naive, §4.3): idempotent but NOT super-idempotent;
//     provided as a Function for the checkers.
//   - MinPair (§4.3): the (smallest, second-smallest) generalization that
//     restores super-idempotence. NOTE: the variant h = Σ(xa+ya) printed
//     in the paper does not satisfy the paper's own §3.5 requirement (see
//     minpair.go); we use a corrected variant and document the deviation.
//   - KSmallest: the k-vector generalization the paper sketches as the
//     "even worse" memory cost of extending MinPair to the k-th smallest.
//   - Sorting (§4.4): distributed sort of (index, value) pairs; includes
//     both the squared-displacement variant (valid) and the
//     out-of-order-pairs variant (Fig. 1's invalid objective) plus the
//     exhaustive search that exhibits a genuine local-to-global violation.
//   - Hull (§4.5): convex-hull consensus, the super-idempotent
//     generalization of the circumscribing circle; h(S) = |A|·P −
//     Σ perimeter(Va).
//   - CircumcircleNaive (§4.5): the naive circle function for Fig. 2.
package problems

import (
	ms "repro/internal/multiset"
)

// eqExact is the default multiset-equality predicate for discrete states.
func eqExact[T any](a, b ms.Multiset[T]) bool { return a.Equal(b) }

// copyStates is a small helper: problems return fresh slices from
// GroupStep so callers can never alias internal state.
func copyStates[T any](states []T) []T {
	out := make([]T, len(states))
	copy(out, states)
	return out
}

// fillInto appends n copies of v to dst — the shared shape of the
// core.IntoFunction fast paths of the consensus functions (Semilattice
// and average), whose image is a constant multiset and therefore trivially in
// canonical order. When ok is false (the empty multiset has no
// representative) nothing is appended.
func fillInto[T any](dst []T, n int, v T, ok bool) []T {
	if !ok {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, v)
	}
	return dst
}
