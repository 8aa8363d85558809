package problems

import (
	"math/rand"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// Semilattice is consensus under a semilattice join ⊕: a commutative,
// associative, idempotent operator. The §3.4 lemma makes its f — |X|
// copies of ⊕X — super-idempotent, so the self-similar strategy applies
// to every such operator: it is a recipe, not a case list. Min, Max, GCD
// and SetUnion are its instances. A group step replaces every member by
// the join of the group, and the variant is the summation form h(S) =
// Σ term(xa), where term must strictly decrease whenever a state moves to
// its join with another (x ⊕ y ≠ x implies term(x ⊕ y) < term(x)).
//
// Because x ⊕ x = x, a group of equal states keeps them without drawing,
// which Semilattice declares through core.StutterOnEqual. The zero value
// is not usable; the constructors are the only way in.
type Semilattice[T any] struct {
	name, fname, hname string
	cmp                ms.Cmp[T]
	op                 func(a, b T) T
	term               func(T) int64
}

// Name implements core.Problem.
func (s *Semilattice[T]) Name() string { return s.name }

// Cmp implements core.Problem.
func (s *Semilattice[T]) Cmp() ms.Cmp[T] { return s.cmp }

// Requirement implements core.Problem.
func (*Semilattice[T]) Requirement() core.Requirement { return core.AnyConnected }

// Equal implements core.Problem.
func (*Semilattice[T]) Equal(a, b ms.Multiset[T]) bool { return eqExact(a, b) }

// StutterOnEqual implements core.StutterOnEqual: x ⊕ … ⊕ x = x.
func (*Semilattice[T]) StutterOnEqual() {}

// F implements core.Problem: every state becomes the join of the bag.
// It carries the core.IntoFunction fast path so the engines' per-round
// conservation check can evaluate f without allocating.
func (s *Semilattice[T]) F() core.Function[T] {
	into := func(dst []T, x ms.Multiset[T]) []T {
		if x.IsEmpty() {
			return dst
		}
		return s.join(dst, x.Len(), x.At)
	}
	return core.FuncOfInto(s.fname,
		func(x ms.Multiset[T]) ms.Multiset[T] {
			if x.IsEmpty() {
				return x
			}
			return ms.View(x.Cmp(), into(nil, x)) // a constant bag is sorted
		},
		into)
}

// H implements core.Problem: h(S) = Σ term(xa).
func (s *Semilattice[T]) H() core.Variant[T] { return core.IntSummationVariant(s.hname, s.term) }

// GroupStep implements core.Problem: every member adopts the group join.
func (s *Semilattice[T]) GroupStep(states []T, _ *rand.Rand) []T {
	return s.join(make([]T, 0, len(states)), len(states), func(i int) T { return states[i] })
}

// PairStep implements core.Problem: GroupStep on {a, b} without the slice
// allocations, so the pairwise hot path never allocates.
func (s *Semilattice[T]) PairStep(a, b T, _ *rand.Rand) (T, T) {
	j := s.op(a, b)
	return j, j
}

// join appends n copies of at(0) ⊕ … ⊕ at(n−1) to dst, for n ≥ 1: the
// one fold-and-fill behind F and GroupStep.
func (s *Semilattice[T]) join(dst []T, n int, at func(int) T) []T {
	j := at(0)
	for i := 1; i < n; i++ {
		j = s.op(j, at(i))
	}
	return fillInto(dst, n, j, true)
}
