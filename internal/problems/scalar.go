package problems

import (
	"math"
	"math/rand"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// --- Min (§4.1) ---

// Min is the paper's first example: consensus on the minimum of a
// distributed set of non-negative integers. f maps a multiset to the
// multiset of the same cardinality in which every value is the minimum;
// h(S) = Σ xa (summation form, well-founded over the non-negative
// integers); any connected graph satisfies the environment obligation (9).
// It is the Semilattice of the operator min.
type Min struct {
	Semilattice[int]
	// Partial, when true, makes GroupStep move each agent to a random
	// value between the group minimum and its current value instead of
	// jumping to the minimum — the paper's "update their value to any
	// value between their current value and the minimum of the group".
	// Used by the ablation experiments; the default full jump is the
	// fastest refinement of D. It draws only for members above the
	// minimum, so an equal group still stutters without drawing.
	Partial bool
}

// NewMin returns the minimum-consensus problem with greedy steps.
func NewMin() *Min {
	return &Min{Semilattice: Semilattice[int]{name: "minimum", fname: "min", hname: "Σx",
		cmp: ms.OrderedCmp[int](), op: func(a, b int) int { return min(a, b) }, term: valueTerm}}
}

// NewPartialMin returns the minimum-consensus problem with Partial steps.
func NewPartialMin() *Min {
	p := NewMin()
	p.Partial = true
	return p
}

// valueTerm is the per-agent term xa of h(S) = Σ xa.
func valueTerm(v int) int64 { return int64(v) }

// Consensus implements core.Consensus: f gives every agent the minimum.
func (*Min) Consensus(lo, _ int) int { return lo }

// MinF is the paper's f for §4.1: all values become the minimum.
// f({3,5,3,7}) = {3,3,3,3}.
func MinF() core.Function[int] { return NewMin().F() }

// GroupStep implements core.Problem: every member adopts the group
// minimum (or, when Partial, a value between its own and the minimum).
func (p *Min) GroupStep(states []int, rng *rand.Rand) []int {
	out := p.Semilattice.GroupStep(states, rng)
	if p.Partial && rng != nil {
		m := out[0]
		for i, v := range states {
			if v != m {
				out[i] = m + rng.Intn(v-m) // uniform in [m, v)
			}
		}
	}
	return out
}

// PairStep implements core.Problem: GroupStep on {a, b} without its
// slice allocations. Draw order matches GroupStep exactly (a's draw
// before b's), so Partial results are unchanged.
func (p *Min) PairStep(a, b int, rng *rand.Rand) (int, int) {
	if !p.Partial || rng == nil {
		return p.Semilattice.PairStep(a, b, rng)
	}
	m := min(a, b)
	na, nb := m, m
	if a != m {
		na = m + rng.Intn(a-m)
	}
	if b != m {
		nb = m + rng.Intn(b-m)
	}
	return na, nb
}

// --- Max ---

// Max is the mirror of Min: consensus on the maximum, the Semilattice of
// the operator max. It is not in the paper but follows from the
// methodology unchanged. The variant needs an upper bound to stay
// non-negative: h(S) = Σ (B − xa), which is summation form with the
// global constant B (the paper's §4.5 h uses the global constant P in the
// same way).
type Max struct{ Semilattice[int] }

// NewMax returns the maximum-consensus problem for values < bound.
func NewMax(bound int) *Max {
	return &Max{Semilattice[int]{name: "maximum", fname: "max", hname: "Σ(B−x)",
		cmp: ms.OrderedCmp[int](), op: func(a, b int) int { return max(a, b) },
		term: func(v int) int64 { return int64(bound - v) }}}
}

// Consensus implements core.Consensus: f gives every agent the maximum.
func (*Max) Consensus(_, hi int) int { return hi }

// MaxF is f for the maximum: all values become the maximum. f does not
// depend on the variant's bound.
func MaxF() core.Function[int] { return NewMax(0).F() }

// --- Sum (§4.2) ---

// Sum is the paper's non-consensus example: one agent must end with the
// sum of all (non-negative) initial values while every other agent ends
// with zero. f({3,5,3,7}) = {18,0,0,0}; h(S) = (Σ xa)² − Σ xa², which is
// non-negative for non-negative values and decreases exactly when values
// spread apart (small values smaller, large values larger).
//
// The paper's key observation (reproduced by experiment E7): zero-valued
// agents have no meaningful interaction and cannot relay, so under
// pairwise gossip the weakest environment assumption is Q_E for the
// complete graph.
type Sum struct{}

// NewSum returns the sum problem.
func NewSum() *Sum { return &Sum{} }

// Name implements core.Problem.
func (*Sum) Name() string { return "sum" }

// Cmp implements core.Problem.
func (*Sum) Cmp() ms.Cmp[int] { return ms.OrderedCmp[int]() }

// Requirement implements core.Problem.
func (*Sum) Requirement() core.Requirement { return core.CompleteGraph }

// Equal implements core.Problem.
func (*Sum) Equal(a, b ms.Multiset[int]) bool { return eqExact(a, b) }

// SumF is f for §4.2: the total with multiplicity 1, zero with
// multiplicity N−1.
func SumF() core.Function[int] {
	return core.FuncOfInto("sum",
		func(x ms.Multiset[int]) ms.Multiset[int] {
			if x.IsEmpty() {
				return x
			}
			out := make([]int, x.Len())
			out[0] = ms.SumInts(x)
			return ms.New(x.Cmp(), out...)
		},
		func(dst []int, x ms.Multiset[int]) []int {
			if x.IsEmpty() {
				return dst
			}
			total := ms.SumInts(x)
			if total <= 0 { // canonical order: a non-positive total sorts before the zeros
				dst = append(dst, total)
			}
			for i := 0; i < x.Len()-1; i++ {
				dst = append(dst, 0)
			}
			if total > 0 {
				dst = append(dst, total)
			}
			return dst
		})
}

// F implements core.Problem.
func (*Sum) F() core.Function[int] { return SumF() }

// H implements core.Problem: h(S) = (Σx)² − Σx². Under the conservation
// of f this equals a constant minus Σx², so it is equivalent to the
// summation-form variant −Σ xa² on the constraint surface.
func (*Sum) H() core.Variant[int] {
	return core.VariantOf[int]("(Σx)²−Σx²", func(x ms.Multiset[int]) float64 {
		var sum, sq float64
		x.ForEach(func(v int) {
			f := float64(v)
			sum += f
			sq += f * f
		})
		return sum*sum - sq
	})
}

// GroupStep implements core.Problem: the group consolidates its total at
// the member currently holding the largest value (first such position);
// everyone else drops to zero. If the group has at most one non-zero
// member it is already optimal and the step is a stutter.
func (*Sum) GroupStep(states []int, _ *rand.Rand) []int {
	out := copyStates(states)
	total, nonzero, maxAt := 0, 0, 0
	for i, v := range states {
		total += v
		if v != 0 {
			nonzero++
		}
		if v > states[maxAt] {
			maxAt = i
		}
	}
	if nonzero <= 1 {
		return out // stutter: f already achieved within this group
	}
	for i := range out {
		out[i] = 0
	}
	out[maxAt] = total
	return out
}

// PairStep implements core.Problem. A pair with a zero member is a
// stutter: the zero agent has nothing to contribute and, per §4.2, must
// not act as a courier (its state is interchangeable with any other
// zero's, so moving the value would be a multiset no-op that fakes
// progress the variant cannot justify).
func (*Sum) PairStep(a, b int, _ *rand.Rand) (int, int) {
	if a == 0 || b == 0 {
		return a, b
	}
	return a + b, 0
}

// --- Average ---

// Average is consensus on the arithmetic mean, the paper's §3.1 motivating
// sensor-network example ("if f computes the average of sensor values…").
// f preserves both the sum and the cardinality of the multiset, so it is
// super-idempotent. The state space is continuous (float64), which the
// paper flags in §1.2 as beyond its discrete scope; the variant
// h(S) = |S|·Σx² − (Σx)² (= Σ over pairs (xa−xb)²) decreases strictly on
// every proper step but is well-founded only up to the convergence
// tolerance Tol.
type Average struct {
	// Tol is the equality tolerance for convergence checks.
	Tol float64
}

// NewAverage returns the averaging problem with the given tolerance.
func NewAverage(tol float64) *Average { return &Average{Tol: tol} }

// Name implements core.Problem.
func (*Average) Name() string { return "average" }

// Cmp implements core.Problem.
func (*Average) Cmp() ms.Cmp[float64] { return ms.OrderedCmp[float64]() }

// Requirement implements core.Problem.
func (*Average) Requirement() core.Requirement { return core.AnyConnected }

// Equal implements core.Problem: elementwise within Tol.
func (p *Average) Equal(a, b ms.Multiset[float64]) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if math.Abs(a.At(i)-b.At(i)) > p.Tol {
			return false
		}
	}
	return true
}

// AverageF is f for the mean: every value becomes the mean.
func AverageF() core.Function[float64] {
	return core.FuncOfInto("average",
		func(x ms.Multiset[float64]) ms.Multiset[float64] {
			if x.IsEmpty() {
				return x
			}
			mean := ms.SumFloats(x) / float64(x.Len())
			return x.Map(func(float64) float64 { return mean })
		},
		func(dst []float64, x ms.Multiset[float64]) []float64 {
			mean := 0.0
			if !x.IsEmpty() {
				mean = ms.SumFloats(x) / float64(x.Len())
			}
			return fillInto(dst, x.Len(), mean, !x.IsEmpty())
		})
}

// F implements core.Problem.
func (*Average) F() core.Function[float64] { return AverageF() }

// H implements core.Problem: h(S) = |S|·Σx² − (Σx)².
func (*Average) H() core.Variant[float64] {
	return core.VariantOf[float64]("n·Σx²−(Σx)²", func(x ms.Multiset[float64]) float64 {
		var sum, sq float64
		x.ForEach(func(v float64) {
			sum += v
			sq += v * v
		})
		return float64(x.Len())*sq - sum*sum
	})
}

// GroupStep implements core.Problem: everyone adopts the group mean.
func (*Average) GroupStep(states []float64, _ *rand.Rand) []float64 {
	out := copyStates(states)
	total := 0.0
	for _, v := range states {
		total += v
	}
	mean := total / float64(len(states))
	for i := range out {
		out[i] = mean
	}
	return out
}

// PairStep implements core.Problem: pairwise averaging, the classical
// decentralized iterative scheme the paper cites ([4], [12]).
func (*Average) PairStep(a, b float64, _ *rand.Rand) (float64, float64) {
	m := (a + b) / 2
	return m, m
}

// --- GCD ---

// NewGCD returns consensus on the greatest common divisor of positive
// integers (values must be ≥ 1). It is not in the paper, but gcd is a
// semilattice join, so the §3.4 lemma makes its f super-idempotent; the
// variant is the same Σ xa as for Min.
func NewGCD() *Semilattice[int] {
	return &Semilattice[int]{name: "gcd", fname: "gcd", hname: "Σx",
		cmp: ms.OrderedCmp[int](), op: gcd2, term: valueTerm}
}

func gcd2(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// GCDF is f for gcd-consensus: all values become the gcd.
func GCDF() core.Function[int] { return NewGCD().F() }

// --- Second smallest, naive (§4.3 negative example) ---

// SecondSmallestF is the paper's §4.3 function: every value becomes the
// second smallest, defined as the smallest value different from the
// minimum when one exists, else the common value. f({3,5,3,7}) =
// {5,5,5,5}. It is idempotent but NOT super-idempotent (the paper's
// counterexample X={1,3}, Y={2} is verified in tests and by cmd/figures),
// so the self-similar strategy cannot be applied to it directly; MinPair
// is the paper's generalization that can.
func SecondSmallestF() core.Function[int] {
	return core.FuncOf("second-smallest", func(x ms.Multiset[int]) ms.Multiset[int] {
		if x.IsEmpty() {
			return x
		}
		first, _ := x.Min()
		second := first
		x.ForEach(func(v int) {
			if v != first && (second == first || v < second) {
				second = v
			}
		})
		return x.Map(func(int) int { return second })
	})
}
