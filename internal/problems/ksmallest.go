package problems

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// KVec is the agent state for the k-smallest generalization: the agent's
// current estimate of the k smallest distinct values, as a non-decreasing
// vector of length k. When fewer than k distinct values are known, the
// vector is padded by repeating the largest known value — so the initial
// state for an agent with value x is (x, x, …, x), matching MinPair's
// (x, x) at k = 2.
type KVec struct {
	Vals []int
}

// String renders the vector.
func (v KVec) String() string {
	parts := make([]string, len(v.Vals))
	for i, x := range v.Vals {
		parts[i] = fmt.Sprint(x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CompareKVecs orders vectors lexicographically (shorter first on ties).
func CompareKVecs(a, b KVec) int {
	for i := 0; i < len(a.Vals) && i < len(b.Vals); i++ {
		if a.Vals[i] != b.Vals[i] {
			return a.Vals[i] - b.Vals[i]
		}
	}
	return len(a.Vals) - len(b.Vals)
}

// kSmallestDistinct returns the first min(k, available) distinct values of
// the stream, padded by repetition of the last one to length k.
func kSmallestDistinct(k int, values func(yield func(int))) KVec {
	var all []int
	values(func(v int) { all = append(all, v) })
	sort.Ints(all)
	out := make([]int, 0, k)
	for _, v := range all {
		if len(out) > 0 && out[len(out)-1] == v {
			continue
		}
		out = append(out, v)
		if len(out) == k {
			break
		}
	}
	for len(out) < k && len(out) > 0 {
		out = append(out, out[len(out)-1])
	}
	return KVec{Vals: out}
}

// KSmallestF is f for the k-smallest problem: every vector becomes the k
// smallest distinct values appearing anywhere in the multiset (padded).
// At k = 2 it coincides with MinPairF. It is super-idempotent by the same
// argument: f keeps the k smallest distinct values, and dropped values
// can never re-enter the first k when more values are added.
func KSmallestF(k int) core.Function[KVec] {
	return core.FuncOf(fmt.Sprintf("%d-smallest", k), func(x ms.Multiset[KVec]) ms.Multiset[KVec] {
		if x.IsEmpty() {
			return x
		}
		target := kSmallestDistinct(k, func(yield func(int)) {
			x.ForEach(func(v KVec) {
				for _, val := range v.Vals {
					yield(val)
				}
			})
		})
		return x.Map(func(KVec) KVec { return target })
	})
}

// KSmallest is the k-vector generalization of MinPair, the extension the
// paper sketches when noting that computing the k-th smallest value "will
// be even worse" in memory: each agent stores k values instead of one.
// The variant generalizes MinPair's corrected variant level by level:
//
//	ha(vec) = Σ_j K^(k−1−j) · φ_j(vec)
//	φ_0 = vec[0]; for j ≥ 1, φ_j = vec[j] if vec[j] > vec[j−1], else C
//
// with C a strict upper bound on values and K = N·C + 1, so a decrease at
// level j dominates any (impossible, but bounded anyway) churn at deeper
// levels. Levels settle in order: first components converge to the true
// minimum, then second components, and so on — a cascade the k = 2 proof
// in minpair.go generalizes level by level.
type KSmallest struct {
	// K is the number of smallest distinct values to compute.
	K int
	// N is the number of agents; C a strict upper bound on values.
	N, C int
}

// NewKSmallest returns the k-smallest problem for n agents, values < bound.
func NewKSmallest(k, n, bound int) *KSmallest { return &KSmallest{K: k, N: n, C: bound} }

// Name implements core.Problem.
func (p *KSmallest) Name() string { return fmt.Sprintf("%d-smallest", p.K) }

// Cmp implements core.Problem.
func (*KSmallest) Cmp() ms.Cmp[KVec] { return CompareKVecs }

// Requirement implements core.Problem.
func (*KSmallest) Requirement() core.Requirement { return core.AnyConnected }

// Equal implements core.Problem.
func (*KSmallest) Equal(a, b ms.Multiset[KVec]) bool { return a.Equal(b) }

// F implements core.Problem.
func (p *KSmallest) F() core.Function[KVec] { return KSmallestF(p.K) }

// H implements core.Problem (see the type comment).
func (p *KSmallest) H() core.Variant[KVec] {
	c := float64(p.C)
	bigK := float64(p.N)*c + 1
	k := p.K
	return core.SummationVariant[KVec]("cascade", func(v KVec) float64 {
		total := 0.0
		weight := 1.0
		// Accumulate from deepest level up so weight = K^(k−1−j).
		for j := k - 1; j >= 0; j-- {
			phi := c
			switch {
			case j == 0:
				phi = float64(v.Vals[0])
			case v.Vals[j] > v.Vals[j-1]:
				phi = float64(v.Vals[j])
			}
			total += weight * phi
			weight *= bigK
		}
		return total
	})
}

// GroupStep implements core.Problem: every member adopts the group's
// k-smallest-distinct vector; a group already agreeing stutters.
func (p *KSmallest) GroupStep(states []KVec, _ *rand.Rand) []KVec {
	target := kSmallestDistinct(p.K, func(yield func(int)) {
		for _, v := range states {
			for _, val := range v.Vals {
				yield(val)
			}
		}
	})
	out := make([]KVec, len(states))
	for i := range out {
		out[i] = target
	}
	return out
}

// PairStep implements core.Problem.
func (p *KSmallest) PairStep(a, b KVec, rng *rand.Rand) (KVec, KVec) {
	s := p.GroupStep([]KVec{a, b}, rng)
	return s[0], s[1]
}

// InitialKVecs builds the initial state: each agent starts with its own
// value repeated k times.
func InitialKVecs(k int, values []int) []KVec {
	out := make([]KVec, len(values))
	for i, v := range values {
		vals := make([]int, k)
		for j := range vals {
			vals[j] = v
		}
		out[i] = KVec{Vals: vals}
	}
	return out
}
