package problems

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// Item is the agent state for the §4.4 sorting problem: an index in the
// distributed array and the value currently held at that index. Indexes
// are distinct and fixed; a group step permutes the values of the group
// among the group's indexes.
type Item struct {
	Index, Value int
}

// String renders the item as index:value.
func (it Item) String() string { return fmt.Sprintf("%d:%d", it.Index, it.Value) }

// CompareItems orders items by index (indexes are unique within a state).
func CompareItems(a, b Item) int {
	if a.Index != b.Index {
		return a.Index - b.Index
	}
	return a.Value - b.Value
}

// SortF is the paper's f for sorting: the unique multiset with the same
// indexes and the same values in which values are non-decreasing along
// increasing indexes. f({(1,3),(2,5),(3,3),(4,7)}) =
// {(1,3),(2,3),(3,5),(4,7)}. It is super-idempotent: f(X) differs from X
// by a permutation of values w.r.t. indexes, and sorting after a
// permutation yields the same sorted array.
func SortF() core.Function[Item] {
	return core.FuncOf("sort", func(x ms.Multiset[Item]) ms.Multiset[Item] {
		items := x.Elements()
		idx := make([]int, len(items))
		vals := make([]int, len(items))
		for i, it := range items {
			idx[i] = it.Index
			vals[i] = it.Value
		}
		sort.Ints(idx)
		sort.Ints(vals)
		out := make([]Item, len(items))
		for i := range out {
			out[i] = Item{idx[i], vals[i]}
		}
		return ms.New(CompareItems, out...)
	})
}

// InversionsH is the Fig. 1 objective: the number of out-of-order pairs,
// h(S) = |{(a,b) ∈ A×A : ia < ib ∧ xb ≺ xa}|. Its range is well-founded,
// but it does NOT have the local-to-global property (10) — see
// FindInversionsL2GViolation, which exhibits a machine-checked
// counterexample, reproducing the content of the paper's Fig. 1.
func InversionsH() core.Variant[Item] {
	return core.VariantOf[Item]("out-of-order pairs", func(x ms.Multiset[Item]) float64 {
		items := x.Elements()
		count := 0
		for i := 0; i < len(items); i++ {
			for j := 0; j < len(items); j++ {
				if items[i].Index < items[j].Index && items[j].Value < items[i].Value {
					count++
				}
			}
		}
		return float64(count)
	})
}

// DisplacementH is the paper's corrected objective:
// h(S) = Σ (ia − ord(xa))², the sum of squared distances between each
// value's current and desired array position. ord maps a value to its
// index in the globally sorted array; it is fixed per problem instance
// (the paper assumes consecutive indexes and distinct values). This
// variant has the summation form of (8), so relation D satisfies the
// local-to-global obligation.
func DisplacementH(ord map[int]int) core.Variant[Item] {
	return core.SummationVariant[Item]("Σ(i−ord(x))²", func(it Item) float64 {
		d := float64(it.Index - ord[it.Value])
		return d * d
	})
}

// Sorting is the §4.4 problem: sort a distributed array in non-decreasing
// order, one (index, value) pair per agent. The environment obligation is
// satisfied by the linear graph over agents in index order: adjacent
// swaps suffice.
type Sorting struct {
	ord map[int]int
	// Adjacent, when true, restricts GroupStep to a single adjacent-pair
	// swap per step (classic distributed bubble sort, the slowest valid
	// refinement); otherwise the group fully sorts its own sub-array.
	Adjacent bool
}

// NewSorting returns the sorting problem for the given initial values,
// which must be distinct (the paper's simplifying assumption); indexes
// are 0..len(values)−1 and ord is derived from the sorted order.
func NewSorting(values []int) (*Sorting, error) {
	sorted := make([]int, len(values))
	copy(sorted, values)
	sort.Ints(sorted)
	ord := make(map[int]int, len(sorted))
	for i, v := range sorted {
		if _, dup := ord[v]; dup {
			return nil, fmt.Errorf("sorting: duplicate value %d (the paper assumes distinct values)", v)
		}
		ord[v] = i
	}
	return &Sorting{ord: ord}, nil
}

// Name implements core.Problem.
func (p *Sorting) Name() string {
	if p.Adjacent {
		return "sorting (adjacent swaps)"
	}
	return "sorting"
}

// Cmp implements core.Problem.
func (*Sorting) Cmp() ms.Cmp[Item] { return CompareItems }

// Requirement implements core.Problem.
func (*Sorting) Requirement() core.Requirement { return core.LineGraph }

// Equal implements core.Problem.
func (*Sorting) Equal(a, b ms.Multiset[Item]) bool { return a.Equal(b) }

// F implements core.Problem.
func (*Sorting) F() core.Function[Item] { return SortF() }

// H implements core.Problem: the squared-displacement variant.
func (p *Sorting) H() core.Variant[Item] { return DisplacementH(p.ord) }

// GroupStep implements core.Problem: sort the group's values among the
// group's indexes (or, in Adjacent mode, swap one out-of-order pair of
// index-adjacent members).
func (p *Sorting) GroupStep(states []Item, rng *rand.Rand) []Item {
	out := copyStates(states)
	if p.Adjacent {
		// Find out-of-order pairs among members adjacent in index order
		// within the group and swap one at random.
		order := make([]int, len(out))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return out[order[a]].Index < out[order[b]].Index })
		var swappable [][2]int
		for k := 0; k+1 < len(order); k++ {
			a, b := order[k], order[k+1]
			if out[a].Value > out[b].Value {
				swappable = append(swappable, [2]int{a, b})
			}
		}
		if len(swappable) == 0 {
			return out
		}
		pick := swappable[0]
		if rng != nil {
			pick = swappable[rng.Intn(len(swappable))]
		}
		out[pick[0]].Value, out[pick[1]].Value = out[pick[1]].Value, out[pick[0]].Value
		return out
	}
	idx := make([]int, len(out))
	vals := make([]int, len(out))
	for i, it := range out {
		idx[i] = it.Index
		vals[i] = it.Value
	}
	sort.Ints(idx)
	sort.Ints(vals)
	// Reassign: i-th smallest value to i-th smallest index; then put each
	// item back at its original position in the slice (positional
	// semantics: position i still belongs to the agent whose index was
	// states[i].Index).
	assigned := make(map[int]int, len(out))
	for i := range idx {
		assigned[idx[i]] = vals[i]
	}
	for i := range out {
		out[i].Value = assigned[out[i].Index]
	}
	return out
}

// PairStep implements core.Problem: swap values when out of order.
func (*Sorting) PairStep(a, b Item, _ *rand.Rand) (Item, Item) {
	lo, hi := a, b
	if b.Index < a.Index {
		lo, hi = b, a
	}
	if lo.Value > hi.Value {
		lo.Value, hi.Value = hi.Value, lo.Value
	}
	if a.Index == lo.Index {
		return lo, hi
	}
	return hi, lo
}

// InitialItems builds the initial sorting state: agent i holds index i
// and values[i].
func InitialItems(values []int) []Item {
	out := make([]Item, len(values))
	for i, v := range values {
		out[i] = Item{Index: i, Value: v}
	}
	return out
}

// --- Fig. 1 reproduction: the invalid objective ---

// L2GSortViolation is a concrete sorting counterexample to the
// local-to-global property for the out-of-order-pairs objective: group B
// takes a step that strictly decreases B's inversion count while C
// stutters, yet the inversion count of B ∪ C strictly increases.
type L2GSortViolation struct {
	// N is the array size; values are a permutation of 0..N−1.
	N int
	// BIndexes and CIndexes partition the indexes.
	BIndexes, CIndexes []int
	// Before and After are the full arrays (value at position i).
	Before, After []int
	// InvB0, InvB1 are B's inversion counts before/after; InvU0, InvU1
	// the union's.
	InvB0, InvB1, InvU0, InvU1 int
}

// String summarizes the violation.
func (v *L2GSortViolation) String() string {
	return fmt.Sprintf("B=%v C=%v: %v→%v, inv(B) %d→%d (improves), inv(B∪C) %d→%d (worsens)",
		v.BIndexes, v.CIndexes, v.Before, v.After, v.InvB0, v.InvB1, v.InvU0, v.InvU1)
}

func inversionsOf(indexes, values []int) int {
	count := 0
	for i := range indexes {
		for j := range indexes {
			if indexes[i] < indexes[j] && values[j] < values[i] {
				count++
			}
		}
	}
	return count
}

// FindInversionsL2GViolation exhaustively searches arrays of size n
// (values = permutations of 0..n−1) for a violation of the
// local-to-global property (10) by the out-of-order-pairs objective, with
// group C stuttering. It returns nil when none exists at that size — the
// search proves none exists for n ≤ 4 and finds one at n = 5, which is
// the machine-checked substance of the paper's Fig. 1. (The specific
// example printed in the paper, [7,5,6,4,3,2,1] → [6,5,7,3,4,1,2] with
// h values 14/10/15/9, does not match the stated definition of h under
// our arithmetic — see EXPERIMENTS.md E1 — but the figure's claim is
// correct, as this search demonstrates.)
func FindInversionsL2GViolation(n int) *L2GSortViolation {
	perms := permutations(n)
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		var bIdx, cIdx []int
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				bIdx = append(bIdx, i)
			} else {
				cIdx = append(cIdx, i)
			}
		}
		if len(bIdx) < 2 {
			continue
		}
		for _, valPerm := range perms {
			bVals := make([]int, len(bIdx))
			for i, ix := range bIdx {
				bVals[i] = valPerm[ix]
			}
			invB0 := inversionsOf(bIdx, bVals)
			if invB0 == 0 {
				continue
			}
			invU0 := inversionsOf(identity(n), valPerm)
			for _, sigma := range permutations(len(bIdx)) {
				nb := make([]int, len(bIdx))
				for i, s := range sigma {
					nb[i] = bVals[s]
				}
				invB1 := inversionsOf(bIdx, nb)
				if invB1 >= invB0 {
					continue
				}
				after := make([]int, n)
				copy(after, valPerm)
				for i, ix := range bIdx {
					after[ix] = nb[i]
				}
				invU1 := inversionsOf(identity(n), after)
				if invU1 > invU0 {
					return &L2GSortViolation{
						N: n, BIndexes: bIdx, CIndexes: cIdx,
						Before: valPerm, After: after,
						InvB0: invB0, InvB1: invB1, InvU0: invU0, InvU1: invU1,
					}
				}
			}
		}
	}
	return nil
}

// VerifyDisplacementL2G runs the same exhaustive search against the
// squared-displacement objective and returns the first violation found,
// or nil. For the paper's claim to hold it must return nil at every n the
// caller can afford (tests cover n ≤ 5).
func VerifyDisplacementL2G(n int) *L2GSortViolation {
	perms := permutations(n)
	// ord for values 0..n−1 at indexes 0..n−1 is the identity.
	disp := func(indexes, values []int) int {
		total := 0
		for i := range indexes {
			d := indexes[i] - values[i]
			total += d * d
		}
		return total
	}
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		var bIdx []int
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				bIdx = append(bIdx, i)
			}
		}
		if len(bIdx) < 2 {
			continue
		}
		for _, valPerm := range perms {
			bVals := make([]int, len(bIdx))
			for i, ix := range bIdx {
				bVals[i] = valPerm[ix]
			}
			hB0 := disp(bIdx, bVals)
			hU0 := disp(identity(n), valPerm)
			for _, sigma := range permutations(len(bIdx)) {
				nb := make([]int, len(bIdx))
				for i, s := range sigma {
					nb[i] = bVals[s]
				}
				hB1 := disp(bIdx, nb)
				if hB1 >= hB0 {
					continue
				}
				after := make([]int, n)
				copy(after, valPerm)
				for i, ix := range bIdx {
					after[ix] = nb[i]
				}
				hU1 := disp(identity(n), after)
				if hU1 >= hU0 {
					var cIdx []int
					for i := 0; i < n; i++ {
						if mask&(1<<uint(i)) == 0 {
							cIdx = append(cIdx, i)
						}
					}
					return &L2GSortViolation{
						N: n, BIndexes: bIdx, CIndexes: cIdx,
						Before: valPerm, After: after,
						InvB0: hB0, InvB1: hB1, InvU0: hU0, InvU1: hU1,
					}
				}
			}
		}
	}
	return nil
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func permutations(n int) [][]int {
	var out [][]int
	p := identity(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			cp := make([]int, n)
			copy(cp, p)
			out = append(out, cp)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
	return out
}

// PaperFig1States returns the exact states printed in the paper's Fig. 1
// (S = [7,5,6,4,3,2,1] → S' = [6,5,7,3,4,1,2], B = indexes
// {1,3,4,5,6,7}, C = {2}, 1-based) together with our recomputed
// out-of-order-pair counts, so cmd/figures can print the comparison.
func PaperFig1States() (before, after []int, bIdx, cIdx []int) {
	return []int{7, 5, 6, 4, 3, 2, 1}, []int{6, 5, 7, 3, 4, 1, 2},
		[]int{0, 2, 3, 4, 5, 6}, []int{1} // 0-based indexes
}
