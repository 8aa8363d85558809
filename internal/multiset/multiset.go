// Package multiset implements the finite multisets ("bags") over which the
// paper's distributed functions f operate.
//
// In "Self-Similar Algorithms for Dynamic Distributed Systems" (Chandy &
// Charpentier, ICDCS 2007) the state of a group B of agents is the multiset
// S_B = {Sa | a ∈ B} of the states of its members, and the union of the
// states of disjoint groups is multiset union: S_{B∪C} = S_B ∪ S_C. All of
// the paper's machinery — super-idempotent functions, the conservation law,
// variant functions in summation form — is stated in terms of multisets, so
// this package is the foundation of everything else in the repository.
//
// A Multiset[T] is an immutable, canonically sorted bag of values of an
// arbitrary element type T. Because agent states range from plain integers
// to (index, value) pairs and convex-hull point sets, the element type is
// not required to be comparable in the Go sense; instead every multiset
// carries a total-order comparison function, which makes equality,
// canonical printing, and deterministic iteration possible for any T.
package multiset

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Cmp is a three-way comparison over element type T. It must define a total
// order: negative when a < b, zero when a == b, positive when a > b.
// Multiset equality is defined as "cmp reports zero elementwise on the
// canonical sorted forms", so cmp also decides which values are identical.
type Cmp[T any] func(a, b T) int

// Multiset is an immutable bag of values of type T, held in canonical
// (sorted) order. The zero value is an empty multiset with a nil comparison
// function; it is usable with Len, Elements and Union against another
// multiset that supplies a comparison function, but New should normally be
// used so the order is explicit.
type Multiset[T any] struct {
	cmp Cmp[T]
	// elems is sorted by cmp. Multisets built by New/FromSorted/Union/…
	// own their storage; the exceptions are View and Tracker.View, which
	// deliberately alias caller- or tracker-owned buffers for the engine
	// hot path — such views are invalidated by the next mutation of the
	// underlying buffer (Tracker.Replace rewrites its array in place or
	// recycles it as merge scratch) and must not be retained across it.
	elems []T
}

// New builds a multiset from the given elements using cmp as the total
// order. The input slice is copied; the caller may reuse it afterwards.
func New[T any](cmp Cmp[T], elems ...T) Multiset[T] {
	own := make([]T, len(elems))
	copy(own, elems)
	sort.SliceStable(own, func(i, j int) bool { return cmp(own[i], own[j]) < 0 })
	return Multiset[T]{cmp: cmp, elems: own}
}

// FromSorted builds a multiset from a slice that is already sorted by cmp.
// It copies the slice. It panics if the slice is not sorted, since a
// non-canonical multiset would silently break equality everywhere else.
func FromSorted[T any](cmp Cmp[T], sorted []T) Multiset[T] {
	for i := 1; i < len(sorted); i++ {
		if cmp(sorted[i-1], sorted[i]) > 0 {
			panic("multiset.FromSorted: input not sorted")
		}
	}
	own := make([]T, len(sorted))
	copy(own, sorted)
	return Multiset[T]{cmp: cmp, elems: own}
}

// Len reports the cardinality of the multiset (counting multiplicity).
func (m Multiset[T]) Len() int { return len(m.elems) }

// IsEmpty reports whether the multiset has no elements.
func (m Multiset[T]) IsEmpty() bool { return len(m.elems) == 0 }

// Cmp returns the comparison function the multiset was built with.
func (m Multiset[T]) Cmp() Cmp[T] { return m.cmp }

// At returns the i-th element in canonical (sorted) order.
func (m Multiset[T]) At(i int) T { return m.elems[i] }

// Elements returns a copy of the elements in canonical order. Mutating the
// returned slice does not affect the multiset.
func (m Multiset[T]) Elements() []T {
	out := make([]T, len(m.elems))
	copy(out, m.elems)
	return out
}

// Min returns the least element under the multiset's order. The boolean is
// false when the multiset is empty.
func (m Multiset[T]) Min() (T, bool) {
	if len(m.elems) == 0 {
		var zero T
		return zero, false
	}
	return m.elems[0], true
}

// Max returns the greatest element under the multiset's order. The boolean
// is false when the multiset is empty.
func (m Multiset[T]) Max() (T, bool) {
	if len(m.elems) == 0 {
		var zero T
		return zero, false
	}
	return m.elems[len(m.elems)-1], true
}

// Count reports how many elements compare equal to v.
func (m Multiset[T]) Count(v T) int {
	lo := sort.Search(len(m.elems), func(i int) bool { return m.cmp(m.elems[i], v) >= 0 })
	hi := sort.Search(len(m.elems), func(i int) bool { return m.cmp(m.elems[i], v) > 0 })
	return hi - lo
}

// Contains reports whether at least one element compares equal to v.
func (m Multiset[T]) Contains(v T) bool { return m.Count(v) > 0 }

// Add returns a new multiset with v added (multiplicity increases by one).
func (m Multiset[T]) Add(v T) Multiset[T] {
	out := make([]T, 0, len(m.elems)+1)
	i := sort.Search(len(m.elems), func(i int) bool { return m.cmp(m.elems[i], v) > 0 })
	out = append(out, m.elems[:i]...)
	out = append(out, v)
	out = append(out, m.elems[i:]...)
	return Multiset[T]{cmp: m.cmp, elems: out}
}

// mergeCmp resolves the comparison function for a binary operation on m
// and other, preferring m's. Operations on two zero-value (nil-cmp)
// multisets are well defined only while no elements need comparing; the
// first operation that would actually have to compare panics with a clear
// message instead of silently producing a poisoned nil-cmp multiset that
// crashes far from the bug (inside sort.Search, rounds later).
func (m Multiset[T]) mergeCmp(other Multiset[T], op string) Cmp[T] {
	cmp := m.cmp
	if cmp == nil {
		cmp = other.cmp
	}
	if cmp == nil && (len(m.elems) > 0 || len(other.elems) > 0) {
		panic("multiset." + op + ": both operands have a nil comparison function (zero-value Multiset); build operands with New/FromSorted/View")
	}
	return cmp
}

// mergeAppend appends the sorted merge of a and b to dst — the shared
// core of Union, UnionInto, and Merger.Union. Ties emit a's element
// first, which is what makes every union in this package stable by
// operand order. dst must not alias a or b.
func mergeAppend[T any](dst []T, cmp Cmp[T], a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if cmp(a[i], b[j]) <= 0 {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Union returns the multiset union m ∪ other (multiplicities add). This is
// the bold-∪ of the paper: the state of a group B∪C is S_B ∪ S_C.
//
// The zero value is a usable empty operand: the result adopts the other
// operand's comparison function. A union of two non-empty nil-cmp
// multisets panics early with a descriptive message.
func (m Multiset[T]) Union(other Multiset[T]) Multiset[T] {
	cmp := m.mergeCmp(other, "Union")
	out := mergeAppend(make([]T, 0, len(m.elems)+len(other.elems)), cmp, m.elems, other.elems)
	return Multiset[T]{cmp: cmp, elems: out}
}

// UnionInto is Union into a caller-owned buffer: the merged elements are
// appended to buf[:0] (grown as needed) and the result is a zero-copy
// view of it. The returned buffer must be passed back in (or otherwise
// retained) to be reused; the view is invalidated by the next mutation
// of the buffer. Neither operand may alias buf. It is the two-operand
// sibling of Merger for callers that repeatedly merge exactly two
// multisets and must not allocate in steady state.
func (m Multiset[T]) UnionInto(other Multiset[T], buf []T) (Multiset[T], []T) {
	cmp := m.mergeCmp(other, "UnionInto")
	out := mergeAppend(buf[:0], cmp, m.elems, other.elems)
	return Multiset[T]{cmp: cmp, elems: out}, out
}

// Equal reports multiset equality: same cardinality and pairwise-equal
// canonical forms under the comparison function. Two empty multisets are
// equal regardless of comparison functions (so the zero value is safe to
// compare); comparing two non-empty nil-cmp multisets panics early with a
// descriptive message.
func (m Multiset[T]) Equal(other Multiset[T]) bool {
	if len(m.elems) != len(other.elems) {
		return false
	}
	if len(m.elems) == 0 {
		return true
	}
	cmp := m.mergeCmp(other, "Equal")
	for i := range m.elems {
		if cmp(m.elems[i], other.elems[i]) != 0 {
			return false
		}
	}
	return true
}

// Map applies fn to every element and returns the resulting multiset
// (re-canonicalized, since fn need not be monotone).
func (m Multiset[T]) Map(fn func(T) T) Multiset[T] {
	out := make([]T, len(m.elems))
	for i, v := range m.elems {
		out[i] = fn(v)
	}
	return New(m.cmp, out...)
}

// Filter returns the multiset of elements for which keep reports true.
func (m Multiset[T]) Filter(keep func(T) bool) Multiset[T] {
	out := make([]T, 0, len(m.elems))
	for _, v := range m.elems {
		if keep(v) {
			out = append(out, v)
		}
	}
	return Multiset[T]{cmp: m.cmp, elems: out}
}

// ForEach calls fn on every element in canonical order.
func (m Multiset[T]) ForEach(fn func(T)) {
	for _, v := range m.elems {
		fn(v)
	}
}

// Format renders the multiset as {e0, e1, ...} using the supplied element
// formatter, in canonical order.
func (m Multiset[T]) Format(elem func(T) string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range m.elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(elem(v))
	}
	b.WriteByte('}')
	return b.String()
}

// String renders the multiset with fmt's default %v formatting per element.
func (m Multiset[T]) String() string {
	return m.Format(func(v T) string { return fmt.Sprintf("%v", v) })
}

// View wraps an already-sorted slice as a Multiset WITHOUT copying it. The
// caller promises that the slice is sorted by cmp and will not be mutated
// for as long as the returned multiset (or anything derived from it that
// aliases it) is in use. It exists for engine hot paths that maintain their
// own sorted scratch buffers and need a multiset view with zero
// allocation; everything else should use New or FromSorted.
func View[T any](cmp Cmp[T], sorted []T) Multiset[T] {
	return Multiset[T]{cmp: cmp, elems: sorted}
}

// Tracker maintains the canonically sorted multiset of a population of
// values that mutates in small increments — the engine-side "incremental
// snapshot". Where ms.New costs an allocation plus an O(n log n) sort per
// call, a Tracker owns one sorted buffer for the lifetime of a run and
// Replace repairs it after a group step: O(k log n) comparisons (k =
// changed values) to place the edits, then a rewrite of the edited
// span only — from the first to the last index an edit touches — plus,
// when the population grows or shrinks, one shift of the tail behind it.
// Replace allocates nothing once its scratch buffers have grown to a
// steady state.
type Tracker[T any] struct {
	cmp   Cmp[T]
	elems []T // sorted by cmp
	// Reusable scratch: sorted copies of the change set, removal indices,
	// insertion positions, and the edited span's merge output.
	oldBuf, newBuf []T
	remIdx, insPos []int
	mergeBuf       []T
}

// NewTracker builds a Tracker over a copy of the given population.
func NewTracker[T any](cmp Cmp[T], elems []T) *Tracker[T] {
	t := &Tracker[T]{}
	t.Reset(cmp, elems)
	return t
}

// Reset rebinds the tracker to a fresh population, reusing its sorted
// buffer and scratch (they grow to the new size only if needed). The
// resulting state is identical to NewTracker(cmp, elems) — same stable
// sort, same canonical order — so a tracker handed from one run to the
// next (the scenario-sweep warm-engine contract) is observationally a
// new one. Any views of the previous population are invalidated.
//
// An int population is first sorted by < without cmp calls. That is
// already the stable order under cmp whenever cmp ranks every pair of
// adjacent distinct values strictly ascending: each of cmp's equal runs
// then holds copies of one value, so no order within a run is visible.
// One pass checks it; otherwise the input is restored and sorted stably.
func (t *Tracker[T]) Reset(cmp Cmp[T], elems []T) {
	t.cmp = cmp
	t.elems = append(t.elems[:0], elems...)
	if ints, ok := any(t.elems).([]int); ok {
		slices.Sort(ints)
		if strictlyAscending(ints, any(cmp).(Cmp[int])) {
			return
		}
		copy(t.elems, elems)
	}
	slices.SortStableFunc(t.elems, cmp)
}

// strictlyAscending reports whether cmp ranks every adjacent pair of
// distinct values in ints strictly ascending.
func strictlyAscending(ints []int, cmp Cmp[int]) bool {
	for i := 1; i < len(ints); i++ {
		if ints[i-1] != ints[i] && cmp(ints[i-1], ints[i]) >= 0 {
			return false
		}
	}
	return true
}

// Len reports the tracked population size.
func (t *Tracker[T]) Len() int { return len(t.elems) }

// View returns the current multiset as a zero-copy view. The view is
// invalidated by the next Replace; callers that retain it across mutations
// must copy it first (Multiset.Elements or ms.New).
func (t *Tracker[T]) View() Multiset[T] { return Multiset[T]{cmp: t.cmp, elems: t.elems} }

// Replace removes one occurrence of every value in olds and inserts every
// value in news, repairing sorted order incrementally. It panics when an
// old value is not present — a corrupted snapshot would silently poison
// every downstream monitor, so the failure is loud. olds and news may have
// different lengths and are not mutated.
//
// The placement rules fix the result element for element, ties included:
// a run of c equal removals claims the first c slots of that value's
// equal run, and every insertion goes at its lower bound in the original
// coordinates, after the insertions placed before it in sorted order.
// Under those rules no element before the first edit index moves, and
// when len(olds) == len(news) no element after the last one moves either,
// so only that span is merged and written back in place; unequal lengths
// also shift the tail behind it. When the span is most of the array (edits
// spread over the whole population), the untouched elements are fewer
// than the rewritten ones, and Replace merges the whole population into
// its scratch buffer and swaps the two: one pass, the cost of a full merge.
func (t *Tracker[T]) Replace(olds, news []T) {
	if len(olds) == 0 && len(news) == 0 {
		return
	}
	t.oldBuf = append(t.oldBuf[:0], olds...)
	t.newBuf = append(t.newBuf[:0], news...)
	slices.SortFunc(t.oldBuf, t.cmp)
	slices.SortFunc(t.newBuf, t.cmp)

	// Locate removal indices: for a run of c equal old values, claim the
	// first c slots of that value's range in elems (all slots of an equal
	// run are interchangeable under cmp). O(k log n).
	t.remIdx = t.remIdx[:0]
	for i := 0; i < len(t.oldBuf); {
		v := t.oldBuf[i]
		run := 1
		for i+run < len(t.oldBuf) && t.cmp(t.oldBuf[i+run], v) == 0 {
			run++
		}
		lo := sort.Search(len(t.elems), func(j int) bool { return t.cmp(t.elems[j], v) >= 0 })
		for r := 0; r < run; r++ {
			idx := lo + r
			if idx >= len(t.elems) || t.cmp(t.elems[idx], v) != 0 {
				panic("multiset.Tracker.Replace: old value not present")
			}
			t.remIdx = append(t.remIdx, idx)
		}
		i += run
	}

	// Locate insertion positions (lower bound in the ORIGINAL coordinate
	// system; removals and insertions are then interleaved in one pass).
	t.insPos = t.insPos[:0]
	for _, v := range t.newBuf {
		t.insPos = append(t.insPos,
			sort.Search(len(t.elems), func(j int) bool { return t.cmp(t.elems[j], v) >= 0 }))
	}

	// The edited span [lo, hi] of original indices: both index lists are
	// ascending, so its ends are their first and last entries. An
	// insertion at hi lands before elems[hi], which stays in the tail.
	lo, hi := len(t.elems), 0
	if len(t.remIdx) > 0 {
		lo, hi = t.remIdx[0], t.remIdx[len(t.remIdx)-1]+1
	}
	if len(t.insPos) > 0 {
		lo, hi = min(lo, t.insPos[0]), max(hi, t.insPos[len(t.insPos)-1])
	}

	// Writing the merged span back costs its length, plus the tail when
	// the lengths differ; merging the whole population into the scratch
	// and swapping the buffers costs the prefix and the tail instead. Take
	// the cheaper: a dense round's span is most of the array.
	n, d := len(t.elems), len(t.newBuf)-len(t.oldBuf)
	keep := lo + n - hi // elements outside the span
	moved := hi - lo + d
	if d != 0 {
		moved += n - hi
	}
	whole := keep < moved

	// Merge the span: bulk-copy each run of surviving elements up to the
	// next edit index, skip removed indices, emit inserted values at their
	// positions. Index comparisons only — no further cmp calls.
	out := t.mergeBuf[:0]
	if whole {
		out = append(out, t.elems[:lo]...)
	}
	ri, ni := 0, 0
	for i := lo; ; {
		for ni < len(t.insPos) && t.insPos[ni] == i {
			out = append(out, t.newBuf[ni])
			ni++
		}
		if i == hi {
			break
		}
		if ri < len(t.remIdx) && t.remIdx[ri] == i {
			ri++
			i++
			continue
		}
		next := hi
		if ri < len(t.remIdx) {
			next = t.remIdx[ri]
		}
		if ni < len(t.insPos) {
			next = min(next, t.insPos[ni])
		}
		out = append(out, t.elems[i:next]...)
		i = next
	}
	if whole {
		t.mergeBuf, t.elems = t.elems[:0], append(out, t.elems[hi:]...)
		return
	}
	t.mergeBuf = out[:0]

	// Write the span back. The original span is no longer read, so the
	// tail may move first; copy is overlap-safe in either direction.
	grown := n + d
	if d > 0 {
		t.elems = slices.Grow(t.elems, d)
	}
	t.elems = t.elems[:max(n, grown)]
	copy(t.elems[lo+len(out):grown], t.elems[hi:n])
	copy(t.elems[lo:], out)
	clear(t.elems[grown:]) // a shrink leaves no stale values behind
	t.elems = t.elems[:grown]
}

// Append inserts the given values into the tracked multiset — the
// population-growth path: joining agents extend the bag without touching
// any existing element, so incremental snapshots (and any positional
// bookkeeping keyed to existing agents) stay valid. It is Replace with an
// empty removal set: the span from the first insertion point to the last
// is rewritten and the tail behind it shifts up by len(vals).
func (t *Tracker[T]) Append(vals []T) { t.Replace(nil, vals) }

// Merger performs repeated P-way multiset unions into reusable merge
// buffers — the reduction step of a sharded state layout, where the
// global snapshot S = S_1 ∪ … ∪ S_P is rebuilt from per-shard sorted
// views every round. Where Union allocates a fresh slice per call, a
// Merger owns two ping-pong output buffers and the per-level segment
// scratch for the lifetime of a run and allocates nothing once they have
// grown to a steady state. The merge is a bottom-up tournament of 2-way
// merges — O(total · log P), so the sequential reduction stays flat as
// the shard count grows with the core count.
type Merger[T any] struct {
	cmp        Cmp[T]
	bufA, bufB []T
	cur, next  [][]T
}

// NewMerger builds a Merger using cmp as the total order.
func NewMerger[T any](cmp Cmp[T]) *Merger[T] {
	return &Merger[T]{cmp: cmp}
}

// Reset rebinds the merger to a new total order while keeping its
// ping-pong buffers and segment scratch warm — for mergers that outlive
// one run (the sharded layout handed between sweep cells), where the
// comparison function may change with the problem but the buffer
// capacity is the part worth keeping.
func (g *Merger[T]) Reset(cmp Cmp[T]) { g.cmp = cmp }

// Union merges the given multisets (each sorted by the Merger's cmp) into
// the internal buffers and returns a zero-copy view of the result. Ties
// are emitted lowest-operand-first (the tournament pairs adjacent
// operands and mergeAppend is left-stable), so the output is
// deterministic. The view is invalidated by the next Union call; callers
// that retain it must copy it first. Operands must not alias the
// Merger's buffers (i.e. must not be a previous Union result).
//
// A zero-value Merger (nil comparison function) adopts the first
// operand's comparison function, mirroring the zero-value contract of
// Multiset.Union; if no operand can supply one and elements must be
// merged, Union panics early with a descriptive message rather than
// crashing on the nil cmp deep inside the merge. A nil *Merger panics
// descriptively too.
func (g *Merger[T]) Union(sets ...Multiset[T]) Multiset[T] {
	if g == nil {
		panic("multiset.Merger.Union: nil *Merger receiver; build the merger with NewMerger")
	}
	if g.cmp == nil {
		for _, s := range sets {
			if s.cmp != nil {
				g.cmp = s.cmp
				break
			}
		}
		if g.cmp == nil {
			for _, s := range sets {
				if len(s.elems) > 0 {
					panic("multiset.Merger.Union: nil comparison function (zero-value Merger) and no operand supplies one; build the merger with NewMerger")
				}
			}
		}
	}
	cur := g.cur[:0]
	for _, s := range sets {
		if len(s.elems) > 0 {
			cur = append(cur, s.elems)
		}
	}
	switch len(cur) {
	case 0:
		g.cur = cur
		return Multiset[T]{cmp: g.cmp, elems: g.bufA[:0]}
	case 1:
		// Copy so the result honors the "operands never alias the
		// buffers" contract for the NEXT Union.
		g.bufA = append(g.bufA[:0], cur[0]...)
		g.cur = cur[:0]
		return Multiset[T]{cmp: g.cmp, elems: g.bufA}
	}
	out, spare := g.bufA, g.bufB
	for len(cur) > 1 {
		// Invariant: every segment this level PRODUCES — merged pairs and
		// the copied odd tail alike — lives in out, so the next level's
		// inputs never alias the buffer it writes to (spare).
		out = out[:0]
		next := g.next[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			start := len(out)
			out = mergeAppend(out, g.cmp, cur[i], cur[i+1])
			next = append(next, out[start:len(out):len(out)])
		}
		if len(cur)%2 == 1 {
			start := len(out)
			out = append(out, cur[len(cur)-1]...)
			next = append(next, out[start:len(out):len(out)])
		}
		g.next = cur[:0] // recycle the level scratch
		cur = next
		out, spare = spare, out
	}
	g.cur = cur[:0]
	g.bufA, g.bufB = out, spare // spare holds the result; out is dead
	return Multiset[T]{cmp: g.cmp, elems: cur[0]}
}

// OrderedCmp returns a Cmp for any ordered primitive type.
func OrderedCmp[T int | int8 | int16 | int32 | int64 | uint | uint8 | uint16 | uint32 | uint64 | float32 | float64 | string]() Cmp[T] {
	return func(a, b T) int {
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

// OfInts builds a multiset of ints with the natural order. It is the most
// common constructor in the paper's examples (§4.1–§4.3).
func OfInts(vals ...int) Multiset[int] { return New(OrderedCmp[int](), vals...) }

// OfFloats builds a multiset of float64s with the natural order.
func OfFloats(vals ...float64) Multiset[float64] { return New(OrderedCmp[float64](), vals...) }

// SumInts returns the sum of an integer multiset. Helper for the paper's
// §4.2 sum problem and the summation-form variant functions of (8).
func SumInts(m Multiset[int]) int {
	total := 0
	m.ForEach(func(v int) { total += v })
	return total
}

// SumFloats returns the sum of a float multiset.
func SumFloats(m Multiset[float64]) float64 {
	total := 0.0
	m.ForEach(func(v float64) { total += v })
	return total
}
