package multiset

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestTrackerMatchesRebuild drives a Tracker through random replacement
// batches and checks after every batch that the incremental snapshot
// equals a from-scratch New over the live population.
func TestTrackerMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cmp := OrderedCmp[int]()
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		pop := make([]int, n)
		for i := range pop {
			pop[i] = rng.Intn(10) // dense values: plenty of duplicates
		}
		tr := NewTracker(cmp, pop)
		for step := 0; step < 30; step++ {
			k := 1 + rng.Intn(n)
			idxs := rng.Perm(n)[:k]
			olds := make([]int, k)
			news := make([]int, k)
			for j, idx := range idxs {
				olds[j] = pop[idx]
				news[j] = rng.Intn(10)
				pop[idx] = news[j]
			}
			tr.Replace(olds, news)
			if want := New(cmp, pop...); !tr.View().Equal(want) {
				t.Fatalf("trial %d step %d: view %v != rebuild %v", trial, step, tr.View(), want)
			}
			if tr.Len() != n {
				t.Fatalf("len drifted: %d != %d", tr.Len(), n)
			}
		}
	}
}

func TestTrackerUnequalLengths(t *testing.T) {
	cmp := OrderedCmp[int]()
	tr := NewTracker(cmp, []int{1, 2, 3})
	tr.Replace([]int{2}, []int{7, 8}) // grow
	if want := OfInts(1, 3, 7, 8); !tr.View().Equal(want) {
		t.Fatalf("grow: %v != %v", tr.View(), want)
	}
	tr.Replace([]int{7, 8}, []int{0}) // shrink
	if want := OfInts(0, 1, 3); !tr.View().Equal(want) {
		t.Fatalf("shrink: %v != %v", tr.View(), want)
	}
	tr.Replace(nil, nil) // no-op
	if want := OfInts(0, 1, 3); !tr.View().Equal(want) {
		t.Fatalf("no-op changed view: %v", tr.View())
	}
}

func TestTrackerPanicsOnMissingOld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Replace of a value not present must panic")
		}
	}()
	NewTracker(OrderedCmp[int](), []int{1, 2}).Replace([]int{9}, []int{1})
}

func TestViewAliasesWithoutCopy(t *testing.T) {
	cmp := OrderedCmp[int]()
	backing := []int{1, 2, 3}
	v := View(cmp, backing)
	if !v.Equal(OfInts(1, 2, 3)) {
		t.Fatalf("view = %v", v)
	}
	backing[0] = 0 // caller-visible mutation shows through: zero-copy
	if v.At(0) != 0 {
		t.Fatal("View copied its input; it must alias")
	}
}

// keyed is an element ordered by key alone: cmp cannot tell two keyed
// values with one key apart, so the payload shows where each one landed
// among its ties.
type keyed struct{ key, payload int }

func keyedCmp(a, b keyed) int { return OrderedCmp[int]()(a.key, b.key) }

// fullMergeReplace is Tracker.Replace as a single merge pass over the
// whole population, kept as the oracle for the span rewrite: it returns
// the repaired population and leaves elems untouched.
func fullMergeReplace[T any](cmp Cmp[T], elems, olds, news []T) []T {
	oldBuf := slices.Clone(olds)
	newBuf := slices.Clone(news)
	slices.SortFunc(oldBuf, cmp)
	slices.SortFunc(newBuf, cmp)
	var remIdx, insPos []int
	for i := 0; i < len(oldBuf); {
		v := oldBuf[i]
		run := 1
		for i+run < len(oldBuf) && cmp(oldBuf[i+run], v) == 0 {
			run++
		}
		lo := sort.Search(len(elems), func(j int) bool { return cmp(elems[j], v) >= 0 })
		for r := 0; r < run; r++ {
			if lo+r >= len(elems) || cmp(elems[lo+r], v) != 0 {
				panic("oracle: old value not present")
			}
			remIdx = append(remIdx, lo+r)
		}
		i += run
	}
	for _, v := range newBuf {
		insPos = append(insPos, sort.Search(len(elems), func(j int) bool { return cmp(elems[j], v) >= 0 }))
	}
	var out []T
	ri, ni := 0, 0
	for i := 0; ; {
		for ni < len(insPos) && insPos[ni] == i {
			out = append(out, newBuf[ni])
			ni++
		}
		if i == len(elems) {
			break
		}
		if ri < len(remIdx) && remIdx[ri] == i {
			ri++
			i++
			continue
		}
		next := len(elems)
		if ri < len(remIdx) {
			next = remIdx[ri]
		}
		if ni < len(insPos) {
			next = min(next, insPos[ni])
		}
		out = append(out, elems[i:next]...)
		i = next
	}
	return out
}

// TestTrackerSpanRewriteKeepsTieOrder checks Replace's span rewrite
// against the full-merge oracle element for element, payload included,
// so a change in where ties land fails even though the views stay Equal
// under cmp.
func TestTrackerSpanRewriteKeepsTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	serial := 0
	next := func(key int) keyed { serial++; return keyed{key, serial} }
	population := func(n, keys int) []keyed {
		pop := make([]keyed, n)
		for i := range pop {
			pop[i] = next(rng.Intn(keys))
		}
		return pop
	}
	// pick returns k values present in pop (distinct slots), each with a
	// fresh payload: removal matches on the key alone.
	pick := func(pop []keyed, idxs []int) []keyed {
		olds := make([]keyed, len(idxs))
		for j, i := range idxs {
			olds[j] = keyed{pop[i].key, -1 - j}
		}
		return olds
	}
	fresh := func(k, keys int) []keyed {
		news := make([]keyed, k)
		for j := range news {
			news[j] = next(rng.Intn(keys))
		}
		return news
	}

	type edit struct {
		name       string
		olds, news func(pop []keyed) []keyed
	}
	const keys = 12 // few keys over many values: long runs of ties
	edits := []edit{
		{"no-op", func([]keyed) []keyed { return nil }, func([]keyed) []keyed { return nil }},
		{"at index 0", func(pop []keyed) []keyed { return pick(pop, []int{0}) },
			func([]keyed) []keyed { return []keyed{next(-1)} }},
		{"at len", func(pop []keyed) []keyed { return pick(pop, []int{len(pop) - 1}) },
			func([]keyed) []keyed { return []keyed{next(keys + 1)} }},
		{"index 0 and len", func(pop []keyed) []keyed { return pick(pop, []int{0, len(pop) - 1}) },
			func([]keyed) []keyed { return []keyed{next(keys + 1), next(-1)} }},
		{"single middle", func(pop []keyed) []keyed { return pick(pop, []int{len(pop) / 2}) },
			func(pop []keyed) []keyed { return []keyed{next(pop[len(pop)/2].key)} }},
		{"clustered", func(pop []keyed) []keyed {
			at := rng.Intn(len(pop) - 8)
			return pick(pop, []int{at, at + 2, at + 3, at + 7})
		}, func([]keyed) []keyed { return fresh(4, keys) }},
		{"spread", func(pop []keyed) []keyed { return pick(pop, rng.Perm(len(pop))[:len(pop)/3]) },
			func(pop []keyed) []keyed { return fresh(len(pop)/3, keys) }},
		{"equal run", func(pop []keyed) []keyed {
			var idxs []int
			for i, v := range pop {
				if v.key == pop[len(pop)/2].key && len(idxs) < 5 {
					idxs = append(idxs, i)
				}
			}
			return pick(pop, idxs)
		}, func(pop []keyed) []keyed {
			k := pop[len(pop)/2].key
			return []keyed{next(k), next(k), next(k + 1)}
		}},
		{"grow", func(pop []keyed) []keyed { return pick(pop, []int{3}) },
			func([]keyed) []keyed { return fresh(6, keys) }},
		{"shrink", func(pop []keyed) []keyed { return pick(pop, rng.Perm(len(pop))[:6]) },
			func([]keyed) []keyed { return fresh(2, keys) }},
		{"remove only", func(pop []keyed) []keyed { return pick(pop, []int{5, 9}) },
			func([]keyed) []keyed { return nil }},
		// One slot three quarters in, replaced by copies of its own key:
		// the span stays short, so the tail behind it shifts in place.
		{"grow in place", func(pop []keyed) []keyed { return pick(pop, []int{3 * len(pop) / 4}) },
			func(pop []keyed) []keyed { k := pop[3*len(pop)/4].key; return []keyed{next(k), next(k), next(k)} }},
		{"shrink in place", func(pop []keyed) []keyed {
			i := 3 * len(pop) / 4
			return pick(pop, []int{i, i + 1, i + 2})
		}, func(pop []keyed) []keyed { return []keyed{next(pop[3*len(pop)/4].key)} }},
	}
	check := func(name string, tr *Tracker[keyed], want []keyed) {
		t.Helper()
		got := tr.View()
		if got.Len() != len(want) {
			t.Fatalf("%s: len %d, oracle %d", name, got.Len(), len(want))
		}
		for i, w := range want {
			if got.At(i) != w {
				t.Fatalf("%s: element %d = %+v, oracle %+v", name, i, got.At(i), w)
			}
		}
	}
	for _, n := range []int{16, 40, 300} {
		pop := population(n, keys)
		tr := NewTracker(keyedCmp, pop)
		want := slices.Clone(tr.View().elems)
		for rep := 0; rep < 20; rep++ {
			for _, e := range edits {
				olds, news := e.olds(want), e.news(want)
				want = fullMergeReplace(keyedCmp, want, olds, news)
				tr.Replace(olds, news)
				check(fmt.Sprintf("n=%d rep %d %s", n, rep, e.name), tr, want)
			}
			app := fresh(1+rng.Intn(5), keys+2)
			want = fullMergeReplace(keyedCmp, want, nil, app)
			tr.Append(app)
			check(fmt.Sprintf("n=%d rep %d Append", n, rep), tr, want)
		}
	}
}

// TestTrackerIntSortIsStableOrder checks Reset's int fast path against a
// stable sort under cmp, element for element: under the natural order
// and its reverse the fast path holds, and under orders with ties between
// distinct ints (by v/3, by |v|) it must fall back to the stable sort of
// the input, not keep its < order.
func TestTrackerIntSortIsStableOrder(t *testing.T) {
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	asc := OrderedCmp[int]()
	cmps := map[string]Cmp[int]{
		"natural":  asc,
		"reversed": func(a, b int) int { return asc(b, a) },
		"by v/3":   func(a, b int) int { return asc(a/3, b/3) },
		"by |v|":   func(a, b int) int { return asc(abs(a), abs(b)) },
	}
	rng := rand.New(rand.NewSource(11))
	warm := NewTracker(asc, nil)
	for name, cmp := range cmps {
		for trial := 0; trial < 40; trial++ {
			pop := make([]int, rng.Intn(200))
			for i := range pop {
				pop[i] = rng.Intn(41) - 20
			}
			want := slices.Clone(pop)
			slices.SortStableFunc(want, cmp)
			warm.Reset(cmp, pop)
			for _, tr := range []*Tracker[int]{NewTracker(cmp, pop), warm} {
				if got := tr.View().elems; !slices.Equal(got, want) {
					t.Fatalf("%s trial %d: tracker order %v, stable sort %v", name, trial, got, want)
				}
			}
		}
	}
}
