package bitset

import (
	"math/rand"
	"testing"
)

// refModel mirrors a Set as a []bool and checks every observable
// operation against it.
func TestSetAgainstBoolReference(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		rng := rand.New(rand.NewSource(int64(n)*7919 + 1))
		s := New(n)
		ref := make([]bool, n)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 && n > 0:
				i := rng.Intn(n)
				v := rng.Intn(2) == 0
				s.SetTo(i, v)
				ref[i] = v
			case op == 4:
				s.SetAll()
				for i := range ref {
					ref[i] = true
				}
			case op == 5 && rng.Intn(8) == 0:
				s.ClearAll()
				for i := range ref {
					ref[i] = false
				}
			case op == 6 && n > 0:
				i := rng.Intn(n)
				s.Set(i)
				ref[i] = true
			case op == 7 && n > 0:
				i := rng.Intn(n)
				s.Clear(i)
				ref[i] = false
			}
		}
		// Full observable comparison.
		count := 0
		for i := 0; i < n; i++ {
			if s.Get(i) != ref[i] {
				t.Fatalf("n=%d: Get(%d)=%v ref=%v", n, i, s.Get(i), ref[i])
			}
			if ref[i] {
				count++
			}
		}
		if s.Count() != count {
			t.Fatalf("n=%d: Count=%d want %d", n, s.Count(), count)
		}
		all, none := count == n, count == 0
		if s.All() != all || s.None() != none {
			t.Fatalf("n=%d: All=%v None=%v count=%d", n, s.All(), s.None(), count)
		}
		var got []int
		s.ForEach(func(i int) { got = append(got, i) })
		var want []int
		for i, v := range ref {
			if v {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: ForEach yielded %d ids, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: ForEach[%d]=%d want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestWordOpsAgainstReference(t *testing.T) {
	n := 203
	rng := rand.New(rand.NewSource(42))
	randSet := func() (Set, []bool) {
		s := New(n)
		ref := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Set(i)
				ref[i] = true
			}
		}
		return s, ref
	}
	for trial := 0; trial < 50; trial++ {
		a, ra := randSet()
		b, rb := randSet()

		and := a.Clone()
		and.And(b)
		andNot := a.Clone()
		andNot.AndNot(b)
		or := a.Clone()
		or.Or(b)
		for i := 0; i < n; i++ {
			if and.Get(i) != (ra[i] && rb[i]) {
				t.Fatalf("And mismatch at %d", i)
			}
			if andNot.Get(i) != (ra[i] && !rb[i]) {
				t.Fatalf("AndNot mismatch at %d", i)
			}
			if or.Get(i) != (ra[i] || rb[i]) {
				t.Fatalf("Or mismatch at %d", i)
			}
		}

		var diff []int
		diff = a.AppendDiff(b, diff)
		var wantDiff []int
		for i := 0; i < n; i++ {
			if ra[i] != rb[i] {
				wantDiff = append(wantDiff, i)
			}
		}
		if len(diff) != len(wantDiff) {
			t.Fatalf("AppendDiff len=%d want %d", len(diff), len(wantDiff))
		}
		for i := range diff {
			if diff[i] != wantDiff[i] {
				t.Fatalf("AppendDiff[%d]=%d want %d", i, diff[i], wantDiff[i])
			}
		}

		if a.Equal(b) != (len(wantDiff) == 0) {
			t.Fatalf("Equal=%v but diff count=%d", a.Equal(b), len(wantDiff))
		}
		c := a.Clone()
		if !c.Equal(a) {
			t.Fatal("Clone not Equal to source")
		}
		c.Copy(b)
		if !c.Equal(b) {
			t.Fatal("Copy result not Equal to source")
		}
	}
}

func TestZeroValueConvention(t *testing.T) {
	var z Set
	if !z.IsZero() || z.Len() != 0 {
		t.Fatal("zero value should be unallocated with Len 0")
	}
	if !z.Clone().IsZero() {
		t.Fatal("Clone of zero should be zero")
	}
	e := New(0)
	if e.IsZero() {
		t.Fatal("New(0) must be an empty mask, not the unallocated zero value")
	}
	if !e.All() || !e.None() || e.Count() != 0 {
		t.Fatal("New(0) invariants")
	}
	full := NewAllSet(70)
	if !full.All() || full.Count() != 70 {
		t.Fatalf("NewAllSet: All=%v Count=%d", full.All(), full.Count())
	}
}

func TestTailBitsStayClear(t *testing.T) {
	s := NewAllSet(65)
	if s.Count() != 65 {
		t.Fatalf("Count=%d want 65", s.Count())
	}
	s.Clear(64)
	if s.Count() != 64 || s.All() {
		t.Fatalf("after Clear(64): Count=%d All=%v", s.Count(), s.All())
	}
	s.Set(64)
	if !s.All() {
		t.Fatal("after re-Set(64): All should hold")
	}
}
