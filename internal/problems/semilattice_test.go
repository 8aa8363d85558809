package problems

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// TestSemilatticeContract checks the §3.4 recipe once for every
// Semilattice instance, on random bags: a greedy PairStep is GroupStep on
// the pair, f's Apply and its into-buffer fast path agree, f is
// super-idempotent, and every proper pair step strictly lowers Σ term.
func TestSemilatticeContract(t *testing.T) {
	small := func(r *rand.Rand) int { return r.Intn(50) }
	t.Run("min", func(t *testing.T) { checkSemilattice(t, NewMin(), small, true) })
	t.Run("partial-min", func(t *testing.T) { checkSemilattice(t, NewPartialMin(), small, false) })
	t.Run("max", func(t *testing.T) {
		checkSemilattice(t, NewMax(1000), func(r *rand.Rand) int { return r.Intn(1000) }, true)
	})
	t.Run("gcd", func(t *testing.T) {
		checkSemilattice(t, NewGCD(), func(r *rand.Rand) int { return 1 + r.Intn(60) }, true)
	})
	t.Run("set-union", func(t *testing.T) {
		checkSemilattice(t, NewSetUnion(), func(r *rand.Rand) Set { return Set(r.Uint64() & 0xFF) }, true)
	})
}

func checkSemilattice[T comparable](t *testing.T, p core.Problem[T], elem core.ElemGen[T], greedy bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	gen := func(r *rand.Rand) ms.Multiset[T] {
		vals := make([]T, 1+r.Intn(6))
		for i := range vals {
			vals[i] = elem(r)
		}
		return ms.New(p.Cmp(), vals...)
	}
	add, ok := p.H().(core.Additive[T])
	if !ok {
		t.Fatalf("variant %q is not core.Additive", p.H().Name())
	}
	f := p.F()
	var buf []T
	for trial := 0; trial < 500; trial++ {
		a, b := elem(rng), elem(rng)
		seed := rng.Int63()
		na, nb := p.PairStep(a, b, rand.New(rand.NewSource(seed)))
		if greedy {
			if g := p.GroupStep([]T{a, b}, rand.New(rand.NewSource(seed))); g[0] != na || g[1] != nb {
				t.Fatalf("PairStep(%v, %v) = (%v, %v), GroupStep = %v", a, b, na, nb, g)
			}
		}
		before, after := ms.New(p.Cmp(), a, b), ms.New(p.Cmp(), na, nb)
		if !before.Equal(after) && add.Term(na)+add.Term(nb) >= add.Term(a)+add.Term(b) {
			t.Fatalf("proper step (%v, %v) → (%v, %v) does not lower Σ term", a, b, na, nb)
		}

		x := gen(rng)
		var into ms.Multiset[T]
		into, buf = core.ApplyInto(f, buf, x)
		if !f.Apply(x).Equal(into) {
			t.Fatalf("f(%v): Apply = %v, ApplyInto = %v", x, f.Apply(x), into)
		}
	}
	empty := ms.New(p.Cmp())
	if got := f.Apply(empty); !got.IsEmpty() {
		t.Errorf("f(∅) = %v", got)
	}
	if v := core.CheckSuperIdempotent(f, p.Equal, gen, gen, 1000, rng); v != nil {
		t.Errorf("%s: %v", p.Name(), v)
	}
}
