package problems

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

func intGen(maxLen, maxVal int) core.Gen[int] {
	return func(rng *rand.Rand) ms.Multiset[int] {
		n := 1 + rng.Intn(maxLen)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(maxVal)
		}
		return ms.OfInts(vals...)
	}
}

// checkGroupStepIsDStep runs random group steps of an int problem and
// verifies each is a D-step — the paper's first proof obligation turned
// into a test.
func checkGroupStepIsDStep(t *testing.T, p core.Problem[int], genVals func(*rand.Rand) []int, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < trials; i++ {
		vals := genVals(rng)
		after := p.GroupStep(vals, rng)
		if len(after) != len(vals) {
			t.Fatalf("%s: GroupStep changed cardinality %d→%d", p.Name(), len(vals), len(after))
		}
		before := ms.New(p.Cmp(), vals...)
		afterM := ms.New(p.Cmp(), after...)
		v := core.CheckDStep(p.F(), p.H(), p.Equal, before, afterM, 0)
		if !v.OK {
			t.Fatalf("%s: step %v→%v is %v", p.Name(), before, afterM, v)
		}
	}
}

func TestMinMatchesPaper(t *testing.T) {
	got := MinF().Apply(ms.OfInts(3, 5, 3, 7))
	if !got.Equal(ms.OfInts(3, 3, 3, 3)) {
		t.Errorf("f({3,5,3,7}) = %v, want {3,3,3,3}", got)
	}
}

func TestMinGroupStep(t *testing.T) {
	p := NewMin()
	out := p.GroupStep([]int{5, 3, 9}, nil)
	for _, v := range out {
		if v != 3 {
			t.Errorf("GroupStep = %v, want all 3", out)
		}
	}
	// Stutter when already converged.
	out = p.GroupStep([]int{3, 3}, nil)
	if out[0] != 3 || out[1] != 3 {
		t.Errorf("stutter wrong: %v", out)
	}
	// Input not mutated.
	in := []int{7, 2}
	p.GroupStep(in, nil)
	if in[0] != 7 {
		t.Error("GroupStep mutated input")
	}
}

func TestMinPartialStepsAreDSteps(t *testing.T) {
	p := NewPartialMin()
	checkGroupStepIsDStep(t, p, func(rng *rand.Rand) []int {
		n := 1 + rng.Intn(6)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(50)
		}
		return vals
	}, 500)
}

func TestMinGreedyStepsAreDSteps(t *testing.T) {
	checkGroupStepIsDStep(t, NewMin(), func(rng *rand.Rand) []int {
		n := 1 + rng.Intn(6)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(50)
		}
		return vals
	}, 500)
}

func TestMinSuperIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := intGen(6, 12)
	if v := core.CheckSuperIdempotent(MinF(), core.ExactEqual[int](), gen, gen, 1000, rng); v != nil {
		t.Errorf("min: %v", v)
	}
	if v := core.ExhaustiveSuperIdempotent(MinF(), core.ExactEqual[int](), []int{0, 1, 2, 3}, ms.OrderedCmp[int](), 4); v != nil {
		t.Errorf("min exhaustive: %v", v)
	}
}

func TestMaxProblem(t *testing.T) {
	p := NewMax(100)
	got := MaxF().Apply(ms.OfInts(3, 5, 3, 7))
	if !got.Equal(ms.OfInts(7, 7, 7, 7)) {
		t.Errorf("max f = %v", got)
	}
	checkGroupStepIsDStep(t, p, func(rng *rand.Rand) []int {
		n := 1 + rng.Intn(6)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(100)
		}
		return vals
	}, 500)
	rng := rand.New(rand.NewSource(2))
	gen := intGen(6, 12)
	if v := core.CheckSuperIdempotent(MaxF(), core.ExactEqual[int](), gen, gen, 1000, rng); v != nil {
		t.Errorf("max: %v", v)
	}
	a, b := p.PairStep(3, 9, rng)
	if a != 9 || b != 9 {
		t.Errorf("PairStep = %d,%d", a, b)
	}
}

func TestSumMatchesPaper(t *testing.T) {
	got := SumF().Apply(ms.OfInts(3, 5, 3, 7))
	if !got.Equal(ms.OfInts(18, 0, 0, 0)) {
		t.Errorf("f({3,5,3,7}) = %v, want {18,0,0,0}", got)
	}
}

func TestSumGroupStep(t *testing.T) {
	p := NewSum()
	out := p.GroupStep([]int{3, 5, 7}, nil)
	// Total consolidates at the position of the max (value 7, position 2).
	if out[0] != 0 || out[1] != 0 || out[2] != 15 {
		t.Errorf("GroupStep = %v", out)
	}
	// At most one non-zero: stutter.
	out = p.GroupStep([]int{0, 9, 0}, nil)
	if out[0] != 0 || out[1] != 9 || out[2] != 0 {
		t.Errorf("stutter = %v", out)
	}
}

func TestSumStepsAreDSteps(t *testing.T) {
	checkGroupStepIsDStep(t, NewSum(), func(rng *rand.Rand) []int {
		n := 1 + rng.Intn(6)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(20)
		}
		return vals
	}, 500)
}

func TestSumPairStepZeroIsStutter(t *testing.T) {
	p := NewSum()
	if a, b := p.PairStep(0, 7, nil); a != 0 || b != 7 {
		t.Errorf("zero pair moved value: %d,%d (zero agents must not act as couriers)", a, b)
	}
	if a, b := p.PairStep(4, 6, nil); a != 10 || b != 0 {
		t.Errorf("PairStep = %d,%d", a, b)
	}
}

func TestSumVariantMatchesPaperForm(t *testing.T) {
	h := NewSum().H()
	// h({3,5,3,7}) = 18² − (9+25+9+49) = 324 − 92 = 232.
	if got := h.Value(ms.OfInts(3, 5, 3, 7)); got != 232 {
		t.Errorf("h = %g, want 232", got)
	}
	// At the goal state h = total² − total² = 0.
	if got := h.Value(ms.OfInts(18, 0, 0, 0)); got != 0 {
		t.Errorf("h(goal) = %g, want 0", got)
	}
}

func TestSumSuperIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := intGen(5, 10)
	if v := core.CheckSuperIdempotent(SumF(), core.ExactEqual[int](), gen, gen, 1000, rng); v != nil {
		t.Errorf("sum: %v", v)
	}
}

func TestAverageProblem(t *testing.T) {
	p := NewAverage(1e-9)
	got := AverageF().Apply(ms.OfFloats(1, 2, 3, 6))
	want := ms.OfFloats(3, 3, 3, 3)
	if !p.Equal(got, want) {
		t.Errorf("average f = %v", got)
	}
	out := p.GroupStep([]float64{1, 3}, nil)
	if out[0] != 2 || out[1] != 2 {
		t.Errorf("GroupStep = %v", out)
	}
	a, b := p.PairStep(1, 2, nil)
	if a != 1.5 || b != 1.5 {
		t.Errorf("PairStep = %g,%g", a, b)
	}
}

func TestAverageStepsAreDSteps(t *testing.T) {
	p := NewAverage(1e-9)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(5)
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = rng.Float64() * 10
		}
		before := ms.New(p.Cmp(), vals...)
		after := ms.New(p.Cmp(), p.GroupStep(vals, rng)...)
		v := core.CheckDStep(p.F(), p.H(), p.Equal, before, after, 0)
		if !v.OK {
			t.Fatalf("average step %v→%v: %v", before, after, v)
		}
	}
}

func TestAverageSuperIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func(r *rand.Rand) ms.Multiset[float64] {
		n := 1 + r.Intn(5)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(8)) // grid values: exact means
		}
		return ms.OfFloats(vals...)
	}
	eq := NewAverage(1e-9).Equal
	if v := core.CheckSuperIdempotent(AverageF(), eq, gen, gen, 500, rng); v != nil {
		t.Errorf("average: %v", v)
	}
}

func TestGCDProblem(t *testing.T) {
	p := NewGCD()
	got := GCDF().Apply(ms.OfInts(12, 18, 30))
	if !got.Equal(ms.OfInts(6, 6, 6)) {
		t.Errorf("gcd f = %v", got)
	}
	checkGroupStepIsDStep(t, p, func(rng *rand.Rand) []int {
		n := 1 + rng.Intn(5)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = 1 + rng.Intn(60)
		}
		return vals
	}, 500)
	a, b := p.PairStep(12, 18, nil)
	if a != 6 || b != 6 {
		t.Errorf("PairStep = %d,%d", a, b)
	}
}

func TestGCDSuperIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gen := func(r *rand.Rand) ms.Multiset[int] {
		n := 1 + r.Intn(5)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = 1 + r.Intn(30)
		}
		return ms.OfInts(vals...)
	}
	if v := core.CheckSuperIdempotent(GCDF(), core.ExactEqual[int](), gen, gen, 1000, rng); v != nil {
		t.Errorf("gcd: %v", v)
	}
}

func TestSecondSmallestMatchesPaper(t *testing.T) {
	got := SecondSmallestF().Apply(ms.OfInts(3, 5, 3, 7))
	if !got.Equal(ms.OfInts(5, 5, 5, 5)) {
		t.Errorf("f({3,5,3,7}) = %v, want {5,5,5,5}", got)
	}
	got = SecondSmallestF().Apply(ms.OfInts(4, 4, 4))
	if !got.Equal(ms.OfInts(4, 4, 4)) {
		t.Errorf("all-equal = %v", got)
	}
}

// The paper's §4.3 negative result, both with the printed counterexample
// and by exhaustive refutation.
func TestSecondSmallestNotSuperIdempotent(t *testing.T) {
	f := SecondSmallestF()
	eq := core.ExactEqual[int]()
	// Printed counterexample: X={1,3}, Y={2}.
	x, y := ms.OfInts(1, 3), ms.OfInts(2)
	direct := f.Apply(x.Union(y))
	via := f.Apply(f.Apply(x).Union(y))
	if !direct.Equal(ms.OfInts(2, 2, 2)) || !via.Equal(ms.OfInts(3, 3, 3)) {
		t.Errorf("paper counterexample: f(X∪Y)=%v f(f(X)∪Y)=%v", direct, via)
	}
	// Idempotent…
	rng := rand.New(rand.NewSource(7))
	if v := core.CheckIdempotent(f, eq, intGen(6, 10), 500, rng); v != nil {
		t.Errorf("not idempotent: %v", v)
	}
	// …but not super-idempotent, exhaustively.
	if v := core.ExhaustiveSuperIdempotent(f, eq, []int{0, 1, 2, 3}, ms.OrderedCmp[int](), 3); v == nil {
		t.Error("second-smallest survived exhaustive super-idempotence check")
	}
}

func TestRequirements(t *testing.T) {
	if NewMin().Requirement() != core.AnyConnected {
		t.Error("min requirement")
	}
	if NewSum().Requirement() != core.CompleteGraph {
		t.Error("sum requirement (§4.2: complete graph)")
	}
	if NewGCD().Requirement() != core.AnyConnected {
		t.Error("gcd requirement")
	}
}

func TestVariantsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(6)
		vals := make([]int, n)
		for j := range vals {
			vals[j] = rng.Intn(50)
		}
		m := ms.OfInts(vals...)
		if h := NewMin().H().Value(m); h < 0 {
			t.Fatalf("min h negative: %g on %v", h, m)
		}
		if h := NewSum().H().Value(m); h < 0 {
			t.Fatalf("sum h negative: %g on %v", h, m)
		}
		if h := NewMax(50).H().Value(m); h < 0 {
			t.Fatalf("max h negative: %g on %v", h, m)
		}
	}
}

func TestAverageVariantIsPairwiseSquares(t *testing.T) {
	h := NewAverage(1e-9).H()
	m := ms.OfFloats(1, 3, 5)
	// Σ pairs (a−b)²: (1−3)²+(1−5)²+(3−5)² = 4+16+4 = 24.
	if got := h.Value(m); math.Abs(got-24) > 1e-12 {
		t.Errorf("h = %g, want 24", got)
	}
	if got := h.Value(ms.OfFloats(2, 2, 2)); got != 0 {
		t.Errorf("h(consensus) = %g", got)
	}
}

// TestStutterOnEqualMarker: exactly the Semilattice instances — min
// (greedy and Partial), max, gcd and set-union — carry
// core.StutterOnEqual, and every marked problem keeps its promise: on a
// group of k copies of one state, PairStep and GroupStep return the input
// unchanged without drawing from the stream.
func TestStutterOnEqualMarker(t *testing.T) {
	sorting, err := NewSorting([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	type markerCase struct {
		name string
		p    any // a core.Problem[T]
		want bool
	}
	cases := []markerCase{
		{"min", NewMin(), true},
		{"partial-min", NewPartialMin(), true},
		{"max", NewMax(1000), true},
		{"gcd", NewGCD(), true},
		{"sum", NewSum(), false},
		{"average", NewAverage(1e-9), false},
		{"hull", NewHull(nil), false},
		{"range", NewRange(1000), false},
		{"min-pair", NewMinPair(4, 100), false},
		{"k-smallest", NewKSmallest(3, 4, 100), false},
		{"sorting", sorting, false},
		{"set-union", NewSetUnion(), true},
	}
	// Every registered family is in the table, under its registry name,
	// with the marker the table expects.
	for _, d := range Catalog() {
		i := slices.IndexFunc(cases, func(c markerCase) bool { return c.name == d.Name })
		if i < 0 {
			t.Fatalf("registered problem %q has no expectation", d.Name)
		}
		if got := core.IsStutterOnEqual(d.New(16)); got != cases[i].want {
			t.Errorf("registered %q: carries StutterOnEqual = %v, want %v", d.Name, got, cases[i].want)
		}
	}

	rng := rand.New(rand.NewSource(41))
	for _, c := range cases {
		if _, got := c.p.(core.StutterOnEqual); got != c.want {
			t.Errorf("%s: carries StutterOnEqual = %v, want %v", c.name, got, c.want)
		}
		if !c.want {
			continue
		}
		switch p := c.p.(type) {
		case core.Problem[int]:
			checkEqualStutters(t, c.name, p, func(r *rand.Rand) int { return 1 + r.Intn(999) }, rng)
		case core.Problem[Set]:
			checkEqualStutters(t, c.name, p, func(r *rand.Rand) Set { return Set(r.Uint64()) }, rng)
		default:
			t.Fatalf("%s: no stutter check for %T", c.name, c.p)
		}
	}
}

// checkEqualStutters steps groups of copies of one random state and
// fails unless each step returns them unchanged without drawing.
func checkEqualStutters[T comparable](t *testing.T, name string, p core.Problem[T], elem core.ElemGen[T], rng *rand.Rand) {
	t.Helper()
	for trial := 0; trial < 200; trial++ {
		x := elem(rng)
		seed := rng.Int63()
		stream, fresh := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if a, b := p.PairStep(x, x, stream); a != x || b != x {
			t.Fatalf("%s: PairStep(%v, %v) = (%v, %v)", name, x, x, a, b)
		}
		group := make([]T, 1+rng.Intn(6))
		for i := range group {
			group[i] = x
		}
		out := p.GroupStep(group, stream)
		if len(out) != len(group) {
			t.Fatalf("%s: GroupStep(%v) returned %d states", name, group, len(out))
		}
		for i, v := range out {
			if v != x || group[i] != x {
				t.Fatalf("%s: GroupStep(%v) = %v", name, group, out)
			}
		}
		if stream.Int63() != fresh.Int63() {
			t.Fatalf("%s: an equal-state step consumed the stream", name)
		}
	}
}

// TestConsensusDeclaration: exactly min (greedy and Partial) and max
// declare core.Consensus, and the declaration is exact: on random bags —
// empty ones, duplicates and negative values included — |x| copies of
// Consensus(min x, max x) is f(x), through Apply and ApplyInto alike.
func TestConsensusDeclaration(t *testing.T) {
	want := map[string]bool{"min": true, "partial-min": true, "max": true}
	for _, d := range Catalog() {
		if _, got := d.New(16).(core.Consensus[int]); got != want[d.Name] {
			t.Errorf("registered %q: declares Consensus = %v, want %v", d.Name, got, want[d.Name])
		}
	}
	rng := rand.New(rand.NewSource(43))
	for _, p := range []core.Problem[int]{NewMin(), NewPartialMin(), NewMax(1000)} {
		c := p.(core.Consensus[int])
		var buf []int
		for trial := 0; trial < 500; trial++ {
			vals := make([]int, rng.Intn(8))
			for i := range vals {
				vals[i] = rng.Intn(21) - 10
			}
			x := ms.OfInts(vals...)
			var cons []int
			if lo, ok := x.Min(); ok {
				hi, _ := x.Max()
				for range vals {
					cons = append(cons, c.Consensus(lo, hi))
				}
			}
			var fx ms.Multiset[int]
			fx, buf = core.ApplyInto(p.F(), buf, x)
			if !fx.Equal(ms.OfInts(cons...)) || !p.F().Apply(x).Equal(fx) {
				t.Fatalf("%s: f(%v) = %v, Consensus copies = %v", p.Name(), x, fx, cons)
			}
		}
	}
}

// TestIntSummationVariants: min's Σx, max's Σ(B−x) and gcd's Σx are
// core.Additive, and their int64 Value is bit-identical to the float
// SummationVariant over the same terms on random bags with partial sums
// below 2⁵³.
func TestIntSummationVariants(t *testing.T) {
	const bound = 1 << 40
	cases := []struct {
		name string
		h    core.Variant[int]
		old  func(int) float64
	}{
		{"min", NewMin().H(), func(v int) float64 { return float64(v) }},
		{"max", NewMax(bound).H(), func(v int) float64 { return float64(bound - v) }},
		{"gcd", NewGCD().H(), func(v int) float64 { return float64(v) }},
	}
	rng := rand.New(rand.NewSource(47))
	for _, c := range cases {
		add, ok := c.h.(core.Additive[int])
		if !ok {
			t.Fatalf("%s: variant %q is not core.Additive", c.name, c.h.Name())
		}
		old := core.SummationVariant[int](c.h.Name(), c.old)
		for trial := 0; trial < 500; trial++ {
			vals := make([]int, rng.Intn(40))
			for i := range vals {
				vals[i] = rng.Intn(1<<41) - 1<<40
			}
			x := ms.OfInts(vals...)
			if got, w := c.h.Value(x), old.Value(x); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: Value(%v) = %v, float summation = %v", c.name, x, got, w)
			}
			for _, v := range vals {
				if float64(add.Term(v)) != c.old(v) {
					t.Fatalf("%s: Term(%d) = %d, want %g", c.name, v, add.Term(v), c.old(v))
				}
			}
		}
	}
}
