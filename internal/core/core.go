// Package core implements the paper's primary contribution: the
// self-similar design methodology of "Self-Similar Algorithms for Dynamic
// Distributed Systems" (Chandy & Charpentier, ICDCS 2007), §3.
//
// The methodology casts "compute f(S(0)) in a dynamic distributed system"
// as constrained optimization:
//
//   - a distributed function f over multisets of agent states must be
//     conserved by every group step (the conservation law, §3.2–3.3);
//   - a well-founded variant (objective) function h must strictly decrease
//     on every proper group step (§3.5);
//   - the induced step relation D (§3.6) is
//     S_B D S'_B  ≡  (f(S_B) = f(S'_B) ∧ h(S_B) > h(S'_B)) ∨ S_B = S'_B.
//
// The key structural condition is super-idempotence of f (§3.4):
// f(X ∪ Y) = f(f(X) ∪ Y) for all multisets X, Y — exactly the idempotent
// functions for which local conservation implies global conservation, and
// hence exactly the functions to which the self-similar strategy applies.
//
// This package provides:
//
//   - the Function and Variant abstractions for f and h;
//   - machine checkers for idempotence, super-idempotence (both the
//     definition and the singleton criterion (6)), randomized and
//     exhaustive over finite domains;
//   - the relation D as a runtime-checkable predicate (IsDStep), which
//     turns the paper's first proof obligation, "R implements D", into a
//     monitor that the simulator and tests enforce on every executed step;
//   - checkers for the local-to-global properties of f and h ((7), (10)).
//
// Everything downstream (the problem library, the simulator, the model
// checker, the figures) is built on these definitions.
package core

import (
	"fmt"
	"math/rand"

	ms "repro/internal/multiset"
)

// Function is the paper's distributed function f: a map from multisets of
// agent states to multisets of agent states. For the consensus problems of
// §4 the result has the same cardinality as the input; the abstraction does
// not require it, but every checker verifies the properties the paper
// states for the particular f at hand.
type Function[T any] interface {
	// Name identifies the function in diagnostics and tables.
	Name() string
	// Apply computes f(X).
	Apply(x ms.Multiset[T]) ms.Multiset[T]
}

// FuncOf adapts a plain Go function into a Function.
func FuncOf[T any](name string, apply func(ms.Multiset[T]) ms.Multiset[T]) Function[T] {
	return funcAdapter[T]{name: name, apply: apply}
}

type funcAdapter[T any] struct {
	name  string
	apply func(ms.Multiset[T]) ms.Multiset[T]
}

func (f funcAdapter[T]) Name() string                          { return f.name }
func (f funcAdapter[T]) Apply(x ms.Multiset[T]) ms.Multiset[T] { return f.apply(x) }

// IntoFunction is the optional allocation-free fast path of a Function:
// ApplyInto appends the elements of f(x) to dst in canonical (sorted)
// order and returns the extended slice, allocating only when dst must
// grow. Engines that evaluate f every round (the conservation-law check)
// detect this interface via ApplyInto below and reuse one buffer for the
// lifetime of a run.
type IntoFunction[T any] interface {
	Function[T]
	ApplyInto(dst []T, x ms.Multiset[T]) []T
}

// ApplyInto evaluates f(x) through the IntoFunction fast path when f
// provides one: the result elements are written into buf (reused across
// calls; pass the returned slice back in) and the returned multiset is a
// zero-copy view of it, invalidated by the next call with the same
// buffer. Functions without the fast path fall back to Apply, in which
// case the result owns its storage and buf passes through unchanged.
func ApplyInto[T any](f Function[T], buf []T, x ms.Multiset[T]) (ms.Multiset[T], []T) {
	if into, ok := f.(IntoFunction[T]); ok {
		buf = into.ApplyInto(buf[:0], x)
		return ms.View(x.Cmp(), buf), buf
	}
	return f.Apply(x), buf
}

// FuncOfInto adapts a plain Go function plus its into-buffer fast path
// into an IntoFunction. applyInto must append the same elements Apply
// would produce, in canonical order, to its dst argument.
func FuncOfInto[T any](name string, apply func(ms.Multiset[T]) ms.Multiset[T],
	applyInto func(dst []T, x ms.Multiset[T]) []T) IntoFunction[T] {
	return intoFuncAdapter[T]{funcAdapter[T]{name: name, apply: apply}, applyInto}
}

type intoFuncAdapter[T any] struct {
	funcAdapter[T]
	applyInto func(dst []T, x ms.Multiset[T]) []T
}

func (f intoFuncAdapter[T]) ApplyInto(dst []T, x ms.Multiset[T]) []T { return f.applyInto(dst, x) }

// StutterOnEqual is an optional marker a Problem carries to promise that
// a group whose members all hold cmp-equal states can only stutter:
// GroupStep and PairStep then return their input unchanged and draw no
// randomness. Consensus problems whose step moves every member to a
// combination of the group's values (min, max, gcd) satisfy it. The
// round engine uses the promise to skip such groups — a skipped group is
// exactly the stutter the step would have produced, and every group's
// step stream is keyed on the group itself, so skipping one shifts no
// other group's draws and results do not depend on the marker. A
// problem must not
// carry it when an all-equal group can still change (sum, average, the
// geometry problems).
type StutterOnEqual interface {
	// StutterOnEqual is a marker method; it carries no behavior.
	StutterOnEqual()
}

// IsStutterOnEqual reports whether p carries the StutterOnEqual marker.
func IsStutterOnEqual[T any](p Problem[T]) bool {
	_, ok := p.(StutterOnEqual)
	return ok
}

// Consensus is an optional declaration a Problem carries when its f is a
// consensus of the bag's extremes: f(x) is |x| copies of
// Consensus(min x, max x), and the problem's Equal is cmp equality. Both
// global properties then reduce to statistics an engine can read without
// materializing the bag — f(S) = S* exactly when |S| = |S*| and
// Consensus(min S, max S) = c*, and S = S* exactly when additionally
// min S = max S = c* — which is what the monitor's O(P) path checks. Min
// returns lo and Max returns hi. A problem whose f is not a function of
// the extremes (gcd, sum, sorting, hull) must not carry it.
type Consensus[T any] interface {
	// Consensus returns the common value f gives a bag whose least and
	// greatest states are lo and hi.
	Consensus(lo, hi T) T
}

// Variant is the paper's variant (objective) function h over group states
// (§3.5). Its range must be well-founded for the order >; integer-valued
// variants are represented exactly in float64 far beyond the sizes used
// here, and geometric variants carry a problem-chosen tolerance.
type Variant[T any] interface {
	// Name identifies the variant in diagnostics and tables.
	Name() string
	// Value computes h(X).
	Value(x ms.Multiset[T]) float64
}

// VariantOf adapts a plain Go function into a Variant.
func VariantOf[T any](name string, value func(ms.Multiset[T]) float64) Variant[T] {
	return variantAdapter[T]{name: name, value: value}
}

type variantAdapter[T any] struct {
	name  string
	value func(ms.Multiset[T]) float64
}

func (v variantAdapter[T]) Name() string                   { return v.name }
func (v variantAdapter[T]) Value(x ms.Multiset[T]) float64 { return v.value(x) }

// SummationVariant builds a variant in the summation form of the paper's
// equation (8): h(S_B) = Σ_{a∈B} ha(Sa). The paper's lemma in §3.5 shows
// this form satisfies the local-to-global improvement property (7) whenever
// f is super-idempotent, so problems should prefer it; the Fig. 1
// counterexample is precisely a variant NOT of this form.
func SummationVariant[T any](name string, ha func(T) float64) Variant[T] {
	return variantAdapter[T]{name: name, value: func(x ms.Multiset[T]) float64 {
		total := 0.0
		x.ForEach(func(v T) { total += ha(v) })
		return total
	}}
}

// Additive is the optional exact form of a summation variant whose
// per-agent terms are integers: h(X) = Σ_{x∈X} Term(x), accumulated in
// int64. An engine can then maintain h under a state change old → new by
// adding Term(new) − Term(old), without revisiting the bag.
type Additive[T any] interface {
	Variant[T]
	// Term is one agent's contribution ha(x) to h.
	Term(x T) int64
}

// IntSummationVariant builds a summation-form variant (equation (8)) with
// integer per-agent terms. It implements Additive, and its Value is the
// float64 of the int64 sum — bit-identical to SummationVariant over the
// same terms as long as every partial sum stays below 2⁵³ in magnitude,
// where float accumulation of integers is exact. Variants whose sums can
// pass that range (KSmallest's cascade) stay SummationVariants.
func IntSummationVariant[T any](name string, ha func(T) int64) Variant[T] {
	return intSumVariant[T]{name: name, term: ha}
}

type intSumVariant[T any] struct {
	name string
	term func(T) int64
}

func (v intSumVariant[T]) Name() string   { return v.name }
func (v intSumVariant[T]) Term(x T) int64 { return v.term(x) }
func (v intSumVariant[T]) Value(x ms.Multiset[T]) float64 {
	var total int64
	for i := 0; i < x.Len(); i++ {
		total += v.term(x.At(i))
	}
	return float64(total)
}

// Requirement describes the environment assumption Q a problem needs, per
// §4: the set Q_E for a graph family E such that proof obligation (9)
// holds.
type Requirement int

const (
	// AnyConnected: Q_E for any connected graph suffices (minimum §4.1,
	// convex hull §4.5).
	AnyConnected Requirement = iota
	// CompleteGraph: E must be the complete graph — any two agents must
	// communicate infinitely often (sum, §4.2: zero-valued agents cannot
	// relay).
	CompleteGraph
	// LineGraph: E must include the linear graph in index order
	// (sorting, §4.4).
	LineGraph
)

// String renders the requirement for tables.
func (r Requirement) String() string {
	switch r {
	case AnyConnected:
		return "any connected graph"
	case CompleteGraph:
		return "complete graph"
	case LineGraph:
		return "line graph (index order)"
	default:
		return fmt.Sprintf("Requirement(%d)", int(r))
	}
}

// Problem bundles one of the paper's example problems: the function f to
// compute, the variant h that drives optimization, and concrete
// refinements of the step relation D — a group-level collaborative step
// (used by the round-based engine) and a pairwise gossip step (used by the
// asynchronous message-passing runtime).
//
// Self-similarity is structural: GroupStep receives nothing but the states
// of the group's own members and is used for every group of every size, so
// each group behaves as if the system consisted of that group alone.
type Problem[T any] interface {
	// Name identifies the problem.
	Name() string
	// Cmp is the total order on agent states used to canonicalize
	// multisets of them.
	Cmp() ms.Cmp[T]
	// F is the distributed function to compute.
	F() Function[T]
	// H is the variant function.
	H() Variant[T]
	// GroupStep executes one collaborative step of the relation R for a
	// group currently holding the given states. The returned slice has the
	// same length; position i is the new state of the member that held
	// states[i]. Every step must be a D-step (checked by monitors).
	GroupStep(states []T, rng *rand.Rand) []T
	// PairStep is the two-agent refinement of R used by the asynchronous
	// runtime. It must also be a D-step on the two-element multiset.
	PairStep(a, b T, rng *rand.Rand) (T, T)
	// Equal reports whether two multisets of agent states should be
	// considered the same for convergence and conservation checking —
	// exact for discrete problems, tolerance-based for geometry.
	Equal(a, b ms.Multiset[T]) bool
	// Requirement is the environment assumption the paper identifies for
	// this problem.
	Requirement() Requirement
}

// Target computes the goal state S* = f(S(0)) for a problem instance.
func Target[T any](p Problem[T], initial ms.Multiset[T]) ms.Multiset[T] {
	return p.F().Apply(initial)
}

// --- The relation D (§3.6) ---

// StepVerdict reports whether a transition is a valid D-step and why not
// when it is not.
type StepVerdict struct {
	OK bool
	// Stutter is true when the step left the state unchanged.
	Stutter bool
	// ConservesF is true when f(before) = f(after).
	ConservesF bool
	// DecreasesH is true when h(after) < h(before) (strictly).
	DecreasesH bool
	// DeltaH is h(after) − h(before).
	DeltaH float64
}

// String renders the verdict.
func (v StepVerdict) String() string {
	if v.OK {
		if v.Stutter {
			return "D-step (stutter)"
		}
		return fmt.Sprintf("D-step (Δh=%g)", v.DeltaH)
	}
	return fmt.Sprintf("NOT a D-step (conservesF=%v decreasesH=%v Δh=%g)",
		v.ConservesF, v.DecreasesH, v.DeltaH)
}

// CheckDStep decides whether the transition before → after is a step of
// the relation D: either a stutter, or an f-conserving strict h-decrease.
// Equality of multisets is judged by eq (problem-specific, tolerance-aware
// for geometry); hEps is the slack below which an h decrease does not count
// as strict (0 for exact integer variants).
func CheckDStep[T any](f Function[T], h Variant[T], eq func(a, b ms.Multiset[T]) bool,
	before, after ms.Multiset[T], hEps float64) StepVerdict {
	if eq(before, after) {
		return StepVerdict{OK: true, Stutter: true, ConservesF: true}
	}
	fb, fa := f.Apply(before), f.Apply(after)
	hb, haf := h.Value(before), h.Value(after)
	v := StepVerdict{
		ConservesF: eq(fb, fa),
		DecreasesH: haf < hb-hEps,
		DeltaH:     haf - hb,
	}
	v.OK = v.ConservesF && v.DecreasesH
	return v
}

// --- Checkers for the structural conditions of §3.4 ---

// Gen draws a random multiset (for randomized property checking).
type Gen[T any] func(rng *rand.Rand) ms.Multiset[T]

// ElemGen draws a random element.
type ElemGen[T any] func(rng *rand.Rand) T

// IdempotenceViolation is a counterexample to f(f(X)) = f(X).
type IdempotenceViolation[T any] struct {
	X, FX, FFX ms.Multiset[T]
}

// Error renders the counterexample.
func (v *IdempotenceViolation[T]) Error() string {
	return fmt.Sprintf("not idempotent: X=%v f(X)=%v f(f(X))=%v", v.X, v.FX, v.FFX)
}

// CheckIdempotent draws trials multisets from gen and checks
// f(f(X)) = f(X) for each. It returns nil when no counterexample is found,
// or the first counterexample. eq judges multiset equality.
func CheckIdempotent[T any](f Function[T], eq func(a, b ms.Multiset[T]) bool,
	gen Gen[T], trials int, rng *rand.Rand) *IdempotenceViolation[T] {
	for i := 0; i < trials; i++ {
		x := gen(rng)
		fx := f.Apply(x)
		ffx := f.Apply(fx)
		if !eq(fx, ffx) {
			return &IdempotenceViolation[T]{X: x, FX: fx, FFX: ffx}
		}
	}
	return nil
}

// SuperIdempotenceViolation is a counterexample to f(X ∪ Y) = f(f(X) ∪ Y).
type SuperIdempotenceViolation[T any] struct {
	X, Y      ms.Multiset[T]
	Direct    ms.Multiset[T] // f(X ∪ Y)
	ViaLocalF ms.Multiset[T] // f(f(X) ∪ Y)
}

// Error renders the counterexample in the notation of §3.4.
func (v *SuperIdempotenceViolation[T]) Error() string {
	return fmt.Sprintf("not super-idempotent: X=%v Y=%v f(X∪Y)=%v f(f(X)∪Y)=%v",
		v.X, v.Y, v.Direct, v.ViaLocalF)
}

// CheckSuperIdempotent draws trials pairs (X, Y) and checks the defining
// equation of §3.4: f(X ∪ Y) = f(f(X) ∪ Y). Returns nil or the first
// counterexample found.
func CheckSuperIdempotent[T any](f Function[T], eq func(a, b ms.Multiset[T]) bool,
	genX, genY Gen[T], trials int, rng *rand.Rand) *SuperIdempotenceViolation[T] {
	for i := 0; i < trials; i++ {
		x, y := genX(rng), genY(rng)
		direct := f.Apply(x.Union(y))
		via := f.Apply(f.Apply(x).Union(y))
		if !eq(direct, via) {
			return &SuperIdempotenceViolation[T]{X: x, Y: y, Direct: direct, ViaLocalF: via}
		}
	}
	return nil
}

// CheckSuperIdempotentSingleton checks the simpler criterion of the
// paper's equation (6): f is super-idempotent iff it is idempotent and
// f(X ∪ {v}) = f(f(X) ∪ {v}) for every multiset X and single value v.
func CheckSuperIdempotentSingleton[T any](f Function[T], eq func(a, b ms.Multiset[T]) bool,
	genX Gen[T], genV ElemGen[T], cmp ms.Cmp[T], trials int, rng *rand.Rand) *SuperIdempotenceViolation[T] {
	genY := func(r *rand.Rand) ms.Multiset[T] { return ms.New(cmp, genV(r)) }
	return CheckSuperIdempotent(f, eq, genX, genY, trials, rng)
}

// EnumMultisets enumerates every multiset over the given finite domain with
// cardinality between minSize and maxSize (inclusive), invoking visit for
// each; visit returning false stops the enumeration early. Enumeration is
// combinations-with-repetition over domain indices, so each multiset is
// produced exactly once.
func EnumMultisets[T any](domain []T, cmp ms.Cmp[T], minSize, maxSize int,
	visit func(ms.Multiset[T]) bool) {
	var rec func(start int, picked []T) bool
	rec = func(start int, picked []T) bool {
		if len(picked) >= minSize {
			if !visit(ms.New(cmp, picked...)) {
				return false
			}
		}
		if len(picked) == maxSize {
			return true
		}
		for i := start; i < len(domain); i++ {
			picked = append(picked, domain[i])
			if !rec(i, picked) {
				return false
			}
			picked = picked[:len(picked)-1]
		}
		return true
	}
	rec(0, make([]T, 0, maxSize))
}

// ExhaustiveSuperIdempotent verifies the singleton criterion (6)
// exhaustively: for every multiset X over domain with |X| ≤ maxSize and
// every v ∈ domain, f(X ∪ {v}) = f(f(X) ∪ {v}); idempotence of f is checked
// on the same universe. It returns nil or the first counterexample.
// Exhaustive checking over a finite sub-domain cannot prove
// super-idempotence over an infinite domain, but it does *refute* it
// conclusively — which is how the paper's negative results (second
// smallest, circumscribing circle) are reproduced as machine facts.
func ExhaustiveSuperIdempotent[T any](f Function[T], eq func(a, b ms.Multiset[T]) bool,
	domain []T, cmp ms.Cmp[T], maxSize int) *SuperIdempotenceViolation[T] {
	var found *SuperIdempotenceViolation[T]
	EnumMultisets(domain, cmp, 1, maxSize, func(x ms.Multiset[T]) bool {
		fx := f.Apply(x)
		if !eq(fx, f.Apply(fx)) {
			found = &SuperIdempotenceViolation[T]{
				X: x, Y: ms.New(cmp), Direct: fx, ViaLocalF: f.Apply(fx),
			}
			return false
		}
		for _, v := range domain {
			direct := f.Apply(x.Add(v))
			via := f.Apply(fx.Add(v))
			if !eq(direct, via) {
				found = &SuperIdempotenceViolation[T]{
					X: x, Y: ms.New(cmp, v), Direct: direct, ViaLocalF: via,
				}
				return false
			}
		}
		return true
	})
	return found
}

// --- Local-to-global checkers ((7) and (10)) ---

// L2GViolation is a counterexample to the local-to-global property (10):
// two disjoint groups each take a D-step, but the union transition is not
// a D-step.
type L2GViolation[T any] struct {
	// Group B's transition.
	B, BAfter ms.Multiset[T]
	// Group C's transition.
	C, CAfter ms.Multiset[T]
	// h on the union before and after.
	HBefore, HAfter float64
	// ConservedF reports whether f was conserved on the union (it always
	// is when f is super-idempotent; false indicates an f-level failure).
	ConservedF bool
}

// Error renders the counterexample.
func (v *L2GViolation[T]) Error() string {
	return fmt.Sprintf("local-to-global violated: B %v→%v, C %v→%v, h(union) %g→%g, f conserved: %v",
		v.B, v.BAfter, v.C, v.CAfter, v.HBefore, v.HAfter, v.ConservedF)
}

// StepGen produces a random valid local D-step for a group: a (before,
// after) pair with f conserved and h strictly decreased, or before==after
// when the group cannot move. It is supplied by each problem's tests.
type StepGen[T any] func(rng *rand.Rand) (before, after ms.Multiset[T])

// CheckLocalToGlobal draws trials pairs of independent group steps from
// genB and genC and verifies (10): if both local transitions are D-steps,
// the union transition is a D-step. hEps as in CheckDStep. It returns nil
// or the first counterexample — for the paper's Fig. 1 variant the
// counterexample comes out in a handful of trials.
func CheckLocalToGlobal[T any](f Function[T], h Variant[T],
	eq func(a, b ms.Multiset[T]) bool, genB, genC StepGen[T],
	trials int, hEps float64, rng *rand.Rand) *L2GViolation[T] {
	for i := 0; i < trials; i++ {
		b0, b1 := genB(rng)
		c0, c1 := genC(rng)
		// Both local steps must be D-steps; skip malformed draws.
		if !CheckDStep(f, h, eq, b0, b1, hEps).OK || !CheckDStep(f, h, eq, c0, c1, hEps).OK {
			continue
		}
		// Skip double stutters: the union is trivially a stutter.
		if eq(b0, b1) && eq(c0, c1) {
			continue
		}
		u0, u1 := b0.Union(c0), b1.Union(c1)
		verdict := CheckDStep(f, h, eq, u0, u1, hEps)
		if !verdict.OK {
			return &L2GViolation[T]{
				B: b0, BAfter: b1, C: c0, CAfter: c1,
				HBefore: h.Value(u0), HAfter: h.Value(u1),
				ConservedF: verdict.ConservesF,
			}
		}
	}
	return nil
}

// CheckVariantContextMonotone checks the sufficient condition of the §3.5
// theorem for h: for f-conserving transitions X → X' with h(X') < h(X),
// adding any single element v preserves the strict decrease:
// h(X' ∪ {v}) < h(X ∪ {v}). Summation-form variants satisfy it trivially;
// the Fig. 1 out-of-order-pairs variant does not.
func CheckVariantContextMonotone[T any](h Variant[T], gen StepGen[T],
	genV ElemGen[T], cmp ms.Cmp[T], trials int, hEps float64, rng *rand.Rand) *L2GViolation[T] {
	for i := 0; i < trials; i++ {
		x0, x1 := gen(rng)
		if !(h.Value(x1) < h.Value(x0)-hEps) {
			continue // not a proper improvement; skip
		}
		v := genV(rng)
		u0, u1 := x0.Add(v), x1.Add(v)
		if !(h.Value(u1) < h.Value(u0)-hEps) {
			return &L2GViolation[T]{
				B: x0, BAfter: x1,
				C: ms.New(cmp, v), CAfter: ms.New(cmp, v),
				HBefore: h.Value(u0), HAfter: h.Value(u1),
				ConservedF: true,
			}
		}
	}
	return nil
}

// ExactEqual returns the default multiset-equality predicate (the
// comparison function decides identity). Geometry problems substitute a
// tolerance-aware predicate.
func ExactEqual[T any]() func(a, b ms.Multiset[T]) bool {
	return func(a, b ms.Multiset[T]) bool { return a.Equal(b) }
}
