package problems

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	ms "repro/internal/multiset"
)

// HullState is the agent state for the §4.5 convex-hull problem: the
// agent's fixed coordinates plus its current hull estimate Va (a set of
// points, stored as the hull polygon). Initially Va = {(Xa, Ya)}.
type HullState struct {
	Home geom.Point
	V    []geom.Point // convex hull of the points the agent knows, CCW
}

// String renders the state compactly.
func (s HullState) String() string {
	return fmt.Sprintf("agent@%v hull|%d|", s.Home, len(s.V))
}

// CompareHullStates orders hull states canonically (home point, hull size,
// then lexicographic hull vertices). Exact float comparison is fine for a
// canonical order; semantic equality is tolerance-based via Hull.Equal.
func CompareHullStates(a, b HullState) int {
	if c := geom.ComparePoints(a.Home, b.Home); c != 0 {
		return c
	}
	if len(a.V) != len(b.V) {
		return len(a.V) - len(b.V)
	}
	// Compare vertex multisets in canonical order.
	as, bs := canonicalVertices(a.V), canonicalVertices(b.V)
	for i := range as {
		if c := geom.ComparePoints(as[i], bs[i]); c != 0 {
			return c
		}
	}
	return 0
}

func canonicalVertices(v []geom.Point) []geom.Point {
	out := make([]geom.Point, len(v))
	copy(out, v)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && geom.ComparePoints(out[j], out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// HullF is the paper's generalized f: every agent's V becomes the convex
// hull of the union of all points in the V sets of the multiset. It is
// super-idempotent: the hull of all points equals the hull of (hull of a
// subset) ∪ (remaining points) — the geometric argument of Fig. 3.
func HullF() core.Function[HullState] {
	return core.FuncOf("convex-hull", func(x ms.Multiset[HullState]) ms.Multiset[HullState] {
		if x.IsEmpty() {
			return x
		}
		var pts []geom.Point
		x.ForEach(func(s HullState) { pts = append(pts, s.V...) })
		merged := geom.ConvexHull(pts)
		return x.Map(func(s HullState) HullState {
			return HullState{Home: s.Home, V: merged}
		})
	})
}

// Hull is the §4.5 problem: agents compute the convex hull of all agent
// positions; the circumscribing circle of the point set is then obtained
// from any converged agent's hull via geom.EnclosingCircle. h(S) =
// |A|·P − Σ perimeter(Va) with P the global hull perimeter — summation
// form with a global constant, exactly as the paper defines it; its range
// is the finite set of perimeters of hulls of subsets of the initial
// points, hence well-founded.
type Hull struct {
	// P is the perimeter of the global convex hull (the paper's constant).
	P float64
	// N is the number of agents (the |A| in the variant).
	N int
	// Tol is the geometric tolerance for equality checks.
	Tol float64
}

// NewHull returns the convex-hull problem for agents at the given points.
func NewHull(points []geom.Point) *Hull {
	return &Hull{
		P:   geom.Perimeter(geom.ConvexHull(points)),
		N:   len(points),
		Tol: 1e-7,
	}
}

// Name implements core.Problem.
func (*Hull) Name() string { return "convex-hull" }

// Cmp implements core.Problem.
func (*Hull) Cmp() ms.Cmp[HullState] { return CompareHullStates }

// Requirement implements core.Problem.
func (*Hull) Requirement() core.Requirement { return core.AnyConnected }

// Equal implements core.Problem: same homes and same hulls within Tol,
// compared in canonical order.
func (p *Hull) Equal(a, b ms.Multiset[HullState]) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		sa, sb := a.At(i), b.At(i)
		if !sa.Home.Near(sb.Home, p.Tol) {
			return false
		}
		if !geom.SamePointSet(sa.V, sb.V, p.Tol) {
			return false
		}
	}
	return true
}

// F implements core.Problem.
func (*Hull) F() core.Function[HullState] { return HullF() }

// H implements core.Problem: h(S) = |A|·P − Σ perimeter(Va).
func (p *Hull) H() core.Variant[HullState] {
	total := float64(p.N) * p.P
	return core.VariantOf[HullState]("|A|·P−Σperim", func(x ms.Multiset[HullState]) float64 {
		sum := 0.0
		x.ForEach(func(s HullState) { sum += geom.Perimeter(s.V) })
		return total - sum
	})
}

// GroupStep implements core.Problem: the group merges its hulls; every
// member adopts the merged hull (the paper also allows one-sided updates,
// which PairStep exercises when OneSided is requested via the rng —
// see PairStep).
func (*Hull) GroupStep(states []HullState, _ *rand.Rand) []HullState {
	var pts []geom.Point
	for _, s := range states {
		pts = append(pts, s.V...)
	}
	merged := geom.ConvexHull(pts)
	out := make([]HullState, len(states))
	for i, s := range states {
		out[i] = HullState{Home: s.Home, V: merged}
	}
	return out
}

// PairStep implements core.Problem: both members adopt the merged hull.
// (One-sided updates — an agent updating on message receipt without the
// sender changing, per §4.5 — are also valid D-steps; the asynchronous
// runtime exercises them.)
func (p *Hull) PairStep(a, b HullState, rng *rand.Rand) (HullState, HullState) {
	s := p.GroupStep([]HullState{a, b}, rng)
	return s[0], s[1]
}

// InitialHulls builds the §4.5 initial state: V(0) = {(Xa, Ya)}.
func InitialHulls(points []geom.Point) []HullState {
	out := make([]HullState, len(points))
	for i, pt := range points {
		out[i] = HullState{Home: pt, V: []geom.Point{pt}}
	}
	return out
}

// Circumcircle recovers the paper's original goal from a converged hull
// state: the smallest circle containing all the points.
func Circumcircle(s HullState) geom.Circle { return geom.EnclosingCircle(s.V) }

// --- The naive circle function (Fig. 2 negative example) ---

// CircleState is the agent state for the naive circumscribing-circle
// function: fixed coordinates plus the agent's current circle estimate
// (x, y, r). Initially the estimate is the agent's own position with
// radius 0 — the 5-tuple (Xa, Ya, x, y, r) of §4.5.
type CircleState struct {
	Home geom.Point
	Est  geom.Circle
}

// String renders the state.
func (s CircleState) String() string { return fmt.Sprintf("agent@%v est=%v", s.Home, s.Est) }

// CompareCircleStates orders circle states canonically.
func CompareCircleStates(a, b CircleState) int {
	if c := geom.ComparePoints(a.Home, b.Home); c != 0 {
		return c
	}
	if c := geom.ComparePoints(a.Est.C, b.Est.C); c != 0 {
		return c
	}
	switch {
	case a.Est.R < b.Est.R:
		return -1
	case a.Est.R > b.Est.R:
		return 1
	default:
		return 0
	}
}

// CircumcircleNaiveF is the paper's Fig. 2 function: every estimate
// becomes the smallest circle containing all the estimates in the
// multiset. It is idempotent but NOT super-idempotent — the Fig. 2
// configuration (three points whose circumscribing circle does not
// contain the information needed when a fourth point arrives) is verified
// in tests and by cmd/figures — so the self-similar strategy cannot be
// applied to it; Hull is the paper's working generalization.
func CircumcircleNaiveF() core.Function[CircleState] {
	return core.FuncOf("circumcircle-naive", func(x ms.Multiset[CircleState]) ms.Multiset[CircleState] {
		if x.IsEmpty() {
			return x
		}
		circles := make([]geom.Circle, 0, x.Len())
		x.ForEach(func(s CircleState) { circles = append(circles, s.Est) })
		enc := geom.EnclosingCircleOfCircles(circles)
		return x.Map(func(s CircleState) CircleState {
			return CircleState{Home: s.Home, Est: enc}
		})
	})
}

// InitialCircles builds the Fig. 2 initial state: each agent's estimate
// is a radius-0 circle at its own position.
func InitialCircles(points []geom.Point) []CircleState {
	out := make([]CircleState, len(points))
	for i, pt := range points {
		out[i] = CircleState{Home: pt, Est: geom.Circle{C: pt, R: 0}}
	}
	return out
}

// CircleStatesEqual is the tolerance-aware multiset equality for circle
// states, used by the super-idempotence checkers.
func CircleStatesEqual(tol float64) func(a, b ms.Multiset[CircleState]) bool {
	return func(a, b ms.Multiset[CircleState]) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			sa, sb := a.At(i), b.At(i)
			if !sa.Home.Near(sb.Home, tol) || !sa.Est.Near(sb.Est, tol) {
				return false
			}
		}
		return true
	}
}

// HullStatesEqual is the tolerance-aware multiset equality for hull
// states, used by the super-idempotence checkers.
func HullStatesEqual(tol float64) func(a, b ms.Multiset[HullState]) bool {
	return func(a, b ms.Multiset[HullState]) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			sa, sb := a.At(i), b.At(i)
			if !sa.Home.Near(sb.Home, tol) || !geom.SamePointSet(sa.V, sb.V, tol) {
				return false
			}
		}
		return true
	}
}

// Fig2Configuration returns a four-point configuration exhibiting the
// paper's Fig. 2: with B = the first three agents and C = the fourth,
// f(S_B ∪ S_C) ≠ f(f(S_B) ∪ S_C) for the naive circle function. The
// geometry mirrors the figure: three points whose circumscribing circle
// is centered away from a fourth, distant point, so circumscribing the
// circle-plus-point differs from circumscribing the four points.
func Fig2Configuration() []geom.Point {
	return []geom.Point{
		{X: 0, Y: 1},   // 1
		{X: 0, Y: -1},  // 2
		{X: 0.9, Y: 0}, // 3
		{X: 4, Y: 0},   // 4 (far to the right)
	}
}
