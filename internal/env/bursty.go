package env

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// MarkovLinks is bursty link churn: each edge is an independent two-state
// (up/down) Markov chain with transition probabilities PUpToDown and
// PDownToUp per round. Unlike EdgeChurn's i.i.d. availability, outages are
// *correlated in time* — long good stretches and long bad stretches with
// the same average availability — which is the realistic wireless-fading
// model the paper's motivation (§1.1) describes. Every edge has positive
// probability of recovery, so assumption (2) holds almost surely.
type MarkovLinks struct {
	g *graph.Graph
	// PUpToDown and PDownToUp are the per-round transition probabilities.
	PUpToDown, PDownToUp float64

	inited bool
	buf    stateBuf
}

// NewMarkovLinks builds a bursty-churn environment. The stationary
// availability is PDownToUp / (PUpToDown + PDownToUp).
func NewMarkovLinks(g *graph.Graph, pUpToDown, pDownToUp float64) *MarkovLinks {
	return &MarkovLinks{g: g, PUpToDown: pUpToDown, PDownToUp: pDownToUp}
}

// StationaryAvailability returns the long-run fraction of time each edge
// is up.
func (e *MarkovLinks) StationaryAvailability() float64 {
	d := e.PUpToDown + e.PDownToUp
	if d == 0 {
		return 1
	}
	return e.PDownToUp / d
}

// Name implements Environment.
func (e *MarkovLinks) Name() string {
	return fmt.Sprintf("markov-links(↓%.2f ↑%.2f, avail %.2f)",
		e.PUpToDown, e.PDownToUp, e.StationaryAvailability())
}

// Graph implements Environment.
func (e *MarkovLinks) Graph() *graph.Graph { return e.g }

// Step implements Environment. The chain state lives directly in the
// state buffer, which each round's transition loop repairs in place.
func (e *MarkovLinks) Step(_ int, rng *rand.Rand) State {
	m := e.g.M()
	var s State
	if !e.inited {
		s = e.buf.allUp(e.g)
		avail := e.StationaryAvailability()
		for i := 0; i < m; i++ {
			s.EdgeUp.SetTo(i, rng.Float64() < avail)
		}
		e.inited = true
	} else {
		s = e.buf.s
	}
	for i := 0; i < m; i++ {
		if s.EdgeUp.Get(i) {
			if rng.Float64() < e.PUpToDown {
				s.EdgeUp.Clear(i)
			}
		} else if rng.Float64() < e.PDownToUp {
			s.EdgeUp.Set(i)
		}
	}
	return s
}

// DayNight is deterministic periodic availability: during the "day"
// (DayRounds per period) all links are up; during the "night"
// (NightRounds) all links are down — duty-cycled radios, orbital contact
// windows. Assumption (2) holds with period DayRounds + NightRounds.
type DayNight struct {
	g *graph.Graph
	// DayRounds and NightRounds are the phase lengths.
	DayRounds, NightRounds int

	buf     stateBuf
	primed  bool
	prevDay bool
}

// NewDayNight builds the periodic environment.
func NewDayNight(g *graph.Graph, dayRounds, nightRounds int) *DayNight {
	if dayRounds < 1 {
		dayRounds = 1
	}
	if nightRounds < 0 {
		nightRounds = 0
	}
	return &DayNight{g: g, DayRounds: dayRounds, NightRounds: nightRounds}
}

// Name implements Environment.
func (e *DayNight) Name() string {
	return fmt.Sprintf("day-night(%d/%d)", e.DayRounds, e.NightRounds)
}

// Graph implements Environment.
func (e *DayNight) Graph() *graph.Graph { return e.g }

// Day reports whether the given round is a day round.
func (e *DayNight) Day(round int) bool {
	period := e.DayRounds + e.NightRounds
	return round%period < e.DayRounds
}

// Step implements Environment. Within a phase nothing changes; a phase
// transition rewrites the whole edge mask.
func (e *DayNight) Step(round int, _ *rand.Rand) State {
	day := e.Day(round)
	var s State
	switch {
	case !e.primed:
		if day {
			s = e.buf.allUp(e.g)
		} else {
			s = e.buf.edgesDown(e.g)
		}
		e.primed = true
	case day != e.prevDay:
		s = e.buf.s
		s.EdgeUp.FillValue(day)
	default:
		s = e.buf.s
	}
	e.prevDay = day
	return s
}

// Compose layers environments over the same graph: an edge is up only
// when every layer has it up, and an agent only when every layer has it
// up. Use it to combine, e.g., bursty links with power-lossy agents.
type Compose struct {
	layers []Environment
	out    State
}

// NewCompose builds the conjunction of the given environments, which must
// all be over the same graph (checked).
func NewCompose(layers ...Environment) (*Compose, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("env: Compose needs at least one layer")
	}
	g := layers[0].Graph()
	for _, l := range layers[1:] {
		if l.Graph() != g {
			return nil, fmt.Errorf("env: Compose layers over different graphs (%s vs %s)",
				g.Name(), l.Graph().Name())
		}
	}
	return &Compose{layers: layers}, nil
}

// Name implements Environment.
func (e *Compose) Name() string {
	name := "compose("
	for i, l := range e.layers {
		if i > 0 {
			name += " ∧ "
		}
		name += l.Name()
	}
	return name + ")"
}

// Graph implements Environment.
func (e *Compose) Graph() *graph.Graph { return e.layers[0].Graph() }

// Step implements Environment. The conjunction is word-level AND over
// the layer masks.
func (e *Compose) Step(round int, rng *rand.Rand) State {
	first := e.layers[0].Step(round, rng)
	if e.out.EdgeUp.IsZero() {
		e.out = first.Clone()
	} else {
		e.out.EdgeUp.Copy(first.EdgeUp)
		e.out.AgentUp.Copy(first.AgentUp)
	}
	out := e.out
	for _, l := range e.layers[1:] {
		s := l.Step(round, rng)
		out.EdgeUp.And(s.EdgeUp)
		out.AgentUp.And(s.AgentUp)
	}
	return out
}

// ExpectedGapBound returns a crude upper bound on the expected number of
// rounds between availabilities of a single edge under MarkovLinks —
// 1/PDownToUp — useful for sizing MaxRounds in experiments. Returns +Inf
// when recovery is impossible (PDownToUp = 0, violating (2)).
func (e *MarkovLinks) ExpectedGapBound() float64 {
	if e.PDownToUp <= 0 {
		return math.Inf(1)
	}
	return 1 / e.PDownToUp
}
