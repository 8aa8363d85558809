package env

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// boolProbe is the pre-bitset reference: it retains the full []bool
// mask history and answers every FairnessProbe query by a naive O(rounds)
// scan. The bitset probe's word-diff Observe must agree with it exactly —
// same fractions, same gap semantics (gaps measured between consecutive up-round indices, the
// still-open gap folded in), same starvation verdicts.
type boolProbe struct {
	m       int
	history [][]bool // history[r][id]
}

func (p *boolProbe) observe(mask []bool) {
	p.history = append(p.history, slices.Clone(mask))
}

func (p *boolProbe) up(r, id int) bool { return p.history[r][id] }

func (p *boolProbe) upFraction(id int) float64 {
	if len(p.history) == 0 {
		return 0
	}
	n := 0
	for r := range p.history {
		if p.up(r, id) {
			n++
		}
	}
	return float64(n) / float64(len(p.history))
}

func (p *boolProbe) maxGap(id int) int {
	gap, lastUp := 0, 0
	for r := range p.history {
		if p.up(r, id) {
			if g := (r + 1) - lastUp; g > gap {
				gap = g
			}
			lastUp = r + 1
		}
	}
	if lastUp < len(p.history) {
		if open := len(p.history) - lastUp; open > gap {
			gap = open
		}
	}
	return gap
}

func (p *boolProbe) starved(id int) bool {
	for r := range p.history {
		if p.up(r, id) {
			return false
		}
	}
	return true
}

// TestFairnessProbeMatchesBoolReference drives the word-diff Observe probe
// and the []bool reference over the same mask sequences (random masks
// with occasional absent rounds, plus the starvation-prone sticky Markov
// model) on the golden-matrix seeds, comparing every accessor for every
// edge at several checkpoints.
func TestFairnessProbeMatchesBoolReference(t *testing.T) {
	g := graph.Torus(4, 5)
	m := g.M()
	checkpoints := map[int]bool{1: true, 7: true, 50: true, 120: true}

	check := func(t *testing.T, round int, p *FairnessProbe, ref *boolProbe) {
		t.Helper()
		for id := 0; id < m; id++ {
			if a, c := p.UpFraction(id), ref.upFraction(id); a != c {
				t.Fatalf("round %d edge %d: UpFraction probe=%v ref=%v", round, id, a, c)
			}
			if a, c := p.MaxGap(id), ref.maxGap(id); a != c {
				t.Fatalf("round %d edge %d: MaxGap probe=%v ref=%v", round, id, a, c)
			}
		}
		want := map[int]bool{}
		for id := 0; id < m; id++ {
			if ref.starved(id) {
				want[id] = true
			}
		}
		got := p.Starved()
		if len(got) != len(want) {
			t.Fatalf("round %d: Starved() = %v, want %d ids", round, got, len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("round %d: Starved() reports %d, reference disagrees", round, id)
			}
		}
	}

	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		probe := NewFairnessProbe(m)
		ref := &boolProbe{m: m}
		prev := make([]bool, m) // the previous round's mask; initially all down
		for round := 1; round <= 120; round++ {
			mask := make([]bool, m)
			switch rng.Intn(5) {
			case 0: // everything up
				for i := range mask {
					mask[i] = true
				}
			case 1: // sticky: keep most of the previous round's mask
				copy(mask, prev)
				for k := 0; k < 2; k++ {
					id := rng.Intn(m)
					mask[id] = !mask[id]
				}
			default:
				for i := range mask {
					// Edge 0 starves until late: never up before round 90.
					mask[i] = rng.Float64() < 0.6 && (i != 0 || round > 90)
				}
			}
			copy(prev, mask)

			probe.Observe(State{EdgeUp: bitset.FromBools(mask)})
			ref.observe(mask)
			if probe.Rounds() != round {
				t.Fatalf("round accounting: probe=%d want %d", probe.Rounds(), round)
			}
			if checkpoints[round] {
				check(t, round, probe, ref)
			}
		}
		check(t, 120, probe, ref)
	}
}
