package graph

import (
	"math/rand"
	"reflect"
	"repro/internal/bitset"
	"testing"
)

// TestComponentsIntoMatchesComponents cross-checks the scratch-reusing
// partition against the allocating reference on random graphs and masks,
// reusing ONE scratch across every query — the engine's per-round usage.
func TestComponentsIntoMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cs ComponentScratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		g := ConnectedErdosRenyi(n, 0.3, rng)
		edgeUp, edgeAll := make([]bool, g.M()), make([]bool, g.M())
		agentUp, agentAll := make([]bool, g.N()), make([]bool, g.N())
		for i := range edgeUp {
			edgeUp[i] = rng.Float64() < 0.6
			edgeAll[i] = true
		}
		for i := range agentUp {
			agentUp[i] = rng.Float64() < 0.8
			agentAll[i] = true
		}
		for _, masks := range []struct{ e, a []bool }{
			{edgeUp, agentUp}, {edgeAll, agentUp}, {edgeUp, agentAll}, {edgeAll, agentAll},
		} {
			eb, ab := bitset.FromBools(masks.e), bitset.FromBools(masks.a)
			want := g.Components(eb, ab)
			got := g.ComponentsInto(eb, ab, &cs)
			// Compare as [][]int values (got aliases scratch, so compare
			// before the next query, which invalidates it).
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d components, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d component %d: %v, want %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestComponentsEmptyGraph(t *testing.T) {
	g, err := New("empty", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Components(bitset.New(0), bitset.New(0)); len(got) != 0 {
		t.Fatalf("empty graph components = %v", got)
	}
	var cs ComponentScratch
	if got := g.ComponentsInto(bitset.New(0), bitset.New(0), &cs); len(got) != 0 {
		t.Fatalf("empty graph ComponentsInto = %v", got)
	}
}
