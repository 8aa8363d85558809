package graph

import (
	"math/rand"
	"repro/internal/bitset"
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	if NewEdge(5, 2) != (Edge{2, 5}) {
		t.Error("edge not canonicalized")
	}
	if NewEdge(2, 5) != (Edge{2, 5}) {
		t.Error("canonical edge changed")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 3, []Edge{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := New("bad", 3, []Edge{{0, 3}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := New("bad", 3, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
	if _, err := New("bad", -1, nil); err == nil {
		t.Error("negative n accepted")
	}
	g, err := New("ok", 3, []Edge{{2, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Canonical order: (0,1) then (0,2).
	if g.Edge(0) != (Edge{0, 1}) || g.Edge(1) != (Edge{0, 2}) {
		t.Errorf("edges not sorted: %v", g.Edges())
	}
}

func TestLine(t *testing.T) {
	g := Line(5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("line(5): n=%d m=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Error("line not connected")
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("line(5) diameter = %d, want 4", d)
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Error("line degrees wrong")
	}
	if Line(1).M() != 0 || Line(0).N() != 0 {
		t.Error("tiny lines wrong")
	}
}

func TestRing(t *testing.T) {
	g := Ring(6)
	if g.M() != 6 {
		t.Errorf("ring(6) m = %d", g.M())
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("ring degree(%d) = %d", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 3 {
		t.Errorf("ring(6) diameter = %d, want 3", d)
	}
	if Ring(2).M() != 1 {
		t.Error("ring(2) should degrade to line")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.M() != 10 {
		t.Errorf("K5 m = %d", g.M())
	}
	if d := g.Diameter(); d != 1 {
		t.Errorf("K5 diameter = %d", d)
	}
}

func TestStarAndGrid(t *testing.T) {
	s := Star(5)
	if s.M() != 4 || s.Degree(0) != 4 || s.Degree(3) != 1 {
		t.Errorf("star(5) wrong: m=%d", s.M())
	}
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Errorf("grid n = %d", g.N())
	}
	// Edges: 3*3 horizontal + 2*4 vertical = 17.
	if g.M() != 17 {
		t.Errorf("grid(3,4) m = %d, want 17", g.M())
	}
	if d := g.Diameter(); d != 5 {
		t.Errorf("grid(3,4) diameter = %d, want 5", d)
	}
}

func TestEdgeID(t *testing.T) {
	g := Ring(5)
	for i, e := range g.Edges() {
		id, ok := g.EdgeID(e.B, e.A) // reversed on purpose
		if !ok || id != i {
			t.Errorf("EdgeID(%v) = %d,%v want %d", e, id, ok, i)
		}
	}
	if _, ok := g.EdgeID(0, 2); ok {
		t.Error("phantom edge found")
	}
}

func TestNeighbors(t *testing.T) {
	g := Star(4)
	nb := g.Neighbors(0)
	if len(nb) != 3 {
		t.Fatalf("hub neighbors = %v", nb)
	}
	leaf := g.Neighbors(2)
	if len(leaf) != 1 || leaf[0] != 0 {
		t.Errorf("leaf neighbors = %v", leaf)
	}
}

func TestComponentsAllUp(t *testing.T) {
	g := Line(4)
	comps := g.Components(bitset.Set{}, bitset.Set{})
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Errorf("components = %v", comps)
	}
}

func TestComponentsEdgeMask(t *testing.T) {
	g := Line(4) // edges: 0-1, 1-2, 2-3
	mask := []bool{true, false, true}
	comps := g.Components(bitset.FromBools(mask), bitset.Set{})
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if comps[0][0] != 0 || comps[0][1] != 1 || comps[1][0] != 2 || comps[1][1] != 3 {
		t.Errorf("components = %v", comps)
	}
}

func TestComponentsAgentDown(t *testing.T) {
	g := Line(3) // 0-1, 1-2
	agentUp := []bool{true, false, true}
	comps := g.Components(bitset.Set{}, bitset.FromBools(agentUp))
	// Agent 1 down: all three are singletons (down agents form their own
	// groups; edges through them are unusable).
	if len(comps) != 3 {
		t.Errorf("components = %v", comps)
	}
}

func TestComponentsDeterministicOrder(t *testing.T) {
	g := Complete(6)
	mask := make([]bool, g.M())
	// Enable only 4—5.
	id, _ := g.EdgeID(4, 5)
	mask[id] = true
	comps := g.Components(bitset.FromBools(mask), bitset.Set{})
	if len(comps) != 5 {
		t.Fatalf("components = %v", comps)
	}
	for i := 0; i < 4; i++ {
		if len(comps[i]) != 1 || comps[i][0] != i {
			t.Errorf("component %d = %v", i, comps[i])
		}
	}
	last := comps[4]
	if len(last) != 2 || last[0] != 4 || last[1] != 5 {
		t.Errorf("merged component = %v", last)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g, err := New("two islands", 4, []Edge{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if d := g.Diameter(); d != -1 {
		t.Errorf("diameter = %d, want -1", d)
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyi(20, 0, rng)
	if g.M() != 0 {
		t.Error("G(n,0) has edges")
	}
	g = ErdosRenyi(20, 1, rng)
	if g.M() != 190 {
		t.Errorf("G(20,1) m = %d", g.M())
	}
}

func TestConnectedErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := ConnectedErdosRenyi(15, 0.05, rng) // sparse: forces fallback sometimes
		if !g.Connected() {
			t.Fatalf("trial %d: not connected", trial)
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos := GeometricPositions(25, rng)
	if len(pos) != 25 {
		t.Fatal("positions count")
	}
	g1 := RandomGeometric(pos, 0.0)
	if g1.M() != 0 {
		t.Error("r=0 graph has edges")
	}
	g2 := RandomGeometric(pos, 2.0) // unit square: everything within √2
	if g2.M() != 300 {
		t.Errorf("r=2 graph m = %d, want 300", g2.M())
	}
	// Monotonicity in r.
	ga := RandomGeometric(pos, 0.2)
	gb := RandomGeometric(pos, 0.4)
	if ga.M() > gb.M() {
		t.Error("edge count not monotone in radius")
	}
}

func TestEdgesReturnsCopy(t *testing.T) {
	g := Line(3)
	es := g.Edges()
	es[0] = Edge{9, 9}
	if g.Edge(0) == (Edge{9, 9}) {
		t.Error("Edges aliases internal storage")
	}
}

// Property: the components under any mask partition the vertex set.
func TestPropComponentsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(2+r.Intn(12), 0.4, r)
		mask := make([]bool, g.M())
		for i := range mask {
			mask[i] = rng.Float64() < 0.5
		}
		agentUp := make([]bool, g.N())
		for i := range agentUp {
			agentUp[i] = rng.Float64() < 0.8
		}
		comps := g.Components(bitset.FromBools(mask), bitset.FromBools(agentUp))
		seen := make(map[int]bool)
		for _, comp := range comps {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return len(seen) == g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: enabling more edges never increases the number of components.
func TestPropComponentsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		g := ErdosRenyi(3+rng.Intn(10), 0.5, rng)
		mask := make([]bool, g.M())
		for i := range mask {
			mask[i] = rng.Float64() < 0.3
		}
		before := len(g.Components(bitset.FromBools(mask), bitset.Set{}))
		// Enable one more edge (if any disabled).
		for i := range mask {
			if !mask[i] {
				mask[i] = true
				break
			}
		}
		after := len(g.Components(bitset.FromBools(mask), bitset.Set{}))
		if after > before {
			t.Fatalf("trial %d: components grew %d -> %d", trial, before, after)
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(3)
	if g.N() != 8 || g.M() != 12 {
		t.Fatalf("Q3: n=%d m=%d, want 8/12", g.N(), g.M())
	}
	for v := 0; v < 8; v++ {
		if g.Degree(v) != 3 {
			t.Errorf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 3 {
		t.Errorf("Q3 diameter = %d, want 3", d)
	}
	if g0 := Hypercube(0); g0.N() != 1 || g0.M() != 0 {
		t.Error("Q0 wrong")
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 5)
	if g.N() != 20 || g.M() != 40 {
		t.Fatalf("torus: n=%d m=%d, want 20/40", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Errorf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if !g.Connected() {
		t.Error("torus disconnected")
	}
	// Degenerate small torus: duplicate wrap edges must collapse.
	g2 := Torus(2, 2)
	if g2.N() != 4 || !g2.Connected() {
		t.Errorf("2x2 torus wrong: m=%d", g2.M())
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(7)
	if g.M() != 6 || !g.Connected() {
		t.Fatalf("btree(7): m=%d", g.M())
	}
	if g.Degree(0) != 2 {
		t.Errorf("root degree = %d", g.Degree(0))
	}
	// Leaves have degree 1.
	for v := 3; v < 7; v++ {
		if g.Degree(v) != 1 {
			t.Errorf("leaf %d degree = %d", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("btree(7) diameter = %d, want 4", d)
	}
	if BinaryTree(1).M() != 0 {
		t.Error("single-node tree has edges")
	}
}
