package engine

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	ms "repro/internal/multiset"
	"repro/internal/problems"
)

func TestPoolCoversEveryIndexExactlyOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	p := NewPool(4, 1)
	defer p.Close()
	const n = 1000
	var hits [n]atomic.Int32
	for batch := 0; batch < 10; batch++ {
		for i := range hits {
			hits[i].Store(0)
		}
		p.Do(n, func(worker, i int) {
			if worker < 0 || worker >= p.Size() {
				t.Errorf("worker %d out of range [0,%d)", worker, p.Size())
			}
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("batch %d: index %d executed %d times, want 1", batch, i, got)
			}
		}
	}
}

func TestPoolRunsSeriallyBelowThreshold(t *testing.T) {
	p := NewPool(4, 100)
	defer p.Close()
	var order []int
	p.Do(10, func(worker, i int) {
		if worker != 0 {
			t.Errorf("below-threshold batch ran on worker %d, want 0", worker)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("serial batch out of order: %v", order)
		}
	}
}

func TestPoolWorkerScratchNeverShared(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	p := NewPool(4, 1)
	defer p.Close()
	// One counter per worker slot, incremented non-atomically: the race
	// detector (tests run with -race in CI) fails this test if two
	// concurrent callbacks ever share a worker index.
	scratch := make([]int, p.Size())
	p.Do(500, func(worker, i int) { scratch[worker]++ })
	total := 0
	for _, c := range scratch {
		total += c
	}
	if total != 500 {
		t.Fatalf("scratch total = %d, want 500", total)
	}
}

func TestPoolCloseWithoutUse(t *testing.T) {
	p := NewPool(2, 1)
	p.Close() // must not panic or leak
}

// observeOneShard runs ObserveRound over a one-shard layout of vals.
func observeOneShard(m *Monitor[int], round int, vals ...int) float64 {
	return m.ObserveRound(round, NewShards(ms.OrderedCmp[int](), vals, 1).View())
}

func TestMonitorCleanRound(t *testing.T) {
	p := problems.NewMin()
	initial := ms.OfInts(3, 1, 2)
	m := NewMonitor[int](p, initial, 0)
	if !m.Target().Equal(ms.OfInts(1, 1, 1)) {
		t.Fatalf("target = %v, want {1, 1, 1}", m.Target())
	}
	h := observeOneShard(m, 0, 1, 1, 2)
	if len(m.Violations()) != 0 {
		t.Fatalf("clean round produced violations: %v", m.Violations())
	}
	if h <= 0 {
		t.Fatalf("h = %g, want positive while unconverged", h)
	}
}

// TestMonitorFlagsConservationAndDescent: a bad round is flagged with
// both messages, and a final-state observation (the async engine's one
// ObserveRound, at its epoch index) passes when clean and is flagged when
// it does not conserve.
func TestMonitorFlagsConservationAndDescent(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
	observeOneShard(m, 0, 5, 5, 5) // f changed AND h grew
	v := m.Violations()
	if len(v) != 2 {
		t.Fatalf("violations = %v, want conservation + variant", v)
	}
	if !strings.Contains(v[0], "round 0: conservation law violated") {
		t.Errorf("conservation message = %q", v[0])
	}
	if !strings.Contains(v[1], "round 0: variant increased") {
		t.Errorf("variant message = %q", v[1])
	}

	for _, tc := range []struct {
		final []int
		want  int
	}{
		{[]int{1, 1, 1}, 0}, // clean final view
		{[]int{2, 2, 2}, 1}, // f(S) ≠ S*; h(S) = 6 ≤ h(S(0))
	} {
		m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
		m.ObserveRound(7, ms.OfInts(tc.final...))
		if v := m.Violations(); len(v) != tc.want {
			t.Errorf("final %v: violations = %v, want %d", tc.final, v, tc.want)
		} else if tc.want > 0 && !strings.Contains(v[0], "round 7: conservation law violated") {
			t.Errorf("final %v: message = %q", tc.final, v[0])
		}
	}
}

func TestMonitorCheckFrozen(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
	cmp := func(a, b int) int { return a - b }
	want := []int{3, 1, 2}
	// Frozen agents whose states are untouched: clean.
	m.CheckFrozen(4, cmp, []int{0, 2}, want, []int{3, 9, 2})
	if len(m.Violations()) != 0 {
		t.Fatalf("intact frozen states flagged: %v", m.Violations())
	}
	// A frozen agent whose state drifted: violation naming agent & round.
	m.CheckFrozen(5, cmp, []int{0, 2}, want, []int{3, 9, 7})
	v := m.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "round 5: frozen agent 2") {
		t.Fatalf("violations = %v, want one naming round 5 / agent 2", v)
	}
}

func TestMonitorVerifyStep(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
	if v := m.VerifyStep(ms.OfInts(3, 1), ms.OfInts(1, 1)); !v.OK {
		t.Errorf("valid D-step rejected: %v", v)
	}
	if v := m.VerifyStep(ms.OfInts(3, 1), ms.OfInts(4, 1)); v.OK {
		t.Error("f-breaking step accepted")
	}
	m.AddViolation("group %v: %v", []int{0, 1}, "boom")
	if want := "group [0 1]: boom"; m.Violations()[0] != want {
		t.Errorf("AddViolation = %q, want %q", m.Violations()[0], want)
	}
}

// TestMonitorFirstReach pins the monitor's first-reach record: Reset
// records an initial state already at S* at index 0, ObserveRound records
// the first reach once at round+1 and later rounds never move it, Reached
// probes without recording, and AdmitJoin clears the record, extends the
// target and rebases h so a join that raises h is not a violation.
func TestMonitorFirstReach(t *testing.T) {
	p := problems.NewMin()
	type obs struct {
		round int
		state []int
	}
	for _, tc := range []struct {
		name    string
		initial []int
		rounds  []obs
		probe   []int // Reached(probe) must be true and record nothing
		join    []int // admitted after the rounds (nil = no join)
		after   []obs // observed after the join
		want    int
		wantOK  bool
		target  []int
	}{
		{name: "initial reach", initial: []int{1, 1}, want: 0, wantOK: true, target: []int{1, 1}},
		{name: "never reached", initial: []int{2, 1},
			rounds: []obs{{0, []int{2, 1}}, {1, []int{2, 1}}}, target: []int{1, 1}},
		{name: "first reach sticky", initial: []int{2, 1},
			rounds: []obs{{3, []int{2, 1}}, {4, []int{1, 1}}, {5, []int{1, 1}}},
			want:   5, wantOK: true, target: []int{1, 1}},
		{name: "probe records nothing", initial: []int{2, 1},
			probe: []int{1, 1}, rounds: []obs{{0, []int{2, 1}}}, target: []int{1, 1}},
		{name: "join clears and extends", initial: []int{2, 1},
			rounds: []obs{{0, []int{1, 1}}}, join: []int{0},
			target: []int{0, 0, 0}},
		{name: "join then reach", initial: []int{2, 1},
			rounds: []obs{{0, []int{1, 1}}}, join: []int{0},
			after: []obs{{1, []int{0, 1, 1}}, {2, []int{0, 0, 0}}},
			want:  3, wantOK: true, target: []int{0, 0, 0}},
		{name: "join raising h", initial: []int{1, 1},
			join:   []int{9},
			after:  []obs{{0, []int{1, 1, 9}}},
			target: []int{1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor[int](p, ms.OfInts(tc.initial...), 0)
			if tc.probe != nil && !m.Reached(ms.OfInts(tc.probe...)) {
				t.Fatal("Reached must report a state equal to the target")
			}
			state := tc.initial
			for _, o := range tc.rounds {
				m.ObserveRound(o.round, ms.OfInts(o.state...))
				state = o.state
			}
			if tc.join != nil {
				if _, ok := m.FirstReach(); !ok {
					t.Fatal("expected a reach before the join")
				}
				m.AdmitJoin(tc.join, ms.OfInts(append(slices.Clone(state), tc.join...)...))
				if _, ok := m.FirstReach(); ok {
					t.Fatal("AdmitJoin must clear the first-reach record")
				}
			}
			for _, o := range tc.after {
				m.ObserveRound(o.round, ms.OfInts(o.state...))
			}
			if got, ok := m.FirstReach(); got != tc.want || ok != tc.wantOK {
				t.Errorf("FirstReach = (%d, %v), want (%d, %v)", got, ok, tc.want, tc.wantOK)
			}
			if !m.Target().Equal(ms.OfInts(tc.target...)) {
				t.Errorf("target = %v, want %v", m.Target(), tc.target)
			}
			if v := m.Violations(); len(v) != 0 {
				t.Errorf("violations = %v, want none", v)
			}
		})
	}
}

func TestSeederMatchesRawStream(t *testing.T) {
	s := NewSeeder(42)
	want := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if got, w := s.GroupSeed(), want.Int63(); got != w {
			t.Fatalf("draw %d: GroupSeed = %d, want %d", i, got, w)
		}
	}
}

func TestAgentSeedsAreStable(t *testing.T) {
	// This derivation is part of the reproducibility contract shared with
	// the asynchronous scheduler: changing it silently reseeds every
	// recorded run.
	if got := AgentSeed(10, 3); got != 10+3*7919 {
		t.Errorf("AgentSeed(10, 3) = %d", got)
	}
	seen := map[int64]bool{}
	for a := 0; a < 64; a++ {
		s := AgentSeed(7, a)
		if seen[s] {
			t.Fatalf("agent seed collision at agent %d", a)
		}
		seen[s] = true
	}
}

// TestFastRandDeterministicReseed: a Reseed must restart the stream
// exactly as a fresh FastRand with the same seed would, and distinct
// seeds must give distinct streams — the property the per-group seeding
// discipline rests on.
func TestFastRandDeterministicReseed(t *testing.T) {
	f := NewFastRand(7)
	var first [8]int64
	for i := range first {
		first[i] = f.Int63()
	}
	f.Reseed(7)
	fresh := NewFastRand(7)
	for i := range first {
		a, b := f.Int63(), fresh.Int63()
		if a != first[i] || b != first[i] {
			t.Fatalf("draw %d: reseeded=%d fresh=%d recorded=%d", i, a, b, first[i])
		}
	}
	f.Reseed(8)
	if f.Int63() == first[0] {
		t.Error("seed 8 repeats seed 7's stream")
	}
	// Float64 stays in [0,1) through the Source64 path.
	for i := 0; i < 1000; i++ {
		if v := f.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g", v)
		}
	}
}
