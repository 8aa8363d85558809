package engine

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
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

// observeOneShard runs ObserveRound over a one-shard layout of vals, an
// arbitrary state no Stage call led to, so h is synced from it first (as
// sched does for its final state).
func observeOneShard(m *Monitor[int], round int, vals ...int) float64 {
	s := NewShards(ms.OrderedCmp[int](), vals, 1)
	m.SyncVariant(s.View())
	return m.ObserveRound(round, s)
}

func TestMonitorCleanRound(t *testing.T) {
	p := problems.NewMin()
	initial := ms.OfInts(3, 1, 2)
	m := NewMonitor[int](p, initial)
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
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2))
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
		m := NewMonitor[int](p, ms.OfInts(3, 1, 2))
		observeOneShard(m, 7, tc.final...)
		if v := m.Violations(); len(v) != tc.want {
			t.Errorf("final %v: violations = %v, want %d", tc.final, v, tc.want)
		} else if tc.want > 0 && !strings.Contains(v[0], "round 7: conservation law violated") {
			t.Errorf("final %v: message = %q", tc.final, v[0])
		}
	}
}

func TestMonitorCheckFrozen(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2))
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
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2))
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
			m := NewMonitor[int](p, ms.OfInts(tc.initial...))
			if tc.probe != nil && !m.Reached(ms.OfInts(tc.probe...)) {
				t.Fatal("Reached must report a state equal to the target")
			}
			state := tc.initial
			for _, o := range tc.rounds {
				observeOneShard(m, o.round, o.state...)
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
				observeOneShard(m, o.round, o.state...)
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

// consensusHidden embeds a problem's interface, which promotes every
// core.Problem method but not the core.Consensus declaration, so a
// Monitor built over it takes the full path.
type consensusHidden struct{ core.Problem[int] }

// TestMonitorConsensusPathMatchesFullPath drives a consensus-path monitor
// and a full-path one (the same problem with the declaration hidden)
// through the same Shards mutations, fault injections included. Round by
// round both must report identical violation strings, h values and
// first reaches; the full path is the oracle.
func TestMonitorConsensusPathMatchesFullPath(t *testing.T) {
	type delta struct{ agent, v int }
	type round struct {
		stage  []delta
		rebase bool  // amnesia: the round's stages are flushed and h rebased
		append []int // appended WITHOUT AdmitJoin; h is synced, the count breaks
		join   []int // appended and admitted through AdmitJoin
	}
	initial := []int{5, 3, 8, 3, 6, 4, 7, 9} // c* = 3, |S*| = 8
	for _, tc := range []struct {
		name   string
		rounds []round
		want   []string // substrings of the violations, in order
		reach  int      // FirstReach round, -1 for none
	}{
		{name: "staged value below c*",
			rounds: []round{{stage: []delta{{0, 1}}}, {}},
			want:   []string{"round 0: conservation", "round 1: conservation"}, reach: -1},
		{name: "append without AdmitJoin breaks the count",
			rounds: []round{{append: []int{3}}},
			want:   []string{"round 0: conservation", "round 0: variant increased 45 → 48"}, reach: -1},
		{name: "h-raising delta",
			rounds: []round{{stage: []delta{{0, 3}}}, {stage: []delta{{2, 9}}}},
			want:   []string{"round 1: variant increased 43 → 44"}, reach: -1},
		{name: "first reach",
			rounds: []round{
				{stage: []delta{{0, 3}, {2, 3}, {4, 3}}},
				{stage: []delta{{5, 3}, {6, 3}, {7, 3}}},
				{}},
			reach: 2},
		{name: "amnesia rebase",
			rounds: []round{
				{stage: []delta{{0, 3}, {2, 3}, {4, 3}, {5, 3}, {6, 3}, {7, 3}}},
				{stage: []delta{{2, 8}, {6, 7}}, rebase: true},
				{stage: []delta{{2, 3}}}},
			reach: 1},
		{name: "join",
			rounds: []round{
				{stage: []delta{{0, 3}, {2, 3}, {4, 3}, {5, 3}, {6, 3}, {7, 3}}},
				{join: []int{1, 2}},
				{stage: []delta{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {7, 1}, {9, 1}}}},
			reach: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool(1, 1)
			defer pool.Close()
			p := problems.NewMin()
			states := slices.Clone(initial)
			sh := NewShards(p.Cmp(), states, 2)
			fast := NewMonitor[int](p, sh.View())
			full := NewMonitor[int](consensusHidden{p}, sh.View())
			if _, _, ok := fast.ConsensusTarget(); !ok {
				t.Fatal("min's monitor is not on the consensus path")
			}
			if _, _, ok := full.ConsensusTarget(); ok {
				t.Fatal("the hidden declaration still selects the consensus path")
			}
			mons := [...]*Monitor[int]{fast, full}
			for r, rd := range tc.rounds {
				for _, d := range rd.stage {
					sh.Stage(d.agent, states[d.agent], d.v)
					for _, m := range mons {
						m.Stage(states[d.agent], d.v)
					}
					states[d.agent] = d.v
				}
				sh.Flush(pool)
				for _, m := range mons {
					if rd.rebase {
						m.RebaseVariant(sh.View())
					}
				}
				if rd.append != nil {
					states = append(states, rd.append...)
					sh.Append(rd.append)
					for _, m := range mons {
						m.SyncVariant(sh.View())
					}
				}
				if rd.join != nil {
					states = append(states, rd.join...)
					sh.Append(rd.join)
					for _, m := range mons {
						m.AdmitJoin(rd.join, sh.View())
					}
				}
				hF, hS := fast.ObserveRound(r, sh), full.ObserveRound(r, sh)
				if hF != hS {
					t.Fatalf("round %d: consensus h %g != full h %g", r, hF, hS)
				}
				if vF, vS := fast.Violations(), full.Violations(); !slices.Equal(vF, vS) {
					t.Fatalf("round %d: violations differ\nconsensus: %q\nfull:      %q", r, vF, vS)
				}
				rF, okF := fast.FirstReach()
				rS, okS := full.FirstReach()
				if rF != rS || okF != okS {
					t.Fatalf("round %d: FirstReach consensus (%d, %v) != full (%d, %v)", r, rF, okF, rS, okS)
				}
			}
			v := fast.Violations()
			if len(v) != len(tc.want) {
				t.Fatalf("violations = %q, want %d matching %q", v, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(v[i], w) {
					t.Errorf("violation %d = %q, want it to contain %q", i, v[i], w)
				}
			}
			got, ok := fast.FirstReach()
			if !ok {
				got = -1
			}
			if got != tc.reach {
				t.Errorf("FirstReach = %d, want %d", got, tc.reach)
			}
		})
	}
}

// TestGroupSeedKeyed: a group's seed is a pure function of (run seed,
// round, smallest member), factors through GroupRoundSeed, is distinct
// over a round × member grid, and never equals a dynamics per-round seed
// SubSeed(SubSeed(seed, tag), round) of the same run — the group family
// is tagged apart from it.
func TestGroupSeedKeyed(t *testing.T) {
	const dynamicsTag = 0x00d1_fa57 // internal/dynamics' seedTag
	for _, run := range []int64{0, 1, 42, -7} {
		seen := make(map[int64]bool, 64*1024)
		for round := 0; round < 64; round++ {
			seen[SubSeed(SubSeed(run, dynamicsTag), round)] = true
		}
		dynamicsSeeds := len(seen)
		for round := 0; round < 64; round++ {
			base := GroupRoundSeed(run, round)
			for member := 0; member < 1024; member++ {
				got := GroupSeed(run, round, member)
				if again := GroupSeed(run, round, member); again != got {
					t.Fatalf("run %d: GroupSeed(%d, %d) not pure: %d then %d", run, round, member, got, again)
				}
				if via := SubSeed(base, member); via != got {
					t.Fatalf("run %d: GroupSeed(%d, %d) = %d, SubSeed(GroupRoundSeed) = %d", run, round, member, got, via)
				}
				if seen[got] {
					t.Fatalf("run %d: GroupSeed(%d, %d) = %d repeats a group or dynamics seed", run, round, member, got)
				}
				seen[got] = true
			}
		}
		if len(seen) != dynamicsSeeds+64*1024 {
			t.Fatalf("run %d: %d distinct seeds, want %d", run, len(seen), dynamicsSeeds+64*1024)
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

// BenchmarkObserveRoundConsensus1e6 is the monitor phase of a
// near-converged 10⁶-agent round on the consensus path: per op, ~1k
// staged deltas (agents flipping between two values above the minimum,
// half up and half down, so h never rises and the run stays clean), one P=2 Flush and one ObserveRound. The check
// itself is O(P) and merges nothing; what remains is Flush's per-shard
// repair. scripts/check_alloc_budget.sh pins it at 0 allocs/op.
func BenchmarkObserveRoundConsensus1e6(b *testing.B) {
	const n, k = 1_000_000, 1024
	states := make([]int, n)
	for i := range states {
		states[i] = 10 + i%2
	}
	states[n/2] = 1 // the minimum, held by one agent that never moves
	p := problems.NewMin()
	// A one-worker pool repairs the two shards in turn: handing work to
	// parked pool workers measured 1 alloc/op inside the runtime when
	// other test binaries competed for the CPUs, noise that says nothing
	// about the monitor and would make a 0 budget flaky.
	pool := NewPool(1, 1)
	defer pool.Close()
	sh := NewShards(p.Cmp(), states, 2)
	m := NewMonitor[int](p, sh.View())
	if _, _, ok := m.ConsensusTarget(); !ok {
		b.Fatal("min's monitor is not on the consensus path")
	}
	round := func(r int) {
		for j := 0; j < k; j++ {
			a := j*(n/k) + j%2                // n/k is even: alternates a 10 and an 11
			old, v := states[a], 21-states[a] // 10 ↔ 11
			sh.Stage(a, old, v)
			m.Stage(old, v)
			states[a] = v
		}
		sh.Flush(pool)
		m.ObserveRound(r, sh)
	}
	round(0) // grows the staging buffers and tracker scratch once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i + 1)
	}
	b.StopTimer()
	if v := m.Violations(); len(v) != 0 {
		b.Fatalf("violations on a clean run: %q", v[0])
	}
}
