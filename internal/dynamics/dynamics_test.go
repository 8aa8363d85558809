package dynamics

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
)

// mustPanic asserts that f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want message containing %q)", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

// TestZeroValuesPanicEarly pins the multiset.Merger convention: the
// zero-value Schedule and Rule, and every malformed constructor call,
// must panic immediately with a descriptive message.
func TestZeroValuesPanicEarly(t *testing.T) {
	g := graph.Ring(8)
	mustPanic(t, "zero-value Schedule", func() { var s Schedule; s.NewApplier(g, 1) })
	mustPanic(t, "zero-value Schedule", func() { var s Schedule; s.Rules() })
	mustPanic(t, "zero-value Rule", func() { NewSchedule(Rule{}) })
	mustPanic(t, "negative round", func() { At(-1, RecoverAll()) })
	mustPanic(t, "nil Event", func() { At(0, nil) })
	mustPanic(t, "non-positive period", func() { Every(0, RecoverAll()) })
	mustPanic(t, "at least 2 parts", func() { Partition(1, 0, 10) })
	mustPanic(t, "empty window", func() { Partition(2, 5, 5) })
	mustPanic(t, "negative start round", func() { Partition(2, -1, 5) })
	mustPanic(t, "phase lengths", func() { PartitionCycle(2, 0, 5) })
	mustPanic(t, "empty edge list", func() { CutEdges(nil, 0, 5) })
	mustPanic(t, "negative edge id", func() { CutEdges([]int{-1}, 0, 5) })
	mustPanic(t, "outside (0, 1]", func() { Burst(0, 0, 5) })
	mustPanic(t, "outside (0, 1)", func() { RandomCrashes(1.5, 10) })
	mustPanic(t, "mean downtime", func() { RandomCrashes(0.1, 0) })
	mustPanic(t, "empty agent list", func() { CrashAgents() })
	mustPanic(t, "negative agent id", func() { CrashAgents(-3) })
	mustPanic(t, "non-positive count", func() { CrashRandom(0) })
	// Out-of-range ids surface when the applier binds a graph.
	mustPanic(t, "agent id 9 out of range", func() {
		NewSchedule(At(0, CrashAgents(9))).NewApplier(graph.Ring(8), 1)
	})
	mustPanic(t, "edge id 99 out of range", func() {
		NewSchedule(CutEdges([]int{99}, 0, 5)).NewApplier(graph.Ring(8), 1)
	})
	mustPanic(t, "negative round", func() {
		NewSchedule().NewApplier(g, 1).BeginRound(-1, env.AllUp(g))
	})
}

// TestCrashRecoverFreezesAgents: crash masks the agent out of AgentUp,
// recover restores it, and the report counts both.
func TestCrashRecoverFreezesAgents(t *testing.T) {
	g := graph.Ring(6)
	a := NewSchedule(
		At(1, CrashAgents(2, 4)),
		At(3, RecoverAgents(2)),
		At(5, RecoverAll()),
	).NewApplier(g, 7)

	es := env.AllUp(g)
	frozenAt := map[int][]int{
		0: {}, 1: {2, 4}, 2: {2, 4}, 3: {4}, 4: {4}, 5: {}, 6: {},
	}
	for round := 0; round <= 6; round++ {
		eff := a.BeginRound(round, es)
		want := frozenAt[round]
		if got := a.Frozen(); len(got) != len(want) {
			t.Fatalf("round %d: frozen %v, want %v", round, got, want)
		}
		for _, ag := range want {
			if eff.AgentUp.Get(ag) {
				t.Errorf("round %d: crashed agent %d still up", round, ag)
			}
		}
		if round == 1 {
			jc := a.JustCrashed()
			if len(jc) != 2 || jc[0] != 2 || jc[1] != 4 {
				t.Errorf("round 1: JustCrashed = %v, want [2 4]", jc)
			}
		}
		a.EndRound()
		// The overlay must be fully undone.
		if !es.AgentUp.All() {
			t.Fatalf("round %d: agents left masked after EndRound", round)
		}
	}
	rep := a.Report()
	if rep.Crashes != 2 || rep.Recoveries != 2 {
		t.Errorf("report crashes=%d recoveries=%d, want 2/2", rep.Crashes, rep.Recoveries)
	}
	if rep.FrozenAgentRounds != 2+2+1+1 {
		t.Errorf("FrozenAgentRounds = %d, want 6", rep.FrozenAgentRounds)
	}
}

// TestPartitionWindowMasksAndHeals: during the window every inter-block
// edge is down; at the window end a heal is recorded and the mask is
// restored.
func TestPartitionWindowMasksAndHeals(t *testing.T) {
	g := graph.Complete(8) // blocks {0..3}, {4..7} under parts=2
	a := NewSchedule(Partition(2, 2, 5)).NewApplier(g, 3)
	es := env.AllUp(g)
	crossEdges := 0
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if (e.A < 4) != (e.B < 4) {
			crossEdges++
		}
	}
	for round := 0; round < 7; round++ {
		eff := a.BeginRound(round, es)
		masked := 0
		for id := 0; id < g.M(); id++ {
			if !eff.EdgeUp.Get(id) {
				e := g.Edge(id)
				if (e.A < 4) == (e.B < 4) {
					t.Fatalf("round %d: interior edge %v masked", round, e)
				}
				masked++
			}
		}
		inWindow := round >= 2 && round < 5
		if inWindow && masked != crossEdges {
			t.Errorf("round %d: %d edges masked, want %d", round, masked, crossEdges)
		}
		if !inWindow && masked != 0 {
			t.Errorf("round %d: %d edges masked outside window", round, masked)
		}
		a.EndRound()
		if !es.EdgeUp.All() {
			t.Fatalf("round %d: edges left masked after EndRound", round)
		}
	}
	rep := a.Report()
	if rep.Heals != 1 || rep.LastHealRound != 5 {
		t.Errorf("heals=%d lastHeal=%d, want 1 at round 5", rep.Heals, rep.LastHealRound)
	}
	if rep.MaskedEdgeRounds != 3*crossEdges {
		t.Errorf("MaskedEdgeRounds = %d, want %d", rep.MaskedEdgeRounds, 3*crossEdges)
	}
}

// TestPartitionCycleHealsRepeatedly counts one heal per down→healthy
// transition.
func TestPartitionCycleHealsRepeatedly(t *testing.T) {
	g := graph.Ring(8)
	a := NewSchedule(PartitionCycle(2, 3, 2)).NewApplier(g, 11)
	es := env.AllUp(g)
	for round := 0; round < 15; round++ { // 3 full periods
		a.BeginRound(round, es)
		a.EndRound()
	}
	rep := a.Report()
	if rep.Heals != 2 { // heals at rounds 5 and 10; round 15 not executed
		t.Errorf("heals = %d, want 2", rep.Heals)
	}
	if rep.LastHealRound != 10 {
		t.Errorf("LastHealRound = %d, want 10", rep.LastHealRound)
	}
}

// TestDynamicsDeterministic: two appliers over the same (schedule,
// graph, seed) produce identical masks, live sets, and reports round for
// round — and a reused (Reset) applier replays them identically too.
func TestDynamicsDeterministic(t *testing.T) {
	g := graph.Torus(4, 4)
	mk := func() *Schedule {
		return NewSchedule(
			RandomCrashes(0.05, 4),
			Burst(0.3, 2, 20),
			PartitionCycle(2, 4, 3),
			Every(6, CrashRandom(1)),
		)
	}
	trace := func(a *Applier) string {
		var b strings.Builder
		es := env.AllUp(g)
		for round := 0; round < 40; round++ {
			eff := a.BeginRound(round, es)
			fmt.Fprintf(&b, "r%d frozen=%v edges=", round, a.Frozen())
			for id := 0; id < eff.EdgeUp.Len(); id++ {
				if eff.EdgeUp.Get(id) {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
			b.WriteByte('\n')
			a.EndRound()
		}
		fmt.Fprintf(&b, "%+v\n", a.Report())
		return b.String()
	}
	a1 := mk().NewApplier(g, 42)
	a2 := mk().NewApplier(g, 42)
	t1, t2 := trace(a1), trace(a2)
	if t1 != t2 {
		t.Fatalf("two appliers over the same seed diverged:\n%s\nvs\n%s", t1, t2)
	}
	a1.Reset(mk(), g, 42)
	if t3 := trace(a1); t3 != t1 {
		t.Fatalf("Reset applier diverged from fresh applier:\n%s\nvs\n%s", t3, t1)
	}
	// A different seed must give a different trace (the schedule has
	// random rules).
	a2.Reset(mk(), g, 43)
	if trace(a2) == t1 {
		t.Fatal("seed 42 and 43 produced identical dynamics traces")
	}
}

// TestEmptyScheduleIsTransparent: no rules → the environment state
// passes through untouched and nothing accumulates.
func TestEmptyScheduleIsTransparent(t *testing.T) {
	g := graph.Ring(8)
	a := NewSchedule().NewApplier(g, 5)
	es := env.AllUp(g)
	for round := 0; round < 10; round++ {
		eff := a.BeginRound(round, es)
		if &eff.EdgeUp.Words()[0] != &es.EdgeUp.Words()[0] || &eff.AgentUp.Words()[0] != &es.AgentUp.Words()[0] {
			t.Fatal("empty schedule replaced the environment's buffers")
		}
		a.EndRound()
	}
	if rep := a.Report(); rep != (Report{LastHealRound: -1}) {
		t.Errorf("empty schedule accumulated a report: %+v", rep)
	}
}

// TestCrashRandomExactCount: CrashRandom(k) crashes exactly k live
// agents whenever at least k are live — even when most of the
// population is already down — and everyone when fewer are.
func TestCrashRandomExactCount(t *testing.T) {
	g := graph.Ring(20)
	var most []int
	for ag := 0; ag < 15; ag++ {
		most = append(most, ag)
	}
	a := NewSchedule(
		At(0, CrashAgents(most...)), // only agents 15..19 stay live
		At(1, CrashRandom(3)),       // must still find exactly 3 of the 5
		At(2, CrashRandom(10)),      // only 2 live remain: crash both
	).NewApplier(g, 21)
	es := env.AllUp(g)
	wantFrozen := map[int]int{0: 15, 1: 18, 2: 20}
	for round := 0; round <= 2; round++ {
		a.BeginRound(round, es)
		if got := len(a.Frozen()); got != wantFrozen[round] {
			t.Fatalf("round %d: %d frozen, want %d", round, got, wantFrozen[round])
		}
		a.EndRound()
	}

	// The one-pass sampler must crash exactly the agents, in exactly the
	// order, of the rank walk it replaced (crashRandomReference), over
	// random live sets and counts — including k ≥ live and k = live − 1.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(120)
		var dead []int
		for ag := 0; ag < n; ag++ {
			if rng.Intn(3) == 0 {
				dead = append(dead, ag)
			}
		}
		k := 1 + rng.Intn(n+4)
		rules := []Rule{At(1, CrashRandom(k))}
		if len(dead) > 0 {
			rules = append(rules, At(0, CrashAgents(dead...)))
		}
		g := graph.Ring(n)
		a := NewSchedule(rules...).NewApplier(g, rng.Int63())
		es := env.AllUp(g)
		a.BeginRound(0, es)
		a.EndRound()
		live := make([]bool, a.live.Len())
		for ag := range live {
			live[ag] = a.live.Get(ag)
		}
		want := crashRandomReference(live, k, engine.NewFastRand(engine.SubSeed(a.base, 1)))
		crashesBefore := a.Report().Crashes
		a.BeginRound(1, es)
		if got := a.JustCrashed(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, %d dead, k=%d): crashed %v, rank walk crashes %v", trial, n, len(dead), k, got, want)
		}
		if got := a.Report().Crashes - crashesBefore; got != len(want) {
			t.Fatalf("trial %d: report counts %d crashes, want %d", trial, got, len(want))
		}
		if !slices.IsSorted(a.Frozen()) {
			t.Fatalf("trial %d: frozen list %v not ascending", trial, a.Frozen())
		}
		a.EndRound()
	}
}

// TestApplierReuseMatchesFresh: one Applier reused across populations of
// different sizes — Ring(200) → Ring(100) → Ring(300) — reports, round
// for round, the same crashes, wakes, frozen list and Report as a fresh
// applier on each run. The join grows each run by 200 agents, so the
// third run starts at the size the second one ended at: its Reset keeps
// the live set's words and must clear the crashes the second run left.
func TestApplierReuseMatchesFresh(t *testing.T) {
	sched := NewSchedule(
		At(1, CrashRandom(40)),
		Join(200, "ring", 2),
		At(3, CrashRandom(70)),
		Every(5, RecoverAll()),
		Every(6, CrashRandom(9)),
	)
	trace := func(a *Applier, g *graph.Graph) string {
		var b strings.Builder
		es := env.AllUp(g)
		for round := 0; round < 14; round++ {
			if _, ok := a.GrowthFor(round); ok {
				es = env.AllUp(g)
			}
			a.BeginRound(round, es)
			fmt.Fprintf(&b, "r%d crashed=%v woken=%v frozen=%v\n", round, a.JustCrashed(), a.JustWoken(), a.Frozen())
			a.EndRound()
		}
		fmt.Fprintf(&b, "%+v\n", a.Report())
		return b.String()
	}
	var reused *Applier
	for i, n := range []int{200, 100, 300} {
		seed := int64(90 + i)
		fresh := graph.Ring(n)
		want := trace(sched.NewApplier(fresh, seed), fresh)
		g := graph.Ring(n)
		if reused == nil {
			reused = sched.NewApplier(g, seed)
		} else {
			words := reused.live.Words()
			reused.Reset(sched, g, seed)
			if kept := &reused.live.Words()[0] == &words[0]; kept != (n == 300) {
				t.Fatalf("Ring(%d): Reset kept the live set's words = %v", n, kept)
			}
		}
		if got := trace(reused, g); got != want {
			t.Fatalf("Ring(%d): reused applier diverged from a fresh one:\n%s\nvs\n%s", n, got, want)
		}
	}
}

// crashRandomReference is CrashRandom's original O(k·n) sampler: each
// pick draws a rank among the agents still live and walks the live set to
// it. It returns the crashed agents in crash order.
func crashRandomReference(live []bool, k int, rng *engine.FastRand) []int {
	liveCount := 0
	for _, l := range live {
		if l {
			liveCount++
		}
	}
	var out []int
	if liveCount <= k {
		for ag, l := range live {
			if l {
				out = append(out, ag)
			}
		}
		return out
	}
	for picked := 0; picked < k; picked++ {
		r := rng.Intn(liveCount - picked)
		for ag := range live {
			if live[ag] {
				if r == 0 {
					live[ag] = false
					out = append(out, ag)
					break
				}
				r--
			}
		}
	}
	return out
}

// TestRandomCrashesRecover: the random process both crashes and wakes
// agents over time.
func TestRandomCrashesRecover(t *testing.T) {
	g := graph.Ring(64)
	a := NewSchedule(RandomCrashes(0.05, 5)).NewApplier(g, 17)
	es := env.AllUp(g)
	for round := 0; round < 200; round++ {
		a.BeginRound(round, es)
		a.EndRound()
	}
	rep := a.Report()
	if rep.Crashes == 0 || rep.Recoveries == 0 {
		t.Fatalf("200 rounds at rate 0.05: crashes=%d recoveries=%d", rep.Crashes, rep.Recoveries)
	}
	if rep.Recoveries > rep.Crashes {
		t.Fatalf("more recoveries (%d) than crashes (%d)", rep.Recoveries, rep.Crashes)
	}
}

// TestParseDesc round-trips every family and rejects junk with errors
// (never panics — the CLI surface).
func TestParseDesc(t *testing.T) {
	good := []string{
		"none", "crashes:0.02:20", "partition:2:1:40",
		"partitioncycle:4:10:5", "flap:3:2:30", "burst:0.5:0:30",
	}
	g := graph.Ring(16)
	for _, spec := range good {
		d, err := ParseDesc(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if d.Name != spec {
			t.Errorf("ParseDesc(%q).Name = %q", spec, d.Name)
		}
		s := d.New(g)
		if spec == "none" {
			if s != nil {
				t.Errorf("none built a schedule")
			}
		} else if s == nil || s.Rules() == 0 {
			t.Errorf("%s built an empty schedule", spec)
		}
	}
	bad := []string{
		"", "meteor", "crashes:2:10", "crashes:0.1:0", "crashes:0.1",
		"partition:1:0:10", "partition:2:10:10", "partition:2:x:10",
		"partitioncycle:2:0:5", "flap:0:0:10", "flap:2:10:10",
		"burst:0:0:10", "burst:1.5:0:10", "burst:0.5:10:10", "none:1",
	}
	for _, spec := range bad {
		if _, err := ParseDesc(spec); err == nil {
			t.Errorf("ParseDesc(%q): expected an error", spec)
		}
	}
}

// TestFaultsValidate pins the async fault-spec validation.
func TestFaultsValidate(t *testing.T) {
	if err := (&Faults{LossP: 0.3, DelayMax: time.Millisecond}).Validate(); err != nil {
		t.Errorf("valid faults rejected: %v", err)
	}
	if err := (&Faults{}).Validate(); err != nil {
		t.Errorf("zero faults rejected: %v", err)
	}
	for _, f := range []Faults{{LossP: 1}, {LossP: -0.1}, {DelayMax: -time.Second}} {
		f := f
		if err := f.Validate(); err == nil {
			t.Errorf("Faults%+v: expected an error", f)
		}
	}
}

// TestScheduleHorizon pins the one-shot horizon accessor the sched
// engine validates its op budget against.
func TestScheduleHorizon(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
		want int
	}{
		{"empty", NewSchedule(), -1},
		{"at", NewSchedule(At(5, CrashAgents(0))), 5},
		{"join", NewSchedule(Join(2, "ring", 9)), 9},
		{"window", NewSchedule(Partition(2, 3, 8)), 7},
		{"burst", NewSchedule(Burst(0.5, 2, 12)), 11},
		{"recurring-only", NewSchedule(Every(4, RecoverAll()), RandomCrashes(0.01, 3)), -1},
		{"cyclic-only", NewSchedule(PartitionCycle(2, 3, 2)), -1},
		{"mixed", NewSchedule(At(2, CrashAgents(1)), Join(1, "ring", 6), Partition(2, 1, 4), Every(3, RecoverAll())), 6},
	}
	for _, c := range cases {
		if got := c.s.Horizon(); got != c.want {
			t.Errorf("%s: Horizon() = %d, want %d", c.name, got, c.want)
		}
	}
}
