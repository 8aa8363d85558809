package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// stepDraw is one executed group step: the round, the group's smallest
// member, the first draw of the stream the group stepped on, and whether
// its members all held equal states (a step that can only stutter).
type stepDraw struct {
	round, member int
	draw          int64
	equal         bool
}

// drawLog collects the stepDraws of one run, members not yet known.
// round is the round being executed, advanced by Options.OnRound; workers
// read it while the round loop waits at the pool barrier.
type drawLog struct {
	mu    sync.Mutex
	round int
	draws []stepDraw
}

func (l *drawLog) add(rng *rand.Rand, states ...int) {
	d := stepDraw{member: -1, draw: rng.Int63(), equal: true}
	for _, v := range states {
		d.equal = d.equal && v == states[0]
	}
	l.mu.Lock()
	d.round = l.round
	l.draws = append(l.draws, d)
	l.mu.Unlock()
}

// drawRecorder wraps an int problem and logs the first draw of every
// step's stream before delegating. The problems it wraps here (plain min)
// draw nothing themselves, so the extra draw changes no result.
type drawRecorder struct {
	core.Problem[int]
	log *drawLog
}

func (d drawRecorder) GroupStep(states []int, rng *rand.Rand) []int {
	d.log.add(rng, states...)
	return d.Problem.GroupStep(states, rng)
}

func (d drawRecorder) PairStep(a, b int, rng *rand.Rand) (int, int) {
	d.log.add(rng, a, b)
	return d.Problem.PairStep(a, b, rng)
}

// stutterRecorder is a drawRecorder that keeps the core.StutterOnEqual
// marker of the problem it wraps.
type stutterRecorder struct{ drawRecorder }

func (stutterRecorder) StutterOnEqual() {}

// TestGroupStreamsKeyedOnMember: every group steps on the stream keyed
// on (run seed, round, smallest member) — engine.GroupSeed — so the set
// of (round, member, first draw) records of a golden min cell is the same
// for every shard count and every pool threshold, and hiding the
// core.StutterOnEqual marker only adds the records of the equal-state
// groups the marked run skips: the other groups draw exactly as before.
// Each record's member is recovered by matching its draw against the
// keyed streams of every agent, so a draw taken from a stream not keyed
// on a member would find none, and one keyed on a group's position among
// the stepped groups would move when the marker is hidden.
func TestGroupStreamsKeyedOnMember(t *testing.T) {
	old := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(old)
	cells := map[string]int{
		"min/ring16/churn0.5": 16, // component mode: GroupStep
		"min/ring64/pairwise": 64, // pairwise mode: PairStep
	}
	found := 0
	for _, c := range goldenCases() {
		agents, ok := cells[c.name]
		if !ok {
			continue
		}
		found++
		for _, seed := range []int64{1, 2, 3} {
			key := fmt.Sprintf("%s/seed%d", c.name, seed)
			t.Run(key, func(t *testing.T) {
				run := func(hide bool, opts func(*Options)) []stepDraw {
					log := &drawLog{}
					got, err := c.run(seed, variant{
						hideStutter: hide,
						opts: func(o *Options) {
							opts(o)
							o.OnRound = func(ri RoundInfo) { log.round = ri.Round + 1 }
						},
						wrap: func(p core.Problem[int]) core.Problem[int] {
							r := drawRecorder{p, log}
							if core.IsStutterOnEqual(p) {
								return stutterRecorder{r}
							}
							return r
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					if want := engineGoldens[key]; got != want {
						t.Fatalf("recorded run diverged from the golden\n got: %s\nwant: %s", got, want)
					}
					return keyedDraws(t, seed, agents, log)
				}
				ref := run(false, func(*Options) {})
				if len(ref) == 0 {
					t.Fatal("no group stepped")
				}
				for _, v := range []struct {
					name string
					opts func(*Options)
				}{
					{"shards=1", func(o *Options) { o.Shards = 1 }},
					{"shards=3", func(o *Options) { o.Shards = 3 }},
					{"serial", func(o *Options) { o.ParallelThreshold = -1 }},
					{"pooled", func(o *Options) { o.ParallelThreshold = 1 }},
				} {
					if got := run(false, v.opts); !slices.Equal(got, ref) {
						t.Errorf("%s: step records differ from the reference run\n got: %v\nwant: %v", v.name, got, ref)
					}
				}
				for _, d := range ref {
					if d.equal {
						t.Fatalf("marked run stepped an equal-state group: %v", d)
					}
				}
				full := run(true, func(*Options) {})
				stepped := slices.DeleteFunc(slices.Clone(full), func(d stepDraw) bool { return d.equal })
				if !slices.Equal(stepped, ref) {
					t.Errorf("marker hidden: records of the groups that can change differ\n got: %v\nwant: %v", stepped, ref)
				}
				if len(full) == len(stepped) {
					t.Error("marker hidden: no equal-state group stepped, so the skip was not exercised")
				}
			})
		}
	}
	if found != len(cells) {
		t.Fatalf("found %d of the %d cells", found, len(cells))
	}
}

func cmpStepDraw(a, b stepDraw) int {
	return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.member, b.member), cmp.Compare(a.draw, b.draw))
}

// keyedDraws recovers each logged draw's member — the agent m < agents
// whose keyed stream engine.GroupSeed(seed, round, m) starts with that
// draw — and returns the records sorted by (round, member). A draw that
// matches no member, or a member that steps twice in a round, fails.
func keyedDraws(t *testing.T, seed int64, agents int, log *drawLog) []stepDraw {
	t.Helper()
	out := slices.Clone(log.draws)
	for i := range out {
		d := &out[i]
		for m := 0; m < agents && d.member < 0; m++ {
			if engine.NewFastRand(engine.GroupSeed(seed, d.round, m)).Int63() == d.draw {
				d.member = m
			}
		}
		if d.member < 0 {
			t.Fatalf("round %d: draw %d is the first draw of no member's keyed stream", d.round, d.draw)
		}
	}
	slices.SortFunc(out, cmpStepDraw)
	for i := 1; i < len(out); i++ {
		if out[i].round == out[i-1].round && out[i].member == out[i-1].member {
			t.Fatalf("round %d: member %d stepped twice", out[i].round, out[i].member)
		}
	}
	return out
}
