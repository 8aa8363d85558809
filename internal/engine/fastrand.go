package engine

import "math/rand"

// splitmixSource is a rand.Source64 with O(1) reseeding: SplitMix64
// (Steele, Lea & Flood, OOPSLA 2014), the generator Java's
// SplittableRandom and xoshiro's seeder use. The engines reseed a stream
// once per GROUP PER ROUND (the determinism discipline: every group steps
// on a private stream keyed on its identity, see GroupSeed), and
// pairwise rounds at 10⁵ agents have ~5·10⁴ groups — math/rand's default
// lagged-Fibonacci source pays an O(607) state rebuild per Seed, which
// profiling shows is >90% of such rounds, while SplitMix64 seeds by
// assignment.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// shuffle permutes ws in place with exactly the draws and swaps of
// rand.New(s).Shuffle(len(ws), swap) for len(ws) < 2³¹: a Fisher–Yates
// walk from the top whose bounded draw is the stdlib's int31n — Lemire's
// multiply-shift ("Fast Random Integer Generation in an Interval", ACM
// TOMACS 2019) over Uint32, which for this source is the high half of
// Uint64, rejecting a low product half below -n % n. Inlining it spares
// the matcher an interface call per draw and a closure call per swap.
//
//det:hotpath
func (s *splitmixSource) shuffle(ws []uint64) {
	x := *s
	for i := len(ws) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := (x.Uint64() >> 32) * uint64(n)
		if uint32(prod) < n {
			thresh := -n % n
			for uint32(prod) < thresh {
				prod = (x.Uint64() >> 32) * uint64(n)
			}
		}
		j := prod >> 32
		ws[i], ws[j] = ws[j], ws[i]
	}
	*s = x
}

// FastRand is a *rand.Rand over a SplitMix64 source plus the O(1) Reseed
// the engine hot paths need. The zero value is not usable; build with
// NewFastRand. The source is held by pointer so a FastRand copied by
// value shares the original's stream consistently (Reseed and the
// embedded Rand always act on the same source) instead of silently
// diverging.
type FastRand struct {
	src *splitmixSource
	*rand.Rand
}

// NewFastRand builds a FastRand seeded with seed.
func NewFastRand(seed int64) *FastRand {
	src := &splitmixSource{}
	src.Seed(seed)
	//lint:ignore detrand the sanctioned constructor itself: rand.New here wraps the O(1)-reseed SplitMix64 source that detrand tells everyone else to use
	return &FastRand{src: src, Rand: rand.New(src)}
}

// Reseed restarts the stream at seed in O(1), equivalent to a fresh
// NewFastRand(seed) without the allocations.
//
//det:hotpath
func (f *FastRand) Reseed(seed int64) { f.src.Seed(seed) }

// SubSeed derives the i-th substream seed from a base seed: SplitMix64's
// stream-split idiom — step the base state by i gammas, output one mixed
// word. Distinct (base, i) pairs land on well-spread 63-bit seeds, so a
// caller that owns one base seed can hand out independent child streams
// indexed by position (the scenario-sweep runner derives every grid
// cell's run seed this way, from the cell's index — never from the
// identity of the worker that happens to execute it, which is what keeps
// grid results independent of scheduling and worker count).
//
//det:hotpath
func SubSeed(base int64, i int) int64 {
	s := splitmixSource{state: uint64(base) + uint64(i)*0x9E3779B97F4A7C15}
	return s.Int63()
}
