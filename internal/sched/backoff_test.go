package sched

import (
	"testing"
	"time"
)

// TestAIMDWindowRisesAndCaps: consecutive rejections must grow the
// window multiplicatively and saturate at the hard ceiling, never
// beyond.
func TestAIMDWindowRisesAndCaps(t *testing.T) {
	var b AIMD
	prev := time.Duration(0)
	for i := 0; i < 64; i++ {
		w := b.OnRejected()
		if w < minBackoff || w > hardMaxBackoff {
			t.Fatalf("rejection %d: window %v outside [%v, %v]", i, w, minBackoff, hardMaxBackoff)
		}
		if w < prev {
			t.Fatalf("rejection %d: window shrank %v → %v under pure rejection", i, prev, w)
		}
		prev = w
	}
	// The EWMA approaches rate 1.0 asymptotically, so the ceiling
	// approaches (never exactly reaches) the hard maximum.
	if prev < hardMaxBackoff*95/100 {
		t.Errorf("64 consecutive rejections saturated at %v, want within 5%% of the hard ceiling %v", prev, hardMaxBackoff)
	}
}

// TestAIMDAdditiveDecreaseKeepsMemory: after a burst of rejections, one
// success must shrink the window additively (keep contention memory),
// not reset it to zero; sustained success
// must drain it to zero.
func TestAIMDAdditiveDecreaseKeepsMemory(t *testing.T) {
	var b AIMD
	for i := 0; i < 8; i++ {
		b.OnRejected()
	}
	inStorm := b.window
	b.OnSuccess()
	if b.window == 0 {
		t.Fatal("one success reset the window to zero — additive decrease lost")
	}
	if got, want := b.window, inStorm-minBackoff; got != want {
		t.Errorf("after one success window = %v, want additive decrease to %v", got, want)
	}
	for i := 0; i < 10_000 && b.window > 0; i++ {
		b.OnSuccess()
	}
	if b.window != 0 {
		t.Errorf("sustained success left window at %v, want 0", b.window)
	}
}

// TestAIMDCeilingTracksRejectionRate: the ceiling must be the floor
// under no observed contention, and approach the hard maximum as the
// observed rejection rate approaches 1 — the "derived from observed
// rejection rates" contract.
func TestAIMDCeilingTracksRejectionRate(t *testing.T) {
	var calm AIMD
	for i := 0; i < 256; i++ {
		calm.observe(false)
	}
	if c := calm.ceiling(); c != minBackoff {
		t.Errorf("ceiling under zero rejection rate = %v, want floor %v", c, minBackoff)
	}

	var hot AIMD
	for i := 0; i < 256; i++ {
		hot.observe(true)
	}
	if c := hot.ceiling(); c < hardMaxBackoff*9/10 {
		t.Errorf("ceiling under ~100%% rejection rate = %v, want near %v", c, hardMaxBackoff)
	}

	// A mixed rate lands strictly between: the ceiling is a function of
	// the measured rate, not a constant.
	var mixed AIMD
	for i := 0; i < 256; i++ {
		mixed.observe(i%2 == 0)
	}
	c := mixed.ceiling()
	if c <= calm.ceiling() || c >= hot.ceiling() {
		t.Errorf("ceiling at ~50%% rate = %v, want strictly between %v and %v", c, calm.ceiling(), hot.ceiling())
	}
}

// TestAIMDZeroValueReady: the zero controller must hand out a sane
// window on its very first rejection (cold start).
func TestAIMDZeroValueReady(t *testing.T) {
	var b AIMD
	if w := b.OnRejected(); w != minBackoff {
		t.Errorf("first rejection window = %v, want the floor %v", w, minBackoff)
	}
}
