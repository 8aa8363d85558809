// Package bitset provides the dense bit masks the engines use for edge
// and agent availability.
//
// The environment model (env.State) is a pair of masks over a graph's
// edges and agents. The seed engines stored them as []bool — one byte
// per entry, scanned entry by entry — which made every mask operation
// O(E) in entries even when nothing (or almost nothing) changed. A Set
// packs the same mask 64 entries per word, so that
//
//   - bulk operations (fill, copy, intersect, subtract) touch E/64 words,
//   - iteration skips zero words entirely (a fully-masked region costs
//     one word test per 64 entries), and
//   - round-over-round change detection is a word-wise XOR that yields
//     exactly the flipped ids — the primitive the fairness probe's
//     Observe is built on.
//
// The zero value Set{} is unallocated: Len() == 0, IsZero() reports
// true, and it holds no bits, so it means nothing about availability.
// "Everything up" is a Set sized to what it masks with every bit set
// (NewAllSet); env.State's masks are always sized to their graph. Code
// that fills a buffer lazily may test IsZero to see whether it has been
// allocated yet. A non-zero Set never changes length; bits outside
// [0, Len()) are kept zero by every operation, so Count and word-level
// scans never see tail garbage.
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-length bit vector. The zero value is unallocated (see
// the package comment); build real sets with New or NewAllSet. Set is a small
// header — pass it by value; the words are shared, so mutations through
// any copy are visible through all of them (exactly like a slice).
type Set struct {
	words []uint64
	n     int
}

// New returns a Set of length n with every bit clear.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewAllSet returns a Set of length n with every bit set.
func NewAllSet(n int) Set {
	s := New(n)
	s.SetAll()
	return s
}

// FromBools returns a Set with bit i set iff b[i]; nil yields the zero
// value. The bridge from the legacy []bool mask representation.
func FromBools(b []bool) Set {
	if b == nil {
		return Set{}
	}
	s := New(len(b))
	for i, v := range b {
		if v {
			s.Set(i)
		}
	}
	return s
}

// Len returns the number of bits (0 for the zero value).
func (s Set) Len() int { return s.n }

// IsZero reports whether s is the unallocated zero value. Note a Set of
// length 0 built with New(0) is NOT zero — it is an empty mask.
func (s Set) IsZero() bool { return s.words == nil && s.n == 0 }

// Get reports bit i. Panics when i is out of range (in particular on
// the zero value, which has no bits).
func (s Set) Get(i int) bool {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (s Set) Set(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s Set) Clear(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// SetTo sets bit i to v.
func (s Set) SetTo(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// SetAll sets every bit.
func (s Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.clearTail()
}

// ClearAll clears every bit.
func (s Set) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// FillValue sets every bit to v.
func (s Set) FillValue(v bool) {
	if v {
		s.SetAll()
	} else {
		s.ClearAll()
	}
}

// clearTail zeroes the bits beyond Len in the last word, preserving the
// invariant Count and word scans rely on.
func (s Set) clearTail() {
	if tail := uint(s.n) & 63; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << tail) - 1
	}
}

// Count returns the number of set bits (popcount).
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// All reports whether every bit is set (vacuously true for length 0).
func (s Set) All() bool {
	if len(s.words) == 0 {
		return true
	}
	for _, w := range s.words[:len(s.words)-1] {
		if w != ^uint64(0) {
			return false
		}
	}
	last := s.words[len(s.words)-1]
	tail := uint(s.n) & 63
	if tail == 0 {
		return last == ^uint64(0)
	}
	return last == (1<<tail)-1
}

// None reports whether every bit is clear.
func (s Set) None() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Copy copies src's bits into s. Lengths must match.
func (s Set) Copy(src Set) {
	if s.n != src.n {
		panic("bitset: Copy length mismatch")
	}
	copy(s.words, src.words)
}

// Clone returns an independent copy of s (zero in, zero out).
func (s Set) Clone() Set {
	if s.IsZero() {
		return Set{}
	}
	c := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Resized returns a Set of length n that preserves s's bits in
// [0, min(n, s.Len())) and fills any bits beyond the old length with
// fill. Resizing the zero value panics: it is unallocated, so a caller
// growing it has a buffer it never filled. Shrinking is allowed; the
// result shares no storage with s.
func (s Set) Resized(n int, fill bool) Set {
	if s.IsZero() {
		panic("bitset: Resized on the unallocated zero value")
	}
	if n < 0 {
		panic("bitset: negative length")
	}
	r := New(n)
	copy(r.words, s.words)
	if n > s.n {
		// Clear any stale tail bits inherited from s's last word, then
		// fill the new region [s.n, n).
		if tail := uint(s.n) & 63; tail != 0 {
			r.words[s.n>>6] &= (1 << tail) - 1
		}
		if fill {
			for i := s.n; i < n; i++ {
				r.Set(i)
			}
		}
	}
	r.clearTail()
	return r
}

// And intersects s with other in place. Lengths must match.
func (s Set) And(other Set) {
	if s.n != other.n {
		panic("bitset: And length mismatch")
	}
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// AndNot clears in s every bit set in other. Lengths must match.
func (s Set) AndNot(other Set) {
	if s.n != other.n {
		panic("bitset: AndNot length mismatch")
	}
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
}

// Or unions other into s. Lengths must match.
func (s Set) Or(other Set) {
	if s.n != other.n {
		panic("bitset: Or length mismatch")
	}
	for i := range s.words {
		s.words[i] |= other.words[i]
	}
}

// Equal reports whether s and other have identical length and bits.
func (s Set) Equal(other Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range s.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order, skipping zero
// words — an unchanged (all-clear) region costs one word test per 64
// entries.
//
//det:hotpath
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Words exposes the backing words (64 bits each, LSB = lowest id) for
// callers that need closure-free word-skip iteration in hot loops. The
// returned slice is shared; treat it as read-only. Bits beyond Len are
// guaranteed zero.
func (s Set) Words() []uint64 { return s.words }

// AppendSelected appends ids[pos] to dst for every set bit pos, in
// ascending position order. It is the closure-free form of ForEach used
// to materialize "the usable subset of this static id list" without
// allocating.
//
//det:hotpath
func (s Set) AppendSelected(dst []int, ids []int) []int {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, ids[base+b])
			w &= w - 1
		}
	}
	return dst
}

// AppendDiff appends to dst the ascending ids at which s and prev
// differ — the word-wise XOR change scan the delta consumers use. The
// two sets must have equal length.
//
//det:hotpath
func (s Set) AppendDiff(prev Set, dst []int) []int {
	if s.n != prev.n {
		panic("bitset: AppendDiff length mismatch")
	}
	for wi, w := range s.words {
		x := w ^ prev.words[wi]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			dst = append(dst, wi<<6+b)
			x &= x - 1
		}
	}
	return dst
}
