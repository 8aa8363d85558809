package problems

import (
	"cmp"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// Set is an agent state holding a set over a universe of at most 64
// elements, as a bitmask. It is the state type of the set-union consensus
// problem — e.g. "which events has the network observed", the classic
// gossip payload.
type Set uint64

// SetOf builds a Set from element indices (0–63).
func SetOf(elems ...int) Set {
	var s Set
	for _, e := range elems {
		s |= 1 << uint(e)
	}
	return s
}

// Contains reports membership of element e.
func (s Set) Contains(e int) bool { return s&(1<<uint(e)) != 0 }

// Card returns the cardinality.
func (s Set) Card() int { return bits.OnesCount64(uint64(s)) }

// String renders the set as {e0, e1, …}.
func (s Set) String() string {
	var parts []string
	for e := 0; e < 64; e++ {
		if s.Contains(e) {
			parts = append(parts, fmt.Sprint(e))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// NewSetUnion returns set-union consensus: every agent ends with the
// union of all initial sets. Not in the paper, but the most common gossip
// aggregate in practice; union is a semilattice join, so this is another
// instance of the §3.4 recipe. The variant is h(S) = Σ (64 − |sa|),
// summation form, well-founded, strictly decreasing whenever any agent
// learns an element.
func NewSetUnion() *Semilattice[Set] {
	return &Semilattice[Set]{name: "set-union", fname: "set-union", hname: "Σ(64−|s|)",
		cmp: cmp.Compare[Set], op: func(a, b Set) Set { return a | b },
		term: func(s Set) int64 { return int64(64 - s.Card()) }}
}

// --- Median: a designer's would-be f that the checkers reject ---

// MedianF is the lower-median consensus function: every value becomes the
// lower median of the multiset. Like second-smallest (§4.3), it is
// idempotent but NOT super-idempotent, so the self-similar strategy does
// not apply to it directly — the checkers refute it mechanically (see
// examples/designcheck and the tests). It is included as the "designer's
// first attempt" in the methodology walkthrough.
func MedianF() core.Function[int] {
	return core.FuncOf("median", func(x ms.Multiset[int]) ms.Multiset[int] {
		if x.IsEmpty() {
			return x
		}
		med := x.At((x.Len() - 1) / 2) // lower median of the sorted bag
		return x.Map(func(int) int { return med })
	})
}
