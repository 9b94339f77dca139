// Package prefilter holds the envelope math of the admission check the
// serving layer runs before stabbing a relation's interval trees: a
// Summary records which attribute positions carry interval clauses (a
// bitmap) and, for each such position, the union envelope of every
// interval clause on it, so a tuple outside all of them skips the index
// probe entirely. internal/core keeps one Summary per relation inside
// each index of the View it publishes, next to the list of predicates
// that have no interval clause at all.
//
// Soundness contract (the only fatal bug is a false negative): Admit
// may over-admit freely, but it must NEVER return false for a tuple that
// a predicate it was widened by could match. Every interval clause on
// attribute i is contained in envelope(i) (envelopes are unions widened
// to closed bounds), so a tuple missing envelope(i) fails every interval
// clause on i; if it misses every enveloped attribute, every interval
// clause fails and with it every predicate that has at least one.
// Predicates made only of function clauses are opaque to a Summary: the
// caller admits everything while it holds one.
//
// A Summary is built with Widen and frozen with the index that holds
// it. It never narrows: the owner carries it unchanged across a removal
// (a stale-wide envelope only over-admits) and rebuilds it from the live
// predicates when it rebuilds the index.
package prefilter

import (
	"math/bits"
	"slices"

	"predmatch/internal/interval"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// Summary is the interval-clause digest of one relation's predicates.
// The zero value holds no clause and admits nothing.
type Summary struct {
	// bits marks attribute positions carrying >=1 interval clause.
	bits []uint64
	// env[i] is the union envelope of all interval clauses on position
	// i, valid only where bits has position i set. Bounds are widened
	// to closed so the envelope is a superset of every clause.
	env []interval.Interval[value.Value]
}

// Make returns an empty summary for a relation of the given arity.
func Make(arity int) Summary {
	return Summary{
		bits: make([]uint64, (arity+63)/64),
		env:  make([]interval.Interval[value.Value], arity),
	}
}

// Clone returns a copy of s that Widen can grow without touching s.
func (s Summary) Clone() Summary {
	return Summary{bits: slices.Clone(s.bits), env: slices.Clone(s.env)}
}

// Widen grows the envelope at attribute position pos to cover iv. A
// position outside the arity the summary was made for is a caller bug.
func (s *Summary) Widen(pos int, iv interval.Interval[value.Value]) {
	if s.bits[pos/64]&(1<<(pos%64)) == 0 {
		s.bits[pos/64] |= 1 << (pos % 64)
		s.env[pos] = widen(iv)
	} else {
		s.env[pos] = union(s.env[pos], widen(iv))
	}
}

// widen relaxes finite open bounds to closed so the envelope remains a
// superset under union.
func widen(iv interval.Interval[value.Value]) interval.Interval[value.Value] {
	if iv.Lo.Kind == interval.Finite {
		iv.Lo.Closed = true
	}
	if iv.Hi.Kind == interval.Finite {
		iv.Hi.Closed = true
	}
	return iv
}

// union returns the smallest closed-widened interval containing both
// inputs (both already widened).
func union(a, b interval.Interval[value.Value]) interval.Interval[value.Value] {
	if b.Lo.Kind == interval.NegInf ||
		(a.Lo.Kind == interval.Finite && b.Lo.Kind == interval.Finite &&
			value.Compare(b.Lo.Value, a.Lo.Value) < 0) {
		a.Lo = b.Lo
	}
	if b.Hi.Kind == interval.PosInf ||
		(a.Hi.Kind == interval.Finite && b.Hi.Kind == interval.Finite &&
			value.Compare(b.Hi.Value, a.Hi.Value) > 0) {
		a.Hi = b.Hi
	}
	return a
}

// Admit reports whether t lies inside the envelope of at least one
// attribute, i.e. whether some interval clause s was widened by could
// hold for it.
func (s Summary) Admit(t tuple.Tuple) bool {
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			// A position the tuple doesn't carry can't be proven a miss;
			// stay conservative and let the full path deal with the tuple.
			if i >= len(t) || s.env[i].Contains(value.Compare, t[i]) {
				return true
			}
		}
	}
	return false
}

// Envelope returns the union envelope at attribute position pos; ok is
// false where no interval clause has widened it.
func (s Summary) Envelope(pos int) (iv interval.Interval[value.Value], ok bool) {
	if pos < 0 || pos >= len(s.env) || s.bits[pos/64]&(1<<(pos%64)) == 0 {
		return iv, false
	}
	return s.env[pos], true
}

// Stats is a point-in-time snapshot of a matcher's admission counters.
type Stats struct {
	Admitted uint64 // tuples that proceeded to the full index probe
	Skipped  uint64 // tuples proven unmatchable without touching a tree
}
