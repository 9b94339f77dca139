package storage

import (
	"predmatch/internal/btree"
	"predmatch/internal/interval"
	"predmatch/internal/value"
)

// AttrStats maintains per-attribute statistics used by the optimizer's
// selectivity estimation: row count, minimum, maximum, and the number of
// distinct values. Distinct values are tracked exactly in an ordered
// multiset (a B+-tree of value -> occurrence count), which also yields
// min and max under deletion.
type AttrStats struct {
	count    int
	distinct *btree.Map[value.Value, int]
}

func newAttrStats() *AttrStats {
	return &AttrStats{distinct: btree.New[value.Value, int](value.Compare)}
}

func (s *AttrStats) add(v value.Value) {
	s.count++
	s.distinct.Update(v, func(n int, _ bool) (int, bool) { return n + 1, true })
}

func (s *AttrStats) remove(v value.Value) {
	s.count--
	s.distinct.Update(v, func(n int, _ bool) (int, bool) { return n - 1, n > 1 })
}

// Count returns the number of stored values (the relation cardinality).
func (s *AttrStats) Count() int { return s.count }

// Distinct returns the number of distinct values.
func (s *AttrStats) Distinct() int { return s.distinct.Len() }

// Min returns the smallest stored value.
func (s *AttrStats) Min() (value.Value, bool) {
	k, _, ok := s.distinct.Min()
	return k, ok
}

// Max returns the largest stored value.
func (s *AttrStats) Max() (value.Value, bool) {
	k, _, ok := s.distinct.Max()
	return k, ok
}

// Fraction returns the fraction of stored values lying within iv,
// computed exactly from the value multiset. The optimizer uses this when
// statistics exist and falls back to System R default selectivities
// otherwise (see internal/selectivity).
func (s *AttrStats) Fraction(iv interval.Interval[value.Value]) float64 {
	if s.count == 0 {
		return 0
	}
	matched := 0
	s.distinct.AscendRange(iv, func(_ value.Value, n int) bool {
		matched += n
		return true
	})
	return float64(matched) / float64(s.count)
}
