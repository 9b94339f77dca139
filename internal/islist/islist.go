// Package islist implements an interval skip list — the dynamic
// stabbing-query structure Hanson developed as the successor to this
// paper's IBS-tree (Hanson, "The Interval Skip List", TR-91-016, and
// Hanson & Johnson 1992; the paper's Section 6 invites exactly this kind
// of comparison of "several different techniques for dynamically
// indexing intervals").
//
// The idea transfers the IBS-tree's marker scheme onto a skip list:
// interval endpoints are skip-list nodes; each forward edge carries a
// set of markers; a marker for interval I on the level-l edge (A, B)
// asserts that the open span (A.value, B.value) lies within I; each node
// additionally carries eqMarkers — intervals containing the node's value
// that have a marker on an adjacent edge. Inserting an interval walks
// from its left endpoint to its right endpoint taking the highest edge
// that stays inside the interval, placing O(log N) markers in
// expectation. A stabbing query follows the ordinary skip-list descent,
// collecting the markers of every edge it descends from whose span
// strictly contains the query point, plus the eqMarkers of an exactly
// hit node: O(log N + L) expected.
//
// As in this repository's IBS-tree, a per-interval registry of marker
// locations makes deletion exact: structural changes (splitting edges on
// node insertion, merging them on removal) unmark and re-place only the
// affected intervals. The same conformance harness and invariant
// checker discipline applies.
package islist

import (
	"fmt"
	"math/rand"

	"predmatch/internal/interval"
	"predmatch/internal/markset"
)

// ID identifies an interval.
type ID = markset.ID

const (
	maxLevel = 32
	// pLevel is the level promotion probability (1/4, Pugh's choice).
	pLevel = 0.25
)

// node is one skip-list node. Level l's forward pointer and marker set
// describe the edge leaving this node at that level. The header node has
// no value (isHeader).
type node[T any] struct {
	value    T
	isHeader bool
	forward  []*node[T]
	markers  []markset.Set
	eq       markset.Set
	// lo and hi hold the ids of intervals having this value as their
	// finite lower/upper endpoint (endpoint reference counts).
	lo, hi markset.Set
}

// markLoc records one marker placement for the registry. level == -1
// denotes an eqMarker on the node.
type markLoc[T any] struct {
	n     *node[T]
	level int
}

type record[T any] struct {
	iv    interval.Interval[T]
	marks []markLoc[T]
}

// List is an interval skip list over domain T. Not safe for concurrent
// use.
type List[T any] struct {
	cmp       interval.Cmp[T]
	newSet    markset.Factory
	rng       *rand.Rand
	head      *node[T]
	level     int // current number of levels in use
	nodes     int
	marks     int
	recs      map[ID]*record[T]
	universal map[ID]bool
}

// Option configures a List.
type Option func(*config)

type config struct {
	newSet markset.Factory
	seed   int64
}

// MarkSets selects the marker-set representation.
func MarkSets(f markset.Factory) Option { return func(c *config) { c.newSet = f } }

// Seed fixes the level-generator seed (default 1).
func Seed(s int64) Option { return func(c *config) { c.seed = s } }

// New returns an empty interval skip list ordered by cmp.
func New[T any](cmp interval.Cmp[T], opts ...Option) *List[T] {
	c := config{newSet: markset.NewSlice, seed: 1}
	for _, o := range opts {
		o(&c)
	}
	l := &List[T]{
		cmp:       cmp,
		newSet:    c.newSet,
		rng:       rand.New(rand.NewSource(c.seed)),
		level:     1,
		recs:      make(map[ID]*record[T]),
		universal: make(map[ID]bool),
	}
	l.head = l.newNode(maxLevel)
	l.head.isHeader = true
	return l
}

func (l *List[T]) newNode(levels int) *node[T] {
	n := &node[T]{
		forward: make([]*node[T], levels),
		markers: make([]markset.Set, levels),
		eq:      l.newSet(),
		lo:      l.newSet(),
		hi:      l.newSet(),
	}
	for i := range n.markers {
		n.markers[i] = l.newSet()
	}
	return n
}

// Len returns the number of stored intervals.
func (l *List[T]) Len() int { return len(l.recs) }

// NodeCount returns the number of endpoint nodes.
func (l *List[T]) NodeCount() int { return l.nodes }

// MarkerCount returns the number of placed markers (edge + eq).
func (l *List[T]) MarkerCount() int { return l.marks }

// Levels returns the number of levels currently in use.
func (l *List[T]) Levels() int { return l.level }

// Get returns the interval stored under id.
func (l *List[T]) Get(id ID) (interval.Interval[T], bool) {
	rec, ok := l.recs[id]
	if !ok {
		return interval.Interval[T]{}, false
	}
	return rec.iv, true
}

func (l *List[T]) randomLevels() int {
	h := 1
	for h < maxLevel && l.rng.Float64() < pLevel {
		h++
	}
	return h
}

// mark places id on the level-l edge leaving n (or as an eqMarker when
// level == -1), recording the location.
func (l *List[T]) mark(rec *record[T], id ID, n *node[T], level int) {
	var set markset.Set
	if level < 0 {
		set = n.eq
	} else {
		set = n.markers[level]
	}
	if !set.Add(id) {
		return
	}
	rec.marks = append(rec.marks, markLoc[T]{n: n, level: level})
	l.marks++
}

func (l *List[T]) unmarkAll(id ID, rec *record[T]) {
	for _, loc := range rec.marks {
		if loc.level < 0 {
			loc.n.eq.Remove(id)
		} else {
			loc.n.markers[loc.level].Remove(id)
		}
	}
	l.marks -= len(rec.marks)
	rec.marks = rec.marks[:0]
}

// spanBound converts a node boundary to an interval bound for
// CoversOpenRange (header -> -inf, nil forward -> +inf).
func headBound[T any](n *node[T]) interval.Bound[T] {
	if n.isHeader {
		return interval.Bound[T]{Kind: interval.NegInf}
	}
	return interval.Bound[T]{Kind: interval.Finite, Value: n.value}
}

func tailBound[T any](n *node[T]) interval.Bound[T] {
	if n == nil {
		return interval.Bound[T]{Kind: interval.PosInf}
	}
	return interval.Bound[T]{Kind: interval.Finite, Value: n.value}
}

// edgeWithin reports whether the open span of n's level-lv edge lies
// inside iv.
func (l *List[T]) edgeWithin(n *node[T], lv int, iv interval.Interval[T]) bool {
	return iv.CoversOpenRange(l.cmp, headBound(n), tailBound(n.forward[lv]))
}

// search fills update[lv] with the last node at level lv whose value is
// strictly less than v (the standard skip-list predecessor vector).
func (l *List[T]) search(v T, update []*node[T]) *node[T] {
	n := l.head
	for lv := l.level - 1; lv >= 0; lv-- {
		for n.forward[lv] != nil && l.cmp(n.forward[lv].value, v) < 0 {
			n = n.forward[lv]
		}
		update[lv] = n
	}
	return n.forward[0]
}

// insertValue ensures a node for v exists, splitting edges and copying
// their markers so query completeness is preserved, and returns it.
func (l *List[T]) insertValue(v T) *node[T] {
	var update [maxLevel]*node[T]
	for i := range update {
		update[i] = l.head
	}
	found := l.search(v, update[:])
	if found != nil && l.cmp(found.value, v) == 0 {
		return found
	}
	levels := l.randomLevels()
	if levels > l.level {
		l.level = levels
	}
	x := l.newNode(levels)
	x.value = v
	l.nodes++
	for lv := 0; lv < levels; lv++ {
		pred := update[lv]
		x.forward[lv] = pred.forward[lv]
		pred.forward[lv] = x
		// The old edge (pred -> x.forward[lv]) split in two: its markers
		// remain sound on both halves, but the new right half (x -> next)
		// starts empty, which would lose completeness for queries beyond
		// x. Copy the markers across and add them to x's eqMarkers (their
		// spans strictly contained x's value).
		pred.markers[lv].Each(func(id ID) bool {
			rec := l.recs[id]
			l.mark(rec, id, x, lv)
			l.mark(rec, id, x, -1)
			return true
		})
	}
	return x
}

// Insert adds iv under id.
func (l *List[T]) Insert(id ID, iv interval.Interval[T]) error {
	if err := iv.Validate(l.cmp); err != nil {
		return err
	}
	if _, dup := l.recs[id]; dup {
		return fmt.Errorf("islist: duplicate interval id %d", id)
	}
	rec := &record[T]{iv: iv}
	l.recs[id] = rec
	if iv.Lo.Kind == interval.NegInf && iv.Hi.Kind == interval.PosInf {
		l.universal[id] = true
		return nil
	}
	if iv.Lo.Kind == interval.Finite {
		l.insertValue(iv.Lo.Value).lo.Add(id)
	}
	if iv.Hi.Kind == interval.Finite {
		l.insertValue(iv.Hi.Value).hi.Add(id)
	}
	l.placeMarks(id, rec)
	return nil
}

// placeMarks walks from the interval's left boundary to its right
// boundary, always taking the highest edge that stays inside the
// interval.
func (l *List[T]) placeMarks(id ID, rec *record[T]) {
	iv := rec.iv
	// Starting node: the lower endpoint's node, or the header for an
	// unbounded lower end.
	var x *node[T]
	if iv.Lo.Kind == interval.Finite {
		var update [maxLevel]*node[T]
		for i := range update {
			update[i] = l.head
		}
		x = l.search(iv.Lo.Value, update[:])
	} else {
		x = l.head
	}
	for x != nil {
		if !x.isHeader && iv.Contains(l.cmp, x.value) {
			l.mark(rec, id, x, -1)
		}
		// Highest edge within the interval.
		best := -1
		for lv := len(x.forward) - 1; lv >= 0; lv-- {
			if lv >= l.level {
				continue
			}
			if l.edgeWithin(x, lv, iv) {
				best = lv
				break
			}
		}
		if best < 0 {
			return
		}
		l.mark(rec, id, x, best)
		x = x.forward[best]
	}
}

// Delete removes the interval stored under id.
func (l *List[T]) Delete(id ID) error {
	rec, ok := l.recs[id]
	if !ok {
		return fmt.Errorf("islist: unknown interval id %d", id)
	}
	l.unmarkAll(id, rec)
	iv := rec.iv
	delete(l.recs, id)
	if l.universal[id] {
		delete(l.universal, id)
		return nil
	}
	if iv.Lo.Kind == interval.Finite {
		if n := l.findNode(iv.Lo.Value); n != nil {
			n.lo.Remove(id)
		}
	}
	if iv.Hi.Kind == interval.Finite {
		if n := l.findNode(iv.Hi.Value); n != nil {
			n.hi.Remove(id)
		}
	}
	if iv.Lo.Kind == interval.Finite {
		l.removeValueIfUnused(iv.Lo.Value)
	}
	if iv.Hi.Kind == interval.Finite && !iv.IsPoint(l.cmp) {
		l.removeValueIfUnused(iv.Hi.Value)
	}
	return nil
}

func (l *List[T]) findNode(v T) *node[T] {
	var update [maxLevel]*node[T]
	for i := range update {
		update[i] = l.head
	}
	n := l.search(v, update[:])
	if n != nil && l.cmp(n.value, v) == 0 {
		return n
	}
	return nil
}

// removeValueIfUnused splices out the node for v when no interval uses
// it as an endpoint. Every interval with markers on the node's adjacent
// edges (or its eqMarkers) is unmarked first and re-placed afterwards,
// since edge merges invalidate their locations.
func (l *List[T]) removeValueIfUnused(v T) {
	var update [maxLevel]*node[T]
	for i := range update {
		update[i] = l.head
	}
	x := l.search(v, update[:])
	if x == nil || l.cmp(x.value, v) != 0 {
		return
	}
	if x.lo.Len() > 0 || x.hi.Len() > 0 {
		return
	}

	affected := make(map[ID]*record[T])
	collect := func(s markset.Set) {
		s.Each(func(id ID) bool {
			if rec, ok := l.recs[id]; ok {
				affected[id] = rec
			}
			return true
		})
	}
	collect(x.eq)
	for lv := range x.markers {
		collect(x.markers[lv])          // outgoing edges
		collect(update[lv].markers[lv]) // incoming edges
	}
	for id, rec := range affected {
		l.unmarkAll(id, rec)
	}

	for lv := 0; lv < len(x.forward); lv++ {
		if update[lv].forward[lv] == x {
			update[lv].forward[lv] = x.forward[lv]
		}
	}
	l.nodes--
	for l.level > 1 && l.head.forward[l.level-1] == nil {
		l.level--
	}

	for id, rec := range affected {
		l.placeMarks(id, rec)
	}
}

// Stab returns the ids of all intervals containing x, ascending.
func (l *List[T]) Stab(x T) []ID { return l.StabAppend(x, nil) }

// StabAppend appends the ids of all intervals containing x to dst
// (sorted and duplicate-free within the appended region).
func (l *List[T]) StabAppend(x T, dst []ID) []ID {
	start := len(dst)
	for id := range l.universal {
		dst = append(dst, id)
	}
	n := l.head
	for lv := l.level - 1; lv >= 0; lv-- {
		for n.forward[lv] != nil && l.cmp(n.forward[lv].value, x) < 0 {
			n = n.forward[lv]
		}
		next := n.forward[lv]
		switch {
		case next == nil || l.cmp(next.value, x) > 0:
			// Descending from an edge whose open span contains x.
			dst = n.markers[lv].AppendTo(dst)
		case lv == 0:
			// Landed exactly on x.
			dst = next.eq.AppendTo(dst)
		}
	}
	return dedupe(dst, start)
}

func dedupe(dst []ID, start int) []ID {
	s := dst[start:]
	if len(s) < 2 {
		return dst
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return dst[:start+w]
}
