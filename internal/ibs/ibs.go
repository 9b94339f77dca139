// Package ibs implements the interval binary search tree (IBS-tree) of
// Hanson, Chaabouni, Kim and Wang, "A Predicate Matching Algorithm for
// Database Rule Systems", SIGMOD 1990, Section 4.
//
// An IBS-tree is a binary search tree over interval endpoint values in
// which every node carries three mark sets:
//
//   - '=' : identifiers of intervals that overlap the node's value;
//   - '<' : identifiers of intervals that cover the entire routing range
//     of the node's left subtree (every value that would be inserted
//     into the left subtree lies within the interval);
//   - '>' : symmetric, for the right subtree.
//
// A stabbing query for a point X (paper Figure 4, Stab here) walks a
// single root-to-leaf path, unioning the '<' set when it turns left, the
// '>' set when it turns right, and the '=' set when it lands on X —
// O(log N + L) for N intervals of which L overlap X. Unlike segment trees
// and static interval trees, the IBS-tree supports on-line insertion and
// deletion of intervals, including point intervals (equality predicates)
// and intervals with unbounded ends, on any totally ordered domain for
// which a {<, =, >} comparator exists.
//
// The tree can be kept balanced: rotations adjust the mark sets using the
// rules of the paper's Figure 6 (see rotate.go). The paper's own prototype
// left balancing unimplemented; here both modes are available (Balanced
// option) and benchmarked against each other.
//
// # Deviations from the paper
//
// Deletion follows the spirit of the paper's Section 4.2 procedure but is
// implemented defensively: every interval whose marks could be invalidated
// by removing an endpoint node (marks on the node itself, on the spliced
// predecessor, or marks whose routing range is bounded by a moving value)
// is unmarked before the structural change and re-marked afterwards. A
// per-interval registry of mark locations makes unmarking exact even after
// arbitrary rotations, where marks no longer sit on the two canonical
// insertion paths. See remove.go and DESIGN.md.
package ibs

import (
	"fmt"

	"predmatch/internal/interval"
	"predmatch/internal/markset"
)

// ID identifies an interval stored in the tree. In the predicate-matching
// scheme of the paper an ID names a predicate clause.
type ID = markset.ID

// slot indexes the three mark sets of a node.
type slot uint8

const (
	slotLT slot = iota // '<' : marks covering the left subtree's range
	slotEQ             // '=' : marks overlapping the node value
	slotGT             // '>' : marks covering the right subtree's range
)

func (s slot) String() string {
	switch s {
	case slotLT:
		return "<"
	case slotEQ:
		return "="
	case slotGT:
		return ">"
	}
	return "?"
}

// node is one IBS-tree node: an endpoint value, the three mark sets, and
// the sets of intervals for which the value is a finite lower or upper
// endpoint (the endpoint reference counts that drive node removal).
type node[T any] struct {
	value       T
	marks       [3]markset.Set
	lo, hi      markset.Set
	left, right *node[T]
	height      int32
}

// markLoc records where one mark of an interval lives.
type markLoc[T any] struct {
	n *node[T]
	s slot
}

// record is the per-interval registry entry: the interval itself plus the
// location of every mark currently placed for it.
type record[T any] struct {
	iv    interval.Interval[T]
	marks []markLoc[T]
}

// Tree is an IBS-tree over domain T. It is not safe for concurrent use;
// the predicate index in internal/core adds locking at its own level.
type Tree[T any] struct {
	cmp      interval.Cmp[T]
	newSet   markset.Factory
	balanced bool
	instr    *Counters // optional; shared across clones (see metrics.go)
	root     *node[T]
	recs     map[ID]*record[T]
	nodes    int
	marks    int // total marks currently placed (space accounting)

	// universal holds intervals unbounded on both ends. They match every
	// query point but have no finite endpoint to hang marks on (an empty
	// tree has no nodes at all), so they are kept out of the node marks
	// and appended to every stab result instead.
	universal map[ID]bool
}

// Option configures a Tree.
type Option func(*config)

type config struct {
	newSet   markset.Factory
	balanced bool
	instr    *Counters
}

// Balanced enables AVL balancing with the paper's Figure-6 mark rotation
// rules. The paper's own measurements (Figures 7–8) used an unbalanced
// tree with random insertion order; benchmarks here cover both.
func Balanced(on bool) Option { return func(c *config) { c.balanced = on } }

// MarkSets selects the mark-set representation (markset.NewSlice by
// default; markset.NewAVL matches the paper's O(log^2 N) analysis).
func MarkSets(f markset.Factory) Option { return func(c *config) { c.newSet = f } }

// New returns an empty IBS-tree using cmp as the total order on T.
func New[T any](cmp interval.Cmp[T], opts ...Option) *Tree[T] {
	c := config{newSet: markset.NewSlice, balanced: true}
	for _, o := range opts {
		o(&c)
	}
	return &Tree[T]{
		cmp:       cmp,
		newSet:    c.newSet,
		balanced:  c.balanced,
		instr:     c.instr,
		recs:      make(map[ID]*record[T]),
		universal: make(map[ID]bool),
	}
}

// Len returns the number of intervals currently indexed.
func (t *Tree[T]) Len() int { return len(t.recs) }

// NodeCount returns the number of endpoint nodes in the tree.
func (t *Tree[T]) NodeCount() int { return t.nodes }

// MarkerCount returns the total number of marks placed in the tree, the
// space measure of the paper's Section 5.1 (O(N log N) worst case, O(N)
// for non-overlapping intervals).
func (t *Tree[T]) MarkerCount() int { return t.marks }

// Height returns the height of the tree (0 when empty).
func (t *Tree[T]) Height() int { return int(height(t.root)) }

// Balanced reports whether AVL balancing is enabled.
func (t *Tree[T]) Balanced() bool { return t.balanced }

// Get returns the interval stored under id.
func (t *Tree[T]) Get(id ID) (interval.Interval[T], bool) {
	rec, ok := t.recs[id]
	if !ok {
		return interval.Interval[T]{}, false
	}
	return rec.iv, true
}

// Each calls fn for every (id, interval) pair until fn returns false.
func (t *Tree[T]) Each(fn func(ID, interval.Interval[T]) bool) {
	for id, rec := range t.recs {
		if !fn(id, rec.iv) {
			return
		}
	}
}

// Insert adds iv under identifier id. It returns an error if the interval
// is malformed or id is already present. Insertion is the paper's
// insertPredicate: the two finite endpoints are inserted as tree values
// (rebalancing if configured), then the addLeft and addRight walks place
// the marks for the interval.
func (t *Tree[T]) Insert(id ID, iv interval.Interval[T]) error {
	if err := iv.Validate(t.cmp); err != nil {
		return err
	}
	if _, dup := t.recs[id]; dup {
		return fmt.Errorf("ibs: duplicate interval id %d", id)
	}
	rec := &record[T]{iv: iv}
	t.recs[id] = rec

	// Intervals unbounded on both ends match every point; track them
	// separately (see the universal field).
	if iv.Lo.Kind == interval.NegInf && iv.Hi.Kind == interval.PosInf {
		t.universal[id] = true
		return nil
	}

	// Phase 1: make sure endpoint nodes exist. New nodes carry empty mark
	// sets, which preserves every existing interval's marks (routing
	// ranges are defined by ancestor values, and queries that previously
	// fell off at the new node's position collect the same path marks).
	if iv.Lo.Kind == interval.Finite {
		n := t.insertValue(iv.Lo.Value)
		n.lo.Add(id)
	}
	if iv.Hi.Kind == interval.Finite {
		n := t.insertValue(iv.Hi.Value)
		n.hi.Add(id)
	}

	// Phase 2: place marks along the two endpoint search paths.
	t.addLeft(id, rec, t.root, interval.Above[T]())
	t.addRight(id, rec, t.root, interval.Below[T]())
	return nil
}

// Delete removes the interval stored under id: all of its marks are
// removed, and endpoint nodes no longer referenced by any interval are
// structurally deleted (rebalancing if configured).
func (t *Tree[T]) Delete(id ID) error {
	rec, ok := t.recs[id]
	if !ok {
		return fmt.Errorf("ibs: unknown interval id %d", id)
	}
	t.unmarkAll(id, rec)
	iv := rec.iv
	delete(t.recs, id)
	if t.universal[id] {
		delete(t.universal, id)
		return nil
	}

	// Drop endpoint references first so a shared endpoint node of a point
	// interval is handled once.
	if iv.Lo.Kind == interval.Finite {
		if n := t.find(iv.Lo.Value); n != nil {
			n.lo.Remove(id)
		}
	}
	if iv.Hi.Kind == interval.Finite {
		if n := t.find(iv.Hi.Value); n != nil {
			n.hi.Remove(id)
		}
	}
	if iv.Lo.Kind == interval.Finite {
		t.removeValueIfUnused(iv.Lo.Value)
	}
	if iv.Hi.Kind == interval.Finite && !iv.IsPoint(t.cmp) {
		t.removeValueIfUnused(iv.Hi.Value)
	}
	return nil
}

// Stab returns the identifiers of all intervals containing x, in
// ascending order. This is the paper's findIntervals (Figure 4).
func (t *Tree[T]) Stab(x T) []ID {
	return t.StabAppend(x, nil)
}

// StabAppend appends the identifiers of all intervals containing x to
// dst and returns it, allowing allocation-free reuse across queries.
// The result is sorted and duplicate-free within the appended region.
//
// Counting is done in locals and flushed as a handful of atomic adds
// per query (see Counters), keeping the instrumented walk as cheap as
// the bare one.
func (t *Tree[T]) StabAppend(x T, dst []ID) []ID {
	start := len(dst)
	for id := range t.universal {
		dst = append(dst, id)
	}
	var visited, cmps int
	n := t.root
	for n != nil {
		visited++
		cmps++
		c := t.cmp(x, n.value)
		switch {
		case c == 0:
			dst = n.marks[slotEQ].AppendTo(dst)
			n = nil
		case c < 0:
			dst = n.marks[slotLT].AppendTo(dst)
			n = n.left
		default:
			dst = n.marks[slotGT].AppendTo(dst)
			n = n.right
		}
	}
	dst, dcmps := dedupeSortedCount(dst, start)
	if t.instr != nil {
		t.instr.Stabs.Inc()
		t.instr.NodesVisited.Add(uint64(visited))
		t.instr.Comparisons.Add(uint64(cmps + dcmps))
	}
	return dst
}

// StabFunc calls fn for every interval containing x. Identifiers may be
// reported in any order; each matching identifier is reported exactly
// once per slot it appears in on the search path, which after rotations
// can occasionally mean twice — callers needing exact sets should use
// Stab/StabAppend.
func (t *Tree[T]) StabFunc(x T, fn func(ID) bool) {
	n := t.root
	stop := false
	visit := func(id ID) bool {
		if !fn(id) {
			stop = true
		}
		return !stop
	}
	for id := range t.universal {
		if !visit(id) {
			return
		}
	}
	for n != nil && !stop {
		c := t.cmp(x, n.value)
		switch {
		case c == 0:
			n.marks[slotEQ].Each(visit)
			return
		case c < 0:
			n.marks[slotLT].Each(visit)
			n = n.left
		default:
			n.marks[slotGT].Each(visit)
			n = n.right
		}
	}
}

// dedupeSorted sorts dst[start:] and removes duplicates in place.
func dedupeSorted(dst []ID, start int) []ID {
	dst, _ = dedupeSortedCount(dst, start)
	return dst
}

// dedupeSortedCount is dedupeSorted plus the number of identifier
// comparisons spent, which feeds the Comparisons counter: the sort term
// is the per-query cost of the L overlapping intervals in the paper's
// O(log N + L) bound.
func dedupeSortedCount(dst []ID, start int) ([]ID, int) {
	s := dst[start:]
	if len(s) < 2 {
		return dst, 0
	}
	cmps := 0
	// Insertion sort: collected sets are already sorted runs, and result
	// sizes are small (L overlapping intervals).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			cmps++
			if s[j] >= s[j-1] {
				break
			}
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	w := 1
	for i := 1; i < len(s); i++ {
		cmps++
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return dst[:start+w], cmps
}

// newNode allocates a node with empty mark and endpoint sets.
func (t *Tree[T]) newNode(v T) *node[T] {
	return &node[T]{
		value:  v,
		marks:  [3]markset.Set{t.newSet(), t.newSet(), t.newSet()},
		lo:     t.newSet(),
		hi:     t.newSet(),
		height: 1,
	}
}

// find returns the node holding value v, or nil.
func (t *Tree[T]) find(v T) *node[T] {
	n := t.root
	for n != nil {
		c := t.cmp(v, n.value)
		switch {
		case c == 0:
			return n
		case c < 0:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil
}

// insertValue inserts v as a tree value if absent and returns its node.
// Rotations performed while rebalancing adjust existing marks but never
// change any node's value, so the returned pointer stays valid.
func (t *Tree[T]) insertValue(v T) *node[T] {
	var out *node[T]
	t.root = t.insertValueRec(t.root, v, &out)
	return out
}

func (t *Tree[T]) insertValueRec(n *node[T], v T, out **node[T]) *node[T] {
	if n == nil {
		nn := t.newNode(v)
		*out = nn
		t.nodes++
		return nn
	}
	c := t.cmp(v, n.value)
	switch {
	case c == 0:
		*out = n
		return n
	case c < 0:
		n.left = t.insertValueRec(n.left, v, out)
	default:
		n.right = t.insertValueRec(n.right, v, out)
	}
	if t.balanced {
		return t.rebalance(n)
	}
	n.fixHeight()
	return n
}

func height[T any](n *node[T]) int32 {
	if n == nil {
		return 0
	}
	return n.height
}

func (n *node[T]) fixHeight() {
	l, r := height(n.left), height(n.right)
	if l > r {
		n.height = l + 1
	} else {
		n.height = r + 1
	}
}
