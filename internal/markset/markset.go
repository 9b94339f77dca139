// Package markset provides the small sets of interval identifiers stored
// in the <, = and > slots of IBS-tree nodes (Hanson et al., SIGMOD 1990,
// Section 4.2).
//
// Two implementations are provided. SliceSet keeps a sorted slice — compact
// and cache friendly, the sensible default for the small sets that arise in
// practice. AVLSet keeps a balanced binary search tree, the representation
// assumed by the paper's O(log^2 N) update analysis ("if mark sets are
// maintained using auxiliary binary search trees"). The choice is an
// ablation axis in the benchmark suite.
package markset

import "sort"

// ID identifies an interval (predicate) stored in an interval index.
type ID int64

// Set is a mutable set of interval identifiers.
type Set interface {
	// Add inserts id and reports whether it was not already present.
	Add(id ID) bool
	// Remove deletes id and reports whether it was present.
	Remove(id ID) bool
	// Has reports membership.
	Has(id ID) bool
	// Len returns the number of members.
	Len() int
	// Each calls fn for every member until fn returns false.
	// The set must not be mutated during iteration.
	Each(fn func(ID) bool)
	// IDs returns the members as a fresh slice in ascending order.
	IDs() []ID
	// AppendTo appends the members to dst in ascending order and returns
	// it. Unlike Each it takes no callback, so a caller collecting into a
	// pre-sized slice allocates nothing.
	AppendTo(dst []ID) []ID
}

// Factory constructs an empty Set. IBS-trees take a Factory so the slot
// representation can be swapped per tree.
type Factory func() Set

// NewSlice is a Factory for SliceSet.
func NewSlice() Set { return &SliceSet{} }

// NewAVL is a Factory for AVLSet.
func NewAVL() Set { return &AVLSet{} }

// SliceSet is a Set backed by a sorted slice. Membership tests are
// O(log n); insertion and removal are O(n) moves, which is fast in
// practice for the small n typical of IBS-tree mark sets.
type SliceSet struct {
	ids []ID
}

func (s *SliceSet) search(id ID) (int, bool) {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	return i, i < len(s.ids) && s.ids[i] == id
}

// Add inserts id, reporting whether it was absent.
func (s *SliceSet) Add(id ID) bool {
	i, ok := s.search(id)
	if ok {
		return false
	}
	s.ids = append(s.ids, 0)
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = id
	return true
}

// Remove deletes id, reporting whether it was present.
func (s *SliceSet) Remove(id ID) bool {
	i, ok := s.search(id)
	if !ok {
		return false
	}
	s.ids = append(s.ids[:i], s.ids[i+1:]...)
	return true
}

// Has reports membership.
func (s *SliceSet) Has(id ID) bool { _, ok := s.search(id); return ok }

// Len returns the number of members.
func (s *SliceSet) Len() int { return len(s.ids) }

// Each iterates members in ascending order.
func (s *SliceSet) Each(fn func(ID) bool) {
	for _, id := range s.ids {
		if !fn(id) {
			return
		}
	}
}

// IDs returns a copy of the members in ascending order.
func (s *SliceSet) IDs() []ID {
	out := make([]ID, len(s.ids))
	copy(out, s.ids)
	return out
}

// AppendTo appends the members to dst in ascending order.
func (s *SliceSet) AppendTo(dst []ID) []ID { return append(dst, s.ids...) }

// AVLSet is a Set backed by an AVL tree, giving O(log n) insertion,
// removal and membership. This is the auxiliary-binary-search-tree
// representation from the paper's Section 5.1 analysis.
type AVLSet struct {
	root *avlNode
	n    int
}

type avlNode struct {
	id          ID
	left, right *avlNode
	height      int8
}

func height(n *avlNode) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func (n *avlNode) fix() {
	l, r := height(n.left), height(n.right)
	if l > r {
		n.height = l + 1
	} else {
		n.height = r + 1
	}
}

func rotateRight(n *avlNode) *avlNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotateLeft(n *avlNode) *avlNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}

func rebalance(n *avlNode) *avlNode {
	n.fix()
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func avlInsert(n *avlNode, id ID, added *bool) *avlNode {
	if n == nil {
		*added = true
		return &avlNode{id: id, height: 1}
	}
	switch {
	case id < n.id:
		n.left = avlInsert(n.left, id, added)
	case id > n.id:
		n.right = avlInsert(n.right, id, added)
	default:
		return n
	}
	return rebalance(n)
}

func avlDelete(n *avlNode, id ID, removed *bool) *avlNode {
	if n == nil {
		return nil
	}
	switch {
	case id < n.id:
		n.left = avlDelete(n.left, id, removed)
	case id > n.id:
		n.right = avlDelete(n.right, id, removed)
	default:
		*removed = true
		if n.left == nil {
			return n.right
		}
		if n.right == nil {
			return n.left
		}
		// Replace with predecessor value, then delete the predecessor.
		p := n.left
		for p.right != nil {
			p = p.right
		}
		n.id = p.id
		var dummy bool
		n.left = avlDelete(n.left, p.id, &dummy)
	}
	return rebalance(n)
}

// Add inserts id, reporting whether it was absent.
func (s *AVLSet) Add(id ID) bool {
	var added bool
	s.root = avlInsert(s.root, id, &added)
	if added {
		s.n++
	}
	return added
}

// Remove deletes id, reporting whether it was present.
func (s *AVLSet) Remove(id ID) bool {
	var removed bool
	s.root = avlDelete(s.root, id, &removed)
	if removed {
		s.n--
	}
	return removed
}

// Has reports membership.
func (s *AVLSet) Has(id ID) bool {
	n := s.root
	for n != nil {
		switch {
		case id < n.id:
			n = n.left
		case id > n.id:
			n = n.right
		default:
			return true
		}
	}
	return false
}

// Len returns the number of members.
func (s *AVLSet) Len() int { return s.n }

// Each iterates members in ascending order.
func (s *AVLSet) Each(fn func(ID) bool) {
	var walk func(n *avlNode) bool
	walk = func(n *avlNode) bool {
		if n == nil {
			return true
		}
		return walk(n.left) && fn(n.id) && walk(n.right)
	}
	walk(s.root)
}

// IDs returns the members in ascending order.
func (s *AVLSet) IDs() []ID { return s.AppendTo(make([]ID, 0, s.n)) }

// AppendTo appends the members to dst in ascending order.
func (s *AVLSet) AppendTo(dst []ID) []ID { return s.root.appendTo(dst) }

func (n *avlNode) appendTo(dst []ID) []ID {
	if n == nil {
		return dst
	}
	return n.right.appendTo(append(n.left.appendTo(dst), n.id))
}
