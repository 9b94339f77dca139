// Package btree implements an in-memory B+-tree ordered map with range
// scans. It is the storage-level attribute index of the relational
// substrate: the physical-locking baseline of the paper's Section 2.3
// plans index scans over these trees and attaches its interval locks to
// the key ranges they cover, and the storage engine uses them for
// secondary indexes and statistics maintenance.
//
// Keys are generic over any totally ordered domain (explicit comparator);
// leaves are chained for ordered iteration.
package btree

import (
	"fmt"

	"predmatch/internal/interval"
)

// Map is a B+-tree ordered map from K to V. The zero value is not usable;
// call New. Not safe for concurrent mutation.
type Map[K, V any] struct {
	cmp     interval.Cmp[K]
	maxKeys int
	root    *node[K, V]
	size    int
}

type node[K, V any] struct {
	leaf     bool
	keys     []K
	vals     []V           // leaves only
	children []*node[K, V] // internal only; len(children) == len(keys)+1
	next     *node[K, V]   // leaf chain
}

// Option configures a Map.
type Option func(*options)

type options struct{ maxKeys int }

// Degree sets the maximum number of keys per node (default 32, minimum 3).
func Degree(maxKeys int) Option {
	return func(o *options) {
		if maxKeys >= 3 {
			o.maxKeys = maxKeys
		}
	}
}

// New returns an empty map ordered by cmp.
func New[K, V any](cmp interval.Cmp[K], opts ...Option) *Map[K, V] {
	o := options{maxKeys: 32}
	for _, fn := range opts {
		fn(&o)
	}
	return &Map[K, V]{
		cmp:     cmp,
		maxKeys: o.maxKeys,
		root:    &node[K, V]{leaf: true},
	}
}

// Len returns the number of key/value pairs.
func (m *Map[K, V]) Len() int { return m.size }

// findChild returns the child index to descend into for key k: the
// number of separator keys <= k. Separator keys[i] is the smallest key
// reachable through children[i+1].
func (m *Map[K, V]) findChild(n *node[K, V], k K) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cmp(n.keys[mid], k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findKey returns the position of k in a leaf and whether it is present.
func (m *Map[K, V]) findKey(n *node[K, V], k K) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cmp(n.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && m.cmp(n.keys[lo], k) == 0
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	n := m.root
	for !n.leaf {
		n = n.children[m.findChild(n, k)]
	}
	i, ok := m.findKey(n, k)
	if !ok {
		var zero V
		return zero, false
	}
	return n.vals[i], true
}

// Has reports whether k is present.
func (m *Map[K, V]) Has(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Put stores v under k, returning the previous value if one was replaced.
func (m *Map[K, V]) Put(k K, v V) (old V, replaced bool) {
	m.Update(k, func(cur V, ok bool) (V, bool) {
		old, replaced = cur, ok
		return v, true
	})
	return old, replaced
}

// Delete removes k, returning the removed value.
func (m *Map[K, V]) Delete(k K) (old V, removed bool) {
	m.Update(k, func(cur V, ok bool) (V, bool) {
		old, removed = cur, ok
		return cur, false
	})
	return old, removed
}

// Update is a read-modify-write of the entry under k in one root-to-leaf
// walk. fn receives the stored value (the zero V and ok=false when k is
// absent) and returns the value to store and whether k stays in the map:
// keep=false removes a present key and leaves an absent one absent. fn
// must not touch the map.
func (m *Map[K, V]) Update(k K, fn func(old V, ok bool) (v V, keep bool)) {
	m.size += m.update(m.root, k, fn)
	if len(m.root.keys) > m.maxKeys {
		left := m.root
		sep, right := m.split(left)
		m.root = &node[K, V]{
			keys:     []K{sep},
			children: []*node[K, V]{left, right},
		}
	}
	if !m.root.leaf && len(m.root.children) == 1 {
		m.root = m.root.children[0]
	}
}

// update applies fn at k's leaf position under n and repairs n's child
// on the way back up: split when the walk overfilled it, borrow or merge
// when it underfilled it. It returns the change in the number of keys.
func (m *Map[K, V]) update(n *node[K, V], k K, fn func(V, bool) (V, bool)) int {
	if n.leaf {
		i, ok := m.findKey(n, k)
		var old V
		if ok {
			old = n.vals[i]
		}
		v, keep := fn(old, ok)
		switch {
		case ok && keep:
			n.vals[i] = v
		case ok:
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.vals = append(n.vals[:i], n.vals[i+1:]...)
			return -1
		case keep:
			n.keys = append(n.keys, k)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = k
			n.vals = append(n.vals, v)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = v
			return 1
		}
		return 0
	}
	ci := m.findChild(n, k)
	child := n.children[ci]
	delta := m.update(child, k, fn)
	switch {
	case len(child.keys) > m.maxKeys:
		sep, right := m.split(child)
		n.keys = append(n.keys, sep)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sep
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = right
	case len(child.keys) < m.minKeys():
		m.rebalanceChild(n, ci)
	}
	return delta
}

// split divides an overfull node, returning the separator key to promote
// and the new right sibling.
func (m *Map[K, V]) split(n *node[K, V]) (K, *node[K, V]) {
	mid := len(n.keys) / 2
	if n.leaf {
		right := &node[K, V]{
			leaf: true,
			keys: append([]K(nil), n.keys[mid:]...),
			vals: append([]V(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid:mid]
		n.vals = n.vals[:mid:mid]
		n.next = right
		// For leaves the separator is copied up: the right sibling keeps it.
		return right.keys[0], right
	}
	sep := n.keys[mid]
	right := &node[K, V]{
		keys:     append([]K(nil), n.keys[mid+1:]...),
		children: append([]*node[K, V](nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

func (m *Map[K, V]) minKeys() int { return m.maxKeys / 2 }

// rebalanceChild restores the minimum-occupancy invariant of
// n.children[ci] by borrowing from a sibling or merging with one.
func (m *Map[K, V]) rebalanceChild(n *node[K, V], ci int) {
	child := n.children[ci]
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := n.children[ci-1]
		if len(left.keys) > m.minKeys() {
			if child.leaf {
				last := len(left.keys) - 1
				child.keys = append(child.keys, *new(K))
				copy(child.keys[1:], child.keys)
				child.keys[0] = left.keys[last]
				child.vals = append(child.vals, *new(V))
				copy(child.vals[1:], child.vals)
				child.vals[0] = left.vals[last]
				left.keys = left.keys[:last]
				left.vals = left.vals[:last]
				n.keys[ci-1] = child.keys[0]
			} else {
				last := len(left.keys) - 1
				child.keys = append(child.keys, *new(K))
				copy(child.keys[1:], child.keys)
				child.keys[0] = n.keys[ci-1]
				n.keys[ci-1] = left.keys[last]
				child.children = append(child.children, nil)
				copy(child.children[1:], child.children)
				child.children[0] = left.children[len(left.children)-1]
				left.keys = left.keys[:last]
				left.children = left.children[:len(left.children)-1]
			}
			return
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(n.children)-1 {
		right := n.children[ci+1]
		if len(right.keys) > m.minKeys() {
			if child.leaf {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.keys = append(right.keys[:0], right.keys[1:]...)
				right.vals = append(right.vals[:0], right.vals[1:]...)
				n.keys[ci] = right.keys[0]
			} else {
				child.keys = append(child.keys, n.keys[ci])
				n.keys[ci] = right.keys[0]
				child.children = append(child.children, right.children[0])
				right.keys = append(right.keys[:0], right.keys[1:]...)
				right.children = append(right.children[:0], right.children[1:]...)
			}
			return
		}
	}
	// Merge with a sibling.
	if ci > 0 {
		m.mergeChildren(n, ci-1)
	} else {
		m.mergeChildren(n, ci)
	}
}

// mergeChildren merges n.children[i+1] into n.children[i].
func (m *Map[K, V]) mergeChildren(n *node[K, V], i int) {
	left, right := n.children[i], n.children[i+1]
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Min returns the smallest key.
func (m *Map[K, V]) Min() (K, V, bool) {
	n := m.root
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		var k K
		var v V
		return k, v, false
	}
	return n.keys[0], n.vals[0], true
}

// Max returns the largest key.
func (m *Map[K, V]) Max() (K, V, bool) {
	n := m.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		var k K
		var v V
		return k, v, false
	}
	last := len(n.keys) - 1
	return n.keys[last], n.vals[last], true
}

// Ascend calls fn for every pair in ascending key order until fn returns
// false.
func (m *Map[K, V]) Ascend(fn func(K, V) bool) {
	n := m.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		for i, k := range n.keys {
			if !fn(k, n.vals[i]) {
				return
			}
		}
	}
}

// AscendRange calls fn, in ascending key order, for every pair whose key
// lies within iv (honoring open/closed/unbounded ends) until fn returns
// false. This is the index scan of the physical-locking baseline.
func (m *Map[K, V]) AscendRange(iv interval.Interval[K], fn func(K, V) bool) {
	// Seek the first leaf that can contain an in-range key.
	n := m.root
	if iv.Lo.Kind == interval.Finite {
		for !n.leaf {
			n = n.children[m.findChild(n, iv.Lo.Value)]
		}
	} else {
		for !n.leaf {
			n = n.children[0]
		}
	}
	for ; n != nil; n = n.next {
		for i, k := range n.keys {
			if !iv.AboveLo(m.cmp, k) {
				continue
			}
			if !iv.BelowHi(m.cmp, k) {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
	}
}

// CheckInvariants verifies structural invariants; it is exported for
// tests. It checks key ordering within and across nodes, child counts,
// minimum occupancy of non-root nodes, uniform leaf depth, the leaf
// chain, and the size count.
func (m *Map[K, V]) CheckInvariants() error {
	if m.root == nil {
		return fmt.Errorf("btree: nil root")
	}
	counted := 0
	var leafDepth = -1
	var walk func(n *node[K, V], depth int, lo, hi *K) error
	walk = func(n *node[K, V], depth int, lo, hi *K) error {
		for i := 1; i < len(n.keys); i++ {
			if m.cmp(n.keys[i-1], n.keys[i]) >= 0 {
				return fmt.Errorf("btree: keys out of order at depth %d", depth)
			}
		}
		for _, k := range n.keys {
			if lo != nil && m.cmp(k, *lo) < 0 {
				return fmt.Errorf("btree: key below subtree bound")
			}
			if hi != nil && m.cmp(k, *hi) >= 0 {
				return fmt.Errorf("btree: key above subtree bound")
			}
		}
		if n != m.root && len(n.keys) < m.minKeys() {
			return fmt.Errorf("btree: underfull node (%d keys) at depth %d", len(n.keys), depth)
		}
		if len(n.keys) > m.maxKeys {
			return fmt.Errorf("btree: overfull node (%d keys)", len(n.keys))
		}
		if n.leaf {
			if len(n.vals) != len(n.keys) {
				return fmt.Errorf("btree: leaf vals/keys length mismatch")
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at differing depths %d and %d", leafDepth, depth)
			}
			counted += len(n.keys)
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: internal node with %d keys and %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(m.root, 0, nil, nil); err != nil {
		return err
	}
	if counted != m.size {
		return fmt.Errorf("btree: size %d but %d keys found", m.size, counted)
	}
	// Leaf chain must enumerate all keys in order.
	chained := 0
	var prev *K
	n := m.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		for i := range n.keys {
			if prev != nil && m.cmp(*prev, n.keys[i]) >= 0 {
				return fmt.Errorf("btree: leaf chain out of order")
			}
			prev = &n.keys[i]
			chained++
		}
	}
	if chained != m.size {
		return fmt.Errorf("btree: leaf chain has %d keys, size is %d", chained, m.size)
	}
	return nil
}
