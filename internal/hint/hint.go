// Package hint implements a HINT-style flat interval index (Christodoulou,
// Bouros & Mamoulis, "HINT: A Hierarchical Index for Intervals in Main
// Memory", SIGMOD 2022), adapted to this repository's dynamic stabbing
// contract and to arbitrary totally ordered domains.
//
// HINT partitions the value domain hierarchically: level l splits the
// domain into 2^l equal partitions, and every stored interval is
// registered at the O(log n) coarsest partitions that exactly cover it
// (its canonical hierarchical decomposition). A stabbing query touches
// exactly one partition per level — the partitions whose ranges contain
// the query point — so it reads m+1 contiguous id runs and performs no
// per-result comparison at all: every id found is an exact match.
//
// The paper's structure addresses a numeric domain directly with bit
// arithmetic. The predicate domain here is any ordered value.Value, so
// the index first reduces values to *slot ranks*: the sorted distinct
// finite endpoints of the stored intervals define 2k+1 elementary slots
// (each endpoint value is its own slot, flanked by the open gaps between
// adjacent endpoints and the two unbounded outer gaps). Slots are dense
// integers, the hierarchy is laid over the next power of two, and one
// O(log k) binary search per stab converts the probe value to its slot;
// everything after that search is branch-light integer arithmetic over
// two flat arrays.
//
// Layout: the whole hierarchy lives in two allocations —
//
//	ids    []ID     all registered (partition, id) entries, grouped by
//	                partition, levels concatenated bottom-up
//	starts []int32  CSR offsets; partition p of level l occupies
//	                ids[starts[g]:starts[g+1]] with g = levelBase[l] + p
//
// There are no per-node allocations and no pointers to chase: a stab is
// one binary search plus m+1 slice windows of a single backing array.
//
// Mutation model: the index is rebuilt, not incrementally maintained.
// Insert and Delete update a registry of live intervals and invalidate
// the built arrays; the next stab rebuilds them and publishes the result
// with an atomic store. This matches the repository's serving layer,
// which never mutates a published index — a writer appends to the
// small, unindexed delta of a core.View and republishes
// (internal/shard), so the arrays over a relation's large base are
// built once per merge, on first probe, and no write rebuilds them. Concurrent stabs of the same index
// are safe (the lazy build is guarded by a mutex and published
// atomically — a reader either sees nil and builds, or sees a fully
// built structure, never a torn one); mutation requires the same
// external serialization against readers as every other index here.
package hint

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"predmatch/internal/interval"
	"predmatch/internal/markset"
)

// ID identifies an interval.
type ID = markset.ID

// Index is a dynamic stabbing index over domain T. Construct with New.
// The zero value is not usable.
type Index[T any] struct {
	cmp   interval.Cmp[T]
	items map[ID]interval.Interval[T]

	// built is the published flat hierarchy, nil after any mutation.
	// Readers load it atomically; buildMu serializes the rebuild so
	// concurrent first probes build once.
	buildMu sync.Mutex
	built   atomic.Pointer[built[T]] // write-guarded-by: buildMu
}

// built is one immutable flat hierarchy. It reflects the item set at
// build time and is never modified after the atomic publish.
type built[T any] struct {
	pts []T // sorted distinct finite endpoints (k values, 2k+1 slots)
	// leaves is the hierarchy width: the smallest power of two >= 2k+1.
	// levels is the number of levels (log2(leaves) + 1).
	leaves, levels int
	// levelBase[l] is the global partition index of level l's partition
	// 0. Level l holds leaves>>l partitions of 1<<l slots each.
	levelBase []int32
	starts    []int32
	ids       []ID
}

// New returns an empty index over the comparator's domain.
func New[T any](cmp interval.Cmp[T]) *Index[T] {
	return &Index[T]{cmp: cmp, items: make(map[ID]interval.Interval[T])}
}

// Len returns the number of stored intervals.
func (ix *Index[T]) Len() int { return len(ix.items) }

// Insert adds iv under id. Duplicate ids and malformed intervals are
// errors. The flat hierarchy is invalidated and rebuilt on next stab.
func (ix *Index[T]) Insert(id ID, iv interval.Interval[T]) error {
	if err := iv.Validate(ix.cmp); err != nil {
		return err
	}
	if _, dup := ix.items[id]; dup {
		return fmt.Errorf("hint: duplicate interval id %d", id)
	}
	ix.items[id] = iv
	ix.built.Store(nil) //predmatchvet:ignore guardedby mutation is externally serialized; no reader or builder runs concurrently
	return nil
}

// Delete removes the interval stored under id.
func (ix *Index[T]) Delete(id ID) error {
	if _, ok := ix.items[id]; !ok {
		return fmt.Errorf("hint: unknown interval id %d", id)
	}
	delete(ix.items, id)
	ix.built.Store(nil) //predmatchvet:ignore guardedby mutation is externally serialized; no reader or builder runs concurrently
	return nil
}

// Get returns the interval stored under id.
func (ix *Index[T]) Get(id ID) (interval.Interval[T], bool) {
	iv, ok := ix.items[id]
	return iv, ok
}

// Stab returns the ids of all intervals containing x.
func (ix *Index[T]) Stab(x T) []ID { return ix.StabAppend(x, nil) }

// StabAppend appends the ids of all intervals containing x to dst. Each
// matching id appears exactly once; order is unspecified. Safe for
// concurrent use with other StabAppend calls (not with mutation).
func (ix *Index[T]) StabAppend(x T, dst []ID) []ID {
	b := ix.load()
	s := b.slotOf(ix.cmp, x)
	for l := 0; l < b.levels; l++ {
		g := int(b.levelBase[l]) + (s >> l)
		lo, hi := b.starts[g], b.starts[g+1]
		dst = append(dst, b.ids[lo:hi]...)
	}
	return dst
}

// load returns the current flat hierarchy, building it if a mutation
// invalidated it. The double-checked build keeps concurrent readers
// from duplicating work and guarantees they only ever observe a fully
// constructed structure.
func (ix *Index[T]) load() *built[T] {
	if b := ix.built.Load(); b != nil {
		return b
	}
	ix.buildMu.Lock()
	defer ix.buildMu.Unlock()
	if b := ix.built.Load(); b != nil {
		return b
	}
	b := build(ix.cmp, ix.items)
	ix.built.Store(b)
	return b
}

// NodeCount returns the number of non-empty partitions of the current
// hierarchy (building it if needed) — the space quantity comparable to
// a tree's node count.
func (ix *Index[T]) NodeCount() int {
	b := ix.load()
	n := 0
	for g := 0; g+1 < len(b.starts); g++ {
		if b.starts[g] < b.starts[g+1] {
			n++
		}
	}
	return n
}

// MarkerCount returns the total number of (partition, id) registrations
// — HINT's analogue of the IBS-tree's marker count. Each interval
// contributes at most two registrations per level.
func (ix *Index[T]) MarkerCount() int { return len(ix.load().ids) }

// Height returns the number of hierarchy levels, the length of the
// root-to-leaf path a stab reads.
func (ix *Index[T]) Height() int { return ix.load().levels }

// build constructs the flat hierarchy for the item set.
func build[T any](cmp interval.Cmp[T], items map[ID]interval.Interval[T]) *built[T] {
	// Collect the sorted distinct finite endpoints.
	pts := make([]T, 0, 2*len(items))
	for _, iv := range items {
		if iv.Lo.Kind == interval.Finite {
			pts = append(pts, iv.Lo.Value)
		}
		if iv.Hi.Kind == interval.Finite {
			pts = append(pts, iv.Hi.Value)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return cmp(pts[i], pts[j]) < 0 })
	dedup := pts[:0]
	for i, p := range pts {
		if i == 0 || cmp(dedup[len(dedup)-1], p) != 0 {
			dedup = append(dedup, p)
		}
	}
	pts = dedup

	slots := 2*len(pts) + 1
	leaves := 1
	for leaves < slots {
		leaves <<= 1
	}
	levels := bits.TrailingZeros(uint(leaves)) + 1

	b := &built[T]{pts: pts, leaves: leaves, levels: levels}
	b.levelBase = make([]int32, levels+1)
	for l := 0; l < levels; l++ {
		b.levelBase[l+1] = b.levelBase[l] + int32(leaves>>l)
	}
	parts := int(b.levelBase[levels])
	b.starts = make([]int32, parts+1)

	// Pass 1: count registrations per partition.
	for _, iv := range items {
		decompose(b, cmp, iv, func(g int) { b.starts[g+1]++ })
	}
	for g := 0; g < parts; g++ {
		b.starts[g+1] += b.starts[g]
	}
	// Pass 2: place ids using a moving cursor per partition.
	b.ids = make([]ID, b.starts[parts])
	cursor := make([]int32, parts)
	copy(cursor, b.starts[:parts])
	for id, iv := range items {
		decompose(b, cmp, iv, func(g int) {
			b.ids[cursor[g]] = id
			cursor[g]++
		})
	}
	return b
}

// decompose emits the canonical hierarchical decomposition of iv: the
// set of disjoint partitions, coarsest possible, whose slot ranges
// exactly cover the interval's slot range. emit receives global
// partition indexes. At most two partitions are emitted per level.
func decompose[T any](b *built[T], cmp interval.Cmp[T], iv interval.Interval[T], emit func(g int)) {
	lo, hi := b.slotRange(cmp, iv)
	if lo > hi {
		return // interval covers no slot (cannot happen for valid intervals)
	}
	for l := 0; lo <= hi; l++ {
		base := int(b.levelBase[l])
		if lo&1 == 1 {
			emit(base + lo)
			lo++
		}
		if hi&1 == 0 {
			emit(base + hi)
			hi--
		}
		lo >>= 1
		hi >>= 1
	}
}

// slotRange maps an interval to the inclusive range of elementary slots
// it covers. Slot 2i+1 is the single endpoint value pts[i]; slot 2i is
// the open gap below it (slot 0 the unbounded gap below pts[0], slot 2k
// the unbounded gap above pts[k-1]). Every stored interval's endpoints
// are in pts, so closedness maps exactly onto slot inclusion.
func (b *built[T]) slotRange(cmp interval.Cmp[T], iv interval.Interval[T]) (lo, hi int) {
	switch iv.Lo.Kind {
	case interval.NegInf:
		lo = 0
	default:
		i := b.rank(cmp, iv.Lo.Value)
		if iv.Lo.Closed {
			lo = 2*i + 1
		} else {
			lo = 2*i + 2
		}
	}
	switch iv.Hi.Kind {
	case interval.PosInf:
		hi = 2 * len(b.pts)
	default:
		i := b.rank(cmp, iv.Hi.Value)
		if iv.Hi.Closed {
			hi = 2*i + 1
		} else {
			hi = 2 * i
		}
	}
	return lo, hi
}

// rank returns the index of v in pts; v must be present (it is a stored
// endpoint).
func (b *built[T]) rank(cmp interval.Cmp[T], v T) int {
	return sort.Search(len(b.pts), func(i int) bool { return cmp(b.pts[i], v) >= 0 })
}

// slotOf maps a probe value to its elementary slot: the endpoint slot
// 2i+1 when x equals pts[i], otherwise the gap slot below the first
// endpoint above x.
func (b *built[T]) slotOf(cmp interval.Cmp[T], x T) int {
	i := sort.Search(len(b.pts), func(i int) bool { return cmp(b.pts[i], x) >= 0 })
	if i < len(b.pts) && cmp(b.pts[i], x) == 0 {
		return 2*i + 1
	}
	return 2 * i
}

// CheckInvariants validates the built structure against the item
// registry: CSR offsets are monotone, every registration's partition
// range is covered by its interval, and every item's registration count
// matches its canonical decomposition. Intended for tests and the fuzz
// target.
func (ix *Index[T]) CheckInvariants() error {
	b := ix.load()
	for g := 0; g+1 < len(b.starts); g++ {
		if b.starts[g] > b.starts[g+1] {
			return fmt.Errorf("hint: CSR offsets not monotone at partition %d", g)
		}
	}
	if int(b.starts[len(b.starts)-1]) != len(b.ids) {
		return fmt.Errorf("hint: CSR tail %d != ids length %d", b.starts[len(b.starts)-1], len(b.ids))
	}
	counts := make(map[ID]int, len(ix.items))
	for _, id := range b.ids {
		counts[id]++
		if _, live := ix.items[id]; !live {
			return fmt.Errorf("hint: registration for dead interval %d", id)
		}
	}
	for id, iv := range ix.items {
		want := 0
		decompose(b, ix.cmp, iv, func(int) { want++ })
		if counts[id] != want {
			return fmt.Errorf("hint: interval %d has %d registrations, want %d", id, counts[id], want)
		}
	}
	return nil
}
