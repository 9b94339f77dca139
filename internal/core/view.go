package core

import (
	"fmt"
	"math"
	"slices"

	"predmatch/internal/pred"
	"predmatch/internal/prefilter"
	"predmatch/internal/schema"
	"predmatch/internal/tuple"
)

// View is an immutable predicate set published by the serving layer
// (internal/shard): a large base index, a small delta index of the
// predicates added since the base was built, and the sorted IDs of the
// base predicates removed since then (tombstones). This is how HINT
// handles updates (PAPERS.md) — a write copies only the small side, and
// the O(N) rebuild of the base is paid once per mergeLimit writes.
//
// A View and both of its indexes are frozen from construction: With and
// Without return a new View that shares whatever they did not change,
// so any number of goroutines may Match a View while a writer derives
// the next one.
//
// The admission summary is part of the View: each index envelopes the
// interval clauses of the predicates it holds, per relation, and Match
// stabs an index only for a tuple its summary admits. With rebuilds the
// delta's summary with the delta and widens it by the new predicate;
// Without on a base predicate carries the base's summary unchanged, so
// until the next merge it over-admits by at most mergeLimit tombstoned
// predicates; Merged rebuilds it in the loop that re-inserts every live
// predicate, after which it is exact.
type View struct {
	base, delta *Index
	// dead masks base only. An ID may be tombstoned in base and live
	// again in delta (remove, then re-add of the same ID); the delta
	// copy must keep matching, so delta hits are never filtered.
	dead []pred.ID
}

// NewView returns an empty view whose indexes are configured by opts.
func NewView(catalog *schema.Catalog, funcs *pred.Registry, opts ...Option) *View {
	return &View{base: New(catalog, funcs, opts...), delta: New(catalog, funcs, opts...)}
}

// Name returns the index strategy name (WithName).
func (v *View) Name() string { return v.base.name }

// Len returns the number of live predicates.
func (v *View) Len() int { return v.base.Len() - len(v.dead) + v.delta.Len() }

// With returns v plus p. Only the delta is copied: |delta| tree
// insertions, however large the base.
func (v *View) With(p *pred.Predicate) (*View, error) {
	if _, inBase := v.base.preds[p.ID]; inBase && !masked(v.dead, p.ID) {
		return nil, fmt.Errorf("core: duplicate predicate id %d", p.ID)
	}
	d := v.delta.Clone()
	if err := d.Add(p); err != nil {
		return nil, err
	}
	return &View{base: v.base, delta: d, dead: v.dead}, nil
}

// Without returns v minus the predicate id: dropped from a copy of the
// delta if it lives there, otherwise tombstoned in a copy of dead.
func (v *View) Without(id pred.ID) (*View, error) {
	if _, inDelta := v.delta.preds[id]; inDelta {
		return &View{base: v.base, delta: v.delta.rebuild([]pred.ID{id}, nil), dead: v.dead}, nil
	}
	i, isDead := slices.BinarySearch(v.dead, id)
	if _, inBase := v.base.preds[id]; !inBase || isDead {
		return nil, fmt.Errorf("core: unknown predicate id %d", id)
	}
	return &View{base: v.base, delta: v.delta, dead: slices.Insert(slices.Clone(v.dead), i, id)}, nil
}

// mergeLimit is the overlay size (delta predicates plus tombstones) a
// base of n predicates tolerates before Merged folds it in. A write
// copies about half the limit L and pays 1/L of an n-insertion rebuild,
// L/2 + n/L, least at L = √(2n); the floor keeps small relations from
// merging on every write. DESIGN.md records the measured curve.
func mergeLimit(n int) int { return max(16, int(math.Sqrt(float64(2*n)))) }

// Merged returns v itself while its overlay is within mergeLimit, and
// otherwise an equal view rebuilt into a single base — live base
// predicates plus the delta, through the same loop as Clone — with an
// empty delta and no tombstones.
func (v *View) Merged() *View {
	if v.delta.Len()+len(v.dead) <= mergeLimit(v.base.Len()) {
		return v
	}
	return &View{base: v.base.rebuild(v.dead, v.delta), delta: v.delta.blank()}
}

// Match appends to dst the predicates of rel that t satisfies: base
// hits that are not tombstoned, then delta hits, through one scratch
// slice, each index stabbed only if its summary admits t. It writes
// nothing, so it is safe on a published View from any number of
// goroutines.
func (v *View) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	var scratch []pred.ID
	if ri, ok := v.base.rels[rel]; ok && ri.admits(t) {
		dst, scratch = v.base.matchMasked(ri, t, dst, scratch, v.dead)
	}
	if ri, ok := v.delta.rels[rel]; ok && ri.admits(t) {
		dst, _ = v.delta.matchMasked(ri, t, dst, scratch[:0], nil)
	}
	return dst, nil
}

// Admit reports whether Match would stab either index for t. False
// means no predicate of rel can match t — or that rel has none — and
// Match returns without touching a tree.
func (v *View) Admit(rel string, t tuple.Tuple) bool {
	if ri, ok := v.base.rels[rel]; ok && ri.admits(t) {
		return true
	}
	ri, ok := v.delta.rels[rel]
	return ok && ri.admits(t)
}

// Summaries returns rel's interval-clause summaries, the base's and the
// delta's; a side that holds no predicate of rel returns the zero
// Summary. Both are frozen with the View.
func (v *View) Summaries(rel string) (base, delta prefilter.Summary) {
	if ri, ok := v.base.rels[rel]; ok {
		base = ri.sum
	}
	if ri, ok := v.delta.rels[rel]; ok {
		delta = ri.sum
	}
	return base, delta
}

// Trees returns one TreeStats per (relation, attribute): intervals,
// nodes and markers summed over the base and delta trees, height the
// larger of the two. Tombstoned predicates still occupy their base tree
// until the next merge and are counted.
func (v *View) Trees() []TreeStats {
	out := v.base.Trees()
	for _, d := range v.delta.Trees() {
		i, found := slices.BinarySearchFunc(out, d, compareTrees)
		if !found {
			out = slices.Insert(out, i, d)
			continue
		}
		b := &out[i]
		b.Intervals += d.Intervals
		b.Nodes += d.Nodes
		b.Markers += d.Markers
		b.Height = max(b.Height, d.Height)
	}
	return out
}
