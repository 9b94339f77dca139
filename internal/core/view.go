package core

import (
	"fmt"
	"maps"
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
// handles updates (PAPERS.md) — a write rebuilds one attribute tree of
// the small side, and the O(N) rebuild of the base is paid once per
// mergeLimit writes.
//
// A View and everything reachable from it are frozen from construction:
// With and Without return a new View that shares whatever they did not
// change — the base, and every tree of the delta but the one written —
// so any number of goroutines may Match a View while a writer derives
// the next one.
//
// The admission summary is part of the View: each index envelopes the
// interval clauses of the predicates it holds, per relation, and Match
// stabs an index only for a tuple its summary admits. With widens a
// copy of the delta's summary by the new predicate; Without recomputes
// it from the delta predicates left, or, on a base predicate, carries
// the base's summary unchanged, so until the next merge it over-admits
// by at most mergeLimit tombstoned predicates; Merged rebuilds it in
// the loop that re-inserts every live predicate, after which it is
// exact.
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

// With returns v plus p. The base is shared, and so is every tree of
// the delta but the one on p's indexed attribute, rebuilt from the
// delta's predicates on it: about |delta|/A insertions for a relation
// indexed on A attributes, however large the base.
func (v *View) With(p *pred.Predicate) (*View, error) {
	if _, inBase := v.base.preds[p.ID]; inBase && !masked(v.dead, p.ID) {
		return nil, fmt.Errorf("core: duplicate predicate id %d", p.ID)
	}
	d, err := v.delta.with(p)
	if err != nil {
		return nil, err
	}
	return &View{base: v.base, delta: d, dead: v.dead}, nil
}

// Without returns v minus the predicate id: taken out of the delta the
// way With put it in — one tree rebuilt, the rest shared — if it lives
// there, otherwise tombstoned in a copy of dead.
func (v *View) Without(id pred.ID) (*View, error) {
	if _, inDelta := v.delta.preds[id]; inDelta {
		return &View{base: v.base, delta: v.delta.without(id), dead: v.dead}, nil
	}
	i, isDead := slices.BinarySearch(v.dead, id)
	if _, inBase := v.base.preds[id]; !inBase || isDead {
		return nil, fmt.Errorf("core: unknown predicate id %d", id)
	}
	return &View{base: v.base, delta: v.delta, dead: slices.Insert(slices.Clone(v.dead), i, id)}, nil
}

// fork returns a copy of the frozen index ix that may be written where
// a write to rel lands and nowhere else: its own rels and preds maps
// and, for rel, its own relIndex — created if ix has none — with its
// own trees map. Every tree, every other relation's relIndex, and rel's
// summary and probe, non-indexable and slot slices are still ix's: the
// caller replaces the ones it changes and never writes through them.
func (ix *Index) fork(rel *schema.Relation) (*Index, *relIndex) {
	cp := *ix
	cp.rels, cp.preds, cp.scratch = maps.Clone(ix.rels), maps.Clone(ix.preds), nil
	ri := ix.rels[rel.Name()]
	if ri == nil {
		ri = newRelIndex(rel, 0)
	} else {
		own := *ri
		own.trees = maps.Clone(ri.trees)
		ri = &own
	}
	cp.rels[rel.Name()] = ri
	return &cp, ri
}

// with returns a fork of ix plus p.
func (ix *Index) with(p *pred.Predicate) (*Index, error) {
	if _, dup := ix.preds[p.ID]; dup {
		return nil, fmt.Errorf("core: duplicate predicate id %d", p.ID)
	}
	e, err := ix.bind(p)
	if err != nil {
		return nil, err
	}
	rel, _ := ix.catalog.Get(p.Rel)
	cp, ri := ix.fork(rel)
	cp.preds[p.ID] = e
	ri.sum = ri.sum.Clone()
	ri.widen(e.bound)
	if e.clause < 0 {
		ri.nonIndexable, ri.fnSlots = slices.Clone(ri.nonIndexable), slices.Clone(ri.fnSlots)
		ri.addUnindexed(e)
	} else if err := cp.retree(ri, e.attr); err != nil {
		return nil, fmt.Errorf("core: indexing clause %v: %w", p.Clauses[e.clause], err)
	}
	return cp, nil
}

// without returns a fork of ix that no longer holds its predicate id.
// The relation's summary is recomputed from the predicates left, so it
// is exact, and the relation is dropped with its last predicate.
func (ix *Index) without(id pred.ID) *Index {
	e := ix.preds[id]
	rel := e.bound.Pred.Rel
	cp, ri := ix.fork(ix.rels[rel].rel)
	delete(cp.preds, id)
	if e.clause < 0 {
		old := ri.nonIndexable
		ri.nonIndexable, ri.fnSlots = make([]unindexed, 0, len(old)-1), nil
		for _, x := range old {
			if x.id != id {
				ri.addUnindexed(x.e) // slots assigned afresh, as adopt does
			}
		}
	} else if err := cp.retree(ri, e.attr); err != nil {
		panic(fmt.Sprintf("core: re-insert after removing predicate %d: %v", id, err))
	}
	if len(ri.trees) == 0 && len(ri.nonIndexable) == 0 {
		delete(cp.rels, rel)
		return cp
	}
	ri.sum = prefilter.Make(ri.rel.Arity())
	for _, o := range cp.preds {
		if o.bound.Pred.Rel == rel {
			ri.widen(o.bound)
		}
	}
	return cp
}

// retree gives ri a fresh tree on attr holding ix's predicates indexed
// there, or none if none is left; the tree it had stays as published.
func (ix *Index) retree(ri *relIndex, attr string) error {
	tree := ix.factory()
	for id, e := range ix.preds {
		if e.attr != attr || e.bound.Pred.Rel != ri.rel.Name() {
			continue
		}
		if err := tree.Insert(id, e.bound.Pred.Clauses[e.clause].Iv); err != nil {
			return err
		}
	}
	if tree.Len() == 0 {
		delete(ri.trees, attr)
	} else {
		ri.trees[attr] = tree
	}
	ri.rebuildProbes()
	return nil
}

// mergeLimit is the overlay size (delta predicates plus tombstones) a
// base of n predicates tolerates before Merged folds it in. A write
// re-inserts one of the delta's A attribute trees, ~L/(2A), and pays
// 1/L of an n-insertion rebuild: least at L = √(2n) for A = 1, and a
// longer overlay for A > 1 measured no better (DESIGN.md §6). The
// floor keeps small relations from merging on every write.
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
