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
	"predmatch/internal/value"
)

// View is an immutable predicate set published by the serving layer
// (internal/shard): a large base index, a flat delta of the PREDICATES
// rows added since the base was built, and the sorted IDs of the base
// predicates removed since then (tombstones). This is how HINT handles
// updates (PAPERS.md): a small unindexed buffer beside the main index.
// A write copies one relation's rows, and the O(N) rebuild of the base
// is paid once per mergeLimit writes.
//
// A View and everything reachable from it are frozen from construction:
// With and Without return a new View that shares the base and every
// relation's rows but the one written, so any number of goroutines may
// Match a View while a writer derives the next one. A delta write never
// appends into a published View's rows.
//
// The admission summary is part of the View: the base envelopes the
// interval clauses of the predicates it holds, per relation, and so
// does each relation's delta; Match stabs the base, or scans the rows,
// only for a tuple the side's summary admits. With widens a copy of the
// delta's summary by the new predicate; Without recomputes it from the
// delta rows left, or, on a base predicate, carries the base's summary
// unchanged, so until the next merge it over-admits by at most
// mergeLimit tombstoned predicates; Merged rebuilds it in the loop that
// re-inserts every live predicate, after which it is exact.
type View struct {
	base *Index
	// dead masks base only. An ID may be tombstoned in base and live
	// again in delta (remove, then re-add of the same ID); the delta
	// copy must keep matching, so delta rows are never filtered.
	dead []pred.ID
	// delta maps a relation to its rows added since base was built.
	delta map[string]*deltaRel
}

// deltaRel is one relation's share of a View's delta: its PREDICATES
// rows in the order they were added, the envelope of their interval
// clauses, and whether any row has no interval clause (and so admits
// every tuple). It is frozen with the View that holds it.
type deltaRel struct {
	rows   []*entry
	sum    prefilter.Summary
	opaque bool
}

// NewView returns an empty view whose base index is configured by opts.
func NewView(catalog *schema.Catalog, funcs *pred.Registry, opts ...Option) *View {
	return &View{base: New(catalog, funcs, opts...)}
}

// Name returns the index strategy name (WithName).
func (v *View) Name() string { return v.base.name }

// Len returns the number of live predicates.
func (v *View) Len() int { return v.base.Len() - len(v.dead) + v.deltaLen() }

// deltaLen returns the number of delta rows over every relation.
func (v *View) deltaLen() int {
	n := 0
	for _, d := range v.delta {
		n += len(d.rows)
	}
	return n
}

// find returns the relation and position of id's delta row; i is -1 if
// the delta has none.
func (v *View) find(id pred.ID) (rel string, i int) {
	for rel, d := range v.delta {
		if i := slices.IndexFunc(d.rows, func(e *entry) bool { return e.bound.Pred.ID == id }); i >= 0 {
			return rel, i
		}
	}
	return "", -1
}

// With returns v plus p: p's row appended to a copy of its relation's
// rows, and a copy of their summary widened by it. The base is shared,
// and so is every other relation's delta, however large the base.
func (v *View) With(p *pred.Predicate) (*View, error) {
	_, inBase := v.base.preds[p.ID]
	if _, i := v.find(p.ID); i >= 0 || inBase && !masked(v.dead, p.ID) {
		return nil, fmt.Errorf("core: duplicate predicate id %d", p.ID)
	}
	e, err := v.base.bind(p)
	if err != nil {
		return nil, err
	}
	d := &deltaRel{}
	if old, ok := v.delta[p.Rel]; ok {
		d.rows, d.sum, d.opaque = append(slices.Clip(old.rows), e), old.sum.Clone(), old.opaque
	} else {
		rel, _ := v.base.catalog.Get(p.Rel)
		d.rows, d.sum = []*entry{e}, prefilter.Make(rel.Arity())
	}
	if !envelop(&d.sum, e.bound) {
		d.opaque = true
	}
	return v.withDelta(p.Rel, d), nil
}

// Without returns v minus the predicate id: its row dropped from a copy
// of its relation's rows, whose summary is recomputed, if it lives in
// the delta; otherwise tombstoned in a copy of dead.
func (v *View) Without(id pred.ID) (*View, error) {
	if rel, i := v.find(id); i >= 0 {
		old := v.delta[rel].rows
		if len(old) == 1 {
			return v.withDelta(rel, nil), nil
		}
		r, _ := v.base.catalog.Get(rel)
		d := &deltaRel{rows: slices.Concat(old[:i], old[i+1:]), sum: prefilter.Make(r.Arity())}
		for _, e := range d.rows {
			if !envelop(&d.sum, e.bound) {
				d.opaque = true
			}
		}
		return v.withDelta(rel, d), nil
	}
	i, isDead := slices.BinarySearch(v.dead, id)
	if _, inBase := v.base.preds[id]; !inBase || isDead {
		return nil, fmt.Errorf("core: unknown predicate id %d", id)
	}
	return &View{base: v.base, dead: slices.Insert(slices.Clone(v.dead), i, id), delta: v.delta}, nil
}

// withDelta returns v with rel's delta replaced by d, or dropped when d
// is nil, in a copy of the delta map.
func (v *View) withDelta(rel string, d *deltaRel) *View {
	delta := maps.Clone(v.delta)
	if d == nil {
		delete(delta, rel)
	} else {
		if delta == nil {
			delta = make(map[string]*deltaRel, 1)
		}
		delta[rel] = d
	}
	return &View{base: v.base, dead: v.dead, delta: delta}
}

// mergeLimit is the overlay size (delta rows plus tombstones) a base of
// n predicates tolerates before Merged folds it in. A write copies the
// L rows of the delta and pays 1/L of an n-insertion rebuild, least at
// about L = √n; √(2n) was sized when a write rebuilt a delta tree and is
// kept (DESIGN.md §6). The floor keeps small relations from merging on
// every write.
func mergeLimit(n int) int { return max(16, int(math.Sqrt(float64(2*n)))) }

// Merged returns v itself while its overlay is within mergeLimit, and
// otherwise an equal view rebuilt into a single base: live base
// predicates, then every delta row, placed through the same loop as
// Clone, with no delta and no tombstones.
func (v *View) Merged() *View {
	if v.deltaLen()+len(v.dead) <= mergeLimit(v.base.Len()) {
		return v
	}
	base := v.base.blank()
	base.adopt(v.base, v.dead)
	for _, d := range v.delta {
		for _, e := range d.rows {
			base.mustPlace(e)
		}
	}
	return &View{base: base}
}

// Match appends to dst the predicates of rel that t satisfies: base
// hits that are not tombstoned, stabbed into dst's spare capacity, then
// the delta rows t satisfies, each side tried only if its summary
// admits t. A delta row is tested on its indexed clause first, then on
// the rest. Match writes nothing, so it is safe on a published View
// from any number of goroutines, and allocates nothing when dst has the
// room.
func (v *View) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	if ri, ok := v.base.rels[rel]; ok && ri.admits(t) {
		dst = v.base.matchMasked(ri, t, dst, v.dead)
	}
	d, ok := v.delta[rel]
	if !ok || !d.admits(t) {
		return dst, nil
	}
	for _, e := range d.rows {
		if e.clause >= 0 && !e.bound.Pred.Clauses[e.clause].Iv.Contains(value.Compare, t[e.bound.Pos(e.clause)]) {
			continue
		}
		if e.bound.MatchSkipping(t, e.clause) {
			dst = append(dst, e.bound.Pred.ID)
		}
	}
	return dst, nil
}

// admits reports whether any of d's rows could match t.
func (d *deltaRel) admits(t tuple.Tuple) bool { return d.opaque || d.sum.Admit(t) }

// Admit reports whether Match would stab the base or scan the delta
// for t. False means no predicate of rel can match t — or that rel has
// none — and Match returns without touching a tree or a row.
func (v *View) Admit(rel string, t tuple.Tuple) bool {
	if ri, ok := v.base.rels[rel]; ok && ri.admits(t) {
		return true
	}
	d, ok := v.delta[rel]
	return ok && d.admits(t)
}

// Summaries returns rel's interval-clause summaries, the base's and the
// delta's; a side that holds no predicate of rel returns the zero
// Summary. Both are frozen with the View.
func (v *View) Summaries(rel string) (base, delta prefilter.Summary) {
	if ri, ok := v.base.rels[rel]; ok {
		base = ri.sum
	}
	if d, ok := v.delta[rel]; ok {
		delta = d.sum
	}
	return base, delta
}

// Trees returns one TreeStats per (relation, attribute) of the base:
// the delta has no trees. Tombstoned predicates still occupy their base
// tree until the next merge and are counted.
func (v *View) Trees() []TreeStats { return v.base.Trees() }
