// Package core implements the paper's predicate indexing scheme
// (Section 4, Figure 1) — the primary contribution built on top of the
// IBS-tree:
//
//	inserted or deleted tuples
//	        |
//	   hash on relation name
//	        |
//	  per-relation second-level index:
//	    - a list of non-indexable predicates
//	    - one IBS-tree per attribute that has one or more indexable
//	      predicate clauses
//	        |
//	  PREDICATES table: full predicate tested on partial match
//
// For each predicate that is a conjunction of selection clauses, the most
// selective indexable clause — per the optimizer's selectivity estimates
// (internal/selectivity) — is placed in the IBS-tree of its attribute.
// Matching a tuple probes each attribute tree with the tuple's value for
// that attribute, unions the partial matches with the non-indexable list,
// and completes each candidate against the PREDICATES table.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"predmatch/internal/ibs"
	"predmatch/internal/interval"
	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/prefilter"
	"predmatch/internal/schema"
	"predmatch/internal/selectivity"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// AttrIndex is the per-attribute interval index the scheme builds on.
// The paper's structure is the IBS-tree (the default); any dynamic
// stabbing index over attribute values qualifies — internal/islist's
// interval skip list is the drop-in alternative, making the choice of
// interval index a whole-scheme ablation axis.
type AttrIndex interface {
	Insert(id ibs.ID, iv interval.Interval[value.Value]) error
	Delete(id ibs.ID) error
	StabAppend(v value.Value, dst []ibs.ID) []ibs.ID
	Len() int
}

// AttrIndexStats is optionally implemented by attribute indexes that can
// report space statistics (the IBS-tree and interval skip list both do).
type AttrIndexStats interface {
	NodeCount() int
	MarkerCount() int
}

// IndexFactory constructs an empty attribute index.
type IndexFactory func() AttrIndex

// entry is one row of the PREDICATES table.
type entry struct {
	bound *pred.Bound
	// attr names the attribute whose IBS-tree indexes this predicate;
	// empty for non-indexable predicates.
	attr string
	// clause is the index of the clause placed in the tree, -1 if none.
	clause int
}

// relIndex is the second-level index for one relation.
type relIndex struct {
	rel *schema.Relation
	// trees maps attribute name to its interval index of indexable
	// clauses (an IBS-tree unless WithIndexFactory overrides it).
	trees map[string]AttrIndex
	// probes lists trees with their attribute positions, so Match ranges
	// over a slice, not the map; rebuildProbes follows every change.
	probes []probe
	// nonIndexable lists predicates with no indexable clause.
	nonIndexable []unindexed
	// fnSlots holds the distinct (function, attribute position) pairs
	// the function-only predicates on nonIndexable test, 64 at most, so
	// a match calls each pair once per tuple however many predicates
	// share it. Slots are only ever appended: one left without a
	// predicate by Remove is never evaluated, and adopt assigns afresh.
	fnSlots []fnSlot
	// sum envelopes every interval clause of the predicates indexed
	// here. place widens it, Remove leaves it (stale-wide only
	// over-admits), and a merge rebuilds it by placing every live row
	// afresh.
	sum prefilter.Summary
}

type probe struct {
	pos  int
	tree AttrIndex
}

// unindexed is one row of a relation's non-indexable list.
type unindexed struct {
	e  *entry
	id pred.ID // e's, here so that a match that rejects e never follows the pointer
	// need is the set of fnSlots e's clauses occupy: e matches a tuple
	// iff every one of them holds. Valid only when slotted.
	need uint64
	// slotted is false for a predicate with a non-function clause (an
	// estimator declined to index it) or one that found the slot table
	// full; it is tested with Bound.Match.
	slotted bool
}

// fnSlot is one function clause shape: fn applied to the tuple's value
// at pos. The name is the clause's spelling; two spellings of one
// registered function take two slots, which costs a call, not a result.
type fnSlot struct {
	name string
	pos  int
	fn   pred.Func
}

func newRelIndex(rel *schema.Relation) *relIndex {
	return &relIndex{rel: rel, trees: make(map[string]AttrIndex), sum: prefilter.Make(rel.Arity())}
}

// addUnindexed appends e to the non-indexable list, giving each of its
// clauses a function slot when all of them are function clauses.
func (ri *relIndex) addUnindexed(e *entry) {
	x := unindexed{e: e, id: e.bound.Pred.ID, slotted: true}
	for i := range e.bound.Pred.Clauses {
		c := &e.bound.Pred.Clauses[i]
		s := -1
		if c.Kind == pred.KindFunc {
			s = ri.slot(c.Func, e.bound.Pos(i), e.bound.Fn(i))
		}
		if s < 0 {
			x.slotted = false
			break
		}
		x.need |= 1 << s
	}
	ri.nonIndexable = append(ri.nonIndexable, x)
}

// slot returns the slot of (name, pos), appending one if there is room,
// or -1 when the table is full.
func (ri *relIndex) slot(name string, pos int, fn pred.Func) int {
	for s := range ri.fnSlots {
		if ri.fnSlots[s].pos == pos && ri.fnSlots[s].name == name {
			return s
		}
	}
	if len(ri.fnSlots) == 64 {
		return -1
	}
	ri.fnSlots = append(ri.fnSlots, fnSlot{name: name, pos: pos, fn: fn})
	return len(ri.fnSlots) - 1
}

// envelop grows sum by the interval clauses of b and reports whether b
// has any: one without is opaque to a summary.
func envelop(sum *prefilter.Summary, b *pred.Bound) bool {
	found := false
	for i := range b.Pred.Clauses {
		if c := &b.Pred.Clauses[i]; c.Kind == pred.KindInterval {
			sum.Widen(b.Pos(i), c.Iv)
			found = true
		}
	}
	return found
}

// admits reports whether any predicate indexed here could match t: one
// without an interval clause is opaque and admits every tuple; all the
// others fail a tuple that lies outside every envelope.
func (ri *relIndex) admits(t tuple.Tuple) bool {
	return len(ri.nonIndexable) > 0 || ri.sum.Admit(t)
}

// rebuildProbes lists ri's trees in attribute-name order, in a new
// slice: the old one may be shared with a relIndex of a published View.
func (ri *relIndex) rebuildProbes() {
	ri.probes = make([]probe, 0, len(ri.trees))
	attrs := make([]string, 0, len(ri.trees))
	for a := range ri.trees {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		pos, _ := ri.rel.AttrIndex(a)
		ri.probes = append(ri.probes, probe{pos: pos, tree: ri.trees[a]})
	}
}

// Index is the full predicate index of Figure 1. Match writes nothing,
// but Add, Remove and Candidates (which reuses an internal scratch
// buffer) do, so it is not safe for concurrent use; the serving layer
// (internal/shard) publishes immutable Views for concurrent readers.
type Index struct {
	catalog *schema.Catalog
	funcs   *pred.Registry
	est     selectivity.Estimator
	factory IndexFactory
	name    string
	rels    map[string]*relIndex
	preds   map[pred.ID]*entry
	scratch []pred.ID
}

var _ matcher.Matcher = (*Index)(nil)

// Option configures an Index.
type Option func(*Index)

// WithEstimator sets the selectivity estimator used to choose which
// clause of each predicate is indexed (default: selectivity.Static).
func WithEstimator(est selectivity.Estimator) Option {
	return func(ix *Index) { ix.est = est }
}

// WithTreeOptions passes options to every IBS-tree the index creates
// (e.g. ibs.Balanced(false) to reproduce the paper's unbalanced
// measurement configuration). It resets the factory to IBS-trees.
func WithTreeOptions(opts ...ibs.Option) Option {
	return func(ix *Index) {
		ix.factory = func() AttrIndex { return ibs.New(value.Compare, opts...) }
	}
}

// WithIndexFactory replaces the per-attribute interval index wholesale,
// e.g. with internal/islist's interval skip list:
//
//	core.New(cat, funcs, core.WithIndexFactory(func() core.AttrIndex {
//	    return islist.New(value.Compare)
//	}))
func WithIndexFactory(f IndexFactory) Option {
	return func(ix *Index) { ix.factory = f }
}

// WithName overrides the strategy name reported in benchmarks.
func WithName(name string) Option {
	return func(ix *Index) { ix.name = name }
}

// New returns an empty predicate index.
func New(catalog *schema.Catalog, funcs *pred.Registry, opts ...Option) *Index {
	ix := &Index{
		catalog: catalog,
		funcs:   funcs,
		est:     selectivity.Static{},
		factory: func() AttrIndex { return ibs.New(value.Compare) },
		name:    "ibs",
		rels:    make(map[string]*relIndex),
		preds:   make(map[pred.ID]*entry),
	}
	for _, o := range opts {
		o(ix)
	}
	return ix
}

// Name implements matcher.Matcher.
func (ix *Index) Name() string { return ix.name }

// Len implements matcher.Matcher.
func (ix *Index) Len() int { return len(ix.preds) }

// Add implements matcher.Matcher: the predicate's most selective
// indexable clause goes into the IBS-tree of its attribute; predicates
// without indexable clauses go on the relation's non-indexable list.
func (ix *Index) Add(p *pred.Predicate) error {
	if _, dup := ix.preds[p.ID]; dup {
		return fmt.Errorf("core: duplicate predicate id %d", p.ID)
	}
	e, err := ix.bind(p)
	if err != nil {
		return err
	}
	return ix.place(e)
}

// place files the bound row e: its indexed clause into the tree of its
// attribute, created on first use, or the row onto its relation's
// non-indexable list; then it widens the relation's summary and enters
// e in the PREDICATES table. Add and every merge place rows through it.
func (ix *Index) place(e *entry) error {
	p := e.bound.Pred
	ri, ok := ix.rels[p.Rel]
	if !ok {
		rel, _ := ix.catalog.Get(p.Rel)
		ri = newRelIndex(rel)
		ix.rels[p.Rel] = ri
	}
	if e.clause >= 0 {
		c := &p.Clauses[e.clause]
		tree, ok := ri.trees[e.attr]
		if !ok {
			tree = ix.factory()
			ri.trees[e.attr] = tree
			ri.rebuildProbes()
		}
		if err := tree.Insert(p.ID, c.Iv); err != nil {
			return fmt.Errorf("core: indexing clause %v: %w", *c, err)
		}
	} else {
		ri.addUnindexed(e)
	}
	envelop(&ri.sum, e.bound)
	ix.preds[p.ID] = e
	return nil
}

// mustPlace is place for a row bound and validated already, whose ID
// the index does not hold: a failure means an index invariant is
// broken.
func (ix *Index) mustPlace(e *entry) {
	if err := ix.place(e); err != nil {
		panic(fmt.Sprintf("core: placing predicate %d: %v", e.bound.Pred.ID, err))
	}
}

// bind resolves p into its PREDICATES row with the clause to index
// chosen (none: clause -1, no attr) and nothing inserted anywhere yet.
func (ix *Index) bind(p *pred.Predicate) (*entry, error) {
	b, err := p.Bind(ix.catalog, ix.funcs)
	if err != nil {
		return nil, err
	}
	e := &entry{bound: b, clause: -1}
	if ci, ok := selectivity.ChooseClause(p, ix.est); ok {
		e.attr, e.clause = p.Clauses[ci].Attr, ci
	}
	return e, nil
}

// Remove implements matcher.Matcher.
func (ix *Index) Remove(id pred.ID) error {
	e, ok := ix.preds[id]
	if !ok {
		return fmt.Errorf("core: unknown predicate id %d", id)
	}
	delete(ix.preds, id)
	ri := ix.rels[e.bound.Pred.Rel]
	if e.clause >= 0 {
		tree := ri.trees[e.attr]
		if err := tree.Delete(id); err != nil {
			return err
		}
		if tree.Len() == 0 {
			delete(ri.trees, e.attr)
			ri.rebuildProbes()
		}
		return nil
	}
	if i := slices.IndexFunc(ri.nonIndexable, func(x unindexed) bool { return x.id == id }); i >= 0 {
		ri.nonIndexable = slices.Delete(ri.nonIndexable, i, i+1)
	}
	return nil
}

// Match implements matcher.Matcher: probe each attribute's IBS-tree with
// the tuple's value for that attribute (a stabbing query), then complete
// every partial match — and every non-indexable predicate — against the
// PREDICATES table. It writes nothing to the index.
func (ix *Index) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	ri, ok := ix.rels[rel]
	if !ok {
		return dst, nil
	}
	return ix.matchMasked(ri, t, dst, nil), nil
}

// matchMasked is the match of one relation: stab ri's trees into dst's
// spare capacity, complete the candidates there in place, compacting
// the survivors down, then test the non-indexable predicates; an ID in
// dead (sorted; nil masks nothing) is left out. A caller that reuses a
// dst with room for the candidates allocates nothing. It never writes
// to the index, so it is safe against a frozen snapshot.
func (ix *Index) matchMasked(ri *relIndex, t tuple.Tuple, dst, dead []pred.ID) []pred.ID {
	n := len(dst)
	for _, pr := range ri.probes {
		dst = pr.tree.StabAppend(t[pr.pos], dst)
	}
	for _, id := range dst[n:] {
		if masked(dead, id) {
			continue
		}
		if e := ix.preds[id]; e.bound.MatchSkipping(t, e.clause) {
			dst[n] = id
			n++
		}
	}
	dst = dst[:n]
	// known marks the function slots evaluated for t so far, val their
	// answers: a slot's function runs the first time a predicate needs
	// it and is two ANDs for every predicate after that.
	var known, val uint64
	for i := range ri.nonIndexable {
		x := &ri.nonIndexable[i]
		if !x.slotted {
			if !masked(dead, x.id) && x.e.bound.Match(t) {
				dst = append(dst, x.id)
			}
			continue
		}
		ok := x.need&known&^val == 0 // no needed slot is known false
		for miss := x.need &^ known; ok && miss != 0; miss &= miss - 1 {
			s := bits.TrailingZeros64(miss)
			known |= 1 << s
			if sl := &ri.fnSlots[s]; sl.fn(t[sl.pos]) {
				val |= 1 << s
			} else {
				ok = false
			}
		}
		if ok && !masked(dead, x.id) {
			dst = append(dst, x.id)
		}
	}
	return dst
}

// Clone returns a copy of the index that can be mutated without
// affecting the original (and vice versa). The PREDICATES table entries
// are shared — they are immutable after Add — while the relation tables
// and every attribute tree are rebuilt, costing one tree insertion per
// indexed predicate.
func (ix *Index) Clone() *Index {
	cp := ix.blank()
	cp.adopt(ix, nil)
	return cp
}

// blank returns an empty index with ix's configuration.
func (ix *Index) blank() *Index {
	return &Index{
		catalog: ix.catalog,
		funcs:   ix.funcs,
		est:     ix.est,
		factory: ix.factory,
		name:    ix.name,
		rels:    make(map[string]*relIndex, len(ix.rels)),
		preds:   make(map[pred.ID]*entry, len(ix.preds)),
	}
}

// adopt places src's predicates, minus the IDs in skip (sorted), into
// ix: one tree insertion per indexed predicate, sharing the PREDICATES
// rows, with the function slots assigned and the summaries widened
// afresh — so what ix admits is exact for the predicates it ends up
// holding. Each non-indexable list keeps its order.
func (ix *Index) adopt(src *Index, skip []pred.ID) {
	for _, ri := range src.rels {
		for _, x := range ri.nonIndexable {
			if !masked(skip, x.id) {
				ix.mustPlace(x.e)
			}
		}
	}
	for id, e := range src.preds {
		if e.clause >= 0 && !masked(skip, id) {
			ix.mustPlace(e)
		}
	}
}

// masked reports whether id is in the sorted ID list dead.
func masked(dead []pred.ID, id pred.ID) bool {
	if len(dead) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(dead, id)
	return ok
}

// Candidates returns the number of partial matches a Match for t would
// complete against the PREDICATES table: index hits from the attribute
// trees plus the non-indexable list. This is the quantity the paper's
// Section 5.2 cost model multiplies by the full-test cost ("20
// predicates must be tested after the initial search").
func (ix *Index) Candidates(rel string, t tuple.Tuple) int {
	ri, ok := ix.rels[rel]
	if !ok {
		return 0
	}
	scratch := ix.scratch[:0]
	for _, pr := range ri.probes {
		scratch = pr.tree.StabAppend(t[pr.pos], scratch)
	}
	n := len(scratch) + len(ri.nonIndexable)
	ix.scratch = scratch
	return n
}

// TreeStats describes one attribute IBS-tree, for instrumentation and
// the space experiments.
type TreeStats struct {
	Rel, Attr string
	Intervals int
	Nodes     int
	Markers   int
	Height    int
}

// Trees returns statistics for every attribute tree in the index.
func (ix *Index) Trees() []TreeStats {
	var out []TreeStats
	for relName, ri := range ix.rels {
		for attr, tree := range ri.trees {
			ts := TreeStats{
				Rel:       relName,
				Attr:      attr,
				Intervals: tree.Len(),
			}
			if st, ok := tree.(AttrIndexStats); ok {
				ts.Nodes = st.NodeCount()
				ts.Markers = st.MarkerCount()
			}
			if ht, ok := tree.(interface{ Height() int }); ok {
				ts.Height = ht.Height()
			}
			out = append(out, ts)
		}
	}
	slices.SortFunc(out, compareTrees)
	return out
}

// compareTrees orders TreeStats by relation, then attribute.
func compareTrees(a, b TreeStats) int {
	if c := strings.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	return strings.Compare(a.Attr, b.Attr)
}

// NonIndexableCount returns the number of predicates on rel's
// non-indexable list.
func (ix *Index) NonIndexableCount(rel string) int {
	ri, ok := ix.rels[rel]
	if !ok {
		return 0
	}
	return len(ri.nonIndexable)
}
