// Package shard implements the serving-layer predicate matcher: the
// paper's first-level hash on relation name (Figure 1) becomes the unit
// of concurrency. Every relation gets its own shard, and every shard
// holds an atomically published, immutable core.View covering only that
// relation's predicates: a large base index, a flat delta of the rows
// of recent adds, and the tombstones of recent removes.
//
// Concurrency model:
//
//   - Match is lock-free: one atomic load of the shard directory, one
//     atomic load of the shard's view, then a read-only two-level read —
//     base hits minus tombstones, then the delta rows the tuple
//     satisfies — against the frozen view. The view carries its own admission summary (the envelopes
//     of its interval clauses), so the same load yields index and
//     filter: a tuple outside every envelope touches no tree. Readers
//     never block writers or each other.
//   - Writers serialize per shard: Add/Remove take the shard's mutex,
//     derive the next view — a copy of the delta's rows with one row
//     added or dropped, or a copy of the tombstone list; the base is
//     shared, so that is O(|delta|) pointer copies and no tree
//     insertion, however large the relation — and publish it with an
//     atomic store. Once in about √(2N) writes the
//     overlay outgrows core's merge rule and the same writer first
//     rebuilds the base, inline: O(√N) insertions per write amortized.
//     Writers to different relations proceed fully in parallel — the
//     sharding axis the paper's relation-name hash already provides.
//   - Every Match observes a predicate set that actually existed at some
//     instant between the call's start and end (snapshot isolation per
//     relation); it never sees a half-applied write.
//
// MatchBatch amortizes the snapshot acquisition over a whole batch of
// tuples: it loads the view once and matches the tuples one after
// another on the caller's goroutine, so all tuples of a batch observe
// the same predicate-set version.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/core"
	"predmatch/internal/matcher"
	"predmatch/internal/obs"
	"predmatch/internal/pred"
	"predmatch/internal/prefilter"
	"predmatch/internal/schema"
	"predmatch/internal/trace"
	"predmatch/internal/tuple"
)

// ShardedMatcher partitions the predicate index by relation and serves
// lock-free snapshot reads. Construct with New.
type ShardedMatcher struct {
	catalog *schema.Catalog
	funcs   *pred.Registry
	opts    []core.Option
	name    string
	met     *metrics // nil unless built with WithMetrics

	// admitted and skipped count the verdicts of the views' admission
	// summaries: tuples that went on to an index probe, and tuples
	// proven unmatchable without touching a tree.
	admitted, skipped atomic.Uint64

	// dir is the immutable relation→shard directory. Shards are only
	// ever added (a relation's shard survives its last predicate), so
	// growing it is a copy-on-write map swap under dirMu; loads are
	// lock-free by design.
	dirMu sync.Mutex
	dir   atomic.Pointer[map[string]*relShard] // write-guarded-by: dirMu

	// ids routes Remove calls to the owning relation and doubles as the
	// cross-shard duplicate-ID check and the Len source.
	idMu sync.Mutex
	ids  map[pred.ID]string // guarded-by: idMu
}

var (
	_ matcher.Matcher       = (*ShardedMatcher)(nil)
	_ matcher.TracedMatcher = (*ShardedMatcher)(nil)
)

// relShard is one relation's slice of the index.
type relShard struct {
	mu sync.Mutex // serializes writers (derive the next view, merge, publish)
	// snap is the published immutable snapshot; nil until the first Add.
	snap atomic.Pointer[core.View]
	// version counts published snapshots: it advances by one on every
	// successful Add/Remove against this shard, so two reads observing
	// the same version observed the same predicate set.
	version atomic.Uint64
	// lat is the relation's match-latency histogram handle, resolved
	// once at shard creation so Match never takes the vec's lookup
	// lock. nil when the matcher is uninstrumented.
	lat *obs.Histogram
}

// Option configures a ShardedMatcher.
type Option func(*ShardedMatcher)

// WithIndexOptions passes options to every per-shard core.Index, e.g.
// core.WithIndexFactory to swap the attribute index structure.
func WithIndexOptions(opts ...core.Option) Option {
	return func(m *ShardedMatcher) { m.opts = opts }
}

// WithName overrides the strategy name reported in benchmarks.
func WithName(name string) Option {
	return func(m *ShardedMatcher) { m.name = name }
}

// New returns an empty sharded matcher resolving predicates against the
// given catalog and function registry.
func New(catalog *schema.Catalog, funcs *pred.Registry, opts ...Option) *ShardedMatcher {
	m := &ShardedMatcher{
		catalog: catalog,
		funcs:   funcs,
		name:    "sharded",
		ids:     make(map[pred.ID]string),
	}
	empty := make(map[string]*relShard)
	m.dir.Store(&empty) //predmatchvet:ignore guardedby constructor publish; m is not shared yet
	for _, o := range opts {
		o(m)
	}
	return m
}

// Name implements matcher.Matcher.
func (m *ShardedMatcher) Name() string { return m.name }

// Len implements matcher.Matcher.
func (m *ShardedMatcher) Len() int {
	m.idMu.Lock()
	defer m.idMu.Unlock()
	return len(m.ids)
}

// shard returns rel's shard, or nil if no predicate was ever added for
// rel. Lock-free.
func (m *ShardedMatcher) shard(rel string) *relShard {
	return (*m.dir.Load())[rel]
}

// shardOrCreate returns rel's shard, growing the directory on first use
// of a relation via a copy-on-write map swap.
func (m *ShardedMatcher) shardOrCreate(rel string) *relShard {
	if sh := m.shard(rel); sh != nil {
		return sh
	}
	m.dirMu.Lock()
	defer m.dirMu.Unlock()
	cur := *m.dir.Load()
	if sh := cur[rel]; sh != nil {
		return sh
	}
	next := make(map[string]*relShard, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	sh := &relShard{}
	if m.met != nil {
		sh.lat = m.met.lat.With(rel)
	}
	next[rel] = sh
	m.dir.Store(&next)
	return sh
}

// Add implements matcher.Matcher: validate, reserve the ID globally,
// then publish the owning relation's view plus p.
func (m *ShardedMatcher) Add(p *pred.Predicate) error {
	// Validate up front so a bad predicate never creates a shard or
	// reserves an ID.
	if err := p.Validate(m.catalog, m.funcs); err != nil {
		return err
	}
	m.idMu.Lock()
	if _, dup := m.ids[p.ID]; dup {
		m.idMu.Unlock()
		return fmt.Errorf("shard: duplicate predicate id %d", p.ID)
	}
	m.ids[p.ID] = p.Rel
	m.idMu.Unlock()

	sh := m.shardOrCreate(p.Rel)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.snap.Load()
	if cur == nil {
		cur = core.NewView(m.catalog, m.funcs, m.opts...)
	}
	next, err := cur.With(p)
	if err != nil {
		m.idMu.Lock()
		delete(m.ids, p.ID)
		m.idMu.Unlock()
		return err
	}
	m.publish(sh, next)
	return nil
}

// Remove implements matcher.Matcher, routing by the ID's owning
// relation.
func (m *ShardedMatcher) Remove(id pred.ID) error {
	m.idMu.Lock()
	rel, ok := m.ids[id]
	if !ok {
		m.idMu.Unlock()
		return fmt.Errorf("shard: unknown predicate id %d", id)
	}
	delete(m.ids, id)
	m.idMu.Unlock()

	sh := m.shard(rel)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	next, err := sh.snap.Load().Without(id)
	if err != nil {
		m.idMu.Lock()
		m.ids[id] = rel
		m.idMu.Unlock()
		return err
	}
	m.publish(sh, next)
	return nil
}

// publish makes next the shard's snapshot, first folding its overlay
// into a fresh base if it has outgrown core's merge rule: the O(N)
// rebuild runs here, inline, under the shard mutex the caller holds.
func (m *ShardedMatcher) publish(sh *relShard, next *core.View) {
	merged := next.Merged()
	sh.snap.Store(merged)
	sh.version.Add(1)
	if m.met != nil {
		m.met.swaps.Inc()
		if merged != next {
			m.met.merges.Inc()
		}
	}
}

// Match implements matcher.Matcher with a lock-free snapshot read.
func (m *ShardedMatcher) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	return m.MatchTraced(rel, t, dst, nil)
}

// MatchTraced implements matcher.TracedMatcher: Match, additionally
// attaching child spans for the snapshot load, the admission verdict
// and the stab to sp. A nil sp records no spans (every span call is a
// nil-receiver no-op), so the untraced path pays only nil checks.
func (m *ShardedMatcher) MatchTraced(rel string, t tuple.Tuple, dst []pred.ID, sp *trace.Span) ([]pred.ID, error) {
	ssp := sp.Child("shard.snapshot")
	sh := m.shard(rel)
	var snap *core.View
	if sh != nil {
		snap = sh.snap.Load()
	}
	if snap == nil {
		ssp.SetBool("miss", true)
		ssp.End()
		return dst, nil
	}
	if sp != nil {
		ssp.SetInt("version", int64(sh.version.Load()))
	}
	ssp.End()
	admit := m.admit(snap, rel, t)
	if sp != nil {
		psp := sp.Child("shard.prefilter")
		psp.SetBool("admit", admit)
		psp.End()
	}
	if !admit {
		return dst, nil
	}
	if sh.lat == nil && sp == nil {
		return snap.Match(rel, t, dst)
	}
	tsp := sp.Child("shard.stab")
	t0 := time.Now()
	out, err := snap.Match(rel, t, dst)
	if sh.lat != nil {
		sh.lat.Observe(time.Since(t0).Seconds())
	}
	if sp != nil {
		tsp.SetStr("rel", rel)
		tsp.SetInt("results", int64(len(out)))
	}
	tsp.End()
	return out, err
}

// admit is snap's admission verdict on t, counted.
func (m *ShardedMatcher) admit(snap *core.View, rel string, t tuple.Tuple) bool {
	ok := snap.Admit(rel, t)
	if ok {
		m.admitted.Add(1)
	} else {
		m.skipped.Add(1)
	}
	return ok
}

// MatchBatch matches every tuple of rel against one snapshot acquired
// once for the whole batch, in order, on the caller's goroutine.
// results[i] holds the matches of tuples[i]; all tuples observe the
// same predicate-set version even while writers publish concurrently.
func (m *ShardedMatcher) MatchBatch(rel string, tuples []tuple.Tuple) ([][]pred.ID, error) {
	results := make([][]pred.ID, len(tuples))
	sh := m.shard(rel)
	if sh == nil || len(tuples) == 0 {
		return results, nil
	}
	if m.met != nil {
		m.met.batchTuples.Observe(float64(len(tuples)))
		defer m.met.batchSecs.ObserveSince(time.Now())
	}
	snap := sh.snap.Load()
	if snap == nil {
		return results, nil
	}
	var err error
	for i, t := range tuples {
		if !m.admit(snap, rel, t) {
			continue
		}
		if results[i], err = snap.Match(rel, t, nil); err != nil {
			return results, err
		}
	}
	return results, nil
}

// Snapshot returns rel's current frozen view, or nil if the relation
// has never held a predicate. It stays valid, and keeps answering with
// the predicate set it was loaded with, forever — later writes publish
// new views instead of mutating it.
func (m *ShardedMatcher) Snapshot(rel string) *core.View {
	sh := m.shard(rel)
	if sh == nil {
		return nil
	}
	return sh.snap.Load()
}

// ShardStats describes one relation shard: how many predicates its
// current snapshot holds and which snapshot version is published.
type ShardStats struct {
	Rel        string
	Predicates int
	Version    uint64
	// Structure is the snapshot's index strategy name (core.WithName).
	// Empty while no snapshot is published.
	Structure string
}

// Stats reports every shard's predicate count and snapshot version,
// sorted by relation. Each shard's count/version pair is read
// atomically-enough for monitoring (the two loads are not fenced
// together, so a concurrent write may skew one entry by one).
func (m *ShardedMatcher) Stats() []ShardStats {
	dir := *m.dir.Load()
	out := make([]ShardStats, 0, len(dir))
	for rel, sh := range dir {
		s := ShardStats{Rel: rel, Version: sh.version.Load()}
		if snap := sh.snap.Load(); snap != nil {
			s.Predicates = snap.Len()
			s.Structure = snap.Name()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rel < out[j].Rel })
	return out
}

// PrefilterStats returns the admission counters. ok is always true; it
// dates from when the filter could be switched off, and bench/ and
// internal/server still test it.
func (m *ShardedMatcher) PrefilterStats() (s prefilter.Stats, ok bool) {
	return prefilter.Stats{Admitted: m.admitted.Load(), Skipped: m.skipped.Load()}, true
}

// Relations returns the relations that currently have a shard (any
// relation that ever held a predicate).
func (m *ShardedMatcher) Relations() []string {
	dir := *m.dir.Load()
	out := make([]string, 0, len(dir))
	for rel := range dir {
		out = append(out, rel)
	}
	return out
}

// Trees aggregates the attribute-tree statistics of every shard's
// current snapshot (see core.Index.Trees), for instrumentation and the
// script interpreter's stats statement.
func (m *ShardedMatcher) Trees() []core.TreeStats {
	var out []core.TreeStats
	for _, sh := range *m.dir.Load() {
		if snap := sh.snap.Load(); snap != nil {
			out = append(out, snap.Trees()...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}
