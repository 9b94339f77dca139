// Metrics for the serving-layer matcher. Hot-path instrumentation is
// allocation-free: each relShard resolves its latency-histogram handle
// once at shard creation, so Match pays one time.Time read and one
// histogram observe per call — and nothing at all when the matcher was
// built without WithMetrics. Everything derivable from existing
// snapshot state (predicate counts, snapshot versions, tree shapes) is
// exported as scrape-time gauge sets instead of hot-path counters.
package shard

import "predmatch/internal/obs"

// metrics holds the handles a ShardedMatcher updates on its hot paths.
// nil (the default) disables all of it.
type metrics struct {
	lat         *obs.HistogramVec // per-relation match latency
	batchSecs   *obs.Histogram    // whole-batch MatchBatch latency
	batchTuples *obs.Histogram    // MatchBatch batch sizes
	swaps       *obs.Counter      // snapshot publications (Add/Remove)
	merges      *obs.Counter      // publications that rebuilt the base
}

// WithMetrics registers the matcher's metric families on reg and turns
// on hot-path instrumentation. A nil reg leaves the matcher completely
// uninstrumented (every handle below is nil, and nil handles are
// no-ops). Scrape-time families walk the lock-free snapshot directory,
// so exposition never blocks writers.
func WithMetrics(reg *obs.Registry) Option {
	return func(m *ShardedMatcher) {
		if reg == nil {
			return
		}
		m.met = &metrics{
			lat: reg.HistogramVec("predmatch_match_latency_seconds",
				"Latency of single-tuple Match calls by relation.",
				obs.DefBuckets, "rel"),
			batchSecs: reg.Histogram("predmatch_match_batch_seconds",
				"Latency of whole MatchBatch calls."),
			batchTuples: reg.Histogram("predmatch_match_batch_tuples",
				"Tuples per MatchBatch call.",
				obs.ExponentialBuckets(1, 4, 8)...),
			swaps: reg.Counter("predmatch_shard_snapshot_swaps_total",
				"Copy-on-write snapshot publications (Add/Remove commits)."),
			merges: reg.Counter("predmatch_shard_merges_total",
				"Publications that folded the delta and tombstones into a rebuilt base (the O(N) write)."),
		}
		reg.CounterFunc("predmatch_prefilter_admitted_total",
			"Tuples the attribute prefilter passed through to a full index probe.",
			m.admitted.Load)
		reg.CounterFunc("predmatch_prefilter_skipped_total",
			"Tuples the attribute prefilter proved unmatchable without touching a tree.",
			m.skipped.Load)
		reg.GaugeSet("predmatch_shard_predicates",
			"Predicates held by each relation shard's current snapshot.",
			[]string{"rel"}, func(emit obs.Emit) {
				for _, s := range m.Stats() {
					emit(float64(s.Predicates), s.Rel)
				}
			})
		reg.GaugeSet("predmatch_shard_snapshot_version",
			"Published snapshot version of each relation shard.",
			[]string{"rel"}, func(emit obs.Emit) {
				for _, s := range m.Stats() {
					emit(float64(s.Version), s.Rel)
				}
			})
		reg.GaugeSet("predmatch_ibs_tree_nodes",
			"Endpoint nodes per attribute IBS-tree.",
			[]string{"rel", "attr"}, func(emit obs.Emit) {
				for _, ts := range m.Trees() {
					emit(float64(ts.Nodes), ts.Rel, ts.Attr)
				}
			})
		reg.GaugeSet("predmatch_ibs_tree_markers",
			"Marks placed per attribute IBS-tree (the paper's Section 5.1 space measure).",
			[]string{"rel", "attr"}, func(emit obs.Emit) {
				for _, ts := range m.Trees() {
					emit(float64(ts.Markers), ts.Rel, ts.Attr)
				}
			})
		reg.GaugeSet("predmatch_ibs_tree_height",
			"Height per attribute IBS-tree (the log N term of stab cost).",
			[]string{"rel", "attr"}, func(emit obs.Emit) {
				for _, ts := range m.Trees() {
					emit(float64(ts.Height), ts.Rel, ts.Attr)
				}
			})
	}
}
