package server

import (
	"predmatch/internal/obs"
	"predmatch/internal/wire"
)

// ops is every request operation the protocol defines; per-op latency
// histogram handles are resolved once at startup so the request path
// never takes the vec's lookup lock.
var ops = []string{
	wire.OpPing, wire.OpDeclare, wire.OpRule,
	wire.OpDropRule, wire.OpAddPred, wire.OpRemovePred,
	wire.OpInsert, wire.OpUpdate, wire.OpDelete,
	wire.OpMatch, wire.OpMatchBatch,
	wire.OpSubscribe, wire.OpUnsubscribe, wire.OpStats,
	wire.OpBackup, wire.OpReplicate, wire.OpPromote,
}

// serverMetrics holds the handles the request path updates. nil (no
// Registry configured) disables all of it; the notification counters
// stay plain atomics on Server either way and are exported here as
// scrape-time counter funcs.
type serverMetrics struct {
	reqLat    map[string]*obs.Histogram // per-op request latency
	reqErrors *obs.Counter
	rejected  *obs.Counter
	// Replication streaming volume (leader side; see docs/OBSERVABILITY.md).
	streamedRecords *obs.Counter
	streamedBytes   *obs.Counter
}

// newServerMetrics registers the daemon's metric families on reg.
// Derivable quantities — connection and subscription counts, queue
// depths, delivery counters — are sampled at scrape time from the
// server's own state, costing the hot paths nothing.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	if reg == nil {
		return nil
	}
	lat := reg.HistogramVec("predmatch_request_latency_seconds",
		"Request handling latency by operation (dispatch to response encode).",
		obs.DefBuckets, "op")
	m := &serverMetrics{
		reqLat: make(map[string]*obs.Histogram, len(ops)),
		reqErrors: reg.Counter("predmatch_request_errors_total",
			"Requests answered with an error frame."),
		rejected: reg.Counter("predmatch_conns_rejected_total",
			"Connections rejected by the MaxConns limit."),
	}
	for _, op := range ops {
		m.reqLat[op] = lat.With(op)
	}
	reg.GaugeFunc("predmatch_active_connections",
		"Open client connections.", func() float64 {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			return float64(len(s.conns))
		})
	reg.GaugeFunc("predmatch_subscriptions",
		"Connections with an active subscription.", func() float64 {
			s.subMu.Lock()
			defer s.subMu.Unlock()
			return float64(len(s.subs))
		})
	reg.GaugeFunc("predmatch_notify_queue_depth",
		"Notifications currently queued across all connections.", func() float64 {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			s.subMu.Lock() // a subscribe sets c.notes under it
			defer s.subMu.Unlock()
			total := 0
			for c := range s.conns {
				total += len(c.notes)
			}
			return float64(total)
		})
	reg.CounterFunc("predmatch_notify_delivered_total",
		"Notifications written to clients.", s.delivered.Load)
	reg.CounterFunc("predmatch_notify_dropped_total",
		"Notifications dropped by the overflow policy or lost with a torn-down connection.", s.dropped.Load)
	m.streamedRecords = reg.Counter("predmatch_repl_streamed_records_total",
		"WAL records streamed to followers.")
	m.streamedBytes = reg.Counter("predmatch_repl_streamed_bytes_total",
		"Replication payload bytes streamed to followers (records and snapshots).")
	reg.GaugeFunc("predmatch_repl_followers",
		"Replication streams currently served.", func() float64 {
			return float64(s.followers())
		})
	return m
}
