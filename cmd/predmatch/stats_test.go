package main

import (
	"strings"
	"testing"

	"predmatch/internal/wire"
)

// TestPrintStats pins the stats rendering byte for byte against a
// representative frame: every section printStats knows (prefilter,
// shards, trees, relations, wal, replication, connections) is present,
// including a subscriber whose queue is pinned at capacity and a replica
// stream, which never subscribed and so has no queue. The frame is rendered twice, once as a leader and once as a
// follower, since a frame carries one replication role. Regenerate with
// `go test ./cmd/predmatch -run TestPrintStats -update`.
func TestPrintStats(t *testing.T) {
	st := &wire.Stats{
		Rules:      []string{"band", "senior"},
		Matcher:    "sharded",
		Predicates: 3,
		Prefilter:  &wire.PrefilterStat{Admitted: 180, Skipped: 20},
		Conns:      2,
		Subs:       1,
		Delivered:  90,
		Dropped:    10,
		Shards: []wire.ShardStat{
			{Rel: "emp", Predicates: 3, Version: 7, Structure: "hint"},
		},
		Trees: []wire.TreeStat{
			{Rel: "emp", Attr: "salary", Intervals: 3, Nodes: 5, Markers: 8, Height: 3},
		},
		Relations: []wire.RelStat{
			{Name: "emp", Rows: 42, NextID: 57},
		},
		WAL: &wire.WALStat{
			LastSeq: 230, DurableSeq: 229, SnapshotSeq: 100,
			Segments: 2, Sync: "interval",
		},
		Repl: &wire.ReplStat{Role: "leader", Followers: 1},
		Connections: []wire.ConnStat{
			{Remote: "127.0.0.1:50001", Subscribed: true, Queue: 128, QueueCap: 128,
				Delivered: 90, Dropped: 10, LastSeq: 228},
			{Remote: "127.0.0.1:50002", Replica: true, ReplSeq: 226},
		},
	}
	var b strings.Builder
	printStats(&b, st)
	st.Repl = &wire.ReplStat{Role: "follower", Leader: "127.0.0.1:7341",
		AppliedSeq: 228, LeaderSeq: 230, Lag: 2, Reconnects: 3}
	b.WriteString("--\n")
	printStats(&b, st)
	checkGolden(t, "stats.golden", b.String())
}
