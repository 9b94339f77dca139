package wal

import (
	"os"
	"path/filepath"
	"testing"

	"predmatch/internal/value"
	"predmatch/internal/wire"
)

func testSnapshot(seq uint64) *Snapshot {
	return &Snapshot{
		Seq: seq,
		Relations: []SnapRelation{{
			Name: "emp",
			Attrs: []wire.Attr{
				{Name: "name", Type: "string"},
				{Name: "salary", Type: "int"},
			},
			NextID: 4,
			Rows: []SnapRow{
				{ID: 1, Tuple: wireTuple("ada", 18000)},
				{ID: 3, Tuple: wireTuple("cyd", 9007199254740993)}, // > 2^53: float64 would corrupt it
			},
		}},
		Rules:      []string{"rule r1 on insert to emp when salary < 100 do log 'x'"},
		Preds:      []SnapPred{{ID: 1 << 40, Pred: wire.Predicate{Rel: "emp"}}},
		NextPredID: 2,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	defer l.Close()

	path, n, err := l.WriteSnapshot(testSnapshot(7))
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n <= headerBytes {
		t.Fatalf("snapshot size %d", n)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.Seq != 7 || got.Version != snapshotVersion {
		t.Fatalf("seq=%d version=%d", got.Seq, got.Version)
	}
	if len(got.Relations) != 1 || got.Relations[0].Name != "emp" || got.Relations[0].NextID != 4 {
		t.Fatalf("relations: %+v", got.Relations)
	}
	// The big int must survive exactly, as an int.
	if big := got.Relations[0].Rows[1].Tuple[1]; big.Kind() != value.KindInt || big.AsInt() != 9007199254740993 {
		t.Fatalf("big int round trip: %v (%s)", big, big.Kind())
	}
	if got.Preds[0].ID != 1<<40 || got.NextPredID != 2 {
		t.Fatalf("preds: %+v next=%d", got.Preds, got.NextPredID)
	}
	if l.SnapshotSeq() != 7 {
		t.Fatalf("SnapshotSeq = %d", l.SnapshotSeq())
	}
	if l.snapshotAge() < 0 {
		t.Fatal("negative snapshot age")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	defer l.Close()
	path, _, err := l.WriteSnapshot(testSnapshot(3))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("ReadSnapshot accepted a corrupted checkpoint")
	}
}

func TestRecoveryFallsBackToOlderSnapshot(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	// Log 1..5, snapshot at 3 (good) and at 5 (to be corrupted).
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := l.WriteSnapshot(testSnapshot(3)); err != nil {
		t.Fatal(err)
	}
	path5, _, err := l.WriteSnapshot(testSnapshot(5))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Truncate(path5, 10); err != nil {
		t.Fatal(err)
	}

	var loaded *Snapshot
	var replayed []uint64
	l2, info, err := Recover(opt, Handler{
		LoadSnapshot: func(s *Snapshot) error { loaded = s; return nil },
		Apply:        func(r *Record) error { replayed = append(replayed, r.Seq); return nil },
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer l2.Close()
	if loaded == nil || loaded.Seq != 3 {
		t.Fatalf("loaded snapshot %+v, want seq 3", loaded)
	}
	if info.SnapshotSeq != 3 || info.SnapshotsSkipped != 1 {
		t.Fatalf("info: %+v", info)
	}
	// Only the tail after the snapshot replays.
	if len(replayed) != 2 || replayed[0] != 4 || replayed[1] != 5 {
		t.Fatalf("replayed %v, want [4 5]", replayed)
	}
}

func TestPruneDeletesCoveredSegmentsAndOldSnapshots(t *testing.T) {
	opt := testOptions(t, SyncOff)
	opt.SegmentBytes = 128
	l := openEmpty(t, opt)
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i), "padding-padding")); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore, _, _ := scanDir(opt.Dir)
	if len(segsBefore) < 4 {
		t.Fatalf("want >=4 segments, got %d", len(segsBefore))
	}
	if _, _, err := l.WriteSnapshot(testSnapshot(10)); err != nil {
		t.Fatal(err)
	}
	last := l.LastSeq()
	if _, _, err := l.WriteSnapshot(testSnapshot(last)); err != nil {
		t.Fatal(err)
	}
	if err := l.Prune(last); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	segsAfter, snaps, _ := scanDir(opt.Dir)
	if len(segsAfter) != 1 {
		t.Fatalf("segments after prune: %v (want only the active one)", segsAfter)
	}
	if len(snaps) != 1 || snaps[0] != last {
		t.Fatalf("snapshots after prune: %v, want [%d]", snaps, last)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("Segments() = %d after prune", got)
	}
	l.Close()

	// The pruned directory still recovers to the full state.
	var loaded *Snapshot
	l2, info, err := Recover(opt, Handler{LoadSnapshot: func(s *Snapshot) error { loaded = s; return nil }})
	if err != nil {
		t.Fatalf("Recover after prune: %v", err)
	}
	defer l2.Close()
	if loaded == nil || loaded.Seq != last || info.LastSeq != last {
		t.Fatalf("after prune: loaded=%v info=%+v", loaded, info)
	}
	if _, err := os.Stat(filepath.Join(opt.Dir, snapshotName(last))); err != nil {
		t.Fatal(err)
	}
}

func TestPruneKeepsUncoveredSegments(t *testing.T) {
	opt := testOptions(t, SyncOff)
	opt.SegmentBytes = 128
	l := openEmpty(t, opt)
	defer l.Close()
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i), "padding-padding")); err != nil {
			t.Fatal(err)
		}
	}
	segs, _, _ := scanDir(opt.Dir)
	// Snapshot in the middle of the log: segments fully covered by it go,
	// segments holding any record past it stay.
	const snapSeq = 10
	if _, _, err := l.WriteSnapshot(testSnapshot(snapSeq)); err != nil {
		t.Fatal(err)
	}
	if err := l.Prune(snapSeq); err != nil {
		t.Fatal(err)
	}
	after, _, _ := scanDir(opt.Dir)
	if len(after) >= len(segs) {
		t.Fatalf("partial prune deleted nothing: %v", after)
	}
	// The segment holding record snapSeq+1 (and everything after) must
	// survive, so record snapSeq+1 is still replayable.
	if after[0] > snapSeq+1 {
		t.Fatalf("prune deleted a segment holding record %d: remaining %v", snapSeq+1, after)
	}
	l.Close()
	var replayed []uint64
	l2, info, err := Recover(opt, Handler{Apply: func(r *Record) error {
		if r.Seq > snapSeq {
			replayed = append(replayed, r.Seq)
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("Recover after partial prune: %v", err)
	}
	defer l2.Close()
	if info.LastSeq != 40 || len(replayed) != 30 || replayed[0] != snapSeq+1 {
		t.Fatalf("after partial prune: info=%+v replayed=%d", info, len(replayed))
	}
}
