package server_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"predmatch/internal/server"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// Data an older daemon wrote keeps loading. Such a daemon served an
// "index" op: its log holds index records and its checkpoints an
// "indexes" key per relation. Today's daemon replays an index record as
// a no-op and ignores the key.

// oldDDLRecords returns the record payloads of
// testdata/ddl_records_with_index.jsonl: one of each DDL kind, as an
// older leader logged them, seq 2 being an index record.
func oldDDLRecords(t *testing.T) [][]byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "ddl_records_with_index.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
}

// openLog recovers dir's log on its own, without a server, so a test can
// write into it what another version left there.
func openLog(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, _, err := wal.Recover(wal.Options{Dir: dir}, wal.Handler{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// backupSnapshot forces a checkpoint through the backup op and reads it.
func backupSnapshot(t *testing.T, c *rawConn) *wal.Snapshot {
	t.Helper()
	m := c.mustOK(wire.Request{Op: wire.OpBackup})
	snap, err := wal.ReadSnapshot(m.Backup.Path)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestOldDDLRecordsRecover: a data directory whose log an older leader
// wrote, an index record among its DDL, recovers to the state those
// records describe.
func TestOldDDLRecordsRecover(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	for i, p := range oldDDLRecords(t) {
		if _, err := l.AppendExact(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, addr, stop := startDurable(t, server.Config{DataDir: dir})
	defer stop()
	c := dialRaw(t, addr)
	if seq := c.lastSeq(); seq != 6 {
		t.Errorf("last_seq = %d, want 6", seq)
	}
	snap := backupSnapshot(t, c)
	wantAttrs := []wire.Attr{{Name: "name", Type: "string"}, {Name: "age", Type: "int"},
		{Name: "pay", Type: "float"}, {Name: "on", Type: "bool"}}
	if len(snap.Relations) != 1 || snap.Relations[0].Name != "emp" ||
		!reflect.DeepEqual(snap.Relations[0].Attrs, wantAttrs) || len(snap.Relations[0].Rows) != 0 {
		t.Errorf("relations = %+v, want emp declared and empty", snap.Relations)
	}
	if len(snap.Rules) != 0 {
		t.Errorf("rules = %q, want r1 dropped", snap.Rules)
	}
	if len(snap.Preds) != 0 || snap.NextPredID != int64(server.DirectPredBase)+1 {
		t.Errorf("preds = %+v (next id %d), want the predicate removed", snap.Preds, snap.NextPredID)
	}
}

// TestOldCheckpointLoads: a checkpoint an older daemon wrote, with a
// relation's "indexes" key, loads, and the state it holds is the one a
// checkpoint taken afterwards holds.
func TestOldCheckpointLoads(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "indexed_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	old = bytes.TrimSuffix(old, []byte("\n"))
	var want wal.Snapshot
	if err := json.Unmarshal(old, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l := openLog(t, dir)
	if _, _, err := l.WriteSnapshotPayload(want.Seq, old); err != nil {
		t.Fatal(err)
	}
	if err := l.Advance(want.Seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, addr, stop := startDurable(t, server.Config{DataDir: dir})
	defer stop()
	got := backupSnapshot(t, dialRaw(t, addr))
	got.TakenUnixNano = want.TakenUnixNano
	for i := range got.Relations {
		if len(got.Relations[i].Rows) == 0 {
			got.Relations[i].Rows = nil
		}
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(&want)
	if !bytes.Equal(g, w) {
		t.Errorf("state after loading the old checkpoint:\ngot  %s\nwant %s", g, w)
	}
}

// TestFollowerReplaysOldIndexRecord: an older leader's stream carries
// index records. A follower applies one as a no-op and logs it byte
// for byte, so its log stays the leader's.
func TestFollowerReplaysOldIndexRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := server.Open(server.Config{DataDir: dir, FollowerOf: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	_, addr, stop := adoptServer(t, s)
	defer stop()
	recs := oldDDLRecords(t)
	for _, p := range recs {
		if err := s.ReplApplyRecord(p); err != nil {
			t.Fatalf("apply %s: %v", p, err)
		}
	}
	if seq := s.ReplAppliedSeq(); seq != uint64(len(recs)) {
		t.Errorf("applied seq = %d, want %d", seq, len(recs))
	}
	if got := segmentPayloads(t, dir); !reflect.DeepEqual(got, recs) {
		t.Errorf("follower log differs from the leader's records:\ngot  %q\nwant %q", got, recs)
	}
	if rels := backupSnapshot(t, dialRaw(t, addr)).Relations; len(rels) != 1 || rels[0].Name != "emp" {
		t.Errorf("relations = %+v, want emp", rels)
	}
}
