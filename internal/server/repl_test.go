package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/repl"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// startFollower opens a follower of leaderAddr in its own data
// directory (cfg.DataDir, or a fresh one), serves it, and wires an internal/repl stream into it.
// The cleanup stops the stream before the server and fails the test
// if the stream loop exited with an error.
func startFollower(t *testing.T, leaderAddr string, cfg server.Config) (*server.Server, string, *repl.Follower, func()) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	cfg.FollowerOf = leaderAddr
	s, err := server.Open(cfg)
	if err != nil {
		t.Fatalf("Open follower: %v", err)
	}
	_, addr, stop := adoptServer(t, s)
	f := repl.New(leaderAddr, s, repl.Options{
		RetryMin: 10 * time.Millisecond, RetryMax: 100 * time.Millisecond,
	})
	s.AttachFollower(f, f.Stop)
	runErr := make(chan error, 1)
	go func() { runErr <- f.Run() }()
	cleanup := func() {
		f.Stop()
		select {
		case err := <-runErr:
			if err != nil {
				t.Errorf("follower loop: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("follower loop did not stop")
		}
		stop()
	}
	return s, addr, f, cleanup
}

// waitSeq polls until get() reaches want.
func waitSeq(t *testing.T, what string, get func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d, want >= %d", what, get(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func containsPred(ids []pred.ID, want pred.ID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// TestFollowerCatchUpAndLiveTail covers the bread-and-butter path: a
// follower started against a leader with existing history replays it,
// applies live writes as they stream, serves matches locally, streams
// predicate notifications to its own subscribers, and honors
// read-your-writes tokens minted by leader acks.
func TestFollowerCatchUpAndLiveTail(t *testing.T) {
	_, leaderAddr, leaderStop := startDurable(t, server.Config{DataDir: t.TempDir()})
	defer leaderStop()

	lc := dial(t, leaderAddr)
	defer lc.Close()
	if err := lc.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	shoeID, err := lc.AddPredicate(pred.New(0, "emp",
		pred.EqClause("dept", value.String_("shoe"))))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lc.Insert("emp", tuple.New(
		value.String_("ada"), value.Int(52), value.Int(18000), value.String_("deli"))); err != nil {
		t.Fatal(err)
	}

	fsrv, faddr, _, fcleanup := startFollower(t, leaderAddr, server.Config{})
	defer fcleanup()
	waitSeq(t, "follower applied", fsrv.ReplAppliedSeq, lc.LastSeq())

	fc := dial(t, faddr)
	defer fc.Close()
	ids, err := fc.Match("emp", tuple.New(
		value.String_("p"), value.Int(30), value.Int(1000), value.String_("shoe")))
	if err != nil {
		t.Fatalf("follower match: %v", err)
	}
	if !containsPred(ids, shoeID) {
		t.Fatalf("follower match %v does not include replicated predicate %d", ids, shoeID)
	}

	// Live tail: a predicate registered on the leader NOW must be
	// visible on the follower under its ack's seq token, with no sleep
	// between the ack and the follower read.
	seniorID, err := lc.AddPredicate(pred.New(0, "emp",
		pred.IvClause("age", interval.Greater(value.Int(50)))))
	if err != nil {
		t.Fatal(err)
	}
	token := lc.LastSeq()
	ids, err = fc.MatchAt("emp", tuple.New(
		value.String_("p"), value.Int(60), value.Int(1000), value.String_("toy")), token)
	if err != nil {
		t.Fatalf("follower MatchAt(min_seq=%d): %v", token, err)
	}
	if !containsPred(ids, seniorID) {
		t.Fatalf("seq-token read at %d missed predicate %d: got %v", token, seniorID, ids)
	}

	// Follower subscribers see direct-predicate matches for replicated
	// inserts.
	fsub := dial(t, faddr)
	defer fsub.Close()
	notes, err := fsub.Subscribe(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lc.Insert("emp", tuple.New(
		value.String_("bob"), value.Int(33), value.Int(25000), value.String_("shoe"))); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-notes:
		if !containsPred(n.Matches, shoeID) {
			t.Fatalf("follower notification matches %v, want %d", n.Matches, shoeID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower subscriber saw no replicated predicate match")
	}

	// Both sides of the stream show up in stats.
	fst, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Repl == nil || fst.Repl.Role != "follower" || fst.Repl.Leader != leaderAddr {
		t.Fatalf("follower repl stats = %+v", fst.Repl)
	}
	lst, err := lc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if lst.Repl == nil || lst.Repl.Role != "leader" || lst.Repl.Followers != 1 {
		t.Fatalf("leader repl stats = %+v", lst.Repl)
	}
}

// TestFollowerRejectsMutations pins the redirect contract: mutation
// and DDL ops on a follower fail without touching state, and the
// error names the leader so clients can re-dial.
func TestFollowerRejectsMutations(t *testing.T) {
	_, leaderAddr, leaderStop := startDurable(t, server.Config{DataDir: t.TempDir()})
	defer leaderStop()
	lc := dial(t, leaderAddr)
	defer lc.Close()
	if err := lc.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}

	fsrv, faddr, _, fcleanup := startFollower(t, leaderAddr, server.Config{})
	defer fcleanup()
	waitSeq(t, "follower applied", fsrv.ReplAppliedSeq, lc.LastSeq())

	fc := dial(t, faddr)
	defer fc.Close()
	_, _, err := fc.Insert("emp", tuple.New(
		value.String_("x"), value.Int(1), value.Int(1), value.String_("d")))
	if err == nil || !strings.Contains(err.Error(), "not leader") ||
		!strings.Contains(err.Error(), leaderAddr) {
		t.Fatalf("follower insert error = %v, want not-leader redirect to %s", err, leaderAddr)
	}
	if err := fc.DeclareRelation(auditRel); err == nil || !strings.Contains(err.Error(), "not leader") {
		t.Fatalf("follower declare error = %v, want not-leader", err)
	}
	if _, err := fc.AddPredicate(pred.New(0, "emp",
		pred.EqClause("dept", value.String_("shoe")))); err == nil ||
		!strings.Contains(err.Error(), "not leader") {
		t.Fatalf("follower addpred error = %v, want not-leader", err)
	}
	if _, err := fc.DefineRule("rule r on insert to emp when age > 1 do log 'x'"); err == nil ||
		!strings.Contains(err.Error(), "not leader") {
		t.Fatalf("follower rule error = %v, want not-leader", err)
	}
}

// TestMinSeqTimesOutOnStalledFollower: a follower that cannot catch
// up (no stream attached at all) must fail a token read after
// MinSeqWait with a redirect, not hang and not serve stale state.
func TestMinSeqTimesOutOnStalledFollower(t *testing.T) {
	_, leaderAddr, leaderStop := startDurable(t, server.Config{DataDir: t.TempDir()})
	defer leaderStop()

	s, err := server.Open(server.Config{
		DataDir:    t.TempDir(),
		FollowerOf: leaderAddr,
		MinSeqWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, faddr, stop := adoptServer(t, s)
	defer stop()

	fc := dial(t, faddr)
	defer fc.Close()
	t0 := time.Now()
	_, err = fc.MatchAt("emp", tuple.New(
		value.String_("x"), value.Int(1), value.Int(1), value.String_("d")), 7)
	if err == nil || !strings.Contains(err.Error(), "not caught up") {
		t.Fatalf("stalled min_seq read error = %v, want not-caught-up", err)
	}
	if elapsed := time.Since(t0); elapsed < 90*time.Millisecond {
		t.Fatalf("min_seq read failed after %v, should have waited ~100ms", elapsed)
	}
}

// A min_seq beyond the leader's own log is a token from some other
// history; the leader must refuse immediately rather than wait for a
// sequence it will never assign on its own.
func TestMinSeqBeyondLeaderLog(t *testing.T) {
	_, leaderAddr, leaderStop := startDurable(t, server.Config{DataDir: t.TempDir()})
	defer leaderStop()
	lc := dial(t, leaderAddr)
	defer lc.Close()
	if err := lc.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	probe := tuple.New(value.String_("x"), value.Int(1), value.Int(1), value.String_("d"))
	if _, err := lc.MatchAt("emp", probe, lc.LastSeq()); err != nil {
		t.Fatalf("MatchAt at the leader's own seq: %v", err)
	}
	if _, err := lc.MatchAt("emp", probe, lc.LastSeq()+100); err == nil {
		t.Fatal("MatchAt past the leader's log succeeded")
	}
}

// TestPromoteSealsAndAcceptsWrites: promotion flips the role exactly
// once, the promoted server accepts writes continuing the sealed
// sequence space, and the stream loop exits cleanly.
func TestPromoteSealsAndAcceptsWrites(t *testing.T) {
	_, leaderAddr, leaderStop := startDurable(t, server.Config{DataDir: t.TempDir()})
	defer leaderStop()
	lc := dial(t, leaderAddr)
	defer lc.Close()
	if err := lc.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lc.Insert("emp", tuple.New(
		value.String_("ada"), value.Int(52), value.Int(18000), value.String_("deli"))); err != nil {
		t.Fatal(err)
	}

	fsrv, faddr, _, fcleanup := startFollower(t, leaderAddr, server.Config{})
	defer fcleanup()
	ackedSeq := lc.LastSeq()
	waitSeq(t, "follower applied", fsrv.ReplAppliedSeq, ackedSeq)

	fc := dial(t, faddr)
	defer fc.Close()
	seq, err := fc.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if seq < ackedSeq {
		t.Fatalf("promoted at seq %d, follower had applied %d", seq, ackedSeq)
	}
	if _, err := fc.Promote(); err == nil || !strings.Contains(err.Error(), "already leader") {
		t.Fatalf("second promote = %v, want already-leader", err)
	}

	// The promoted server now takes writes, numbered after the sealed
	// prefix.
	if _, _, err := fc.Insert("emp", tuple.New(
		value.String_("new"), value.Int(30), value.Int(50000), value.String_("toy"))); err != nil {
		t.Fatalf("insert after promote: %v", err)
	}
	if got := fc.LastSeq(); got != seq+1 {
		t.Fatalf("first post-promotion write acked at seq %d, want %d", got, seq+1)
	}
	st, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Repl == nil || st.Repl.Role != "leader" {
		t.Fatalf("promoted stats role = %+v", st.Repl)
	}
}

// TestFollowerSnapshotBootstrap: when the leader has pruned the log
// prefix a fresh follower would need, the stream falls back to the
// newest snapshot; the follower installs it, persists it locally, and
// resumes the record tail after it.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	_, leaderAddr, leaderStop := startDurable(t, server.Config{
		DataDir:         t.TempDir(),
		WALSegmentBytes: 512, // force enough segments that pruning bites
	})
	defer leaderStop()
	lc := dial(t, leaderAddr)
	defer lc.Close()
	if err := lc.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	shoeID, err := lc.AddPredicate(pred.New(0, "emp",
		pred.EqClause("dept", value.String_("shoe"))))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := lc.Insert("emp", tuple.New(
			value.String_("padpadpadpadpad"), value.Int(30), value.Int(int64(20000+i)),
			value.String_("toy"))); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint + prune: sequence 1 is now gone from the leader's log,
	// so a from-scratch follower cannot tail it and must bootstrap.
	if _, err := lc.Backup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := lc.Insert("emp", tuple.New(
			value.String_("tail"), value.Int(30), value.Int(90), value.String_("deli"))); err != nil {
			t.Fatal(err)
		}
	}

	fsrv, faddr, _, fcleanup := startFollower(t, leaderAddr, server.Config{})
	defer fcleanup()
	waitSeq(t, "follower applied", fsrv.ReplAppliedSeq, lc.LastSeq())

	fc := dial(t, faddr)
	defer fc.Close()
	fst, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	lst, err := lc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(fst.Relations) != 1 || len(lst.Relations) != 1 ||
		fst.Relations[0].Rows != lst.Relations[0].Rows ||
		fst.Relations[0].NextID != lst.Relations[0].NextID {
		t.Fatalf("bootstrap state mismatch: follower %+v, leader %+v",
			fst.Relations, lst.Relations)
	}
	if fst.WAL == nil || fst.WAL.SnapshotSeq == 0 {
		t.Fatalf("follower did not persist the bootstrap snapshot: %+v", fst.WAL)
	}
	ids, err := fc.Match("emp", tuple.New(
		value.String_("p"), value.Int(30), value.Int(1000), value.String_("shoe")))
	if err != nil {
		t.Fatal(err)
	}
	if !containsPred(ids, shoeID) {
		t.Fatalf("bootstrapped follower match %v missing predicate %d", ids, shoeID)
	}
}

// TestFollowerReconnectResume severs the stream's TCP connection out
// from under the follower; it must reconnect, resume from its applied
// cursor, and reach the new log end.
func TestFollowerReconnectResume(t *testing.T) {
	_, leaderAddr, leaderStop := startDurable(t, server.Config{DataDir: t.TempDir()})
	defer leaderStop()
	lc := dial(t, leaderAddr)
	defer lc.Close()
	if err := lc.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := lc.Insert("emp", tuple.New(
			value.String_("pre"), value.Int(30), value.Int(500), value.String_("toy"))); err != nil {
			t.Fatal(err)
		}
	}

	// The follower dials the leader through a proxy so the stream can
	// be cut without touching either server.
	proxy := newKillableProxy(t, leaderAddr)
	defer proxy.Close()

	fsrv, _, f, fcleanup := startFollower(t, proxy.Addr(), server.Config{})
	defer fcleanup()
	waitSeq(t, "follower applied", fsrv.ReplAppliedSeq, lc.LastSeq())

	proxy.KillConns()
	for i := 0; i < 5; i++ {
		if _, _, err := lc.Insert("emp", tuple.New(
			value.String_("post"), value.Int(30), value.Int(500), value.String_("toy"))); err != nil {
			t.Fatal(err)
		}
	}
	waitSeq(t, "follower applied after partition", fsrv.ReplAppliedSeq, lc.LastSeq())
	if f.Reconnects() == 0 {
		t.Error("reconnect counter did not advance across the partition")
	}
}

// TestFollowerIdleLeaderKeepsStream: a follower sends nothing after its
// replicate request, so a leader's idle timeout must not apply to that
// connection. An idle stretch of several timeouts leaves the one
// stream up, and a write after it still reaches the follower.
func TestFollowerIdleLeaderKeepsStream(t *testing.T) {
	_, leaderAddr, leaderStop := startDurable(t, server.Config{DataDir: t.TempDir(), IdleTimeout: 200 * time.Millisecond})
	defer leaderStop()
	lc := dial(t, leaderAddr)
	defer lc.Close()
	if err := lc.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	fsrv, _, f, fcleanup := startFollower(t, leaderAddr, server.Config{})
	defer fcleanup()
	waitSeq(t, "follower applied", fsrv.ReplAppliedSeq, lc.LastSeq())

	time.Sleep(1500 * time.Millisecond)
	// The leader's own client is idle too and is cut: dial afresh.
	lc2 := dial(t, leaderAddr)
	defer lc2.Close()
	if _, _, err := lc2.Insert("emp", tuple.New(
		value.String_("late"), value.Int(30), value.Int(500), value.String_("toy"))); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, "follower applied after the idle stretch", fsrv.ReplAppliedSeq, lc2.LastSeq())
	if n := f.Reconnects(); n != 0 {
		t.Errorf("follower reconnected %d times across an idle leader, want 0", n)
	}
}

// logBySeq reads every record payload in dir's segments, keyed by the
// sequence it carries.
func logBySeq(t *testing.T, dir string) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	for _, payload := range segmentPayloads(t, dir) {
		rec, err := wal.UnmarshalRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		out[rec.Seq] = payload
	}
	return out
}

// checkpointFile returns the name and bytes of the one checkpoint in
// dir.
func checkpointFile(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("checkpoints in %s: %v (%v), want one", dir, paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(paths[0]), raw
}

// TestFollowerLogMatchesLeaderBytes: replication moves the leader's
// logged bytes. One follower tails live while the leader's log rotates
// segment after segment; a second bootstraps from the leader's
// checkpoint after pruning. For every sequence each follower holds, its
// record payload equals the leader's byte for byte, and the
// bootstrapped follower's checkpoint file equals the leader's.
func TestFollowerLogMatchesLeaderBytes(t *testing.T) {
	leaderDir := t.TempDir()
	_, leaderAddr, leaderStop := startDurable(t, server.Config{
		DataDir:         leaderDir,
		WALSegmentBytes: 512, // a rotation every few records
	})
	defer leaderStop()
	lc := dial(t, leaderAddr)
	defer lc.Close()
	if err := lc.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}

	liveDir := t.TempDir()
	live, _, _, liveStop := startFollower(t, leaderAddr, server.Config{
		DataDir: liveDir, WALSegmentBytes: 700, // boundaries unlike the leader's
	})
	defer liveStop()

	// Every record kind, and tuples whose strings need escaping.
	if err := lc.DeclareRelation(auditRel); err != nil {
		t.Fatal(err)
	}
	for _, src := range e2eRules {
		if _, err := lc.DefineRule(src); err != nil {
			t.Fatal(err)
		}
	}
	predID, err := lc.AddPredicate(pred.New(0, "emp",
		pred.IvClause("salary", interval.Greater(value.Int(50000)))))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var ids []tuple.ID
	for i := 0; i < 30; i++ {
		emp := randomEmp(rng)
		if i%7 == 0 {
			emp[0] = value.String_("<&> \u2028 é \"q\"")
		}
		id, _, err := lc.Insert("emp", emp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := lc.Update("emp", ids[0], randomEmp(rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Delete("emp", ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := lc.DropRule("senior"); err != nil {
		t.Fatal(err)
	}
	if err := lc.RemovePredicate(predID); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, "live follower applied", live.ReplAppliedSeq, lc.LastSeq())
	leader := logBySeq(t, leaderDir)
	if segs, _ := filepath.Glob(filepath.Join(leaderDir, "wal-*.seg")); len(segs) < 3 {
		t.Fatalf("leader log has %d segments; the tail crossed no rotation", len(segs))
	}

	// Checkpoint and prune, write past it, and bootstrap a second
	// follower from the checkpoint.
	info, err := lc.Backup()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := lc.Insert("emp", randomEmp(rng)); err != nil {
			t.Fatal(err)
		}
	}
	bootDir := t.TempDir()
	boot, _, _, bootStop := startFollower(t, leaderAddr, server.Config{DataDir: bootDir})
	defer bootStop()
	last := lc.LastSeq()
	waitSeq(t, "live follower applied", live.ReplAppliedSeq, last)
	waitSeq(t, "bootstrapped follower applied", boot.ReplAppliedSeq, last)
	for seq, payload := range logBySeq(t, leaderDir) {
		leader[seq] = payload
	}

	for _, f := range []struct {
		name  string
		dir   string
		first uint64
	}{{"live", liveDir, 1}, {"bootstrapped", bootDir, info.Seq + 1}} {
		got := logBySeq(t, f.dir)
		if want := int(last - f.first + 1); len(got) != want {
			t.Errorf("%s follower holds %d records, want %d", f.name, len(got), want)
		}
		for seq := f.first; seq <= last; seq++ {
			if !bytes.Equal(got[seq], leader[seq]) {
				t.Errorf("%s follower, seq %d:\n got %s\nwant %s", f.name, seq, got[seq], leader[seq])
			}
		}
	}
	leaderName, leaderCkpt := checkpointFile(t, leaderDir)
	bootName, bootCkpt := checkpointFile(t, bootDir)
	if bootName != leaderName || !bytes.Equal(bootCkpt, leaderCkpt) {
		t.Errorf("bootstrapped checkpoint %s (%d bytes) differs from the leader's %s (%d bytes)",
			bootName, len(bootCkpt), leaderName, len(leaderCkpt))
	}
}

// TestFollowerSequenceGuard pins the follower's sequence check, the one
// left on the apply path once the leader's tail stops decoding: a
// record the log already holds is skipped, and a gap is refused with
// nothing applied and nothing appended.
func TestFollowerSequenceGuard(t *testing.T) {
	dir := t.TempDir()
	s, err := server.Open(server.Config{DataDir: dir, FollowerOf: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	_, addr, stop := adoptServer(t, s)
	defer stop()
	payload := func(rec *wal.Record) []byte {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	declare := payload(&wal.Record{Seq: 1, Kind: wal.KindDeclare, Relation: "emp",
		Attrs: []wire.Attr{{Name: "name", Type: "string"}, {Name: "salary", Type: "int"}}})
	insert := func(seq uint64, id int64) []byte {
		return payload(&wal.Record{Seq: seq, Kind: wal.KindMutate, Events: []wal.Event{
			{Rel: "emp", Op: "insert", ID: id, Tuple: wire.FromTuple(tuple.New(value.String_("ada"), value.Int(id)))},
		}})
	}
	for _, p := range [][]byte{declare, insert(2, 1)} {
		if err := s.ReplApplyRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, addr)
	defer c.Close()
	state := func() (uint64, int, [][]byte) {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, r := range st.Relations {
			rows += r.Rows
		}
		return s.ReplAppliedSeq(), rows, segmentPayloads(t, dir)
	}
	seq0, rows0, log0 := state()
	if seq0 != 2 || rows0 != 1 || len(log0) != 2 {
		t.Fatalf("after two records: applied %d, %d rows, %d logged", seq0, rows0, len(log0))
	}
	same := func(what string) {
		t.Helper()
		seq, rows, log := state()
		if seq != seq0 || rows != rows0 || len(log) != len(log0) {
			t.Fatalf("%s changed the follower: applied %d, %d rows, %d logged; want %d, %d, %d",
				what, seq, rows, len(log), seq0, rows0, len(log0))
		}
		for i := range log {
			if !bytes.Equal(log[i], log0[i]) {
				t.Fatalf("%s rewrote logged record %d", what, i+1)
			}
		}
	}

	// A duplicate (a resume overlap), even one whose bytes differ from
	// what was logged, is skipped.
	if err := s.ReplApplyRecord(insert(2, 2)); err != nil {
		t.Fatalf("duplicate record: %v", err)
	}
	same("a duplicate")
	if err := s.ReplApplyRecord(declare); err != nil {
		t.Fatalf("duplicate declare: %v", err)
	}
	same("a duplicate declare")

	// A gap is refused, with nothing applied or appended.
	if err := s.ReplApplyRecord(insert(4, 3)); err == nil || !strings.Contains(err.Error(), "replication gap: want seq 3, got 4") {
		t.Fatalf("gap record: %v, want a replication gap error", err)
	}
	same("a gap")

	// The stream goes on at the next sequence.
	if err := s.ReplApplyRecord(insert(3, 3)); err != nil {
		t.Fatal(err)
	}
	if seq, rows, log := state(); seq != 3 || rows != 2 || len(log) != 3 {
		t.Fatalf("after the next record: applied %d, %d rows, %d logged", seq, rows, len(log))
	}
}

// killableProxy is a TCP forwarder whose live connections can be torn
// down on demand — the partition injector for replication tests.
type killableProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newKillableProxy(t *testing.T, target string) *killableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{ln: ln}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, down, up)
			p.mu.Unlock()
			go func() {
				io.Copy(up, down)
				up.Close()
				down.Close()
			}()
			go func() {
				io.Copy(down, up)
				down.Close()
				up.Close()
			}()
		}
	}()
	return p
}

func (p *killableProxy) Addr() string { return p.ln.Addr().String() }

// KillConns closes every live forwarded connection; new dials through
// the proxy still work, modeling a transient partition.
func (p *killableProxy) KillConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *killableProxy) Close() {
	p.ln.Close()
	p.KillConns()
}
