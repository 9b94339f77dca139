package server_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// startDurable launches a daemon recovered from dir. Same contract as
// startServer, but through server.Open so the WAL subsystem is wired.
func startDurable(t *testing.T, cfg server.Config) (*server.Server, string, func()) {
	t.Helper()
	s, err := server.Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", cfg.DataDir, err)
	}
	_, addr, stop := adoptServer(t, s)
	return s, addr, stop
}

// TestDurableRestart drives every state-changing op class against a
// data directory, shuts down cleanly, reopens the same directory, and
// asserts the recovered daemon is observably identical: relations with
// exact row counts and tuple-ID counters, rules and direct predicates
// all survive, and rule cascades recorded before the restart do not
// re-fire during recovery.
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir}

	var (
		preStats *wire.Stats
		shoeID   pred.ID
		empIDs   []tuple.ID
	)
	probe := tuple.New(value.String_("probe"), value.Int(25), value.Int(1000), value.String_("shoe"))

	{
		_, addr, stop := startDurable(t, cfg)
		c := dial(t, addr)

		if err := c.DeclareRelation(empRel); err != nil {
			t.Fatal(err)
		}
		if err := c.DeclareRelation(auditRel); err != nil {
			t.Fatal(err)
		}
		for _, src := range e2eRules {
			if _, err := c.DefineRule(src); err != nil {
				t.Fatal(err)
			}
		}
		// Drop one rule so recovery must replay the drop too.
		if err := c.DropRule("cheap"); err != nil {
			t.Fatal(err)
		}
		var err error
		shoeID, err = c.AddPredicate(pred.New(0, "emp",
			pred.EqClause("dept", value.String_("shoe"))))
		if err != nil {
			t.Fatal(err)
		}
		// A second predicate added and removed: recovery replays both
		// sides, and the freed ID must not be handed out again.
		tmpID, err := c.AddPredicate(pred.New(0, "emp",
			pred.IvClause("age", interval.Less(value.Int(30)))))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RemovePredicate(tmpID); err != nil {
			t.Fatal(err)
		}

		// Mutations, including one whose `paid` rule cascades an insert
		// into audit, plus an update and a delete.
		rows := []tuple.Tuple{
			tuple.New(value.String_("ann"), value.Int(30), value.Int(95000), value.String_("toy")), // cascades
			tuple.New(value.String_("bob"), value.Int(55), value.Int(25000), value.String_("shoe")),
			tuple.New(value.String_("cat"), value.Int(40), value.Int(50000), value.String_("deli")),
		}
		for _, tp := range rows {
			id, _, err := c.Insert("emp", tp)
			if err != nil {
				t.Fatal(err)
			}
			empIDs = append(empIDs, id)
		}
		if _, err := c.Update("emp", empIDs[1],
			tuple.New(value.String_("bob"), value.Int(56), value.Int(26000), value.String_("shoe"))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete("emp", empIDs[2]); err != nil {
			t.Fatal(err)
		}

		preStats, err = c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if preStats.WAL == nil || preStats.WAL.LastSeq == 0 {
			t.Fatalf("pre-restart WAL stats = %+v", preStats.WAL)
		}
		if preStats.WAL.DurableSeq != preStats.WAL.LastSeq {
			t.Fatalf("sync=always but durable=%d last=%d",
				preStats.WAL.DurableSeq, preStats.WAL.LastSeq)
		}
		c.Close()
		stop()
	}

	// Reopen the same directory.
	s, addr, stop := startDurable(t, cfg)
	defer stop()
	c := dial(t, addr)
	defer c.Close()

	if info := s.Recovery(); info.LastSeq != preStats.WAL.LastSeq {
		t.Fatalf("recovery replayed to seq %d, pre-restart last seq %d",
			info.LastSeq, preStats.WAL.LastSeq)
	}

	post, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Identical rules, predicates, relations (rows and ID counters).
	if !jsonEq(post.Rules, preStats.Rules) {
		t.Fatalf("rules after restart = %v, want %v", post.Rules, preStats.Rules)
	}
	if post.Predicates != preStats.Predicates {
		t.Fatalf("predicates after restart = %d, want %d", post.Predicates, preStats.Predicates)
	}
	if !jsonEq(post.Relations, preStats.Relations) {
		t.Fatalf("relations after restart = %+v, want %+v", post.Relations, preStats.Relations)
	}
	// Cascade effects were replayed as recorded events, not re-derived:
	// exactly one audit row (from ann's `paid` firing), emp has two.
	relRows := map[string]wire.RelStat{}
	for _, r := range post.Relations {
		relRows[r.Name] = r
	}
	if relRows["audit"].Rows != 1 || relRows["emp"].Rows != 2 {
		t.Fatalf("recovered rows: emp=%d audit=%d, want 2/1",
			relRows["emp"].Rows, relRows["audit"].Rows)
	}

	// Schema survives: re-declaring collides, the salary index answers.
	if err := c.DeclareRelation(empRel); err == nil {
		t.Fatal("re-declare accepted after restart: relation lost")
	}

	// The surviving direct predicate still matches under its old ID; the
	// removed one stays gone.
	ids, err := c.Match("emp", probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != shoeID {
		t.Fatalf("match after restart = %v, want [%d]", ids, shoeID)
	}
	if err := c.RemovePredicate(shoeID); err != nil {
		t.Fatalf("rmpred of recovered predicate: %v", err)
	}

	// Tuple identity: the updated bob row is addressable by its original
	// ID; the deleted cat row is not; a fresh insert continues the ID
	// sequence instead of reusing one.
	if _, err := c.Update("emp", empIDs[1],
		tuple.New(value.String_("bob"), value.Int(57), value.Int(26000), value.String_("shoe"))); err != nil {
		t.Fatalf("update of recovered tuple %d: %v", empIDs[1], err)
	}
	if _, err := c.Delete("emp", empIDs[2]); err == nil {
		t.Fatal("deleted tuple resurrected by recovery")
	}
	newID, _, err := c.Insert("emp", probe)
	if err != nil {
		t.Fatal(err)
	}
	if int64(newID) != relRows["emp"].NextID {
		t.Fatalf("post-restart insert got id %d, want NextID %d", newID, relRows["emp"].NextID)
	}

	// Recovered rules still fire: a high salary insert cascades into
	// audit exactly once more.
	if _, _, err := c.Insert("emp",
		tuple.New(value.String_("dan"), value.Int(33), value.Int(99000), value.String_("toy"))); err != nil {
		t.Fatal(err)
	}
	post2, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range post2.Relations {
		if r.Name == "audit" && r.Rows != 2 {
			t.Fatalf("recovered rule did not cascade: audit rows = %d, want 2", r.Rows)
		}
	}
}

// TestDurableRuleRaise: a mutation aborted by a `raise` rule leaves its
// triggering change applied (the engine's documented abort semantics);
// the WAL must record that applied change so recovery reproduces it.
func TestDurableRuleRaise(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir}

	{
		_, addr, stop := startDurable(t, cfg)
		c := dial(t, addr)
		if err := c.DeclareRelation(empRel); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineRule(
			"rule nokids on insert to emp when age < 18 do raise 'minimum age is 18'"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Insert("emp",
			tuple.New(value.String_("kid"), value.Int(12), value.Int(0), value.String_("toy"))); err == nil {
			t.Fatal("raise rule did not abort the insert")
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Relations) != 1 || st.Relations[0].Rows != 1 {
			t.Fatalf("aborted insert not applied: %+v", st.Relations)
		}
		c.Close()
		stop()
	}

	_, addr, stop := startDurable(t, cfg)
	defer stop()
	c := dial(t, addr)
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Relations) != 1 || st.Relations[0].Rows != 1 {
		t.Fatalf("raise-aborted insert lost across restart: %+v", st.Relations)
	}
}

// TestBackupOp: the backup op writes a checkpoint covering everything
// acked so far, prunes covered segments, and a later restart recovers
// from that snapshot replaying only post-backup records.
func TestBackupOp(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir, WALSegmentBytes: 512}

	var (
		info   *wire.BackupInfo
		atSnap uint64
	)
	{
		_, addr, stop := startDurable(t, cfg)
		c := dial(t, addr)
		if err := c.DeclareRelation(empRel); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, _, err := c.Insert("emp",
				tuple.New(value.String_("w"), value.Int(30), value.Int(1000), value.String_("toy"))); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		info, err = c.Backup()
		if err != nil {
			t.Fatal(err)
		}
		if info == nil || info.Seq == 0 || info.Bytes == 0 {
			t.Fatalf("backup info = %+v", info)
		}
		if _, err := os.Stat(info.Path); err != nil {
			t.Fatalf("backup file: %v", err)
		}
		if got := filepath.Dir(info.Path); got != dir {
			t.Fatalf("backup landed in %s, want %s", got, dir)
		}
		atSnap = info.Seq
		// Ten more inserts after the snapshot: recovery must replay
		// exactly these.
		for i := 0; i < 10; i++ {
			if _, _, err := c.Insert("emp",
				tuple.New(value.String_("x"), value.Int(31), value.Int(2000), value.String_("deli"))); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		stop()
	}

	s, addr, stop := startDurable(t, cfg)
	defer stop()
	c := dial(t, addr)
	defer c.Close()

	rec := s.Recovery()
	if rec.SnapshotSeq < atSnap {
		t.Fatalf("recovered from snapshot seq %d, backup was at %d", rec.SnapshotSeq, atSnap)
	}
	if rec.RecordsReplayed > 11 { // 10 post-backup inserts + final shutdown checkpoint margin
		t.Fatalf("replayed %d records, want ≤ 11 (snapshot should cover the rest)", rec.RecordsReplayed)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Relations) != 1 || st.Relations[0].Rows != 30 {
		t.Fatalf("rows after backup+restart = %+v, want 30", st.Relations)
	}
	if st.WAL.SnapshotSeq == 0 {
		t.Fatalf("WAL stats lost snapshot seq: %+v", st.WAL)
	}
}

// TestBackupWithoutDataDir: the op fails cleanly on a memory-only
// daemon instead of panicking or acking a backup that does not exist.
func TestBackupWithoutDataDir(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{})
	defer stop()
	c := dial(t, addr)
	defer c.Close()
	if _, err := c.Backup(); err == nil {
		t.Fatal("backup acked on a daemon with no data directory")
	}
}

// TestDurableIntervalShutdown: under sync=interval the durable seq may
// lag acks, but a clean shutdown performs a final sync — nothing acked
// before Shutdown may be lost.
func TestDurableIntervalShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir, Sync: wal.SyncInterval, SyncEvery: time.Hour}

	{
		_, addr, stop := startDurable(t, cfg)
		c := dial(t, addr)
		if err := c.DeclareRelation(empRel); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, _, err := c.Insert("emp",
				tuple.New(value.String_("w"), value.Int(30), value.Int(1000), value.String_("toy"))); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		stop()
	}

	_, addr, stop := startDurable(t, cfg)
	defer stop()
	c := dial(t, addr)
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Relations) != 1 || st.Relations[0].Rows != 50 {
		t.Fatalf("clean interval shutdown lost rows: %+v", st.Relations)
	}
}

// TestPeriodicSnapshot: with SnapshotEvery set, checkpoints appear
// without any explicit backup op.
func TestPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir, SnapshotEvery: 50 * time.Millisecond}

	_, addr, stop := startDurable(t, cfg)
	defer stop()
	c := dial(t, addr)
	defer c.Close()
	if err := c.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Insert("emp",
		tuple.New(value.String_("w"), value.Int(30), value.Int(1000), value.String_("toy"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, err := c.Stats()
		return err == nil && st.WAL != nil && st.WAL.SnapshotSeq > 0
	})
}
