package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predmatch/internal/client"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestPrintSnapshotGolden pins the `predmatch restore` inspection
// rendering against a representative checkpoint.
func TestPrintSnapshotGolden(t *testing.T) {
	snap := &wal.Snapshot{
		Version:       1,
		Seq:           42,
		TakenUnixNano: 1700000000000000000, // 2023-11-14T22:13:20Z
		Relations: []wal.SnapRelation{
			{
				Name: "emp",
				Attrs: []wire.Attr{
					{Name: "name", Type: "string"}, {Name: "age", Type: "int"},
					{Name: "salary", Type: "int"}, {Name: "dept", Type: "string"},
				},
				NextID: 4,
				Rows: []wal.SnapRow{
					{ID: 1, Tuple: wire.Tuple{value.String_("ada"), value.Int(52), value.Int(18000), value.String_("deli")}},
					{ID: 2, Tuple: wire.Tuple{value.String_("bob"), value.Int(33), value.Int(25000), value.String_("shoe")}},
					{ID: 3, Tuple: wire.Tuple{value.String_("cyd"), value.Int(41), value.Int(90000), value.String_("toy")}},
				},
			},
			{
				Name: "audit",
				Attrs: []wire.Attr{
					{Name: "note", Type: "string"}, {Name: "level", Type: "int"},
				},
				NextID: 1,
			},
		},
		Rules: []string{
			"rule band on insert, update to emp when salary between 20000 and 30000 do log 'band'",
			"rule paid on insert to emp when salary > 90000 do insert into audit ('paid', 2)",
		},
		Preds:      []wal.SnapPred{{ID: 1 << 32}},
		NextPredID: 1<<32 + 1,
	}
	var b strings.Builder
	printSnapshot(&b, snap)
	checkGolden(t, "restore_summary.golden", b.String())
}

// TestBackupRestoreRoundTrip is the end-to-end ops flow: populate a
// durable daemon, `backup -o` a checkpoint out, `restore -data-dir`
// it into a fresh directory, and recover a second daemon from that
// directory with identical state.
func TestBackupRestoreRoundTrip(t *testing.T) {
	srcDir, dstDir := t.TempDir(), filepath.Join(t.TempDir(), "restored")
	srv, err := server.Open(server.Config{
		Addr: "127.0.0.1:0", DataDir: srcDir, Sync: wal.SyncOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	for srv.Addr() == nil {
		select {
		case err := <-errc:
			t.Fatalf("serve: %v", err)
		default:
		}
	}
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareRelation(testEmpRel); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineRule(
		"rule band on insert to emp when salary between 20000 and 30000 do log 'band'"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.Insert("emp", tuple.New(
			value.String_("w"), value.Int(30), value.Int(25000), value.String_("toy"))); err != nil {
			t.Fatal(err)
		}
	}

	ckpt := filepath.Join(t.TempDir(), "out.ckpt")
	if code := runBackup([]string{"-addr", srv.Addr().String(), "-o", ckpt}); code != 0 {
		t.Fatalf("runBackup exited %d", code)
	}
	c.Close()
	srv.Close()

	if code := runRestore([]string{"-data-dir", dstDir, ckpt}); code != 0 {
		t.Fatalf("runRestore exited %d", code)
	}
	// Restoring over the now-populated directory must refuse.
	if code := runRestore([]string{"-data-dir", dstDir, ckpt}); code == 0 {
		t.Fatal("restore over existing durable state succeeded")
	}
	// A corrupt checkpoint must be rejected before anything is written.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runRestore([]string{"-data-dir", filepath.Join(t.TempDir(), "x"), bad}); code == 0 {
		t.Fatal("restore accepted a corrupt checkpoint")
	}

	// The restored directory serves the original state.
	srv2, err := server.Open(server.Config{
		Addr: "127.0.0.1:0", DataDir: dstDir, Sync: wal.SyncOff,
	})
	if err != nil {
		t.Fatalf("open restored dir: %v", err)
	}
	errc2 := make(chan error, 1)
	go func() { errc2 <- srv2.ListenAndServe() }()
	for srv2.Addr() == nil {
		select {
		case err := <-errc2:
			t.Fatalf("serve restored: %v", err)
		default:
		}
	}
	defer srv2.Close()
	c2, err := client.Dial(srv2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Relations) != 1 || st.Relations[0].Rows != 5 || st.Relations[0].NextID != 6 {
		t.Fatalf("restored relations = %+v, want emp 5 rows next id 6", st.Relations)
	}
	if len(st.Rules) != 1 {
		t.Fatalf("restored rules = %v", st.Rules)
	}
}

var testEmpRel = schema.MustRelation("emp",
	schema.Attribute{Name: "name", Type: value.KindString},
	schema.Attribute{Name: "age", Type: value.KindInt},
	schema.Attribute{Name: "salary", Type: value.KindInt},
	schema.Attribute{Name: "dept", Type: value.KindString},
)
