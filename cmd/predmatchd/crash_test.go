// Crash-recovery end-to-end test: build the real binary, run it with a
// data directory under -fsync always, SIGKILL it in the middle of a
// mutation stream, restart it on the same directory, and require the
// recovered state to be exactly the acked prefix — every acknowledged
// mutation present, and the single possibly-in-flight request either
// fully applied (ack was written but lost on the wire) or fully absent,
// never partially.
//
// State comparison is deep: both the recovered daemon and an oracle
// daemon (same binary-level code, in-process, fed only acked ops) dump
// a checkpoint via the backup op, and the two snapshots are compared
// structurally — relations, attribute schemas, tuple IDs, row contents,
// next-ID counters, rules and direct predicates.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
)

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "predmatchd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one life of the predmatchd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches bin with the given data directory and waits for
// its "listening" log line to learn the ephemeral port. Extra flags
// (e.g. -follow for replication tests) are appended.
func startDaemon(t *testing.T, bin, dir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-fsync", "always"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if !strings.Contains(line, "msg=listening") {
				continue
			}
			for _, f := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					addrc <- a
					return
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return &daemon{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon did not report a listen address")
		return nil
	}
}

func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	d.cmd.Wait()
}

var crashEmpRel = schema.MustRelation("emp",
	schema.Attribute{Name: "name", Type: value.KindString},
	schema.Attribute{Name: "age", Type: value.KindInt},
	schema.Attribute{Name: "salary", Type: value.KindInt},
	schema.Attribute{Name: "dept", Type: value.KindString},
)

var crashAuditRel = schema.MustRelation("audit",
	schema.Attribute{Name: "note", Type: value.KindString},
	schema.Attribute{Name: "level", Type: value.KindInt},
)

// crashOp is one recorded mutation, replayable against the oracle.
type crashOp struct {
	kind string // insert, update, delete
	id   tuple.ID
	tp   tuple.Tuple
}

func (op crashOp) apply(c *client.Client, live *[]tuple.ID) error {
	switch op.kind {
	case "insert":
		id, _, err := c.Insert("emp", op.tp)
		if err != nil {
			return err
		}
		*live = append(*live, id)
		return nil
	case "update":
		_, err := c.Update("emp", op.id, op.tp)
		return err
	default:
		_, err := c.Delete("emp", op.id)
		for i, id := range *live {
			if id == op.id {
				*live = append((*live)[:i], (*live)[i+1:]...)
				break
			}
		}
		return err
	}
}

func randomCrashOp(rng *rand.Rand, live []tuple.ID) crashOp {
	tp := tuple.New(
		value.String_(fmt.Sprintf("w%d", rng.Intn(50))),
		value.Int(int64(20+rng.Intn(50))),
		value.Int(int64(10000+rng.Intn(90000))), // salary > 90000 cascades into audit
		value.String_([]string{"shoe", "toy", "deli"}[rng.Intn(3)]),
	)
	switch {
	case len(live) < 5 || rng.Intn(10) < 6:
		return crashOp{kind: "insert", tp: tp}
	case rng.Intn(3) == 0:
		return crashOp{kind: "delete", id: live[rng.Intn(len(live))]}
	default:
		return crashOp{kind: "update", id: live[rng.Intn(len(live))], tp: tp}
	}
}

var crashRules = []string{
	"rule paid on insert to emp when salary > 90000 do insert into audit ('paid', 2)",
	"rule band on insert, update to emp when salary between 20000 and 30000 do log 'band'",
}

// dumpState forces a checkpoint through the backup op and reads the
// snapshot back as the canonical full-state dump.
func dumpState(t *testing.T, c *client.Client) *wal.Snapshot {
	t.Helper()
	info, err := c.Backup()
	if err != nil {
		t.Fatalf("backup: %v", err)
	}
	snap, err := wal.ReadSnapshot(info.Path)
	if err != nil {
		t.Fatalf("read snapshot %s: %v", info.Path, err)
	}
	return snap
}

// comparable strips the fields that legitimately differ between the
// recovered daemon and the oracle (log position, wall clock).
func comparable(s *wal.Snapshot) string {
	c := *s
	c.Seq = 0
	c.TakenUnixNano = 0
	b, err := json.MarshalIndent(&c, "", " ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestCrashRecovery is the durability acceptance test (see ISSUE /
// docs/DURABILITY.md): kill -9 mid-stream must lose nothing acked and
// half-apply nothing unacked.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; skipped in -short")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()

	// The oracle: an in-process durable server fed exactly the acked
	// ops. fsync=off — it is never crashed, only compared.
	oracleSrv, err := server.Open(server.Config{
		Addr: "127.0.0.1:0", DataDir: t.TempDir(), Sync: wal.SyncOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	oerrc := make(chan error, 1)
	go func() { oerrc <- oracleSrv.ListenAndServe() }()
	for oracleSrv.Addr() == nil {
		select {
		case err := <-oerrc:
			t.Fatalf("oracle serve: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	defer oracleSrv.Close()
	oracle, err := client.Dial(oracleSrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	d := startDaemon(t, bin, dir)
	c, err := client.Dial(d.addr)
	if err != nil {
		t.Fatal(err)
	}

	// Setup phase, mirrored to the oracle immediately (all acked long
	// before the kill).
	for _, rel := range []*schema.Relation{crashEmpRel, crashAuditRel} {
		if err := c.DeclareRelation(rel); err != nil {
			t.Fatal(err)
		}
		if err := oracle.DeclareRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range crashRules {
		if _, err := c.DefineRule(src); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.DefineRule(src); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var (
		acked    []crashOp // ops the daemon acknowledged
		inflight *crashOp  // the op outstanding when the kill landed
		live     []tuple.ID
	)

	// Mutation stream with a mid-stream backup (exercises checkpointing
	// concurrent with the stream) and a kill timer racing the ops.
	killAt := time.Now().Add(time.Duration(200+rng.Intn(300)) * time.Millisecond)
	killer := time.AfterFunc(time.Until(killAt), func() {
		// Not d.kill: testing.T is not legal off the test goroutine.
		d.cmd.Process.Signal(syscall.SIGKILL)
	})
	defer killer.Stop()

	backupDone := false
	for i := 0; ; i++ {
		if !backupDone && i == 50 {
			if _, err := c.Backup(); err != nil {
				// The kill may land inside the backup call itself.
				inflight = nil
				break
			}
			backupDone = true
		}
		op := randomCrashOp(rng, live)
		if err := op.apply(c, &live); err != nil {
			// Connection died: this op is the (at most one) in-flight
			// request — it may or may not have been applied+logged.
			inflight = &op
			break
		}
		acked = append(acked, op)
		if i > 100000 {
			t.Fatal("kill timer never fired")
		}
	}
	c.Close()
	d.cmd.Wait() // ensure the process is fully gone before restart

	// Feed the oracle every acked op.
	var oracleLive []tuple.ID
	for i, op := range acked {
		if err := op.apply(oracle, &oracleLive); err != nil {
			t.Fatalf("oracle op %d (%s): %v", i, op.kind, err)
		}
	}

	// Restart on the same directory and dump both states.
	d2 := startDaemon(t, bin, dir)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM)
		d2.cmd.Wait()
	}()
	c2, err := client.Dial(d2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	recovered := comparable(dumpState(t, c2))
	want := comparable(dumpState(t, oracle))
	if recovered == want {
		t.Logf("recovered state = acked prefix (%d ops, in-flight op not applied)", len(acked))
		return
	}
	if inflight == nil {
		t.Fatalf("no op was in flight, but recovered state differs from oracle:\n--- recovered ---\n%s\n--- oracle ---\n%s",
			recovered, want)
	}
	// The in-flight op may have been applied and logged before the ack
	// reached us: then the recovered state must be the acked prefix
	// PLUS that whole op (including any rule cascade) — never part of it.
	if err := inflight.apply(oracle, &oracleLive); err != nil {
		t.Fatalf("oracle in-flight op (%s): %v", inflight.kind, err)
	}
	wantPlus := comparable(dumpState(t, oracle))
	if recovered != wantPlus {
		t.Fatalf("recovered state matches neither the acked prefix nor prefix+in-flight (%d acked ops, in-flight %s):\n--- recovered ---\n%s\n--- prefix+in-flight ---\n%s",
			len(acked), inflight.kind, recovered, wantPlus)
	}
	t.Logf("recovered state = acked prefix + in-flight %s (%d acked ops)", inflight.kind, len(acked))
}

// TestCrashRecoveryCorruptTail: garbage appended to the newest segment
// (a torn final write) must be tolerated silently — the daemon starts
// and serves the intact prefix.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; skipped in -short")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()

	d := startDaemon(t, bin, dir)
	c, err := client.Dial(d.addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareRelation(crashEmpRel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := c.Insert("emp", tuple.New(
			value.String_("w"), value.Int(30), value.Int(1000), value.String_("toy"))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	d.kill(t)

	// Append a torn half-record to the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := startDaemon(t, bin, dir)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM)
		d2.cmd.Wait()
	}()
	c2, err := client.Dial(d2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Relations) != 1 || st.Relations[0].Rows != 10 {
		t.Fatalf("recovered %+v, want emp with 10 rows", st.Relations)
	}
	// And the daemon keeps working: the log accepts new appends.
	if _, _, err := c2.Insert("emp", tuple.New(
		value.String_("x"), value.Int(31), value.Int(2000), value.String_("deli"))); err != nil {
		t.Fatalf("insert after torn-tail recovery: %v", err)
	}
}
