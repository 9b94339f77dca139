// Replication end-to-end test: build the real binary, run a leader and
// two followers (one through a killable TCP proxy), stream mutations
// while severing the proxied stream mid-flight, SIGKILL the leader,
// promote a follower, and require the promoted state to be exactly the
// acked prefix the follower had applied — every op whose sequence is
// covered by the promotion point present, nothing else, nothing
// partial. Also pins the seq-token contract: a read carrying min_seq=S
// against a follower never observes state older than S.
package main

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
)

// replProxy is a TCP forwarder whose live connections can be cut on
// demand — the partition injector between a follower and its leader.
type replProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newReplProxy(t *testing.T, target string) *replProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &replProxy{ln: ln}
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

func (p *replProxy) Addr() string { return p.ln.Addr().String() }

func (p *replProxy) KillConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *replProxy) Close() {
	p.ln.Close()
	p.KillConns()
}

// predShoe is the direct predicate registered on the leader and
// mirrored into the oracle.
func predShoe() *pred.Predicate {
	return pred.New(0, "emp", pred.EqClause("dept", value.String_("shoe")))
}

func termDaemon(d *daemon) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	d.cmd.Wait()
}

// waitFollowerSeq polls a follower's stats until its applied sequence
// reaches want.
func waitFollowerSeq(t *testing.T, c *client.Client, what string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("%s stats: %v", what, err)
		}
		if st.Repl != nil && st.Repl.AppliedSeq >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %+v, want applied >= %d", what, st.Repl, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationFailover is the replication acceptance test (see
// docs/REPLICATION.md): after a mid-stream partition, a leader
// SIGKILL and a promotion, the promoted follower's state equals the
// oracle fed exactly the acked ops its promotion point covers.
func TestReplicationFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemons; skipped in -short")
	}
	bin := buildDaemon(t)

	leader := startDaemon(t, bin, t.TempDir())
	leaderDead := false
	defer func() {
		if !leaderDead {
			termDaemon(leader)
		}
	}()

	// Follower 1 reaches the leader through a killable proxy; follower 2
	// connects directly.
	proxy := newReplProxy(t, leader.addr)
	defer proxy.Close()
	f1 := startDaemon(t, bin, t.TempDir(), "-follow", proxy.Addr())
	defer termDaemon(f1)
	f2 := startDaemon(t, bin, t.TempDir(), "-follow", leader.addr)
	defer termDaemon(f2)

	c, err := client.Dial(leader.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc1, err := client.Dial(f1.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc1.Close()
	fc2, err := client.Dial(f2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc2.Close()

	// Setup on the leader; wait for both followers to apply it so the
	// oracle can mirror setup unconditionally.
	for _, rel := range []*schema.Relation{crashEmpRel, crashAuditRel} {
		if err := c.DeclareRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range crashRules {
		if _, err := c.DefineRule(src); err != nil {
			t.Fatal(err)
		}
	}
	setupSeq := c.LastSeq()
	waitFollowerSeq(t, fc1, "follower 1", setupSeq)
	waitFollowerSeq(t, fc2, "follower 2", setupSeq)

	// Seq-token contract: a predicate acked at S must be visible to a
	// follower read carrying min_seq=S, however soon it is issued.
	shoeID, err := c.AddPredicate(predShoe())
	if err != nil {
		t.Fatal(err)
	}
	token := c.LastSeq()
	probe := tuple.New(value.String_("p"), value.Int(30), value.Int(1000), value.String_("shoe"))
	for i, fc := range []*client.Client{fc1, fc2} {
		ids, err := fc.MatchAt("emp", probe, token)
		if err != nil {
			t.Fatalf("follower %d MatchAt(min_seq=%d): %v", i+1, token, err)
		}
		found := false
		for _, id := range ids {
			if id == shoeID {
				found = true
			}
		}
		if !found {
			t.Fatalf("follower %d seq-token read at %d missed predicate %d: %v",
				i+1, token, shoeID, ids)
		}
	}

	// Every acked op is recorded with the sequence its ack carried, so
	// the oracle can later be fed the exact prefix the promotion covers.
	type ackedOp struct {
		op  crashOp
		seq uint64
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var (
		acked    []ackedOp
		inflight *crashOp
		live     []tuple.ID
	)
	stream := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			op := randomCrashOp(rng, live)
			if err := op.apply(c, &live); err != nil {
				t.Fatalf("stream op: %v", err)
			}
			acked = append(acked, ackedOp{op, c.LastSeq()})
		}
	}

	// Phase 1: normal streaming, then a partition of follower 1's link
	// mid-stream. The follower must reconnect and resume from its
	// applied cursor.
	stream(60)
	proxy.KillConns()
	stream(60)
	waitFollowerSeq(t, fc1, "follower 1 after partition", c.LastSeq())
	st, err := fc1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Repl == nil || st.Repl.Reconnects == 0 {
		t.Errorf("follower 1 shows no reconnect after partition: %+v", st.Repl)
	}

	// Phase 2: SIGKILL the leader racing the stream, like the crash
	// test — at most one op is in flight when the connection dies.
	killer := time.AfterFunc(time.Duration(100+rng.Intn(200))*time.Millisecond, func() {
		leader.cmd.Process.Signal(syscall.SIGKILL)
	})
	defer killer.Stop()
	for i := 0; ; i++ {
		op := randomCrashOp(rng, live)
		if err := op.apply(c, &live); err != nil {
			inflight = &op
			break
		}
		acked = append(acked, ackedOp{op, c.LastSeq()})
		if i > 100000 {
			t.Fatal("kill timer never fired")
		}
	}
	c.Close()
	leader.cmd.Wait()
	leaderDead = true

	// Promote follower 1. The sealed sequence is its applied frontier;
	// replication is asynchronous, so it may trail the acked stream —
	// the oracle gets exactly the ops the seal covers.
	sealedSeq, err := fc1.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if sealedSeq < setupSeq {
		t.Fatalf("promoted at seq %d, before setup seq %d", sealedSeq, setupSeq)
	}
	maxAcked := uint64(0)
	covered := 0
	for _, a := range acked {
		if a.seq > maxAcked {
			maxAcked = a.seq
		}
		if a.seq <= sealedSeq {
			covered++
		}
	}
	t.Logf("acked %d ops (max seq %d), promoted at seq %d covering %d, in-flight: %v",
		len(acked), maxAcked, sealedSeq, covered, inflight != nil)

	// The oracle: an in-process durable server fed setup plus exactly
	// the covered prefix.
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
	for _, rel := range []*schema.Relation{crashEmpRel, crashAuditRel} {
		if err := oracle.DeclareRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range crashRules {
		if _, err := oracle.DefineRule(src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := oracle.AddPredicate(predShoe()); err != nil {
		t.Fatal(err)
	}
	var oracleLive []tuple.ID
	for i, a := range acked {
		if a.seq > sealedSeq {
			break // replication stopped here; later acked ops never arrived
		}
		if err := a.op.apply(oracle, &oracleLive); err != nil {
			t.Fatalf("oracle op %d (%s): %v", i, a.op.kind, err)
		}
	}
	// The in-flight op was logged iff the seal reaches one past the
	// last acked sequence: the leader applied and streamed it, but the
	// ack was lost to the kill.
	if inflight != nil && sealedSeq == maxAcked+1 {
		if err := inflight.apply(oracle, &oracleLive); err != nil {
			t.Fatalf("oracle in-flight op (%s): %v", inflight.kind, err)
		}
	}

	promoted := comparable(dumpState(t, fc1))
	want := comparable(dumpState(t, oracle))
	if promoted != want {
		t.Fatalf("promoted state differs from acked-prefix oracle:\n--- promoted ---\n%s\n--- oracle ---\n%s",
			promoted, want)
	}

	// The promoted daemon is a live leader: it takes writes numbered
	// after the sealed prefix, while follower 2 still redirects.
	if _, _, err := fc1.Insert("emp", tuple.New(
		value.String_("after"), value.Int(30), value.Int(50000), value.String_("toy"))); err != nil {
		t.Fatalf("insert after promote: %v", err)
	}
	if got := fc1.LastSeq(); got != sealedSeq+1 {
		t.Fatalf("first post-promotion write acked at seq %d, want %d", got, sealedSeq+1)
	}
	if _, _, err := fc2.Insert("emp", tuple.New(
		value.String_("x"), value.Int(1), value.Int(1), value.String_("d"))); err == nil {
		t.Fatal("follower 2 accepted a write while still following")
	}
}
