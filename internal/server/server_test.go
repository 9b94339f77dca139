package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/core"
	"predmatch/internal/engine"
	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/storage"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// startServer launches a daemon built by server.New; see adoptServer.
func startServer(t testing.TB, cfg server.Config) (*server.Server, string, func()) {
	t.Helper()
	return adoptServer(t, server.New(cfg))
}

// Goroutine labels that tie goroutines to the helper call that made
// them: every goroutine inherits its creator's labels, so whatever a
// server's Serve loop starts carries that server's label, and whatever
// a test starts after its first server — the clients it dials — carries
// the test's name.
const (
	serverLabel = "predmatch_server"
	testLabel   = "predmatch_test"
)

// servers numbers the servers the helpers start, one label value each;
// serverIDs maps each such server to its label value.
var (
	servers   atomic.Int64
	serverIDs sync.Map
)

// adoptServer serves s on a loopback port and returns its address plus
// a stopper that shuts it down and verifies both that Serve unwinds and
// that none of this server's connection goroutines outlives it. The
// check sees this server's goroutines only, so a server that another
// test left running cannot fail this one. A test that returns without
// calling the stopper fails at cleanup, under its own name, and the
// cleanup stops the server; the cleanup also requires every client
// the test dialed to have wound down.
func adoptServer(t testing.TB, s *server.Server) (*server.Server, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(testLabel, t.Name())))
	id := strconv.FormatInt(servers.Add(1), 10)
	serverIDs.Store(s, id)
	serveErr := make(chan error, 1)
	go pprof.Do(context.Background(), pprof.Labels(serverLabel, id), func(context.Context) {
		serveErr <- s.Serve(ln)
	})
	var stopped atomic.Bool
	stop := func() {
		stopped.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		select {
		case err := <-serveErr:
			if !errors.Is(err, server.ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
		checkGoroutinesGone(t, serverLabel, id, "server.(*conn)", "server.(*Server).streamLog", "server.(*Server).Serve")
	}
	t.Cleanup(func() {
		if !stopped.Load() {
			t.Errorf("%s returned without stopping its server on %s", t.Name(), addr)
			stop()
		}
		checkGoroutinesGone(t, testLabel, t.Name(), "client.(*Client).readLoop")
	})
	return s, addr, stop
}

// checkGoroutinesGone is the goleak-style final check, scoped by a
// goroutine label: within a few seconds, no goroutine labelled key=val
// may remain with a frame in any of the marked functions.
func checkGoroutinesGone(t testing.TB, key, val string, markers ...string) {
	t.Helper()
	label := fmt.Sprintf("%q:%q", key, val)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 1)
		var leaked []string
		// debug=1 groups goroutines by stack and labels, one blank-line
		// separated record per group: a count line, the labels, frames.
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if !strings.Contains(rec, label) {
				continue
			}
			for _, m := range markers {
				if strings.Contains(rec, m) {
					leaked = append(leaked, rec)
					break
				}
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines labelled %s=%s leaked past shutdown:\n%s", key, val, strings.Join(leaked, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recordTB is a testing.TB that records the failures a helper reports
// and holds its cleanups until runCleanups, so a test can watch the
// helpers judge another test.
type recordTB struct {
	testing.TB
	name     string
	errs     []string
	cleanups []func()
}

func (r *recordTB) Name() string      { return r.name }
func (r *recordTB) Helper()           {}
func (r *recordTB) Error(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }
func (r *recordTB) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recordTB) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }

func (r *recordTB) runCleanups() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

// TestLeakCheckBlamesTheLeaker: a server its test never stopped, with a
// client still connected, does not fail a later test that starts and
// stops a server of its own; it fails the test that leaked it, by name,
// at that test's cleanup, which also stops it.
func TestLeakCheckBlamesTheLeaker(t *testing.T) {
	leaker := &recordTB{TB: t, name: "TestLeaker"}
	_, leakedAddr, _ := startServer(leaker, server.Config{})
	c := dial(t, leakedAddr)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	later := &recordTB{TB: t, name: "TestLater"}
	_, addr, stop := startServer(later, server.Config{})
	c2 := dial(t, addr)
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	stop()
	later.runCleanups()
	if len(later.errs) != 0 {
		t.Errorf("the leaked server failed TestLater:\n%s", strings.Join(later.errs, "\n"))
	}

	leaker.runCleanups()
	want := "TestLeaker returned without stopping its server on " + leakedAddr
	if len(leaker.errs) != 1 || leaker.errs[0] != want {
		t.Errorf("TestLeaker's cleanup reported %q, want only %q", leaker.errs, want)
	}
}

func dial(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var empRel = schema.MustRelation("emp",
	schema.Attribute{Name: "name", Type: value.KindString},
	schema.Attribute{Name: "age", Type: value.KindInt},
	schema.Attribute{Name: "salary", Type: value.KindInt},
	schema.Attribute{Name: "dept", Type: value.KindString},
)

var auditRel = schema.MustRelation("audit",
	schema.Attribute{Name: "note", Type: value.KindString},
	schema.Attribute{Name: "level", Type: value.KindInt},
)

// e2eRules exercise overlap, multiple events, deletes and a cascade
// (rule paid inserts into audit, firing loud one level deeper).
var e2eRules = []string{
	"rule band on insert, update to emp when salary between 20000 and 30000 do log 'band'",
	"rule senior on insert to emp when age > 50 do log 'senior'",
	"rule cheap on delete to emp when salary < 25000 do log 'cheap'",
	"rule paid on insert to emp when salary > 90000 do insert into audit ('paid', 2)",
	"rule loud on insert to audit when level > 1 do log 'loud'",
}

func randomEmp(rng *rand.Rand) tuple.Tuple {
	return tuple.New(
		value.String_(fmt.Sprintf("w%d", rng.Intn(50))),
		value.Int(int64(20+rng.Intn(50))),
		value.Int(int64(10000+rng.Intn(90000))),
		value.String_([]string{"shoe", "toy", "deli"}[rng.Intn(3)]),
	)
}

// jsonEq compares two wire tuple forms via canonical JSON.
func jsonEq(a, b any) bool {
	ab, err1 := json.Marshal(a)
	bb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(ab) == string(bb)
}

// TestServerEndToEnd is the acceptance scenario: two clients over real
// TCP — one subscribes, one streams >1k mutations — and the subscriber
// must receive exactly the firings an in-process oracle engine produces
// for the same mutation sequence, modulo counted overflow drops.
func TestServerEndToEnd(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{QueueLen: 1 << 14})
	defer stop()

	sub := dial(t, addr, client.WithNotifyBuffer(1<<14))
	mut := dial(t, addr)
	defer sub.Close()
	defer mut.Close()

	// The in-process oracle: an identical schema + rule set over the
	// single-threaded reference engine, collecting firings via OnFire.
	oracleDB := storage.NewDB()
	oracleFuncs := pred.NewRegistry()
	oracleEng := engine.New(oracleDB, oracleFuncs, core.New(oracleDB.Catalog(), oracleFuncs))
	var oracle []engine.FiringEvent
	oracleEng.OnFire(func(ev engine.FiringEvent) { oracle = append(oracle, ev) })

	for _, rel := range []*schema.Relation{empRel, auditRel} {
		if err := mut.DeclareRelation(rel); err != nil {
			t.Fatal(err)
		}
		if _, err := oracleDB.CreateRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	oracleEmp, _ := oracleDB.Table("emp")
	for _, src := range e2eRules {
		if _, err := mut.DefineRule(src); err != nil {
			t.Fatal(err)
		}
		if _, err := oracleEng.DefineRule(src); err != nil {
			t.Fatal(err)
		}
	}

	ch, err := sub.Subscribe(false)
	if err != nil {
		t.Fatal(err)
	}
	var (
		gotMu sync.Mutex
		got   []client.Notification
	)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for n := range ch {
			gotMu.Lock()
			got = append(got, n)
			gotMu.Unlock()
		}
	}()

	// Stream the mutation storm: inserts, updates and deletes drawn
	// from one deterministic sequence, applied identically to the
	// server (over TCP) and the oracle (in process).
	rng := rand.New(rand.NewSource(7))
	var live []tuple.ID
	const ops = 1200
	for i := 0; i < ops; i++ {
		switch {
		case len(live) < 5 || rng.Intn(10) < 6: // insert
			tp := randomEmp(rng)
			id, _, err := mut.Insert("emp", tp)
			if err != nil {
				t.Fatalf("op %d: insert: %v", i, err)
			}
			oid, err := oracleEmp.Insert(tp)
			if err != nil {
				t.Fatalf("op %d: oracle insert: %v", i, err)
			}
			if id != oid {
				t.Fatalf("op %d: server assigned id %d, oracle %d", i, id, oid)
			}
			live = append(live, id)
		case rng.Intn(3) == 0: // delete
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			if _, err := mut.Delete("emp", id); err != nil {
				t.Fatalf("op %d: delete: %v", i, err)
			}
			if err := oracleEmp.Delete(id); err != nil {
				t.Fatalf("op %d: oracle delete: %v", i, err)
			}
		default: // update
			id := live[rng.Intn(len(live))]
			tp := randomEmp(rng)
			if _, err := mut.Update("emp", id, tp); err != nil {
				t.Fatalf("op %d: update: %v", i, err)
			}
			if err := oracleEmp.Update(id, tp); err != nil {
				t.Fatalf("op %d: oracle update: %v", i, err)
			}
		}
	}

	generated, dropped, err := sub.Unsubscribe()
	if err != nil {
		t.Fatal(err)
	}
	if generated != uint64(len(oracle)) {
		t.Fatalf("server generated %d notifications, oracle fired %d times", generated, len(oracle))
	}
	// Queued notifications may still be in flight after the
	// unsubscribe response; wait until everything undropped arrived.
	want := int(generated - dropped)
	deadline := time.Now().Add(10 * time.Second)
	for {
		sub.Ping() // any round trip flushes the pipeline behind notifications
		gotMu.Lock()
		n := len(got)
		gotMu.Unlock()
		if n >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	gotMu.Lock()
	final := append([]client.Notification(nil), got...)
	gotMu.Unlock()
	if len(final) != want {
		t.Fatalf("received %d notifications, want %d (generated %d, dropped %d)",
			len(final), want, generated, dropped)
	}

	// Every received notification must be exactly the oracle firing
	// with the same (1-based) sequence number: dropped notifications
	// appear as seq gaps, never as divergent content.
	seen := make(map[uint64]bool)
	for i, n := range final {
		if n.Seq < 1 || n.Seq > generated {
			t.Fatalf("notification %d: seq %d out of range [1,%d]", i, n.Seq, generated)
		}
		if seen[n.Seq] {
			t.Fatalf("notification %d: duplicate seq %d", i, n.Seq)
		}
		seen[n.Seq] = true
		ev := oracle[n.Seq-1]
		if n.Rule != ev.Rule || n.Relation != ev.Rel || n.Op != ev.Op.String() ||
			n.TupleID != int64(ev.TupleID) || n.Depth != ev.Depth {
			t.Fatalf("notification %d: got %+v, oracle %+v", i, n, ev)
		}
		if !jsonEq(n.Tuple, tupleWire(ev.Tuple)) {
			t.Fatalf("notification %d: tuple %v, oracle %v", i, n.Tuple, ev.Tuple)
		}
	}
	if dropped != generated-uint64(len(seen)) {
		t.Fatalf("drop accounting: dropped=%d, but %d of %d seqs missing",
			dropped, generated-uint64(len(seen)), generated)
	}
	t.Logf("streamed %d mutations → %d firings, %d delivered, %d dropped",
		ops, generated, len(final), dropped)
}

func tupleWire(tp tuple.Tuple) []any {
	out := make([]any, len(tp))
	for i, v := range tp {
		switch v.Kind() {
		case value.KindInt:
			out[i] = v.AsInt()
		case value.KindFloat:
			out[i] = v.AsFloat()
		case value.KindString:
			out[i] = v.AsString()
		case value.KindBool:
			out[i] = v.AsBool()
		}
	}
	return out
}

// TestServerMatchAndPredicates drives the bare-predicate API: addpred,
// match, matchbatch, rmpred, stats, and predicate-match subscriptions.
func TestServerMatchAndPredicates(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{})
	defer stop()
	c := dial(t, addr)
	defer c.Close()

	if err := c.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	young := pred.New(0, "emp", pred.IvClause("age", interval.Less(value.Int(30))))
	shoe := pred.New(0, "emp", pred.EqClause("dept", value.String_("shoe")))
	youngID, err := c.AddPredicate(young)
	if err != nil {
		t.Fatal(err)
	}
	shoeID, err := c.AddPredicate(shoe)
	if err != nil {
		t.Fatal(err)
	}
	if youngID < server.DirectPredBase || shoeID <= youngID {
		t.Fatalf("assigned IDs %d, %d", youngID, shoeID)
	}

	tp := tuple.New(value.String_("a"), value.Int(25), value.Int(1000), value.String_("shoe"))
	ids, err := c.Match("emp", tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("match = %v, want both predicates", ids)
	}

	batch := []tuple.Tuple{
		tp,
		tuple.New(value.String_("b"), value.Int(40), value.Int(1000), value.String_("toy")),
	}
	res, err := c.MatchBatch("emp", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(res[0]) != 2 || len(res[1]) != 0 {
		t.Fatalf("matchbatch = %v", res)
	}

	// Predicate-match subscription: inserts matching a direct predicate
	// produce notifications carrying the matching IDs.
	ch, err := c.Subscribe(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Insert("emp", tp); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		if len(n.Matches) != 2 || n.Relation != "emp" || n.Op != "insert" {
			t.Fatalf("predicate notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no predicate-match notification")
	}
	if _, _, err := c.Unsubscribe(); err != nil {
		t.Fatal(err)
	}

	if err := c.RemovePredicate(youngID); err != nil {
		t.Fatal(err)
	}
	if err := c.RemovePredicate(youngID); err == nil {
		t.Fatal("double rmpred accepted")
	}
	if err := c.RemovePredicate(1); err == nil {
		t.Fatal("rmpred of non-client predicate accepted")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Matcher != "sharded" || st.Predicates != 1 || st.Conns != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Shards) != 1 || st.Shards[0].Rel != "emp" || st.Shards[0].Predicates != 1 {
		t.Fatalf("shard stats = %+v", st.Shards)
	}
}

// TestServerDeclareMatchRace: DDL must be safe against live match
// traffic. match/matchbatch/addpred resolve relations through the
// shared catalog without the mutation mutex, so concurrent declares
// exercise the catalog's internal synchronization (a regression here
// is a concurrent map read/write that kills the daemon under -race).
func TestServerDeclareMatchRace(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{})
	defer stop()

	setup := dial(t, addr)
	defer setup.Close()
	if err := setup.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.AddPredicate(pred.New(0, "emp",
		pred.IvClause("age", interval.Less(value.Int(30))))); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup

	// DDL storm: declare fresh relations for the whole test duration.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		ddl := dial(t, addr)
		defer ddl.Close()
		for i := 0; i < 300; i++ {
			rel := schema.MustRelation(fmt.Sprintf("rel%d", i),
				schema.Attribute{Name: "k", Type: value.KindInt})
			if err := ddl.DeclareRelation(rel); err != nil {
				t.Errorf("declare rel%d: %v", i, err)
				return
			}
			if _, err := ddl.AddPredicate(pred.New(0, rel.Name(),
				pred.IvClause("k", interval.Less(value.Int(int64(i)))))); err != nil {
				t.Errorf("addpred rel%d: %v", i, err)
				return
			}
		}
	}()

	// Read storm: match and matchbatch against the shared catalog.
	tp := tuple.New(value.String_("a"), value.Int(25), value.Int(1000), value.String_("shoe"))
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(t, addr)
			defer c.Close()
			for {
				select {
				case <-done:
					return
				default:
				}
				ids, err := c.Match("emp", tp)
				if err != nil || len(ids) != 1 {
					t.Errorf("match = %v, %v", ids, err)
					return
				}
				if _, err := c.MatchBatch("emp", []tuple.Tuple{tp, tp}); err != nil {
					t.Errorf("matchbatch: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServerRuleLifecycle covers declare/rule/droprule error paths.
func TestServerRuleLifecycle(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{})
	defer stop()
	c := dial(t, addr)
	defer c.Close()

	if err := c.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareRelation(empRel); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	name, err := c.DefineRule("rule band on insert to emp when salary between 1 and 2 do log 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if name != "band" {
		t.Fatalf("rule name = %q", name)
	}
	if _, err := c.DefineRule("rule broken on insert to nosuch do log 'x'"); err == nil {
		t.Fatal("rule on unknown relation accepted")
	}
	if err := c.DropRule("band"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropRule("band"); err == nil {
		t.Fatal("double droprule accepted")
	}
	if _, _, err := c.Insert("nosuch", tuple.New(value.Int(1))); err == nil {
		t.Fatal("insert into unknown relation accepted")
	}
}

// TestServerConnLimit verifies over-limit dials are rejected with an
// explanatory error instead of hanging.
func TestServerConnLimit(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{MaxConns: 2})
	defer stop()
	a := dial(t, addr)
	defer a.Close()
	b := dial(t, addr)
	defer b.Close()
	c, err := client.Dial(addr, client.WithTimeout(3*time.Second))
	if err == nil {
		c.Close()
		t.Fatal("third connection accepted past MaxConns=2")
	}
	if !strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("rejection error = %v", err)
	}
	// Capacity freed by a close is reusable.
	a.Close()
	waitFor(t, func() bool {
		d, err := client.Dial(addr)
		if err != nil {
			return false
		}
		d.Close()
		return true
	})
}

func waitFor(t *testing.T, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerIdleTimeout: idle unsubscribed connections are reaped;
// subscribed connections are exempt.
func TestServerIdleTimeout(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{IdleTimeout: 200 * time.Millisecond})
	defer stop()
	idle := dial(t, addr)
	defer idle.Close()
	watcher := dial(t, addr)
	defer watcher.Close()
	if err := watcher.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.Subscribe(false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(800 * time.Millisecond)
	if err := idle.Ping(); err == nil {
		t.Fatal("idle connection survived the idle timeout")
	}
	if err := watcher.Ping(); err != nil {
		t.Fatalf("subscribed connection was reaped: %v", err)
	}
}

// TestServerSlowSubscriberDoesNotBlock: a subscriber that never reads
// its socket must not stall the mutation/match path — the bounded
// queue and drop policy absorb it — and every notification generated
// for it stays accounted for. The write timeout outlasts the test, so
// the stalled writer stays blocked on the socket until the test closes
// it.
func TestServerSlowSubscriberDoesNotBlock(t *testing.T) {
	s, addr, stop := startServer(t, server.Config{QueueLen: 4, WriteTimeout: time.Minute})
	defer stop()

	mut := dial(t, addr)
	defer mut.Close()
	if err := mut.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if _, err := mut.DefineRule("rule all on insert to emp do log 'x'"); err != nil {
		t.Fatal(err)
	}

	// A raw socket that subscribes and then goes silent without ever
	// reading: the worst-behaved consumer.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := fmt.Fprintf(raw, `{"id":1,"op":"subscribe"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to register the subscription.
	buf := make([]byte, 256)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err != nil {
		t.Fatal(err)
	}

	// Each notification carries an 8 KiB name, so the 2,000 of them
	// (16 MiB) overrun what the kernel buffers for a socket nobody reads
	// (4 MiB by default on Linux): the server's writer ends up blocked
	// mid-flush, holding what it encoded.
	start := time.Now()
	const ops = 2000
	wide := value.String_(strings.Repeat("w", 8<<10))
	for i := 0; i < ops; i++ {
		emp := randomEmp(rand.New(rand.NewSource(int64(i))))
		emp[0] = wide
		if _, _, err := mut.Insert("emp", emp); err != nil {
			t.Fatalf("insert %d with stalled subscriber: %v", i, err)
		}
	}
	elapsed := time.Since(start)

	// Every notification generated is delivered, dropped, still in the
	// stalled connection's queue, or held by its writer: encoded into
	// the buffer a blocked flush is writing. The writer moves
	// notifications between those states while they are read, so read
	// until two reads a moment apart agree; then they add up exactly.
	type counts struct{ seq, delivered, dropped, queued, held uint64 }
	read := func() counts {
		st, err := mut.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var c counts
		for _, cs := range st.Connections {
			if cs.Subscribed {
				c = counts{seq: cs.LastSeq, delivered: cs.Delivered, dropped: cs.Dropped, queued: uint64(cs.Queue)}
			}
		}
		c.held = s.HeldNotes()
		return c
	}
	c := read()
	for deadline := time.Now().Add(5 * time.Second); ; {
		time.Sleep(20 * time.Millisecond)
		next := read()
		if next == c {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("notification counts still moving after 5s: %+v", next)
		}
		c = next
	}
	t.Logf("%d inserts in %v with a stalled subscriber: %+v", ops, elapsed, c)
	if c.seq != ops || c.delivered+c.dropped+c.queued+c.held != ops {
		t.Fatalf("notification accounting: %+v, want seq = delivered+dropped+queued+held = %d", c, ops)
	}
}

// TestServerSubscriberTeardownAccounting: when a missed write deadline
// tears a stalled subscriber's connection down, the notifications still
// in its queue and those its blocked writer holds are counted as
// dropped, so the global counters still add up to what was generated.
func TestServerSubscriberTeardownAccounting(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{QueueLen: 4, WriteTimeout: 200 * time.Millisecond})
	defer stop()

	mut := dial(t, addr)
	defer mut.Close()
	if err := mut.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if _, err := mut.DefineRule("rule all on insert to emp do log 'x'"); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := fmt.Fprintf(raw, `{"id":1,"op":"subscribe"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err != nil {
		t.Fatal(err)
	}

	// sub reads the subscriber's queue and the notifications generated
	// for it; ok is false once the subscription is gone.
	sub := func() (queue, queueCap int, generated uint64, ok bool) {
		st, err := mut.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range st.Connections {
			if cs.Subscribed {
				return cs.Queue, cs.QueueCap, cs.LastSeq, true
			}
		}
		return 0, 0, 0, false
	}
	// Insert 8 KiB notifications until the writer is blocked on the
	// unread socket: the queue is full and stays full while nothing is
	// inserted. Then stop, so the count generated is final before the
	// 200 ms deadline fires.
	wide := value.String_(strings.Repeat("w", 8<<10))
	var generated uint64
	for i := 0; generated == 0; i++ {
		if i == 20000 {
			t.Fatal("the subscriber's writer never stalled")
		}
		emp := randomEmp(rand.New(rand.NewSource(int64(i))))
		emp[0] = wide
		if _, _, err := mut.Insert("emp", emp); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		q, qcap, _, ok := sub()
		if !ok {
			t.Fatalf("subscriber torn down after %d inserts, before its stall was seen", i+1)
		}
		if q < qcap {
			continue
		}
		time.Sleep(20 * time.Millisecond)
		q, qcap, seq, ok := sub()
		if !ok {
			t.Fatalf("subscriber torn down after %d inserts, before its stall was seen", i+1)
		}
		if q == qcap {
			generated = seq
		}
	}
	waitFor(t, func() bool {
		_, _, _, ok := sub()
		return !ok
	})
	st, err := mut.Stats()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("generated %d, delivered %d, dropped %d", generated, st.Delivered, st.Dropped)
	if st.Delivered+st.Dropped != generated {
		t.Fatalf("after teardown delivered %d + dropped %d = %d, want the %d generated",
			st.Delivered, st.Dropped, st.Delivered+st.Dropped, generated)
	}
}

// TestServerServeAfterShutdown: a Serve that gets to its listener only
// after Shutdown ran returns at once instead of accepting forever.
func TestServerServeAfterShutdown(t *testing.T) {
	s := server.New(server.Config{})
	s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	select {
	case err := <-served:
		if !errors.Is(err, server.ErrServerClosed) {
			t.Fatalf("Serve after Shutdown returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		ln.Close()
		<-served
		t.Fatal("Serve after Shutdown was still accepting after 5s")
	}
}

// TestServerGracefulShutdown: shutdown during a live mutation stream
// unwinds Serve, fails subsequent client calls cleanly, and leaks no
// goroutine (stop() performs the final check).
func TestServerGracefulShutdown(t *testing.T) {
	s, addr, stop := startServer(t, server.Config{})
	mut := dial(t, addr)
	defer mut.Close()
	watcher := dial(t, addr)
	defer watcher.Close()
	if err := mut.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if _, err := mut.DefineRule("rule all on insert to emp do log 'x'"); err != nil {
		t.Fatal(err)
	}
	notes, err := watcher.Subscribe(false)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the stream until the server's shutdown closes it.
	drained := make(chan int, 1)
	go func() {
		n := 0
		for range notes {
			n++
		}
		drained <- n
	}()

	// A goroutine hammering mutations while we shut down.
	hammerDone := make(chan struct{})
	go func() {
		defer close(hammerDone)
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			if _, _, err := mut.Insert("emp", randomEmp(rng)); err != nil {
				return // shutdown reached the connection
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	stop() // Shutdown + Serve return + goroutine-leak check
	_ = s
	select {
	case <-hammerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("mutation stream did not unwind after shutdown")
	}
	select {
	case n := <-drained:
		t.Logf("watcher received %d notifications before shutdown", n)
	case <-time.After(5 * time.Second):
		t.Fatal("notification stream did not close after shutdown")
	}
	if err := mut.Ping(); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
}
