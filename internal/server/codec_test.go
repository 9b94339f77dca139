package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/seqscan"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
	"predmatch/internal/wire/wiretest"
)

// TestServerOversizeFrame: a request line above wire.MaxLineBytes gets
// the one error response docs/PROTOCOL.md (Framing) promises, then the
// server hangs up.
func TestServerOversizeFrame(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{})
	defer stop()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(bytes.Repeat([]byte{'x'}, wire.MaxLineBytes+1)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(nc)
	line, err := r.ReadString('\n')
	// id 0 is the zero value and stays off the wire, as in the other
	// uncorrelated error frames (connection limit, bad frame).
	want := `{"type":"response","error":"request frame exceeds 1048576 bytes"}` + "\n"
	if err != nil || line != want {
		t.Fatalf("oversize answer = %q, %v; want %q", line, err, want)
	}
	if rest, err := r.ReadString('\n'); err != io.EOF || rest != "" {
		t.Fatalf("after the answer: %q, %v; want EOF", rest, err)
	}
}

// pipeListener hands Serve in-memory connections, so a test sees the
// server's own work with no kernel socket under it.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error   { p.once.Do(func() { close(p.done) }); return nil }
func (p *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (p *pipeListener) dial() net.Conn {
	c, s := net.Pipe()
	p.conns <- s
	return c
}

// TestPipeMatchAllocs is the allocation budget of one match on the
// server side — read, decode, dispatch, stab, encode, write — over
// net.Pipe, with the benchmark's shape of frame: 15 int attributes in,
// three predicate IDs out; then of a match followed by a matchbatch of
// 1 and of 64 such tuples. The client side of the pipe allocates
// nothing, so the whole count is the server's: the two allocations
// net.Pipe makes for a write deadline's timer, per answer (a TCP socket
// makes none). The request path itself allocates nothing, whatever the
// batch size: the relation name repeats, the tuples are decoded into
// the connection's tuple scratch and coerced in place, and the answers
// are built in its match scratch. The same test at the commit before
// that scratch: 7 for a match.
func TestPipeMatchAllocs(t *testing.T) {
	ln := newPipeListener()
	s := server.New(server.Config{})
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	defer func() {
		s.Close()
		<-served
	}()
	nc := ln.dial()
	defer nc.Close()
	r := bufio.NewReader(nc)
	call := func(frame []byte) []byte {
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	mustOK := func(req *wire.Request) {
		t.Helper()
		frame, err := wire.AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if line := call(frame); !bytes.Contains(line, []byte(`"ok":true`)) {
			t.Fatalf("%s: %s", req.Op, line)
		}
	}

	attrs := make([]wire.Attr, 15)
	tup := make(wire.Tuple, 15)
	for i := range attrs {
		attrs[i] = wire.Attr{Name: "a" + strconv.Itoa(i), Type: "int"}
		tup[i] = value.Int(int64(500 + i))
	}
	mustOK(&wire.Request{ID: 1, Op: wire.OpDeclare, Relation: "wide", Attrs: attrs})
	for i := 0; i < 64; i++ {
		// Three predicates cover the probe tuple's a0 = 500; the rest
		// sit above it.
		lo := 1000 + 10*i
		if i < 3 {
			lo = 490 + i
		}
		mustOK(&wire.Request{ID: uint64(2 + i), Op: wire.OpAddPred, Pred: &wire.Predicate{Rel: "wide", Clauses: []wire.Clause{
			{Attr: "a0", Lo: &wire.Bound{Value: lo}, Hi: &wire.Bound{Value: lo + 20}},
		}}})
	}
	frame, _ := wire.AppendRequest(nil, &wire.Request{ID: 99, Op: wire.OpMatch, Relation: "wide", Tuple: tup})
	if line := call(frame); bytes.Count(line, []byte(",")) != 5 || !bytes.Contains(line, []byte(`"matches":[`)) {
		t.Fatalf("probe answer %s, want three matches", line)
	}
	n := testing.AllocsPerRun(500, func() { call(frame) })
	t.Logf("one match over net.Pipe: %v allocs", n)
	if n > 2 {
		t.Errorf("one match over net.Pipe: %v allocs, want <= 2", n)
	}

	// A matchbatch after a match, as the benchmark sends them, reuses the
	// same scratch: the pair's count must not grow with the number of
	// tuples.
	for _, size := range []int{1, 64} {
		batch := make([]wire.Tuple, size)
		for i := range batch {
			batch[i] = tup
		}
		batchFrame, _ := wire.AppendRequest(nil, &wire.Request{ID: 100, Op: wire.OpMatchBatch, Relation: "wide", Tuples: batch})
		if line := call(batchFrame); bytes.Count(line, []byte(`[1099511627776,1099511627777,1099511627778]`)) != size {
			t.Fatalf("matchbatch of %d answer %s, want three matches per tuple", size, line)
		}
		n := testing.AllocsPerRun(200, func() { call(frame); call(batchFrame) })
		t.Logf("one match and one %d-tuple matchbatch over net.Pipe: %v allocs", size, n)
		if n > 4 {
			t.Errorf("one match and one %d-tuple matchbatch over net.Pipe: %v allocs, want <= 4", size, n)
		}
	}
}

// TestPipeInsertAllocs is the allocation budget of one durable insert
// on the server side, in the benchmark's shape: a 15-attribute tuple
// that fires 8 `do log` rules, logged to a write-ahead log (fsync off:
// the budget is the encoder's, not the disk's), with one subscriber
// receiving the 8 notifications over a second pipe. Both client ends
// allocate nothing, so the count is the server's: the coerced tuple
// and its stored copy, two result buffers inside the stab, the rows
// map's amortized growth, and the timers net.Pipe makes of a write
// deadline (a TCP socket makes none) — nothing per firing, per
// notification or per attribute, and no relation name, which the
// decoder reuses while it repeats. The same test at the commit before
// statistics on demand: 58.
func TestPipeInsertAllocs(t *testing.T) {
	ln := newPipeListener()
	s, err := server.Open(server.Config{DataDir: t.TempDir(), Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	defer func() {
		s.Close()
		<-served
	}()
	nc, sub := ln.dial(), ln.dial()
	defer nc.Close()
	defer sub.Close()
	call := func(nc net.Conn, r *bufio.Reader, req *wire.Request) []byte {
		t.Helper()
		frame, err := wire.AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadSlice('\n')
		if err != nil || !bytes.Contains(line, []byte(`"ok":true`)) {
			t.Fatalf("%s: %s, %v", req.Op, line, err)
		}
		return line
	}
	r := bufio.NewReader(nc)
	attrs := make([]wire.Attr, 15)
	tup := make(wire.Tuple, 15)
	for i := range attrs {
		attrs[i] = wire.Attr{Name: "a" + strconv.Itoa(i), Type: "int"}
		tup[i] = value.Int(int64(500 + i))
	}
	call(nc, r, &wire.Request{ID: 1, Op: wire.OpDeclare, Relation: "wide", Attrs: attrs})
	for i := 0; i < 8; i++ {
		call(nc, r, &wire.Request{ID: 2, Op: wire.OpRule,
			Source: fmt.Sprintf("rule r%d on insert to wide when a0 > %d do log 'seen'", i, 400+i)})
	}
	subReader := bufio.NewReader(sub)
	call(sub, subReader, &wire.Request{ID: 1, Op: wire.OpSubscribe})
	var notified atomic.Int64
	go func() {
		for {
			if _, err := subReader.ReadSlice('\n'); err != nil {
				return
			}
			notified.Add(1)
		}
	}()

	frame, _ := wire.AppendRequest(nil, &wire.Request{ID: 99, Op: wire.OpInsert, Relation: "wide", Tuple: tup})
	insert := func() {
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		if line, err := r.ReadSlice('\n'); err != nil || !bytes.Contains(line, []byte(`"firings":8`)) {
			t.Fatalf("insert answer %s, %v; want 8 firings", line, err)
		}
	}
	const runs = 500
	n := testing.AllocsPerRun(runs, insert)
	for deadline := time.Now().Add(5 * time.Second); notified.Load() < 8*(runs+1); {
		if time.Now().After(deadline) {
			t.Fatalf("%d notifications for %d inserts, want 8 each", notified.Load(), runs+1)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("one insert over net.Pipe: %v allocs", n)
	if n > 10 {
		t.Errorf("one insert over net.Pipe: %v allocs, want <= 10", n)
	}
}

// recorder is a TCP relay that keeps every byte of both directions.
type recorder struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	up     []*bytes.Buffer // client → server, one per connection
	down   []*bytes.Buffer // server → client
	wg     sync.WaitGroup
}

func newRecorder(t *testing.T, target string) *recorder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{ln: ln, target: target}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			up, down := new(bytes.Buffer), new(bytes.Buffer)
			r.mu.Lock()
			r.up, r.down = append(r.up, up), append(r.down, down)
			r.mu.Unlock()
			r.wg.Add(2)
			relay := func(dst, src net.Conn, keep *bytes.Buffer) {
				defer r.wg.Done()
				defer dst.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := src.Read(buf)
					r.mu.Lock()
					keep.Write(buf[:n])
					r.mu.Unlock()
					if n > 0 {
						if _, werr := dst.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}
			go relay(s, c, up)
			go relay(c, s, down)
		}
	}()
	return r
}

// frames closes the relay and returns every recorded line per direction.
func (r *recorder) frames() (up, down [][]byte) {
	r.ln.Close()
	r.wg.Wait()
	split := func(bufs []*bytes.Buffer) (lines [][]byte) {
		for _, b := range bufs {
			lines = append(lines, bytes.SplitAfter(b.Bytes(), []byte("\n"))...)
		}
		return lines
	}
	return split(r.up), split(r.down)
}

// TestServerGoldenTranscript drives one scripted session — every op of
// docs/PROTOCOL.md, a subscription with firings, a replication
// bootstrap — through a recording relay, and holds every frame either
// side put on the socket to the reference: encoding/json emits exactly
// those bytes for the struct the frame decodes to, and decodes the frame
// to exactly that struct. encoding/json on these structs is what every
// earlier version of both peers ran, so old and new interoperate.
func TestServerGoldenTranscript(t *testing.T) {
	if err := wiretest.CheckShadows(); err != nil {
		t.Fatal(err)
	}
	_, addr, stop := startDurable(t, server.Config{DataDir: t.TempDir(), WALSegmentBytes: 512})
	rec := newRecorder(t, addr)
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()

	c := dial(t, rec.ln.Addr().String())
	sub := dial(t, rec.ln.Addr().String())
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(c.DeclareRelation(empRel))
	check(c.DeclareRelation(auditRel))
	check(c.DeclareRelation(schema.MustRelation("odd<&>",
		schema.Attribute{Name: "f", Type: value.KindFloat}, schema.Attribute{Name: "b", Type: value.KindBool})))
	for _, src := range e2eRules {
		_, err := c.DefineRule(src)
		check(err)
	}
	check(c.DropRule("cheap"))
	young, err := c.AddPredicate(pred.New(0, "emp", pred.IvClause("age", interval.Less(value.Int(30)))))
	check(err)
	shoe, err := c.AddPredicate(pred.New(0, "emp", pred.EqClause("dept", value.String_("shoe"))))
	check(err)
	_, err = c.AddPredicate(pred.New(0, "odd<&>", pred.IvClause("f", interval.Closed(value.Float(-1e-7), value.Float(1e21)))))
	check(err)
	notes, err := sub.Subscribe(true, "band", "senior", "paid", "loud")
	check(err)

	ada := tuple.New(value.String_("ada \"the\" <first>\u2028"), value.Int(52), value.Int(25000), value.String_("shoe"))
	id, fired, err := c.Insert("emp", ada)
	check(err)
	if fired != 2 {
		t.Fatalf("insert fired %d rules, want band and senior", fired)
	}
	_, _, err = c.Insert("emp", tuple.New(value.String_("rich"), value.Int(20), value.Int(95000), value.String_("toy")))
	check(err)
	_, err = c.Update("emp", id, tuple.New(value.String_("ada"), value.Int(53), value.Int(26000), value.String_("deli")))
	check(err)
	_, err = c.Delete("emp", id)
	check(err)
	_, _, err = c.Insert("odd<&>", tuple.New(value.Float(2.5e-9), value.Bool(true)))
	check(err)
	got, err := c.Match("emp", tuple.New(value.String_("x"), value.Int(25), value.Int(1), value.String_("shoe")))
	check(err)
	if len(got) != 2 || got[0] != young || got[1] != shoe {
		t.Fatalf("match = %v, want [%d %d]", got, young, shoe)
	}
	_, err = c.MatchAt("emp", ada, c.LastSeq())
	check(err)
	batch, err := c.MatchBatch("emp", []tuple.Tuple{ada, ada[:0], ada})
	if err == nil {
		t.Fatalf("matchbatch with a short tuple answered %v", batch)
	}
	_, err = c.MatchBatch("emp", []tuple.Tuple{ada, ada})
	check(err)
	check(c.RemovePredicate(young))
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	check(c.Ping())
	if _, err := c.Backup(); err != nil { // checkpoint + prune: a replica from 0 now needs the snapshot
		t.Fatal(err)
	}
	_, _, err = c.Insert("emp", tuple.New(value.String_("tail"), value.Int(60), value.Int(1), value.String_("deli")))
	check(err)
	if _, err := c.Promote(); err == nil {
		t.Fatal("promote on a leader succeeded")
	}
	// 2 (ada) + 2 (rich: paid → loud) + 1 (update: band) + 1 (tail: senior)
	// rule firings, and the predicate matches streamed beside them.
	for seen := 0; seen < 6; {
		select {
		case n := <-notes:
			if n.Rule != "" {
				seen++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 6 firings arrived", seen)
		}
	}
	_, _, err = sub.Unsubscribe()
	check(err)

	// The replication bootstrap, spoken raw: a replica that has nothing.
	rc, err := net.Dial("tcp", rec.ln.Addr().String())
	check(err)
	frame, _ := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpReplicate})
	_, err = rc.Write(frame)
	check(err)
	rc.SetReadDeadline(time.Now().Add(5 * time.Second))
	rr := bufio.NewReader(rc)
	for snaps, recs := 0, 0; snaps == 0 || recs == 0; {
		line, err := rr.ReadBytes('\n')
		check(err)
		var m wire.Message
		check(wire.DecodeMessage(line, &m))
		if len(m.Snap) > 0 {
			snaps++
		}
		if len(m.Rec) > 0 {
			recs++
		}
	}
	rc.Close()
	c.Close()
	sub.Close()
	stopped = true
	stop()

	up, down := rec.frames()
	ops, types := map[string]int{}, map[string]int{}
	for _, line := range up {
		if len(line) == 0 {
			continue
		}
		var req wire.Request
		if err := wire.DecodeRequest(line, &req); err != nil {
			t.Fatalf("request %q: %v", line, err)
		}
		ops[req.Op]++
		want, err := wiretest.MarshalRequest(&req)
		if err != nil || !bytes.Equal(line, want) {
			t.Errorf("request frame differs from encoding/json's:\nsocket        %q\nencoding/json %q (%v)", line, want, err)
		}
		if ref, err := wiretest.UnmarshalRequest(line); err != nil || !wiretest.SameRequest(&req, ref) {
			t.Errorf("request %q decodes to %+v, encoding/json to %+v (%v)", line, req, ref, err)
		}
	}
	for _, line := range down {
		if len(line) == 0 {
			continue
		}
		var m wire.Message
		if err := wire.DecodeMessage(line, &m); err != nil {
			t.Fatalf("message %q: %v", line, err)
		}
		kind := m.Type
		if len(m.Snap) > 0 {
			kind += "/snap"
		}
		types[kind]++
		want, err := wiretest.MarshalMessage(&m)
		if err != nil || !bytes.Equal(line, want) {
			t.Errorf("server frame differs from encoding/json's:\nsocket        %q\nencoding/json %q (%v)", line, want, err)
		}
		if ref, err := wiretest.UnmarshalMessage(line); err != nil || !wiretest.SameMessage(&m, ref) {
			t.Errorf("message %q decodes to %+v, encoding/json to %+v (%v)", line, m, ref, err)
		}
	}
	for _, op := range []string{wire.OpDeclare, wire.OpRule, wire.OpDropRule, wire.OpAddPred,
		wire.OpRemovePred, wire.OpInsert, wire.OpUpdate, wire.OpDelete, wire.OpMatch, wire.OpMatchBatch,
		wire.OpSubscribe, wire.OpUnsubscribe, wire.OpStats, wire.OpPing, wire.OpBackup, wire.OpReplicate, wire.OpPromote} {
		if ops[op] == 0 {
			t.Errorf("the session sent no %s request", op)
		}
	}
	for _, kind := range []string{wire.TypeResponse, wire.TypeNotify, wire.TypeRepl, wire.TypeRepl + "/snap"} {
		if types[kind] == 0 {
			t.Errorf("the session saw no %s frame", kind)
		}
	}
	t.Logf("%d request frames (%v), %d server frames (%v)", len(up), ops, len(down), types)
}

// TestServerScribbledBuffers reruns the end-to-end oracle tests with the
// aliasing guard on: every connection's request line, tuple scratch and
// encode buffer is overwritten the moment the request or flush that used
// it completes. A string, tuple or frame that still pointed into one
// would reach storage, the engine, a notification queue or the socket as
// garbage, and the oracles would see it.
func TestServerScribbledBuffers(t *testing.T) {
	server.SetScribbleReleased(true)
	defer server.SetScribbleReleased(false)
	t.Run("EndToEnd", TestServerEndToEnd)
	t.Run("MatchAndPredicates", TestServerMatchAndPredicates)
	t.Run("RuleLifecycle", TestServerRuleLifecycle)
	t.Run("SlowSubscriber", TestServerSlowSubscriberDoesNotBlock)
	t.Run("HintIndex", TestServerHintIndexE2E)
	t.Run("DurableRestart", TestDurableRestart)
	t.Run("PipelinedMatches", testPipelinedMatches)
	t.Run("Pipelined", func(t *testing.T) {
		// Many requests in one write: the line buffer holds later
		// requests while earlier ones are scribbled over.
		_, addr, stop := startServer(t, server.Config{})
		defer stop()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		var burst []byte
		burst, _ = wire.AppendRequest(burst, &wire.Request{ID: 1, Op: wire.OpDeclare, Relation: "emp",
			Attrs: []wire.Attr{{Name: "name", Type: "string"}, {Name: "age", Type: "int"}}})
		for i := 2; i <= 200; i++ {
			burst, _ = wire.AppendRequest(burst, &wire.Request{ID: uint64(i), Op: wire.OpInsert, Relation: "emp",
				Tuple: wire.Tuple{value.String_(fmt.Sprintf("name-%d", i)), value.Int(int64(i))}})
		}
		if _, err := nc.Write(burst); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(nc)
		for i := 1; i <= 200; i++ {
			line, err := r.ReadString('\n')
			if err != nil || !strings.Contains(line, fmt.Sprintf(`"id":%d,"ok":true`, i)) {
				t.Fatalf("response %d = %q, %v", i, line, err)
			}
		}
	})
}

// testPipelinedMatches writes one burst of match and matchbatch requests
// over two relations and checks every answer against the seqscan
// oracle. The answers are encoded from the connection's match scratch,
// which the aliasing guard overwrites after each one, while later
// requests of the burst still wait in the line buffer.
func testPipelinedMatches(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{})
	defer stop()
	c := dial(t, addr)
	defer c.Close()
	cat := schema.NewCatalog()
	oracle := seqscan.New(cat, pred.NewRegistry())
	rng := rand.New(rand.NewSource(7))
	for _, rel := range []*schema.Relation{empRel, auditRel} {
		if err := c.DeclareRelation(rel); err != nil {
			t.Fatal(err)
		}
		if err := cat.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		lo := int64(10000 + rng.Intn(80000))
		p := pred.New(0, "emp", pred.IvClause("salary", interval.Closed(value.Int(lo), value.Int(lo+20000))))
		if i%2 == 1 {
			p = pred.New(0, "audit", pred.IvClause("level", interval.AtLeast(value.Int(int64(rng.Intn(10))))))
		}
		id, err := c.AddPredicate(p)
		if err != nil {
			t.Fatal(err)
		}
		p.ID = id
		if err := oracle.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	randomTuple := func(rel string) tuple.Tuple {
		if rel == "emp" {
			return randomEmp(rng)
		}
		return tuple.New(value.String_("note"), value.Int(int64(rng.Intn(12))))
	}
	// sorted copies ids in ascending order, never nil: an empty answer
	// is omitted from a frame, an empty row is [].
	sorted := func(ids []int64) []int64 {
		ids = append([]int64{}, ids...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	want := func(rel string, tp tuple.Tuple) []int64 {
		ids, err := oracle.Match(rel, tp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sorted(wire.FromIDs(ids))
	}

	// Every request's expected answer: one row for a match, one per
	// tuple for a matchbatch (of 1 to 70 tuples, so the scratch both
	// grows and is reused at smaller sizes).
	var burst []byte
	var wants [][][]int64
	for id := uint64(1); id <= 300; id++ {
		rel := []string{"emp", "audit"}[rng.Intn(2)]
		req := &wire.Request{ID: id, Op: wire.OpMatch, Relation: rel}
		var rows [][]int64
		if id%3 == 0 {
			req.Op = wire.OpMatchBatch
			for n := 1 + rng.Intn(70); n > 0; n-- {
				tp := randomTuple(rel)
				req.Tuples = append(req.Tuples, wire.FromTuple(tp))
				rows = append(rows, want(rel, tp))
			}
		} else {
			tp := randomTuple(rel)
			req.Tuple = wire.FromTuple(tp)
			rows = append(rows, want(rel, tp))
		}
		var err error
		if burst, err = wire.AppendRequest(burst, req); err != nil {
			t.Fatal(err)
		}
		wants = append(wants, rows)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(nc)
	for i, rows := range wants {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		var m wire.Message
		if err := wire.DecodeMessage(line, &m); err != nil || !m.OK || m.ID != uint64(i+1) {
			t.Fatalf("response %d = %q (%v)", i+1, line, err)
		}
		got := [][]int64{m.Matches}
		if m.Batch != nil {
			got = m.Batch
		}
		if len(got) != len(rows) {
			t.Fatalf("response %d: %d rows, want %d: %q", i+1, len(got), len(rows), line)
		}
		for j := range rows {
			if m.Batch != nil && got[j] == nil {
				t.Fatalf("response %d row %d is null: %q", i+1, j, line)
			}
			if g := sorted(got[j]); !reflect.DeepEqual(g, rows[j]) {
				t.Fatalf("response %d row %d = %v, oracle says %v", i+1, j, g, rows[j])
			}
		}
	}
}
