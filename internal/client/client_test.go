package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// TestMain runs the whole package with the aliasing guard on: the read
// line and the request encode buffer are scribbled over as soon as the
// frame that used them is done with, so a response, notification or
// request that still pointed into them would fail these tests.
func TestMain(m *testing.M) {
	scribbleReleased = true
	m.Run()
}

// script is a fake server over net.Pipe: it answers the handshake ping
// itself and hands every later request to serve, which replies through
// send (safe from any goroutine) and may hang up by returning false.
func script(t *testing.T, serve func(req *wire.Request, send func(*wire.Message)) bool, opts ...Option) *Client {
	t.Helper()
	cn, sn := net.Pipe()
	var wmu sync.Mutex
	send := func(m *wire.Message) {
		frame, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Error(err)
			return
		}
		wmu.Lock()
		sn.Write(frame) // an error means the client is gone; the test notices
		wmu.Unlock()
	}
	go func() {
		defer sn.Close()
		lr := wire.NewLineReader(sn, wire.MaxLineBytes)
		for {
			line, err := lr.Next()
			if err != nil {
				return
			}
			req := new(wire.Request)
			if err := wire.DecodeRequest(line, req); err != nil {
				t.Errorf("fake server: %v", err)
				return
			}
			if req.Op == wire.OpPing {
				send(&wire.Message{Type: wire.TypeResponse, ID: req.ID, OK: true})
			} else if !serve(req, send) {
				return
			}
		}
	}()
	c, err := handshake(cn, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var pair = schema.MustRelation("pair",
	schema.Attribute{Name: "k", Type: value.KindInt}, schema.Attribute{Name: "v", Type: value.KindInt})

func probe(k int64) tuple.Tuple { return tuple.New(value.Int(k), value.Int(0)) }

// TestLateResponseIsDropped: a call times out, its response arrives
// afterwards, and the next call — which reuses the timed-out call's
// slot — must get its own answer, not the stale one.
func TestLateResponseIsDropped(t *testing.T) {
	late := make(chan *wire.Message, 1)
	c := script(t, func(req *wire.Request, send func(*wire.Message)) bool {
		answer := &wire.Message{Type: wire.TypeResponse, ID: req.ID, OK: true, Matches: []int64{req.Tuple[0].AsInt()}}
		switch req.Tuple[0].AsInt() {
		case 1:
			late <- answer // held back until the next request
			return true
		case 2:
			send(<-late)
		}
		send(answer)
		return true
	}, WithTimeout(50*time.Millisecond))

	if _, err := c.Match("pair", probe(1)); err == nil || !bytes.Contains([]byte(err.Error()), []byte("timed out")) {
		t.Fatalf("first call: %v, want a timeout", err)
	}
	c.mu.Lock()
	free := append([]*callSlot(nil), c.free...)
	c.mu.Unlock()
	if len(free) != 1 {
		t.Fatalf("%d free slots after a timeout, want the one the call gave back", len(free))
	}
	c.timeout = 5 * time.Second
	got, err := c.Match("pair", probe(2))
	if err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("second call = %v, %v; want its own answer [2]", got, err)
	}
	c.mu.Lock()
	reused := len(c.free) == 1 && c.free[0] == free[0]
	c.mu.Unlock()
	if !reused {
		t.Fatal("the second call did not run on the recycled slot")
	}
	// The same, with the response racing the timeout instead of trailing it.
	c.timeout = time.Millisecond
	for i := 0; i < 200; i++ {
		k := int64(10 + i)
		got, err := c.Match("pair", probe(k))
		if err == nil && (len(got) != 1 || int64(got[0]) != k) {
			t.Fatalf("call %d got %v", k, got)
		}
	}
}

// startServer runs an in-process daemon on loopback TCP.
func startServer(t *testing.T) string {
	t.Helper()
	s := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-served
	})
	return ln.Addr().String()
}

// TestConcurrentCallsGetTheirOwnResponses multiplexes 8 goroutines ×
// 2,000 calls over one connection; each goroutine's probe matches
// exactly its own predicate, so a response delivered to the wrong call
// or a slot handed over too early shows as a wrong ID.
func TestConcurrentCallsGetTheirOwnResponses(t *testing.T) {
	c, err := Dial(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeclareRelation(pair); err != nil {
		t.Fatal(err)
	}
	const workers, calls = 8, 2000
	ids := make([]pred.ID, workers)
	for g := range ids {
		if ids[g], err = c.AddPredicate(pred.New(0, "pair", pred.EqClause("k", value.Int(int64(g))))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				got, err := c.Match("pair", probe(int64(g)))
				if err != nil || len(got) != 1 || got[0] != ids[g] {
					t.Errorf("worker %d call %d: %v, %v; want [%d]", g, i, got, err, ids[g])
					return
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	free, pending := len(c.free), len(c.pending)
	c.mu.Unlock()
	if pending != 0 || free == 0 || free > workers {
		t.Fatalf("%d pending calls and %d free slots after %d calls by %d workers", pending, free, workers*calls, workers)
	}
}

// TestResultsAreTheCallersOwn: what Match and MatchBatch return is the
// caller's to keep and change. A later Match must not overwrite an
// earlier result, and appending to one MatchBatch row must not write
// into the next, though the rows share one backing array.
func TestResultsAreTheCallersOwn(t *testing.T) {
	c, err := Dial(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeclareRelation(pair); err != nil {
		t.Fatal(err)
	}
	var ids [2]pred.ID
	for k := range ids {
		if ids[k], err = c.AddPredicate(pred.New(0, "pair", pred.EqClause("k", value.Int(int64(k))))); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.Match("pair", probe(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Match("pair", probe(1)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, []pred.ID{ids[0]}) {
		t.Errorf("first Match reads %v after a second one, want [%d]", first, ids[0])
	}
	got, err := c.MatchBatch("pair", []tuple.Tuple{probe(0), probe(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], []pred.ID{ids[0]}) || !reflect.DeepEqual(got[1], []pred.ID{ids[1]}) {
		t.Fatalf("MatchBatch = %v, want [[%d] [%d]]", got, ids[0], ids[1])
	}
	if grown := append(got[0], -1); len(grown) != 2 || !reflect.DeepEqual(got[1], []pred.ID{ids[1]}) {
		t.Errorf("appending to row 0 changed row 1 to %v", got[1])
	}
}

// TestPendingCallsUnblock: Close, and the server hanging up, each end
// every call in flight with the terminal error.
func TestPendingCallsUnblock(t *testing.T) {
	const pending = 5
	run := func(name string, end func(c *Client, hangUp chan struct{}), want error) {
		t.Run(name, func(t *testing.T) {
			arrived, allIn, hangUp := 0, make(chan struct{}), make(chan struct{})
			c := script(t, func(*wire.Request, func(*wire.Message)) bool {
				if arrived++; arrived < pending {
					return true
				}
				close(allIn)
				<-hangUp
				return false
			})
			errs := make(chan error, pending)
			for i := 0; i < pending; i++ {
				go func() {
					_, err := c.Match("pair", probe(1))
					errs <- err
				}()
			}
			<-allIn
			end(c, hangUp)
			for i := 0; i < pending; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, want) {
						t.Errorf("pending call ended with %v, want %v", err, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a pending call stayed blocked")
				}
			}
			if err := c.Ping(); !errors.Is(err, want) {
				t.Errorf("call after the end: %v, want %v", err, want)
			}
		})
	}
	run("Close", func(c *Client, hangUp chan struct{}) { c.Close(); close(hangUp) }, ErrClosed)
	run("HangUp", func(c *Client, hangUp chan struct{}) { close(hangUp) }, ErrClosed)
}

// TestNotificationTupleShape pins the public shape of
// Notification.Tuple: []any holding string, bool and json.Number — what
// a UseNumber decode of the frame gives, and what callers type-assert.
func TestNotificationTupleShape(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mixed := schema.MustRelation("mixed",
		schema.Attribute{Name: "s", Type: value.KindString}, schema.Attribute{Name: "i", Type: value.KindInt},
		schema.Attribute{Name: "f", Type: value.KindFloat}, schema.Attribute{Name: "b", Type: value.KindBool})
	if err := c.DeclareRelation(mixed); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineRule("rule all on insert to mixed when i > 0 do log 'x'"); err != nil {
		t.Fatal(err)
	}
	notes, err := c.Subscribe(false)
	if err != nil {
		t.Fatal(err)
	}
	// Three notifications are held while the later frames (and the
	// aliasing guard's scribble) go over the read buffer their literals
	// were cut from: a literal still pointing into it reads as garbage.
	names := []string{"ada", "b\"ob", "cyd"}
	for i, name := range names {
		if _, _, err := c.Insert("mixed", tuple.New(value.String_(name), value.Int(1<<60+int64(i)), value.Float(2.5), value.Bool(i%2 == 0))); err != nil {
			t.Fatal(err)
		}
	}
	var got []Notification
	for range names {
		select {
		case n := <-notes:
			got = append(got, n)
		case <-time.After(5 * time.Second):
			t.Fatal("no notification")
		}
	}
	for i, n := range got {
		want := []any{names[i], json.Number(strconv.FormatInt(1<<60+int64(i), 10)), json.Number("2.5"), i%2 == 0}
		if !reflect.DeepEqual(n.Tuple, want) || n.Rule != "all" || n.Relation != "mixed" || n.Op != "insert" {
			t.Fatalf("notification %+v, want tuple %#v", n, want)
		}
		if num, ok := n.Tuple[1].(json.Number); !ok {
			t.Fatalf("int attribute is %T", n.Tuple[1])
		} else if v, err := num.Int64(); err != nil || v != 1<<60+int64(i) {
			t.Fatalf("int attribute %v, %v", v, err)
		}
	}
}

// TestNotificationFanOutShared: the notifications of a rule fan-out
// carry one tuple, which the client decodes once. Each notification
// still owns its slice: a write to one tuple shows in no other. A tuple
// holding an array is decoded afresh for every frame.
func TestNotificationFanOutShared(t *testing.T) {
	c, err := Dial(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeclareRelation(pair); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"rule big on insert to pair when k > 10 do log 'x'",
		"rule odd on insert to pair when v = 7 do log 'y'",
	} {
		if _, err := c.DefineRule(src); err != nil {
			t.Fatal(err)
		}
	}
	notes, err := c.Subscribe(false)
	if err != nil {
		t.Fatal(err)
	}
	// The same tuple twice: four frames, the last three repeats of the
	// first, so a remembered slice handed out twice would show.
	for i := 0; i < 2; i++ {
		if _, n, err := c.Insert("pair", tuple.New(value.Int(1<<40), value.Int(7))); err != nil || n != 2 {
			t.Fatalf("insert: %d firings, %v", n, err)
		}
	}
	want := []any{json.Number(strconv.FormatInt(1<<40, 10)), json.Number("7")}
	got := make([]Notification, 4)
	for i := range got {
		select {
		case got[i] = <-notes:
		case <-time.After(5 * time.Second):
			t.Fatal("no notification")
		}
		if !reflect.DeepEqual(got[i].Tuple, want) || got[i].Relation != "pair" {
			t.Fatalf("notification %d: %+v, want tuple %#v", i, got[i], want)
		}
	}
	if unsafe.StringData(string(got[0].Tuple[1].(json.Number))) != unsafe.StringData(string(got[3].Tuple[1].(json.Number))) {
		t.Error("the fan-out's repeated tuple was decoded afresh")
	}
	for i, n := range got {
		n.Tuple[0] = strconv.Itoa(i)
	}
	for i, n := range got {
		if n.Tuple[0] != strconv.Itoa(i) || n.Tuple[1] != json.Number("7") {
			t.Errorf("notification %d's tuple is %#v after each was written: slices are shared", i, n.Tuple)
		}
	}

	// A non-scalar element: a raw peer sends one tuple with an array in
	// it twice.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := bufio.NewReader(nc)
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				return
			}
			var req wire.Request
			if err := wire.DecodeRequest(line, &req); err != nil {
				return
			}
			out := `{"type":"response","id":` + strconv.FormatUint(req.ID, 10) + `,"ok":true}` + "\n"
			if req.Op == wire.OpSubscribe {
				note := `{"type":"notify","rule":"r","relation":"pair","tuple":[12345,[6789],"s"]}` + "\n"
				out += note + note
			}
			if _, err := nc.Write([]byte(out)); err != nil {
				return
			}
		}
	}()
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rnotes, err := rc.Subscribe(false)
	if err != nil {
		t.Fatal(err)
	}
	want = []any{json.Number("12345"), []any{json.Number("6789")}, "s"}
	var nested [2]Notification
	for i := range nested {
		select {
		case nested[i] = <-rnotes:
		case <-time.After(5 * time.Second):
			t.Fatal("no notification from the raw peer")
		}
		if !reflect.DeepEqual(nested[i].Tuple, want) {
			t.Fatalf("raw notification %d: %#v, want %#v", i, nested[i].Tuple, want)
		}
	}
	a, b := nested[0].Tuple, nested[1].Tuple
	if unsafe.StringData(string(a[0].(json.Number))) == unsafe.StringData(string(b[0].(json.Number))) {
		t.Error("a tuple holding an array was not decoded afresh")
	}
	a[1].([]any)[0] = "x"
	if !reflect.DeepEqual(b, want) {
		t.Errorf("a write into one notification's array shows in the next: %#v", b)
	}
}

// TestMatchAllocs is the client's own allocation budget for one Match
// of the benchmark's shape (15 int attributes out, three IDs back),
// against a peer that allocates nothing: the response's ID slice and
// its []pred.ID copy.
func TestMatchAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := bufio.NewReaderSize(nc, 4096)
		out := make([]byte, 0, 256)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			// Echo the id, which follows `{"id":`.
			end := 6 + bytes.IndexByte(line[6:], ',')
			out = append(out[:0], `{"type":"response","id":`...)
			out = append(out, line[6:end]...)
			out = append(out, `,"ok":true,"matches":[1099511627776,1099511627777,1099511627778]}`+"\n"...)
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tup := make(tuple.Tuple, 15)
	for i := range tup {
		tup[i] = value.Int(int64(1000 * i))
	}
	n := testing.AllocsPerRun(500, func() {
		got, err := c.Match("wide", tup)
		if err != nil || len(got) != 3 || got[2] != 1<<40+2 {
			t.Fatalf("match = %v, %v", got, err)
		}
	})
	t.Logf("one Match: %v allocs", n)
	if n > 2 {
		t.Errorf("one Match: %v allocs, want <= 2", n)
	}
}
