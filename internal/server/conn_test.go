package server_test

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"predmatch/internal/server"
	"predmatch/internal/trace"
	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// send writes reqs in one write.
func (rc *rawConn) send(reqs ...*wire.Request) {
	rc.t.Helper()
	var burst []byte
	for _, req := range reqs {
		var err error
		if burst, err = wire.AppendRequest(burst, req); err != nil {
			rc.t.Fatal(err)
		}
	}
	if _, err := rc.nc.Write(burst); err != nil {
		rc.t.Fatal(err)
	}
}

// next reads the next frame the server sent.
func (rc *rawConn) next() wire.Message {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := rc.r.ReadBytes('\n')
	if err != nil {
		rc.t.Fatal(err)
	}
	var m wire.Message
	if err := wire.DecodeMessage(bytes.TrimSpace(line), &m); err != nil {
		rc.t.Fatalf("frame %q: %v", line, err)
	}
	return m
}

var goroutineCount = regexp.MustCompile(`(?m)^(\d+) @`)

// connGoroutines counts the goroutines that s runs for its connections:
// those carrying s's server label (the one the leak check uses) with a
// frame in a conn method or in the replication streamer. streamers
// counts the latter alone.
func connGoroutines(s *server.Server) (all, streamers int) {
	id, _ := serverIDs.Load(s)
	label := fmt.Sprintf("%q:%q", serverLabel, id)
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 1)
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		stream := strings.Contains(rec, "server.(*Server).streamLog")
		if !strings.Contains(rec, label) || !stream && !strings.Contains(rec, "server.(*conn)") {
			continue
		}
		m := goroutineCount.FindStringSubmatch(rec)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		all += n
		if stream {
			streamers += n
		}
	}
	return all, streamers
}

// waitGoroutines waits until s runs all connection goroutines, streamers
// of them, and fails the test if that does not happen within a few
// seconds.
func waitGoroutines(t *testing.T, s *server.Server, what string, all, streamers int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		gotAll, gotStreamers := connGoroutines(s)
		if gotAll == all && gotStreamers == streamers {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d connection goroutines (%d streaming), want %d (%d)",
				what, gotAll, gotStreamers, all, streamers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerConnGoroutines: a connection runs one goroutine, its
// reader, until it has something asynchronous to send. A subscribe adds
// the notifier, a replicate the log streamer, and nothing else.
func TestServerConnGoroutines(t *testing.T) {
	s, addr, stop := startDurable(t, server.Config{DataDir: t.TempDir()})
	defer stop()

	rc := dialRaw(t, addr)
	rc.mustOK(wire.Request{Op: wire.OpPing})
	waitGoroutines(t, s, "idle connection", 1, 0)
	rc.mustOK(wire.Request{Op: wire.OpSubscribe})
	waitGoroutines(t, s, "subscribed connection", 2, 0)
	rc.nc.Close()
	waitGoroutines(t, s, "after close", 0, 0)

	dialRaw(t, addr).mustOK(wire.Request{Op: wire.OpReplicate})
	waitGoroutines(t, s, "replication connection", 2, 1)
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// totalAlloc is every byte the process has allocated so far.
func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// TestServerConnMemory: a connection holds no notification queue until
// it subscribes. An idle connection and a dial rejected at the
// connection limit each cost a few KiB, not a queue of QueueLen
// notifications (1,024 by default, 344 B each), and stats reports
// queue capacity 0 for a connection that never subscribed, a
// replication stream among them, and QueueLen from its first subscribe
// to its close.
func TestServerConnMemory(t *testing.T) {
	const n, budget = 50, 64 << 10
	t.Run("idle", func(t *testing.T) {
		_, addr, stop := startServer(t, server.Config{})
		defer stop()
		before := liveHeap()
		conns := make([]*rawConn, n)
		for i := range conns {
			conns[i] = dialRaw(t, addr)
			conns[i].mustOK(wire.Request{Op: wire.OpPing})
		}
		per := (liveHeap() - before) / n
		t.Logf("an idle connection holds %d B of heap", per)
		if per >= budget {
			t.Fatalf("%d idle connections hold %d B of heap each, want < %d", n, per, budget)
		}
		runtime.KeepAlive(conns)
	})
	t.Run("rejected", func(t *testing.T) {
		_, addr, stop := startServer(t, server.Config{MaxConns: 1})
		defer stop()
		dialRaw(t, addr).mustOK(wire.Request{Op: wire.OpPing})
		before := totalAlloc()
		for i := 0; i < n; i++ {
			rc := dialRaw(t, addr)
			if m := rc.next(); !strings.Contains(m.Error, "connection limit") {
				t.Fatalf("dial %d past MaxConns=1 answered %+v", i, m)
			}
			rc.nc.Close()
		}
		per := (totalAlloc() - before) / n
		t.Logf("a rejected dial allocates %d B", per)
		if per >= budget {
			t.Fatalf("%d rejected dials allocate %d B each, want < %d", n, per, budget)
		}
	})
	t.Run("queue_cap", func(t *testing.T) {
		const queueLen = 16
		_, addr, stop := startDurable(t, server.Config{DataDir: t.TempDir(), QueueLen: queueLen})
		defer stop()
		idle, replica, sub := dialRaw(t, addr), dialRaw(t, addr), dialRaw(t, addr)
		idle.mustOK(wire.Request{Op: wire.OpPing})
		replica.mustOK(wire.Request{Op: wire.OpReplicate})
		sub.mustOK(wire.Request{Op: wire.OpPing})
		check := func(when string, subCap int) {
			t.Helper()
			want := map[string]int{
				idle.nc.LocalAddr().String():    0,
				replica.nc.LocalAddr().String(): 0,
				sub.nc.LocalAddr().String():     subCap,
			}
			got := map[string]int{}
			for _, cs := range idle.mustOK(wire.Request{Op: wire.OpStats}).Stats.Connections {
				got[cs.Remote] = cs.QueueCap
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: queue_cap by connection %v, want %v", when, got, want)
			}
		}
		check("before subscribe", 0)
		sub.mustOK(wire.Request{Op: wire.OpSubscribe})
		check("subscribed", queueLen)
		sub.mustOK(wire.Request{Op: wire.OpUnsubscribe})
		check("unsubscribed", queueLen)
	})
}

// TestServerPipelinedSubscribeOrder: one burst that subscribes and then
// fires the rule gets its responses in request order, its notifications
// in sequence order, and exactly as many notifications as the acks
// report firings. Notifications may come between responses anywhere.
func TestServerPipelinedSubscribeOrder(t *testing.T) {
	_, addr, stop := startServer(t, server.Config{})
	defer stop()
	rc := dialRaw(t, addr)
	insert := func(id uint64, salary int64) *wire.Request {
		return &wire.Request{ID: id, Op: wire.OpInsert, Relation: "emp",
			Tuple: wire.Tuple{value.String_("ada"), value.Int(salary)}}
	}
	rc.send(
		&wire.Request{ID: 1, Op: wire.OpDeclare, Relation: "emp",
			Attrs: []wire.Attr{{Name: "name", Type: "string"}, {Name: "salary", Type: "int"}}},
		&wire.Request{ID: 2, Op: wire.OpRule, Source: "rule big on insert to emp when salary > 10 do log 'x'"},
		&wire.Request{ID: 3, Op: wire.OpSubscribe},
		insert(4, 100),
		insert(5, 200),
		&wire.Request{ID: 6, Op: wire.OpPing},
	)
	var (
		nextID  uint64 = 1
		firings int
		seqs    []uint64
	)
	for nextID <= 6 || len(seqs) < firings {
		m := rc.next()
		switch m.Type {
		case wire.TypeResponse:
			if m.ID != nextID || m.Error != "" {
				t.Fatalf("response %+v, want the ok response to request %d", m, nextID)
			}
			firings += m.Firings
			nextID++
		case wire.TypeNotify:
			if n := len(seqs); n > 0 && m.Seq <= seqs[n-1] {
				t.Fatalf("notification seq %d after %d", m.Seq, seqs[n-1])
			}
			seqs = append(seqs, m.Seq)
		default:
			t.Fatalf("unexpected frame %+v", m)
		}
	}
	if firings != 2 {
		t.Fatalf("the inserts report %d firings, want 2", firings)
	}
	// The unsubscribe ack reports every notification generated: none
	// beyond those already received.
	rc.send(&wire.Request{ID: 7, Op: wire.OpUnsubscribe})
	if m := rc.next(); m.ID != 7 || m.Seq != uint64(len(seqs)) || m.Dropped != 0 {
		t.Fatalf("unsubscribe reports seq %d, dropped %d; received %d notifications %v",
			m.Seq, m.Dropped, len(seqs), seqs)
	}
}

// recordHandler is a slog.Handler that keeps every record it is given.
type recordHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordHandler) WithGroup(string) slog.Handler            { return h }

func (h *recordHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r.Clone())
	h.mu.Unlock()
	return nil
}

// attrs returns the attributes of the records with message msg.
func (h *recordHandler) attrs(msg string) []map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []map[string]string
	for _, r := range h.recs {
		if r.Message != msg {
			continue
		}
		attrs := map[string]string{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.String()
			return true
		})
		out = append(out, attrs)
	}
	return out
}

// TestServerSlowRequest: the tracer's Slow threshold is the server's
// slow-request threshold. A request past it is logged, and the trace
// id on the log line names a trace the tracer's slow ring holds.
func TestServerSlowRequest(t *testing.T) {
	h := &recordHandler{}
	tr := trace.New(trace.Config{Slow: time.Nanosecond})
	_, addr, stop := startServer(t, server.Config{Tracer: tr, Logger: slog.New(h)})
	defer stop()
	dialRaw(t, addr).mustOK(wire.Request{Op: wire.OpPing})

	logged := h.attrs("slow request")
	if len(logged) != 1 || logged[0]["op"] != wire.OpPing || logged[0]["trace_id"] == "" {
		t.Fatalf("slow request log lines %v, want one for the ping with a trace id", logged)
	}
	for _, slow := range tr.SlowTraces() {
		if slow.ID == logged[0]["trace_id"] {
			return
		}
	}
	t.Fatalf("trace %s is not in the slow ring", logged[0]["trace_id"])
}
