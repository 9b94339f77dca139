package server

import (
	"strings"
	"testing"

	"predmatch/internal/engine"
	"predmatch/internal/storage"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// subscribe subscribes c through dispatch, where its queue is made, and
// returns the subscription.
func subscribe(t *testing.T, c *conn, req *wire.Request) *subscription {
	t.Helper()
	req.Op = wire.OpSubscribe
	if m := c.s.dispatch(c, req, nil); !m.OK {
		t.Fatalf("subscribe: %+v", m)
	}
	return c.s.subs[c] //predmatchvet:ignore guardedby single-goroutine test, nothing else sees s
}

// TestServerOverflowPolicy pins the drop-newest overflow contract at
// the fanout layer, without sockets: a sequence number is assigned to
// every generated notification, drops are counted per subscription and
// globally, and what stays queued is the oldest prefix.
func TestServerOverflowPolicy(t *testing.T) {
	s := New(Config{QueueLen: 2})
	c := &conn{s: s}
	sub := subscribe(t, c, &wire.Request{})

	for i := 1; i <= 5; i++ {
		s.onFire(engine.FiringEvent{
			Rule:    "r",
			Rel:     "emp",
			Op:      storage.OpInsert,
			TupleID: tuple.ID(i),
			Tuple:   tuple.New(value.Int(int64(i))),
		})
	}
	if sub.seq != 5 {
		t.Fatalf("seq = %d, want 5 (every generated notification numbered)", sub.seq)
	}
	if sub.drops != 3 {
		t.Fatalf("drops = %d, want 3", sub.drops)
	}
	if got := s.dropped.Load(); got != 3 {
		t.Fatalf("global dropped = %d, want 3", got)
	}
	if len(c.notes) != 2 {
		t.Fatalf("queued = %d, want 2", len(c.notes))
	}
	// Drop-newest: the two oldest survive, stamped with the drop count
	// at generation time (0 — nothing had been dropped yet).
	for want := uint64(1); want <= 2; want++ {
		m := <-c.notes
		if m.Seq != want || m.Dropped != 0 || m.EventID != int64(want) {
			t.Fatalf("queued notification = %+v, want seq %d", m, want)
		}
	}

	// A filtered subscription never even generates a sequence number
	// for rules outside its filter.
	s.dispatch(c, &wire.Request{Op: wire.OpUnsubscribe}, nil)
	filtered := subscribe(t, c, &wire.Request{Rules: []string{"other"}})
	s.onFire(engine.FiringEvent{Rule: "r", Rel: "emp", Op: storage.OpInsert})
	if filtered.seq != 0 {
		t.Fatalf("filtered seq = %d, want 0", filtered.seq)
	}
	s.onFire(engine.FiringEvent{Rule: "other", Rel: "emp", Op: storage.OpInsert})
	if filtered.seq != 1 || filtered.drops != 0 {
		t.Fatalf("filtered sub = %+v", filtered)
	}
}

// TestQueuedNotificationKeepsFiringImage pins "stored tuple images are
// immutable" (docs/INVARIANTS.md) where the serving layer leans on it:
// a notification shares the stored row instead of copying it, so a row
// updated while its firing still sits in the queue must leave the queued
// frame carrying the image at firing time.
func TestQueuedNotificationKeepsFiringImage(t *testing.T) {
	s := New(Config{})
	c := &conn{s: s}
	do := func(req *wire.Request) wire.Message {
		t.Helper()
		m := s.dispatch(c, req, nil)
		if m.Error != "" {
			t.Fatalf("%s: %s", req.Op, m.Error)
		}
		return m
	}
	do(&wire.Request{Op: wire.OpDeclare, Relation: "emp",
		Attrs: []wire.Attr{{Name: "name", Type: "string"}, {Name: "salary", Type: "int"}}})
	do(&wire.Request{Op: wire.OpRule, Source: "rule any on insert, update to emp when salary > 0 do log 'x'"})
	do(&wire.Request{Op: wire.OpSubscribe})

	row := do(&wire.Request{Op: wire.OpInsert, Relation: "emp",
		Tuple: wire.Tuple{value.String_("ada"), value.Int(100)}})
	do(&wire.Request{Op: wire.OpUpdate, Relation: "emp", TupleID: row.TupleID,
		Tuple: wire.Tuple{value.String_("eve"), value.Int(200)}})
	do(&wire.Request{Op: wire.OpDelete, Relation: "emp", TupleID: row.TupleID})

	for _, want := range []string{`"tuple":["ada",100]`, `"tuple":["eve",200]`} {
		m := <-c.notes
		frame, err := wire.AppendMessage(nil, &m)
		if err != nil || !strings.Contains(string(frame), want) {
			t.Fatalf("queued frame %s (%v), want it to carry %s", frame, err, want)
		}
	}
}
