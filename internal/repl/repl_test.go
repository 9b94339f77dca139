package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"predmatch/internal/wire"
)

// fakeApplier records the stream in memory and mimics the server's
// durability contract (applied advances only after a record lands).
type fakeApplier struct {
	mu      sync.Mutex
	applied uint64
	recs    []uint64
	snaps   []uint64
	failAt  uint64 // ReplApplyRecord fails on this seq (0 = never)
	sealed  bool
}

func (a *fakeApplier) ReplAppliedSeq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// payloadSeq reads the sequence out of a record or snapshot payload.
func payloadSeq(payload []byte) (uint64, error) {
	var v struct {
		Seq uint64 `json:"seq"`
	}
	err := json.Unmarshal(payload, &v)
	return v.Seq, err
}

func (a *fakeApplier) ReplApplySnapshot(payload []byte) error {
	seq, err := payloadSeq(payload)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snaps = append(a.snaps, seq)
	a.applied = seq
	return nil
}

func (a *fakeApplier) ReplApplyRecord(payload []byte) error {
	seq, err := payloadSeq(payload)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failAt != 0 && seq == a.failAt {
		return fmt.Errorf("refusing seq %d", seq)
	}
	if seq != a.applied+1 {
		return fmt.Errorf("gap: applied %d, got %d", a.applied, seq)
	}
	a.recs = append(a.recs, seq)
	a.applied = seq
	return nil
}

func (a *fakeApplier) ReplSealed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sealed
}

func (a *fakeApplier) seal() {
	a.mu.Lock()
	a.sealed = true
	a.mu.Unlock()
}

// fakeLeader accepts replication connections and hands each to serve
// along with the follower's requested resume cursor.
func fakeLeader(t *testing.T, serve func(accept int, fromSeq uint64, nc net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for accept := 0; ; accept++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			var req wire.Request
			if err := json.NewDecoder(nc).Decode(&req); err != nil || req.Op != wire.OpReplicate {
				nc.Close()
				continue
			}
			serve(accept, req.FromSeq, nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func recFrame(t *testing.T, seq, leaderSeq uint64) wire.Message {
	t.Helper()
	raw := fmt.Appendf(nil, `{"seq":%d,"kind":"declare","relation":"emp"}`, seq)
	return wire.Message{Type: wire.TypeRepl, Rec: raw, LeaderSeq: leaderSeq}
}

func snapFrame(t *testing.T, seq, leaderSeq uint64) wire.Message {
	t.Helper()
	raw := fmt.Appendf(nil, `{"version":1,"seq":%d,"relations":null}`, seq)
	return wire.Message{Type: wire.TypeRepl, Snap: raw, LeaderSeq: leaderSeq}
}

func waitApplied(t *testing.T, a *fakeApplier, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.ReplAppliedSeq() < want {
		if time.Now().After(deadline) {
			t.Fatalf("applied stuck at %d, want %d", a.ReplAppliedSeq(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fastOptions() Options {
	return Options{RetryMin: 5 * time.Millisecond, RetryMax: 20 * time.Millisecond}
}

// The follower must survive a mid-stream connection loss and resume
// from its applied cursor, not from scratch.
func TestFollowerResumesAfterStreamLoss(t *testing.T) {
	app := &fakeApplier{}
	ln := fakeLeader(t, func(accept int, fromSeq uint64, nc net.Conn) {
		defer nc.Close()
		enc := json.NewEncoder(nc)
		enc.Encode(wire.Message{Type: wire.TypeResponse, ID: 1, OK: true, WalSeq: 8})
		switch accept {
		case 0:
			if fromSeq != 0 {
				t.Errorf("first connect resumed from %d", fromSeq)
			}
			for seq := uint64(1); seq <= 5; seq++ {
				enc.Encode(recFrame(t, seq, 8))
			}
			// Drop the connection with the tail unsent.
		default:
			if fromSeq != 5 {
				t.Errorf("reconnect resumed from %d, want 5", fromSeq)
			}
			for seq := fromSeq + 1; seq <= 8; seq++ {
				enc.Encode(recFrame(t, seq, 8))
			}
			// Keep the stream open until the follower stops.
			var buf [1]byte
			nc.Read(buf[:])
		}
	})

	f := New(ln.Addr().String(), app, fastOptions())
	done := make(chan error, 1)
	go func() { done <- f.Run() }()
	waitApplied(t, app, 8)
	if f.Reconnects() == 0 {
		t.Error("reconnect counter did not advance")
	}
	if f.LeaderSeq() != 8 {
		t.Errorf("LeaderSeq = %d, want 8", f.LeaderSeq())
	}
	f.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	app.mu.Lock()
	defer app.mu.Unlock()
	for i, seq := range app.recs {
		if seq != uint64(i+1) {
			t.Fatalf("applied sequence %d at position %d", seq, i)
		}
	}
	if len(app.recs) != 8 {
		t.Fatalf("applied %d records, want 8", len(app.recs))
	}
}

// A follower whose cursor predates the leader's log receives a
// snapshot frame first, then the record tail.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	app := &fakeApplier{}
	ln := fakeLeader(t, func(accept int, fromSeq uint64, nc net.Conn) {
		defer nc.Close()
		enc := json.NewEncoder(nc)
		enc.Encode(wire.Message{Type: wire.TypeResponse, ID: 1, OK: true, WalSeq: 12})
		enc.Encode(snapFrame(t, 10, 12))
		enc.Encode(recFrame(t, 11, 12))
		enc.Encode(recFrame(t, 12, 12))
		var buf [1]byte
		nc.Read(buf[:])
	})

	f := New(ln.Addr().String(), app, fastOptions())
	done := make(chan error, 1)
	go func() { done <- f.Run() }()
	waitApplied(t, app, 12)
	f.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	app.mu.Lock()
	defer app.mu.Unlock()
	if len(app.snaps) != 1 || app.snaps[0] != 10 {
		t.Fatalf("snapshots installed: %v, want [10]", app.snaps)
	}
	if len(app.recs) != 2 || app.recs[0] != 11 || app.recs[1] != 12 {
		t.Fatalf("records applied: %v, want [11 12]", app.recs)
	}
}

// An apply refusal is fatal: re-dialing would replay the same record
// into the same refusal, so Run must surface it instead of spinning.
func TestFollowerFatalApplyError(t *testing.T) {
	app := &fakeApplier{failAt: 2}
	ln := fakeLeader(t, func(accept int, fromSeq uint64, nc net.Conn) {
		defer nc.Close()
		enc := json.NewEncoder(nc)
		enc.Encode(wire.Message{Type: wire.TypeResponse, ID: 1, OK: true, WalSeq: 3})
		for seq := fromSeq + 1; seq <= 3; seq++ {
			enc.Encode(recFrame(t, seq, 3))
		}
		var buf [1]byte
		nc.Read(buf[:])
	})

	f := New(ln.Addr().String(), app, fastOptions())
	defer f.Stop()
	errc := make(chan error, 1)
	go func() { errc <- f.Run() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Run returned nil after a fatal apply error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run kept retrying a fatal apply error")
	}
}

// Sealing (promotion) ends the loop cleanly even while the leader is
// unreachable and the follower is mid-backoff.
func TestFollowerSealedExitsCleanly(t *testing.T) {
	app := &fakeApplier{}
	// A leader that refuses every stream keeps the follower in its retry
	// loop.
	ln := fakeLeader(t, func(accept int, fromSeq uint64, nc net.Conn) {
		json.NewEncoder(nc).Encode(wire.Message{
			Type: wire.TypeResponse, ID: 1, Error: "not now",
		})
		nc.Close()
	})

	f := New(ln.Addr().String(), app, fastOptions())
	done := make(chan error, 1)
	go func() { done <- f.Run() }()
	time.Sleep(30 * time.Millisecond)
	app.seal()
	f.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after sealing: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit after sealing")
	}
}

// A dead leader address must keep the loop retrying, not failing.
func TestFollowerRetriesDial(t *testing.T) {
	app := &fakeApplier{}
	// Grab a port and close it so dials fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opts := fastOptions()
	opts.Dial = func(a string) (net.Conn, error) {
		return nil, errors.New("synthetic dial failure")
	}
	f := New(addr, app, opts)
	done := make(chan error, 1)
	go func() { done <- f.Run() }()
	deadline := time.Now().Add(5 * time.Second)
	for f.Reconnects() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d retries", f.Reconnects())
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
