// Package repl is the follower side of predmatchd replication: it
// dials the leader, issues the `replicate` op with a resume cursor, and
// feeds the resulting WAL stream — snapshot frames for bootstrap,
// record frames for the live tail — into an Applier (the server's
// ReplApply* methods). The loop reconnects with capped exponential
// backoff on stream loss and resumes from the applier's last applied
// sequence, so a partition costs latency, never correctness.
//
// The package deliberately knows nothing about internal/server or the
// WAL's record and snapshot types: frames carry the leader's logged
// payload bytes, which the Applier decodes and logs unchanged. The
// Applier interface is the entire contract, which keeps the dependency
// direction repl -> wire acyclic and lets tests drive a Follower
// against a scripted leader and an in-memory applier.
package repl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/obs"
	"predmatch/internal/wire"
)

// Applier consumes the replication stream. internal/server.(*Server)
// implements it; ReplApplyRecord must persist the record before
// returning (the applied sequence is the resume cursor, so anything it
// covers must survive a follower crash). Both apply methods take the
// payload exactly as the leader's log stores it.
type Applier interface {
	// ReplAppliedSeq is the last sequence applied and locally durable;
	// the stream resumes after it.
	ReplAppliedSeq() uint64
	// ReplApplySnapshot installs a bootstrap snapshot (only ever sent
	// when the resume cursor predates the leader's pruning horizon).
	ReplApplySnapshot(payload []byte) error
	// ReplApplyRecord applies and persists one record, in sequence order.
	ReplApplyRecord(payload []byte) error
	// ReplSealed reports that the applier stopped accepting the stream
	// for good (promotion); the follower loop exits instead of retrying.
	ReplSealed() bool
}

// Options tunes a Follower; the zero value works.
type Options struct {
	// Dial overrides the leader connection (tests inject failures here);
	// default: net.Dialer with a 5s timeout.
	Dial func(addr string) (net.Conn, error)
	// RetryMin/RetryMax bound the reconnect backoff (default 100ms / 3s).
	RetryMin time.Duration
	RetryMax time.Duration
	// Logger receives stream lifecycle events (default: discard).
	Logger *slog.Logger
	// Registry exports the follower gauges and counters (default: none).
	Registry *obs.Registry
}

// Follower drives one replication stream. Construct with New, run the
// loop with Run (it blocks), stop it with Stop. LeaderSeq and
// Reconnects satisfy server.FollowerInfo for the stats surface.
type Follower struct {
	// leader/app/opt are set by New and immutable afterwards; the Run
	// loop and Stop read them without synchronization.
	leader string
	app    Applier
	opt    Options

	// leaderSeq is the leader's log end as of the last frame received;
	// lag = leaderSeq - applied.
	leaderSeq  atomic.Uint64
	reconnects atomic.Uint64

	// stopOnce makes Stop idempotent; stopped is closed exactly once
	// under it and is otherwise only received from.
	stopOnce sync.Once
	stopped  chan struct{}
	// connMu orders Stop's close of the current stream against the Run
	// loop installing a new one, so a racing Stop can never strand a
	// fresh connection.
	connMu sync.Mutex
	nc     net.Conn // guarded-by: connMu (current stream, closed by Stop)
}

// New builds a Follower replicating from the leader address into app.
func New(leader string, app Applier, opt Options) *Follower {
	if opt.Dial == nil {
		opt.Dial = func(addr string) (net.Conn, error) {
			return (&net.Dialer{Timeout: 5 * time.Second}).Dial("tcp", addr)
		}
	}
	if opt.RetryMin <= 0 {
		opt.RetryMin = 100 * time.Millisecond
	}
	if opt.RetryMax < opt.RetryMin {
		opt.RetryMax = 3 * time.Second
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard,
			&slog.HandlerOptions{Level: slog.Level(127)}))
	}
	f := &Follower{leader: leader, app: app, opt: opt, stopped: make(chan struct{})}
	if reg := opt.Registry; reg != nil {
		reg.GaugeFunc("predmatch_repl_lag_seq",
			"Sequences the follower trails the leader by (leader log end minus applied).",
			func() float64 {
				if ls, as := f.leaderSeq.Load(), f.app.ReplAppliedSeq(); ls > as {
					return float64(ls - as)
				}
				return 0
			})
		reg.GaugeFunc("predmatch_repl_applied_seq",
			"Last replicated sequence applied locally.",
			func() float64 { return float64(f.app.ReplAppliedSeq()) })
		reg.CounterFunc("predmatch_repl_reconnects_total",
			"Replication stream re-establishments after a loss.",
			f.reconnects.Load)
	}
	return f
}

// LeaderSeq is the leader's log end as of the last stream frame (0
// before the first).
func (f *Follower) LeaderSeq() uint64 { return f.leaderSeq.Load() }

// Reconnects counts stream re-establishments after the initial connect.
func (f *Follower) Reconnects() uint64 { return f.reconnects.Load() }

// Stop terminates the loop: Run returns nil after the in-flight record
// finishes applying. Safe to call more than once and concurrently with
// Promote-driven sealing.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stopped) })
	f.connMu.Lock()
	if f.nc != nil {
		f.nc.Close()
	}
	f.connMu.Unlock()
}

// fatalError marks a stream error that retrying cannot fix (the applier
// rejected the stream); Run surfaces it instead of reconnecting.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// Run drives the replicate-apply-reconnect loop until Stop, promotion
// (nil), or a fatal apply error (returned). Stream and dial failures
// are retried with backoff forever — a follower's job during a leader
// outage is to keep serving reads and keep trying.
func (f *Follower) Run() error {
	backoff := f.opt.RetryMin
	for attempt := 0; ; attempt++ {
		select {
		case <-f.stopped:
			return nil
		default:
		}
		err := f.streamOnce()
		if f.app.ReplSealed() {
			f.opt.Logger.Info("replication sealed, follower loop exiting",
				"applied", f.app.ReplAppliedSeq())
			return nil
		}
		select {
		case <-f.stopped:
			return nil
		default:
		}
		var fe *fatalError
		if errors.As(err, &fe) {
			f.opt.Logger.Error("replication failed permanently", "err", fe.err)
			return fe.err
		}
		if attempt > 0 || err != nil {
			f.reconnects.Add(1)
		}
		f.opt.Logger.Warn("replication stream lost, retrying",
			"leader", f.leader, "applied", f.app.ReplAppliedSeq(),
			"backoff", backoff, "err", err)
		select {
		case <-time.After(backoff):
		case <-f.stopped:
			return nil
		}
		if backoff *= 2; backoff > f.opt.RetryMax {
			backoff = f.opt.RetryMax
		}
	}
}

// streamOnce runs one connection's lifetime: dial, subscribe with the
// resume cursor, apply frames until the stream breaks. A nil return
// means a clean shutdown (Stop closed the socket); stream errors are
// retryable unless wrapped fatal.
func (f *Follower) streamOnce() error {
	nc, err := f.opt.Dial(f.leader)
	if err != nil {
		return err
	}
	f.connMu.Lock()
	select {
	case <-f.stopped:
		f.connMu.Unlock()
		nc.Close()
		return nil
	default:
	}
	f.nc = nc
	f.connMu.Unlock()
	defer func() {
		f.connMu.Lock()
		f.nc = nil
		f.connMu.Unlock()
		nc.Close()
	}()

	from := f.app.ReplAppliedSeq()
	frame, err := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpReplicate, FromSeq: from})
	if err == nil {
		_, err = nc.Write(frame)
	}
	if err != nil {
		return fmt.Errorf("send replicate: %w", err)
	}
	f.opt.Logger.Info("replication stream opened", "leader", f.leader, "from_seq", from)

	lr := wire.NewLineReader(nc, wire.MaxReplFrameBytes)
	for {
		raw, err := lr.Next()
		if err == io.EOF {
			return errors.New("leader closed the stream")
		}
		if err != nil {
			return err
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		var m wire.Message
		if err := wire.DecodeMessage(line, &m); err != nil {
			return fmt.Errorf("bad stream frame: %w", err)
		}
		switch m.Type {
		case wire.TypeResponse:
			// The replicate ack (possibly arriving after the first frames).
			if m.Error != "" {
				return fmt.Errorf("leader refused replication: %s", m.Error)
			}
			if m.WalSeq > f.leaderSeq.Load() {
				f.leaderSeq.Store(m.WalSeq)
			}
		case wire.TypeRepl:
			if err := f.applyFrame(&m); err != nil {
				return err
			}
		case wire.TypeNotify:
			// A replication connection never subscribes; tolerate and drop.
		default:
			return fmt.Errorf("unexpected frame type %q on replication stream", m.Type)
		}
	}
}

// applyFrame hands one repl frame's payload to the applier. Apply
// errors, a payload that does not decode among them, are fatal:
// retrying replays the same bytes into the same refusal.
func (f *Follower) applyFrame(m *wire.Message) error {
	if m.LeaderSeq > f.leaderSeq.Load() {
		f.leaderSeq.Store(m.LeaderSeq)
	}
	switch {
	case len(m.Snap) > 0:
		if err := f.app.ReplApplySnapshot(m.Snap); err != nil {
			return &fatalError{err}
		}
		f.opt.Logger.Info("bootstrap snapshot installed", "seq", f.app.ReplAppliedSeq())
	case len(m.Rec) > 0:
		if err := f.app.ReplApplyRecord(m.Rec); err != nil {
			return &fatalError{err}
		}
	default:
		return errors.New("repl frame carries neither snapshot nor record")
	}
	return nil
}
