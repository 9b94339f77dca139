// Package server implements predmatchd, the network rule-service
// daemon: a TCP server that owns a storage.DB, a forward-chaining rule
// engine and a shard.ShardedMatcher, and speaks the newline-delimited
// JSON protocol of internal/wire (see docs/PROTOCOL.md).
//
// The paper's predicate index exists to serve a database rule system —
// external clients register predicates and rules and are told when
// tuples match. This package is that serving layer:
//
//   - Mutations (insert/update/delete) and DDL (declare, rule, addpred)
//     are serialized through one server mutex, because the engine's
//     cascade execution is single-threaded by design.
//   - match/matchbatch requests bypass the mutex entirely and stab the
//     sharded matcher's lock-free snapshots, so read traffic scales
//     across connections regardless of write load.
//   - Each connection runs one goroutine, its reader, which executes
//     requests and writes their responses itself, once per drained read
//     buffer. A subscribe adds a notifier goroutine and a replicate a
//     streamer; the three share one write lock on the socket.
//   - Subscriptions stream rule firings (via the engine's OnFire hook)
//     and predicate matches to clients. Every connection has a bounded
//     notification queue with a drop-newest overflow policy: a slow
//     consumer loses notifications (counted, and visible to the client
//     as sequence-number gaps) but can never block the match path.
//
// Robustness contract: per-write deadlines, an idle read timeout
// for unsubscribed connections, a connection limit that rejects rather
// than queues, and context-driven graceful shutdown that drains
// in-flight requests and queued notifications.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/core"
	"predmatch/internal/engine"
	"predmatch/internal/ibs"
	"predmatch/internal/obs"
	"predmatch/internal/pred"
	"predmatch/internal/shard"
	"predmatch/internal/storage"
	"predmatch/internal/trace"
	"predmatch/internal/tuple"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// DirectPredBase is the first predicate ID handed to addpred requests.
// The engine allocates rule-predicate IDs counting up from 1; direct
// client predicates live in their own high range so the two allocators
// never collide.
const DirectPredBase pred.ID = 1 << 40

// Config tunes a Server. The zero value picks the documented defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (default :7341).
	Addr string
	// MaxConns bounds concurrent client connections; further dials are
	// rejected with an error frame (default 128).
	MaxConns int
	// QueueLen is the per-connection notification queue capacity; when
	// full, new notifications for that connection are dropped and
	// counted (default 1024).
	QueueLen int
	// WriteTimeout bounds writing one frame to a client; a missed
	// deadline tears the connection down (default 10s).
	WriteTimeout time.Duration
	// IdleTimeout closes connections with no active subscription or
	// replication stream that send no request for this long (default
	// 0 = never).
	IdleTimeout time.Duration
	// Registry receives the daemon's metrics and turns on hot-path
	// instrumentation down through the matcher and the IBS-trees
	// (default nil = fully uninstrumented; see internal/obs).
	Registry *obs.Registry
	// Logger receives structured lifecycle events: connection
	// accept/reject/close and read/write errors (debug), slow requests,
	// shutdown phases (default: discard).
	Logger *slog.Logger
	// DataDir enables durability: state-changing requests are written to
	// a write-ahead log in this directory before they are acked, and Open
	// recovers the directory's snapshot + log on start (default "" =
	// fully in-memory, the pre-durability behavior).
	DataDir string
	// Sync is the WAL fsync policy: always, interval or off (default
	// always). Ignored without DataDir.
	Sync wal.SyncPolicy
	// SyncEvery is the fsync period under the interval policy.
	SyncEvery time.Duration
	// WALSegmentBytes is the log segment rotation size (default 64 MiB).
	WALSegmentBytes int64
	// SnapshotEvery checkpoints the full state on this period (default
	// 0 = only on shutdown and on explicit backup requests).
	SnapshotEvery time.Duration
	// Index names each relation shard's attribute index structure, one
	// of internal/strategy's IndexNames: "ibs", the paper's IBS-trees
	// (the default for ""), or "hint". Open rejects any other name. A
	// structure other than ibs shows in the matcher's reported name:
	// "sharded-hint" rather than "sharded".
	Index string
	// FollowerOf starts the server as a replication follower of the
	// leader at this address: mutations and DDL are rejected with a
	// redirect, and state arrives by applying the leader's WAL stream
	// (default "" = leader). Requires DataDir. The server only gates
	// requests by role; the stream itself is driven by an attached
	// internal/repl.Follower (see AttachFollower).
	FollowerOf string
	// MinSeqWait bounds how long a follower read carrying min_seq waits
	// for replication to catch up before failing with a leader redirect
	// (default 2s).
	MinSeqWait time.Duration
	// Tracer enables request-scoped tracing: requests carrying a trace
	// context (Request.Trace) and head-sampled requests are traced
	// through dispatch, matching, the firing cascade and the WAL, and
	// recorded in the tracer's flight recorder (default nil = tracing
	// off; a nil tracer's methods are no-ops, so the request path pays
	// only nil checks).
	Tracer *trace.Tracer
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = ":7341"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 128
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.Index == "" {
		c.Index = "ibs"
	}
	if c.Logger == nil {
		// A handler whose level no record reaches: Enabled() fails before
		// any attribute is assembled, so the default logger costs nothing.
		c.Logger = slog.New(slog.NewTextHandler(io.Discard,
			&slog.HandlerOptions{Level: slog.Level(127)}))
	}
	if c.Sync == "" {
		c.Sync = wal.SyncAlways
	}
	if c.MinSeqWait <= 0 {
		c.MinSeqWait = 2 * time.Second
	}
}

// Server is one rule-service daemon instance. Construct with New, drive
// with ListenAndServe or Serve, stop with Shutdown or Close.
type Server struct {
	cfg   Config
	db    *storage.DB
	funcs *pred.Registry
	sm    *shard.ShardedMatcher
	eng   *engine.Engine

	// mu serializes mutations and DDL through the engine. The match
	// path never takes it.
	mu sync.Mutex
	// firings counts rule activations of the mutation currently being
	// executed under mu.
	firings int // guarded-by: mu
	// pending accumulates the storage events applied by the mutation
	// currently executing, captured by onEventWAL for its log record.
	pending []wal.Event // guarded-by: mu
	// mutRec is the record logPending fills for each mutation and hands
	// to the log, which is done with it when Append returns.
	mutRec wal.Record // guarded-by: mu
	// directPreds tracks client-registered predicates in wire form, for
	// checkpoint snapshots.
	directPreds map[int64]*wire.Predicate // guarded-by: mu
	// nextPredID allocates direct (addpred) predicate IDs. Writers hold
	// mu; reads are lock-free.
	nextPredID atomic.Int64

	// wal is the durability log; nil without Config.DataDir. The handle
	// is set once before Serve and never changes; the Log is internally
	// synchronized.
	wal      *wal.Log
	recovery wal.RecoveryInfo
	// snapMu serializes checkpoints (the timer vs. backup requests).
	snapMu       sync.Mutex
	walOnce      sync.Once
	snapLoopDone chan struct{}

	// isFollower is the replication role: true while the server rejects
	// mutations and applies the leader's stream; Promote flips it off.
	isFollower atomic.Bool
	// applied is the follower's read frontier: the last replicated
	// sequence applied and locally durable. Leaders use the log end
	// instead (see appliedSeq).
	applied atomic.Uint64
	// appliedMu guards the appliedWait broadcast channel, which is
	// closed and replaced each time applied advances (min_seq waiters).
	appliedMu   sync.Mutex
	appliedWait chan struct{} // guarded-by: appliedMu
	// replMu guards the attached replication controller handles.
	replMu     sync.Mutex
	follower   FollowerInfo // guarded-by: replMu
	stopFollow func()       // guarded-by: replMu

	lnMu sync.Mutex
	ln   net.Listener // guarded-by: lnMu

	// done is closed exactly once by Close (via closeOnce) and is
	// otherwise only received from; wg tracks per-connection and
	// streamer goroutines so Close can wait them out.
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	connMu sync.Mutex
	conns  map[*conn]struct{} // guarded-by: connMu

	subMu sync.Mutex
	subs  map[*conn]*subscription // guarded-by: subMu

	delivered atomic.Uint64
	dropped   atomic.Uint64

	// met holds the request-path metric handles; nil when cfg.Registry
	// is nil, which compiles the instrumentation down to nil checks.
	met *serverMetrics
}

// subscription is one connection's notification filter and counters,
// all guarded by Server.subMu.
type subscription struct {
	rules map[string]bool // nil = every rule
	preds bool            // also stream direct-predicate matches
	seq   uint64          // notifications generated (delivered + dropped)
	drops uint64          // notifications dropped by the overflow policy
}

// New builds a daemon with an empty database, the built-in function
// registry and a sharded matcher. For a durable daemon (Config.DataDir
// set) or a configured Config.Index use Open, which can report
// recovery and unknown-index errors; New panics on them.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v (use Open to handle recovery errors)", err))
	}
	return s
}

// newServer assembles the in-memory daemon; Open layers recovery and
// the WAL on top. cfg must already be filled, and idxOpts are the core
// options strategy.CoreOptions resolved for cfg.Index.
func newServer(cfg Config, idxOpts []core.Option) *Server {
	s := &Server{
		cfg:         cfg,
		db:          storage.NewDB(),
		funcs:       pred.NewRegistry(),
		done:        make(chan struct{}),
		conns:       make(map[*conn]struct{}),
		subs:        make(map[*conn]*subscription),
		directPreds: make(map[int64]*wire.Predicate),
		appliedWait: make(chan struct{}),
	}
	s.nextPredID.Store(int64(DirectPredBase))
	if cfg.FollowerOf != "" {
		s.isFollower.Store(true)
	}
	if cfg.DataDir != "" {
		// The WAL capture observer must be registered before the engine's:
		// the notify chain aborts at the first observer error (a rule
		// raise), and the log must still see every event applied before
		// the abort.
		s.db.Observe(s.onEventWAL)
	}
	if cfg.Registry != nil && cfg.Index == "ibs" {
		// One ibs.Counters is shared by every tree of every copy-on-write
		// snapshot: the index factory bakes the Instrument option in, so
		// clones keep feeding the same counters.
		idxOpts = append(idxOpts, core.WithTreeOptions(
			ibs.Instrument(ibs.RegisterCounters(cfg.Registry))))
	}
	smOpts := []shard.Option{shard.WithMetrics(cfg.Registry), shard.WithIndexOptions(idxOpts...)}
	if cfg.Index != "ibs" {
		smOpts = append(smOpts, shard.WithName("sharded-"+cfg.Index))
	}
	s.sm = shard.New(s.db.Catalog(), s.funcs, smOpts...)
	s.eng = engine.New(s.db, s.funcs, s.sm, engine.WithMetrics(cfg.Registry))
	s.met = newServerMetrics(cfg.Registry, s)
	s.eng.OnFire(s.onFire)
	// Predicate-match streaming: a second observer (after the engine's)
	// re-stabs the index for events whenever some subscriber asked for
	// direct-predicate matches.
	s.db.Observe(s.onEventPreds)
	return s
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown/Close.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address once Serve is running (for tests
// listening on ":0"), or nil before that.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown or Close.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	defer ln.Close()
	// A Shutdown that took lnMu before ln was set closed no listener, but
	// it closed done before that.
	if s.Stopping() {
		return ErrServerClosed
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return ErrServerClosed
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn admits or rejects one accepted connection.
func (s *Server) startConn(nc net.Conn) {
	c := &conn{
		s:     s,
		nc:    nc,
		notes: make(chan wire.Message, s.cfg.QueueLen),
		quit:  make(chan struct{}),
	}
	s.connMu.Lock()
	select {
	case <-s.done:
		s.connMu.Unlock()
		nc.Close()
		return
	default:
	}
	if len(s.conns) >= s.cfg.MaxConns {
		s.connMu.Unlock()
		s.cfg.Logger.Warn("connection rejected",
			"remote", nc.RemoteAddr().String(), "limit", s.cfg.MaxConns)
		if s.met != nil {
			s.met.rejected.Inc()
		}
		nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if frame, err := wire.AppendMessage(nil, &wire.Message{
			Type: wire.TypeResponse, Error: "server at connection limit",
		}); err == nil {
			nc.Write(frame)
		}
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	n := len(s.conns)
	// Increment while still holding connMu: Shutdown closes done and then
	// takes connMu before starting wg.Wait, so a connection admitted here
	// is always counted before that Wait can observe a zero counter.
	s.wg.Add(1)
	s.connMu.Unlock()
	s.cfg.Logger.Debug("connection accepted",
		"remote", nc.RemoteAddr().String(), "conns", n)

	go c.readLoop()
}

// Stopping reports whether Shutdown or Close has begun; the admin
// endpoint's health check flips to unhealthy on it.
func (s *Server) Stopping() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Shutdown stops accepting, unblocks idle readers, and waits for every
// connection to drain its in-flight request and queued responses. If
// ctx expires first, remaining connections are closed forcibly and the
// context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { close(s.done) })
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	s.cfg.Logger.Info("shutdown: listener closed, draining connections")
	// Wake readers blocked waiting for the next request; readers in the
	// middle of a request finish it first.
	s.connMu.Lock()
	waking := len(s.conns)
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	if waking > 0 {
		s.cfg.Logger.Info("shutdown: waking idle readers", "conns", waking)
	}

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		s.cfg.Logger.Info("shutdown: drained")
		s.closeWAL()
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		forced := len(s.conns)
		for c := range s.conns {
			c.nc.Close()
		}
		s.connMu.Unlock()
		s.cfg.Logger.Warn("shutdown: drain deadline expired, closing connections",
			"conns", forced)
		<-drained
		s.closeWAL()
		return ctx.Err()
	}
}

// Close shuts the server down without a drain grace period.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// onFire is the engine hook: fan one rule activation out to every
// subscription whose filter accepts it. It runs inside the mutation
// (under s.mu) and must never block, so queue overflow drops.
//
//predmatchvet:holds mu
func (s *Server) onFire(ev engine.FiringEvent) {
	s.firings++
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for c, sub := range s.subs {
		if sub.rules != nil && !sub.rules[ev.Rule] {
			continue
		}
		sub.seq++
		s.offer(c, sub, wire.Message{
			Type:     wire.TypeNotify,
			Seq:      sub.seq,
			Rule:     ev.Rule,
			Relation: ev.Rel,
			EventOp:  ev.Op.String(),
			EventID:  int64(ev.TupleID),
			Tuple:    wire.FromTuple(ev.Tuple),
			Depth:    ev.Depth,
			Dropped:  sub.drops,
		})
	}
}

// onEventPreds streams direct-predicate matches: when any subscription
// asked for them, re-match the event's tuple and report the matching
// client-registered predicate IDs.
func (s *Server) onEventPreds(ev storage.Event) error {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	wanted := false
	for _, sub := range s.subs {
		if sub.preds {
			wanted = true
			break
		}
	}
	if !wanted {
		return nil
	}
	t := ev.New
	if ev.Op == storage.OpDelete {
		t = ev.Old
	}
	if t == nil {
		return nil
	}
	ids, err := s.sm.Match(ev.Rel, t, nil)
	if err != nil {
		return nil // matching problems surface on the engine path
	}
	var direct []int64
	for _, id := range ids {
		if id >= DirectPredBase {
			direct = append(direct, int64(id))
		}
	}
	if len(direct) == 0 {
		return nil
	}
	for c, sub := range s.subs {
		if !sub.preds {
			continue
		}
		sub.seq++
		s.offer(c, sub, wire.Message{
			Type:     wire.TypeNotify,
			Seq:      sub.seq,
			Relation: ev.Rel,
			EventOp:  ev.Op.String(),
			EventID:  int64(ev.ID),
			Tuple:    wire.FromTuple(t),
			Matches:  direct,
			Dropped:  sub.drops,
		})
	}
	return nil
}

// offer enqueues a notification without ever blocking: the overflow
// policy is drop-newest, counted per subscription and globally.
// Callers hold subMu.
func (s *Server) offer(c *conn, sub *subscription, m wire.Message) {
	select {
	case c.notes <- m:
	default:
		sub.drops++
		s.dropped.Add(1)
	}
}

// conn is one client connection. Its reader goroutine decodes each
// request, executes it and writes the response itself. A second
// goroutine exists only where something asynchronous is sent: the
// notifier, started by the first subscribe, and the streamer of a
// replicate request. Whole writes on the socket are serialized by wmu.
type conn struct {
	s     *Server
	nc    net.Conn
	wmu   sync.Mutex // held across each write on nc
	out   []byte     // responses the reader encoded but has not written
	notes chan wire.Message
	// quit closes when the reader stops: the notifier drains, a
	// replication streamer stops. notified closes when the notifier
	// exits; the reader makes it on the first subscribe.
	quit, notified chan struct{}
	// delivered counts notifications written to this connection, for
	// the per-connection stats breakdown; held counts those the notifier
	// has taken off the queue and encoded but not yet written, which a
	// write blocked on a stalled reader can hold many of.
	delivered atomic.Uint64
	held      atomic.Uint64
	// replica marks a connection serving a replication stream; replSeq
	// is the last sequence shipped to it (stats surface).
	replica atomic.Bool
	replSeq atomic.Uint64
	// scratch is the reader's own: only the reader goroutine touches it.
	scratch scratch
}

// scratch is the memory a reader reuses from one request to the next,
// the one mutable search state beside the shared, immutable index
// snapshot. The reader encodes each answer into c.out before it
// decodes the next request, so all of it is free again by then.
type scratch struct {
	// tuple and batch are the tuple decode scratch DecodeRequest reuses.
	// A request that carries no tuple must decode with a nil Tuple, and
	// one with no batch with nil Tuples, so the scratch waits here
	// between them: a connection mixing match and matchbatch decodes
	// into one scratch. Mutations copy out of it (wire.ToTuple); match
	// and matchbatch coerce in place, because nothing keeps their tuples.
	tuple wire.Tuple
	batch []wire.Tuple

	// The match scratch.
	tuples []tuple.Tuple // matchbatch's coerced tuples
	ids    []pred.ID     // the stab's results, tuple after tuple
	ends   []int         // where each matchbatch tuple's results end in ids
	wire   []int64       // ids in the answer's form
	rows   [][]int64     // matchbatch's answer rows, capped sub-slices of wire
}

// lend hands req the decode scratch, for DecodeRequest.
func (sc *scratch) lend(req *wire.Request) {
	req.Tuple, req.Tuples = sc.tuple, sc.batch
}

// release takes back the decode scratch req used and readies the whole
// scratch for the next request. Under the aliasing guard it overwrites
// the match scratch first (ScribbleTuples does the decode scratch); a
// scratch one large request grew past wire.RetainBytes is dropped, as
// c.out is.
func (sc *scratch) release(req *wire.Request) {
	if req.Tuple != nil {
		sc.tuple = req.Tuple
	}
	if req.Tuples != nil {
		sc.batch = req.Tuples
	}
	if scribbleReleased {
		scribble(sc.tuples, nil)
		scribble(sc.ids, -1)
		scribble(sc.ends, -1)
		scribble(sc.wire, -1)
		scribble(sc.rows, nil)
	}
	values := cap(sc.tuple)
	for _, t := range sc.batch[:cap(sc.batch)] {
		values += cap(t)
	}
	// A value.Value is 40 bytes, a slice header 24, an ID, an int or an
	// int64 8.
	held := 40*values + 24*(cap(sc.batch)+cap(sc.tuples)+cap(sc.rows)) +
		8*(cap(sc.ids)+cap(sc.ends)+cap(sc.wire))
	if held > wire.RetainBytes {
		*sc = scratch{}
	}
}

// scribble is wire.Scribble for a slice of anything: it sets all of s's
// capacity to v.
func scribble[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// subscribed reports whether the connection has an active subscription
// (which exempts it from the idle timeout).
func (c *conn) subscribed() bool {
	c.s.subMu.Lock()
	defer c.s.subMu.Unlock()
	_, ok := c.s.subs[c]
	return ok
}

// scribbleReleased is the aliasing guard's switch, flipped only by
// tests: with it on, a connection's reused memory — the request line,
// the tuple decode scratch, the match scratch, the encode buffers — is
// overwritten the moment the request or write that used it completes,
// so anything that still points into it reads as garbage.
var scribbleReleased bool

// flushBytes is the encoded size at which a writer writes even though
// more frames are waiting.
const flushBytes = 32 << 10

func (c *conn) readLoop() {
	defer c.s.wg.Done()
	defer c.close()
	lr := wire.NewLineReader(c.nc, wire.MaxLineBytes)
	// One Request per connection: DecodeRequest decodes tuples into the
	// connection's scratch and allocates everything else afresh.
	var req wire.Request
	armed := false // a read deadline of ours is on the socket
	for {
		// Write the answers once no complete request is left in the read
		// buffer: a pipelined burst is answered in few writes, a lone
		// request at once.
		if len(c.out) > 0 && !lr.HasLine() {
			if c.write(&c.out) != nil {
				return
			}
			// Yield: over net.Pipe the client and this reader hand the CPU
			// to each other directly, starving an in-process subscriber.
			runtime.Gosched()
		}
		// Touch the deadline only when it has to change: every request
		// under an idle timeout, and once to clear it when a subscription
		// or a replication stream lifts the timeout (a follower sends
		// nothing after its replicate request). A connection that never
		// had one (IdleTimeout 0, the default) makes no deadline calls.
		if idle := c.s.cfg.IdleTimeout; idle > 0 && !c.subscribed() && !c.replica.Load() {
			c.nc.SetReadDeadline(time.Now().Add(idle))
			armed = true
		} else if armed {
			c.nc.SetReadDeadline(time.Time{})
			armed = false
		}
		// Check done only after arming the deadline: Shutdown closes done
		// before setting its wake-up deadline, so if a line above
		// overwrote that wake-up, done is already observably closed here
		// and we return instead of blocking in Next forever. A loop that
		// set nothing left the wake-up in place.
		select {
		case <-c.s.done:
			return
		default:
		}
		raw, err := lr.Next()
		if err != nil {
			// EOF, peer reset, idle timeout, shutdown wake-up, or an
			// over-long line: the connection is done either way.
			switch {
			case errors.Is(err, wire.ErrFrameTooLong):
				c.answer(errMsg(0, fmt.Errorf("request frame exceeds %d bytes", wire.MaxLineBytes)))
			case err != io.EOF:
				c.s.cfg.Logger.Debug("read failed", "remote", c.nc.RemoteAddr().String(), "err", err)
			}
			return
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		c.scratch.lend(&req)
		if err := wire.DecodeRequest(line, &req); err != nil {
			// Framing is broken; answer once and hang up.
			c.answer(errMsg(0, fmt.Errorf("bad request frame: %w", err)))
			return
		}
		m := c.s.handle(c, &req)
		if req.Op == wire.OpSubscribe && m.OK && c.notified == nil {
			c.notified = make(chan struct{})
			c.s.wg.Add(1)
			go c.notify()
		}
		ok := c.answer(m)
		if scribbleReleased {
			wire.Scribble(raw)
			wire.ScribbleTuples(&req)
		}
		c.scratch.release(&req)
		if !ok {
			return
		}
	}
}

// answer encodes m after the reader's unwritten answers, writing them
// at once if they reach flushBytes.
func (c *conn) answer(m wire.Message) bool {
	var err error
	if c.out, err = wire.AppendMessage(c.out, &m); err != nil {
		c.s.cfg.Logger.Debug("write failed", "remote", c.nc.RemoteAddr().String(), "err", err)
		return false
	}
	return len(c.out) < flushBytes || c.write(&c.out) == nil
}

// write writes buf whole under the write lock and the write deadline,
// then empties it for reuse. A failed write, a missed deadline among
// them, may leave a partial frame on the socket, which line framing
// cannot recover from: the caller ends the connection.
func (c *conn) write(buf *[]byte) error {
	c.wmu.Lock()
	c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
	_, err := c.nc.Write(*buf)
	c.wmu.Unlock()
	if scribbleReleased {
		wire.Scribble((*buf)[:cap(*buf)])
	}
	if *buf = (*buf)[:0]; cap(*buf) > wire.RetainBytes {
		*buf = nil
	}
	if err != nil {
		c.s.cfg.Logger.Debug("write failed", "remote", c.nc.RemoteAddr().String(), "err", err)
	}
	return err
}

// notify is the notifier. It writes queued notifications in batches of
// up to flushBytes, so the firings of one insert reach a subscriber in
// one write, not one each, until quit closes and the queue is empty. A
// failed write closes the socket, which ends the reader too.
func (c *conn) notify() {
	defer c.s.wg.Done()
	defer close(c.notified)
	var buf []byte
	for {
		select {
		case m := <-c.notes:
			var err error
			if buf, err = wire.AppendMessage(buf, &m); err != nil {
				c.nc.Close()
				return
			}
			c.held.Add(1)
			if len(c.notes) > 0 && len(buf) < flushBytes {
				continue
			}
			if c.write(&buf) != nil {
				c.nc.Close()
				return
			}
			notes := c.held.Swap(0)
			c.s.delivered.Add(notes)
			c.delivered.Add(notes)
		case <-c.quit:
			if len(c.notes) == 0 {
				return
			}
		}
	}
}

// close ends the connection once its reader has stopped: the reader's
// last answers and the queued notifications go out, then the
// subscription goes and whatever it left undelivered (still queued, or
// held by a failed write) counts as dropped, under the one subMu hold,
// so a stats reader never sees the subscription gone but its
// notifications unaccounted.
func (c *conn) close() {
	s := c.s
	if len(c.out) > 0 {
		c.write(&c.out)
	}
	close(c.quit)
	if c.notified != nil {
		<-c.notified
	}
	s.subMu.Lock()
	delete(s.subs, c)
	s.dropped.Add(uint64(len(c.notes)) + c.held.Load())
	s.subMu.Unlock()
	c.nc.Close()
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.cfg.Logger.Debug("connection closed",
		"remote", c.nc.RemoteAddr().String(), "delivered", c.delivered.Load())
}

// errMsg builds an error response.
func errMsg(id uint64, err error) wire.Message {
	return wire.Message{Type: wire.TypeResponse, ID: id, Error: err.Error()}
}

func okMsg(id uint64) wire.Message {
	return wire.Message{Type: wire.TypeResponse, ID: id, OK: true}
}

// handle executes one request, builds its response, and records the
// request's latency, its trace (when sampled or carried in) and the
// slow-request log line for a request past the tracer's Slow threshold.
// The uninstrumented fast path (no Registry, no Tracer) skips even the
// clock reads.
func (s *Server) handle(c *conn, req *wire.Request) wire.Message {
	tr := s.cfg.Tracer
	if s.met == nil && tr == nil {
		return s.dispatch(c, req, nil)
	}
	// Root span: a request carrying a trace context joins the client's
	// trace (the client decided to trace it); otherwise head sampling
	// decides, and the response carries the server-assigned id back.
	var sp *trace.Span
	if tr != nil {
		if req.Trace != nil {
			if id, ok := trace.ParseID(req.Trace.ID); ok {
				sp = tr.Join("server."+req.Op, id)
			}
		} else if tr.Sampled() {
			sp = tr.Start("server." + req.Op)
		}
		if sp != nil {
			if req.Relation != "" {
				sp.SetStr("rel", req.Relation)
			}
			sp.SetStr("remote", c.nc.RemoteAddr().String())
		}
	}
	t0 := time.Now()
	m := s.dispatch(c, req, sp)
	elapsed := time.Since(t0)
	var traceID string
	if sp != nil {
		if m.Error != "" {
			sp.SetStr("error", m.Error)
		}
		traceID = sp.TraceID()
		sp.End()
		m.Trace = &wire.TraceContext{ID: traceID}
	}
	if s.met != nil {
		if h := s.met.reqLat[req.Op]; h != nil {
			h.Observe(elapsed.Seconds())
		}
		if m.Error != "" {
			s.met.reqErrors.Inc()
		}
	}
	if slow := tr.Slow(); slow > 0 && elapsed >= slow {
		if traceID == "" {
			// Not sampled: retain a synthesized root-only trace so the slow
			// request is still inspectable at /traces (sampled slow traces
			// land in the slow ring via the tracer itself).
			traceID = tr.RecordSlow("server."+req.Op, t0, elapsed,
				trace.Str("rel", req.Relation),
				trace.Str("remote", c.nc.RemoteAddr().String()))
		}
		s.cfg.Logger.Warn("slow request",
			"op", req.Op, "id", req.ID, "relation", req.Relation,
			"remote", c.nc.RemoteAddr().String(), "elapsed", elapsed,
			"trace_id", traceID)
	}
	return m
}

// Tracer returns the server's tracer (nil when tracing is off); the
// admin endpoint serves /traces from its flight recorder.
func (s *Server) Tracer() *trace.Tracer { return s.cfg.Tracer }

// traceCtx converts a request's span into the wire form a WAL record
// carries through the log and the replication stream (nil = untraced).
func traceCtx(sp *trace.Span) *wire.TraceContext {
	if sp == nil {
		return nil
	}
	return &wire.TraceContext{ID: sp.TraceID(), Span: sp.SpanID()}
}

// dispatch routes one request to its handler. On a follower every
// state-changing op is rejected with a leader redirect before reaching
// its handler; reads, subscriptions, stats and backups serve locally.
// sp is the request's root span (nil when untraced); handlers that
// explain themselves attach child spans to it.
func (s *Server) dispatch(c *conn, req *wire.Request, sp *trace.Span) wire.Message {
	switch req.Op {
	case wire.OpDeclare, wire.OpRule, wire.OpDropRule,
		wire.OpAddPred, wire.OpRemovePred,
		wire.OpInsert, wire.OpUpdate, wire.OpDelete:
		if s.isFollower.Load() {
			return s.notLeaderMsg(req.ID)
		}
	default:
	}
	switch req.Op {
	case wire.OpPing:
		return okMsg(req.ID)
	case wire.OpDeclare:
		return s.handleDeclare(req, sp)
	case wire.OpRule:
		return s.handleRule(req, sp)
	case wire.OpDropRule:
		return s.handleDropRule(req, sp)
	case wire.OpAddPred:
		return s.handleAddPred(req, sp)
	case wire.OpRemovePred:
		return s.handleRemovePred(req, sp)
	case wire.OpInsert, wire.OpUpdate, wire.OpDelete:
		return s.handleMutation(req, sp)
	case wire.OpMatch:
		return s.handleMatch(c, req, sp)
	case wire.OpMatchBatch:
		return s.handleMatchBatch(c, req)
	case wire.OpSubscribe:
		return s.handleSubscribe(c, req)
	case wire.OpUnsubscribe:
		return s.handleUnsubscribe(c, req)
	case wire.OpStats:
		return s.handleStats(req)
	case wire.OpBackup:
		return s.handleBackup(req)
	case wire.OpReplicate:
		return s.handleReplicate(c, req)
	case wire.OpPromote:
		return s.handlePromote(req)
	default:
		return errMsg(req.ID, fmt.Errorf("unknown op %q", req.Op))
	}
}

// command is where every DDL handler ends, once it has checked what
// only a request needs and built the command's wal.Record. It applies
// the record through applyRecord — the code that recovery and followers
// replay it with — and acks it log-before-ack: refuse it under mu if
// the log has failed (logErr), else apply under mu, append the record
// under mu (so log order equals apply order), release mu, then wait
// for durability — the group-commit window, in which other
// mutators append and share the fsync. An addpred record gets its ID
// here, under mu, so that ID allocation, the snapshot registry and the
// log record are one atomic step with respect to checkpoints: a
// snapshot can never capture a predicate whose record lies after the
// snapshot's sequence.
//
// The ack carries the record's WAL sequence (WalSeq, 0 when not
// durable) as a read-your-writes token: a client hands it to any replica
// as Request.MinSeq and the replica serves the read only once its
// applied state covers it.
func (s *Server) command(id uint64, rec *wal.Record, sp *trace.Span) wire.Message {
	s.mu.Lock()
	if err := s.logErr(); err != nil {
		s.mu.Unlock()
		return errMsg(id, err)
	}
	if rec.Kind == wal.KindAddPred {
		rec.PredID = s.nextPredID.Load()
	}
	rule, err := s.applyRecord(rec)
	if err != nil {
		s.mu.Unlock()
		return errMsg(id, err)
	}
	seq, werr := s.logCommand(rec, sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		return errMsg(id, err)
	}
	m := okMsg(id)
	m.Name = rule
	m.WalSeq = seq
	return m
}

func (s *Server) handleDeclare(req *wire.Request, sp *trace.Span) wire.Message {
	return s.command(req.ID, &wal.Record{Kind: wal.KindDeclare, Relation: req.Relation, Attrs: req.Attrs}, sp)
}

// handleRule acks with the defined rule's name.
func (s *Server) handleRule(req *wire.Request, sp *trace.Span) wire.Message {
	return s.command(req.ID, &wal.Record{Kind: wal.KindRule, Source: req.Source}, sp)
}

func (s *Server) handleDropRule(req *wire.Request, sp *trace.Span) wire.Message {
	return s.command(req.ID, &wal.Record{Kind: wal.KindDropRule, Name: req.Name}, sp)
}

// handleAddPred registers a client predicate and acks with the ID
// command assigned it.
func (s *Server) handleAddPred(req *wire.Request, sp *trace.Span) wire.Message {
	if req.Pred == nil {
		return errMsg(req.ID, errors.New("addpred needs a pred"))
	}
	rec := &wal.Record{Kind: wal.KindAddPred, Pred: req.Pred}
	m := s.command(req.ID, rec, sp)
	if m.OK {
		m.PredID = rec.PredID
	}
	return m
}

func (s *Server) handleRemovePred(req *wire.Request, sp *trace.Span) wire.Message {
	if pred.ID(req.PredID) < DirectPredBase {
		return errMsg(req.ID, fmt.Errorf("predicate %d is not client-registered", req.PredID))
	}
	return s.command(req.ID, &wal.Record{Kind: wal.KindRemovePred, PredID: req.PredID}, sp)
}

// handleMutation applies insert/update/delete through the engine under
// the mutation mutex, reporting how many rules the change fired. Note
// the storage contract: when a rule action fails (e.g. raise), the
// triggering change itself stays applied and the error is reported.
//
// Durability: the events the request applied (captured by onEventWAL,
// including rule cascades) are appended as one atomic WAL record while
// mu is still held, and the response is not sent until the record is
// durable under the sync policy — log-before-ack. Once the log has
// failed, a mutation is refused before it is applied. A mutation whose
// rule raised still applied events, so it is logged and committed even
// though the response carries the rule's error.
func (s *Server) handleMutation(req *wire.Request, sp *trace.Span) wire.Message {
	s.mu.Lock()
	if err := s.logErr(); err != nil {
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	s.pending = s.pending[:0]
	if sp != nil {
		// Hand the engine the root span for the duration of this mutation
		// so the firing cascade records engine.event / rule.fire children;
		// cleared before mu is released (the engine runs only under mu).
		s.eng.SetSpan(sp)
	}
	m := s.applyMutation(req)
	if sp != nil {
		s.eng.SetSpan(nil)
	}
	seq, werr := s.logPending(sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		// The in-memory state changed but cannot be made durable; the log
		// is poisoned and every further state change is refused before it
		// is applied. Surface the WAL error over the rule-level outcome.
		return errMsg(req.ID, err)
	}
	m.WalSeq = seq
	return m
}

// applyMutation executes the storage change and rule cascade.
//
//predmatchvet:holds mu
func (s *Server) applyMutation(req *wire.Request) wire.Message {
	tab, ok := s.db.Table(req.Relation)
	if !ok {
		return errMsg(req.ID, fmt.Errorf("unknown relation %q", req.Relation))
	}
	s.firings = 0
	m := okMsg(req.ID)
	switch req.Op {
	case wire.OpInsert:
		t, err := wire.ToTuple(tab.Relation(), req.Tuple)
		if err != nil {
			return errMsg(req.ID, err)
		}
		id, err := tab.Insert(t)
		if err != nil {
			return errMsg(req.ID, err)
		}
		m.TupleID = int64(id)
	case wire.OpUpdate:
		t, err := wire.ToTuple(tab.Relation(), req.Tuple)
		if err != nil {
			return errMsg(req.ID, err)
		}
		if err := tab.Update(tuple.ID(req.TupleID), t); err != nil {
			return errMsg(req.ID, err)
		}
	case wire.OpDelete:
		if err := tab.Delete(tuple.ID(req.TupleID)); err != nil {
			return errMsg(req.ID, err)
		}
	default:
		// handle() only routes the three mutation ops here; a new op
		// reaching this switch is a dispatch bug, not a client error.
		return errMsg(req.ID, fmt.Errorf("op %q is not a mutation", req.Op))
	}
	m.Firings = s.firings
	return m
}

// handleMatch stabs the sharded matcher's lock-free snapshot; it never
// touches the mutation mutex. A min_seq token makes the read wait until
// the server's applied state covers that sequence (read-your-writes
// across replicas; see docs/REPLICATION.md). The tuple is coerced in
// place and the answer's IDs sit in c's scratch, so a match allocates
// nothing.
func (s *Server) handleMatch(c *conn, req *wire.Request, sp *trace.Span) wire.Message {
	if req.MinSeq > 0 {
		wsp := sp.Child("repl.wait")
		wsp.SetInt("min_seq", int64(req.MinSeq))
		err := s.waitMinSeq(req.MinSeq)
		wsp.End()
		if err != nil {
			return s.minSeqErr(req.ID, err)
		}
	}
	rel, ok := s.db.Catalog().Get(req.Relation)
	if !ok {
		return errMsg(req.ID, fmt.Errorf("unknown relation %q", req.Relation))
	}
	t, err := wire.CoerceTuple(tuple.Tuple(req.Tuple[:0]), rel, req.Tuple)
	if err != nil {
		return errMsg(req.ID, err)
	}
	sc := &c.scratch
	if sc.ids, err = s.sm.MatchTraced(req.Relation, t, sc.ids[:0], sp); err != nil {
		return errMsg(req.ID, err)
	}
	sc.wire = wire.AppendIDs(sc.wire[:0], sc.ids)
	m := okMsg(req.ID)
	m.Matches = sc.wire
	return m
}

// handleMatchBatch is handleMatch for a batch, through c's scratch too:
// the rows are capped sub-slices of one flat answer.
func (s *Server) handleMatchBatch(c *conn, req *wire.Request) wire.Message {
	if err := s.waitMinSeq(req.MinSeq); err != nil {
		return s.minSeqErr(req.ID, err)
	}
	rel, ok := s.db.Catalog().Get(req.Relation)
	if !ok {
		return errMsg(req.ID, fmt.Errorf("unknown relation %q", req.Relation))
	}
	sc := &c.scratch
	sc.tuples = sc.tuples[:0]
	for i, raw := range req.Tuples {
		t, err := wire.CoerceTuple(tuple.Tuple(raw[:0]), rel, raw)
		if err != nil {
			return errMsg(req.ID, fmt.Errorf("tuple %d: %w", i, err))
		}
		sc.tuples = append(sc.tuples, t)
	}
	var err error
	if sc.ids, sc.ends, err = s.sm.AppendBatch(req.Relation, sc.tuples, sc.ids[:0], sc.ends[:0]); err != nil {
		return errMsg(req.ID, err)
	}
	if sc.wire == nil {
		// A row cut from a nil slice is nil, which encodes as null; an
		// empty row must encode as [].
		sc.wire = []int64{}
	}
	sc.wire = wire.AppendIDs(sc.wire[:0], sc.ids)
	sc.rows = sc.rows[:0]
	start := 0
	for _, end := range sc.ends {
		sc.rows = append(sc.rows, sc.wire[start:end:end])
		start = end
	}
	m := okMsg(req.ID)
	m.Batch = sc.rows
	return m
}

func (s *Server) handleSubscribe(c *conn, req *wire.Request) wire.Message {
	sub := &subscription{preds: req.Preds}
	if len(req.Rules) > 0 {
		sub.rules = make(map[string]bool, len(req.Rules))
		for _, r := range req.Rules {
			sub.rules[r] = true
		}
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if _, dup := s.subs[c]; dup {
		return errMsg(req.ID, errors.New("already subscribed"))
	}
	s.subs[c] = sub
	return okMsg(req.ID)
}

// handleUnsubscribe stops the stream and reports the subscription's
// final counters: Seq is the total notifications generated, Dropped how
// many of those the overflow policy discarded. Notifications still in
// the queue may be delivered after this response.
func (s *Server) handleUnsubscribe(c *conn, req *wire.Request) wire.Message {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	m := okMsg(req.ID)
	if sub, ok := s.subs[c]; ok {
		m.Seq = sub.seq
		m.Dropped = sub.drops
		delete(s.subs, c)
	}
	return m
}

func (s *Server) handleStats(req *wire.Request) wire.Message {
	st := &wire.Stats{
		Rules:      s.eng.Rules(),
		Matcher:    s.sm.Name(),
		Predicates: s.sm.Len(),
		Delivered:  s.delivered.Load(),
		Dropped:    s.dropped.Load(),
	}
	if pf, ok := s.sm.PrefilterStats(); ok {
		st.Prefilter = &wire.PrefilterStat{Admitted: pf.Admitted, Skipped: pf.Skipped}
	}
	for _, sh := range s.sm.Stats() {
		st.Shards = append(st.Shards, wire.ShardStat{
			Rel: sh.Rel, Predicates: sh.Predicates, Version: sh.Version,
			Structure: sh.Structure,
		})
	}
	for _, ts := range s.sm.Trees() {
		st.Trees = append(st.Trees, wire.TreeStat{
			Rel: ts.Rel, Attr: ts.Attr, Intervals: ts.Intervals,
			Nodes: ts.Nodes, Markers: ts.Markers, Height: ts.Height,
		})
	}
	// Row counts and ID cursors move under the mutation mutex; read them
	// under it so the stats frame is a consistent cut.
	s.mu.Lock()
	for _, name := range s.db.Relations() {
		tab, _ := s.db.Table(name)
		st.Relations = append(st.Relations, wire.RelStat{
			Name: name, Rows: tab.Len(), NextID: int64(tab.NextID()),
		})
	}
	s.mu.Unlock()
	st.WAL = s.walStat()
	st.Repl = s.replStat()
	// Snapshot the connection set first, then read each connection's
	// subscription under subMu — the lock order every other path uses.
	s.connMu.Lock()
	st.Conns = len(s.conns)
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	s.subMu.Lock()
	st.Subs = len(s.subs)
	for _, c := range conns {
		cs := wire.ConnStat{
			Remote:    c.nc.RemoteAddr().String(),
			Queue:     len(c.notes),
			QueueCap:  cap(c.notes),
			Delivered: c.delivered.Load(),
			Replica:   c.replica.Load(),
			ReplSeq:   c.replSeq.Load(),
		}
		if sub, ok := s.subs[c]; ok {
			cs.Subscribed = true
			cs.Dropped = sub.drops
			cs.LastSeq = sub.seq
			for r := range sub.rules {
				cs.Rules = append(cs.Rules, r)
			}
			sort.Strings(cs.Rules)
		}
		st.Connections = append(st.Connections, cs)
	}
	s.subMu.Unlock()
	sort.Slice(st.Connections, func(i, j int) bool {
		return st.Connections[i].Remote < st.Connections[j].Remote
	})
	m := okMsg(req.ID)
	m.Stats = st
	return m
}
