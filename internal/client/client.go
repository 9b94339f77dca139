// Package client is the Go library for predmatchd, the rule-service
// daemon of internal/server. It speaks the newline-delimited JSON
// protocol of internal/wire: requests are correlated to responses by
// ID, and subscription notifications arrive asynchronously on the
// channel returned by Subscribe.
//
// A Client is safe for concurrent use; calls from multiple goroutines
// are multiplexed over the single connection.
package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/tuple"
	"predmatch/internal/wire"
)

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("client: connection closed")

// Notification is one subscription event. For rule firings Rule is set;
// for direct-predicate matches Rule is empty and Matches carries the
// matching predicate IDs. Seq numbers every notification the server
// generated for this subscription — a gap means the server's overflow
// policy dropped the missing ones (Dropped is the cumulative count at
// the time this notification was generated). Tuple holds the matched
// tuple's literals as a plain JSON decode would: string, bool, and
// json.Number — the number's own text in the frame — for every number.
// The slice is the caller's own, but its elements may be the very
// interface values an earlier notification's Tuple holds: notifications
// for one tuple (a rule fan-out) share them, which is safe because a
// string, bool or json.Number cannot be changed in place.
type Notification struct {
	Seq      uint64
	Rule     string
	Relation string
	Op       string
	TupleID  int64
	Tuple    []any
	Matches  []pred.ID
	Depth    int
	Dropped  uint64
}

// Option configures a Client.
type Option func(*Client)

// WithTimeout bounds each request round trip (default 10s).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithNotifyBuffer sets the notification channel capacity (default
// 1024). If the application stops draining the channel, the client's
// read loop blocks — and the server's per-connection overflow policy
// starts dropping, which is the designed backpressure path.
func WithNotifyBuffer(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.notifyCap = n
		}
	}
}

// Client is one connection to a predmatchd server.
type Client struct {
	nc        net.Conn
	timeout   time.Duration
	notifyCap int

	writeMu sync.Mutex
	wbuf    []byte // guarded-by: writeMu (request encode buffer, reused)

	mu      sync.Mutex
	nextID  uint64               // guarded-by: mu
	pending map[uint64]*callSlot // guarded-by: mu
	free    []*callSlot          // guarded-by: mu (slots between calls)
	err     error                // guarded-by: mu (terminal connection error, set once)
	closed  bool                 // guarded-by: mu
	// nextTrace is the trace context armed by TraceNext, attached to
	// (and cleared by) the next request this client sends.
	nextTrace *wire.TraceContext // guarded-by: mu

	notifyMu sync.Mutex
	notify   chan Notification // guarded-by: notifyMu

	// lastSeq is the highest WAL sequence acked to this client (the
	// read-your-writes token; see LastSeq).
	lastSeq atomic.Uint64

	// dying is closed when the connection is marked dead, unblocking a
	// read loop stuck delivering to an undrained notification channel.
	dying      chan struct{}
	readerDone chan struct{}
}

// callSlot is where one call waits for its response. Slots are recycled
// through Client.free, but only by the call that owns one and only once
// the reader can no longer deliver to it: either the response was
// received, or the call took its ID out of pending itself.
type callSlot struct {
	// resp has room for the reader's single delivery, so the reader
	// never blocks on a caller. fail closes it instead.
	resp  chan wire.Message
	timer *time.Timer // stopped and drained whenever the slot is free
}

// Dial connects and verifies liveness with a ping.
func Dial(addr string, opts ...Option) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return handshake(nc, opts)
}

// handshake runs a client over an established connection.
func handshake(nc net.Conn, opts []Option) (*Client, error) {
	c := &Client{
		nc:         nc,
		timeout:    10 * time.Second,
		notifyCap:  1024,
		nextID:     1,
		pending:    make(map[uint64]*callSlot),
		dying:      make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	go c.readLoop()
	if _, err := c.call(&wire.Request{Op: wire.OpPing}); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	return c, nil
}

// Close tears the connection down; pending calls fail with ErrClosed
// and the notification channel (if any) is closed.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	err := c.nc.Close()
	<-c.readerDone
	return err
}

// Err returns the terminal connection error, or nil while the
// connection is healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == ErrClosed && c.closed {
		return nil // deliberate Close, not a failure
	}
	return c.err
}

// fail marks the connection dead and unblocks every pending call.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		if errors.Is(err, ErrClosed) {
			c.closed = true
		}
		close(c.dying)
	}
	for id, slot := range c.pending {
		close(slot.resp)
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// scribbleReleased is the aliasing guard's switch, flipped only by
// tests: with it on, the read line and the request encode buffer are
// overwritten the moment the frame that used them is done with, so
// anything handed to a caller that still points into them reads as
// garbage.
var scribbleReleased bool

// readLoop decodes server frames, routing responses to pending calls
// and notifications to the subscription channel.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	lr := wire.NewLineReader(c.nc, wire.MaxLineBytes)
	// One Message for every frame (it escapes through the codec's cold
	// path, so declaring it per frame would allocate it per frame): the
	// decode overwrites it whole, with freshly allocated contents, and
	// what leaves this loop is a copy.
	var m wire.Message
	// A rule fan-out repeats one tuple across its frames: the decoder
	// hands each repeat the first frame's literals in a slice of its own.
	var ld wire.LiteralDecoder
	var err error
	for {
		var raw []byte
		if raw, err = lr.Next(); err != nil {
			break
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		lits, derr := ld.Decode(line, &m)
		if scribbleReleased {
			wire.Scribble(raw)
		}
		if derr != nil {
			c.fail(fmt.Errorf("client: bad server frame: %w", derr))
			c.nc.Close()
			return
		}
		switch m.Type {
		case wire.TypeNotify:
			c.notifyMu.Lock()
			ch := c.notify
			c.notifyMu.Unlock()
			if ch != nil {
				n := Notification{
					Seq:      m.Seq,
					Rule:     m.Rule,
					Relation: m.Relation,
					Op:       m.EventOp,
					TupleID:  m.EventID,
					Tuple:    lits,
					Matches:  wire.ToIDs(m.Matches),
					Depth:    m.Depth,
					Dropped:  m.Dropped,
				}
				// Block on a full channel (the application's
				// backpressure) but never past connection death, so
				// Close always completes.
				select {
				case ch <- n:
				case <-c.dying:
				}
			}
		case wire.TypeRepl:
			// Replication stream frames; a Client never sends the replicate
			// op (internal/repl speaks the stream directly), so drop them.
		case wire.TypeResponse:
			if m.ID == 0 {
				// Unsolicited server error (e.g. connection-limit
				// rejection): terminal.
				c.fail(fmt.Errorf("client: server error: %s", m.Error))
				c.nc.Close()
				return
			}
			// A response nobody waits for — its call timed out and took
			// the ID out of pending — finds no slot and is dropped.
			c.mu.Lock()
			slot := c.pending[m.ID]
			delete(c.pending, m.ID)
			c.mu.Unlock()
			if slot != nil {
				slot.resp <- m
			}
		}
	}
	if err == io.EOF {
		err = ErrClosed
	}
	c.fail(err)
	c.notifyMu.Lock()
	if c.notify != nil {
		close(c.notify)
		c.notify = nil
	}
	c.notifyMu.Unlock()
}

// call sends one request and waits for its response or the timeout.
func (c *Client) call(req *wire.Request) (wire.Message, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return wire.Message{}, err
	}
	req.ID = c.nextID
	c.nextID++
	if c.nextTrace != nil && req.Trace == nil {
		req.Trace = c.nextTrace
		c.nextTrace = nil
	}
	var slot *callSlot
	if n := len(c.free); n > 0 {
		slot, c.free = c.free[n-1], c.free[:n-1]
		slot.timer.Reset(c.timeout)
	} else {
		slot = &callSlot{resp: make(chan wire.Message, 1), timer: time.NewTimer(c.timeout)}
	}
	c.pending[req.ID] = slot
	c.mu.Unlock()

	c.writeMu.Lock()
	var err error
	if c.wbuf, err = wire.AppendRequest(c.wbuf[:0], req); err == nil {
		c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
		_, err = c.nc.Write(c.wbuf)
	}
	if scribbleReleased {
		wire.Scribble(c.wbuf[:cap(c.wbuf)])
	}
	if cap(c.wbuf) > wire.RetainBytes {
		c.wbuf = nil
	}
	c.writeMu.Unlock()
	if err != nil {
		// The slot is abandoned, not recycled: the connection is dead and
		// the reader may already hold it.
		slot.timer.Stop()
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		c.fail(err)
		c.nc.Close()
		return wire.Message{}, err
	}

	var m wire.Message
	var ok bool
	select {
	case m, ok = <-slot.resp:
		if !slot.timer.Stop() {
			<-slot.timer.C
		}
	case <-slot.timer.C:
		c.mu.Lock()
		mine := c.pending[req.ID] == slot
		if mine {
			// Nobody can deliver to the slot any more: the late response,
			// if one comes, finds no pending entry.
			delete(c.pending, req.ID)
			c.free = append(c.free, slot)
		}
		c.mu.Unlock()
		if mine {
			return wire.Message{}, fmt.Errorf("client: %s request timed out after %v", req.Op, c.timeout)
		}
		// The reader (or fail) took the slot out of pending first, so its
		// delivery (or close) is on its way: the response beat the timeout.
		m, ok = <-slot.resp
	}
	if !ok {
		// fail closed the slot; it is never reused.
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return wire.Message{}, err
	}
	c.mu.Lock()
	c.free = append(c.free, slot)
	c.mu.Unlock()
	if s := m.WalSeq; s > 0 {
		// Atomic max: acks can complete out of order across goroutines.
		for {
			old := c.lastSeq.Load()
			if s <= old || c.lastSeq.CompareAndSwap(old, s) {
				break
			}
		}
	}
	if m.Error != "" {
		return m, fmt.Errorf("client: %s", m.Error)
	}
	return m, nil
}

// TraceNext arms a trace context for the next request this client
// sends: the server joins the given trace (tracing the request end to
// end regardless of its own sampling) and echoes the id on the
// response. Use a fresh id per request; the armed context applies to
// exactly one call. Safe for the usual client pattern of one goroutine
// per client; with concurrent callers, which call picks the context up
// is unspecified (but exactly one does).
func (c *Client) TraceNext(tc *wire.TraceContext) {
	c.mu.Lock()
	c.nextTrace = tc
	c.mu.Unlock()
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.call(&wire.Request{Op: wire.OpPing})
	return err
}

// DeclareRelation declares a relation schema on the server.
func (c *Client) DeclareRelation(rel *schema.Relation) error {
	attrs := make([]wire.Attr, 0, rel.Arity())
	for _, a := range rel.Attrs() {
		attrs = append(attrs, wire.Attr{Name: a.Name, Type: a.Type.String()})
	}
	_, err := c.call(&wire.Request{Op: wire.OpDeclare, Relation: rel.Name(), Attrs: attrs})
	return err
}

// DefineRule registers a rule from source text (the cmd/predmatch rule
// grammar) and returns the parsed rule name.
func (c *Client) DefineRule(source string) (string, error) {
	m, err := c.call(&wire.Request{Op: wire.OpRule, Source: source})
	if err != nil {
		return "", err
	}
	return m.Name, nil
}

// DropRule removes a rule by name.
func (c *Client) DropRule(name string) error {
	_, err := c.call(&wire.Request{Op: wire.OpDropRule, Name: name})
	return err
}

// AddPredicate registers a bare predicate (p.ID is ignored) and returns
// the server-assigned ID.
func (c *Client) AddPredicate(p *pred.Predicate) (pred.ID, error) {
	m, err := c.call(&wire.Request{Op: wire.OpAddPred, Pred: wire.FromPredicate(p)})
	if err != nil {
		return 0, err
	}
	return pred.ID(m.PredID), nil
}

// RemovePredicate unregisters a predicate added with AddPredicate.
func (c *Client) RemovePredicate(id pred.ID) error {
	_, err := c.call(&wire.Request{Op: wire.OpRemovePred, PredID: int64(id)})
	return err
}

// Insert adds a tuple, returning its ID and how many rules fired.
func (c *Client) Insert(rel string, t tuple.Tuple) (tuple.ID, int, error) {
	m, err := c.call(&wire.Request{Op: wire.OpInsert, Relation: rel, Tuple: wire.FromTuple(t)})
	if err != nil {
		return 0, 0, err
	}
	return tuple.ID(m.TupleID), m.Firings, nil
}

// Update replaces the tuple stored under id, returning the rule firing
// count.
func (c *Client) Update(rel string, id tuple.ID, t tuple.Tuple) (int, error) {
	m, err := c.call(&wire.Request{Op: wire.OpUpdate, Relation: rel, TupleID: int64(id), Tuple: wire.FromTuple(t)})
	if err != nil {
		return 0, err
	}
	return m.Firings, nil
}

// Delete removes the tuple stored under id, returning the rule firing
// count.
func (c *Client) Delete(rel string, id tuple.ID) (int, error) {
	m, err := c.call(&wire.Request{Op: wire.OpDelete, Relation: rel, TupleID: int64(id)})
	if err != nil {
		return 0, err
	}
	return m.Firings, nil
}

// Match returns the IDs of all predicates matching the tuple, without
// touching storage.
func (c *Client) Match(rel string, t tuple.Tuple) ([]pred.ID, error) {
	return c.MatchAt(rel, t, 0)
}

// MatchAt is Match carrying a read-your-writes token: the server
// answers only once its applied state covers WAL sequence minSeq (a
// follower waits up to its configured bound, then fails with a leader
// redirect). Use LastSeq as the token to read your own acked writes
// from any replica; minSeq 0 is a plain Match.
func (c *Client) MatchAt(rel string, t tuple.Tuple, minSeq uint64) ([]pred.ID, error) {
	m, err := c.call(&wire.Request{
		Op: wire.OpMatch, Relation: rel, Tuple: wire.FromTuple(t), MinSeq: minSeq,
	})
	if err != nil {
		return nil, err
	}
	return wire.ToIDs(m.Matches), nil
}

// MatchBatch matches a batch of tuples against one index snapshot. The
// rows are capped sub-slices of one flat slice, so appending to one
// never writes into the next.
func (c *Client) MatchBatch(rel string, tuples []tuple.Tuple) ([][]pred.ID, error) {
	raw := make([]wire.Tuple, len(tuples))
	for i, t := range tuples {
		raw[i] = wire.FromTuple(t)
	}
	m, err := c.call(&wire.Request{Op: wire.OpMatchBatch, Relation: rel, Tuples: raw})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, ids := range m.Batch {
		n += len(ids)
	}
	flat := make([]pred.ID, 0, n)
	out := make([][]pred.ID, len(m.Batch))
	for i, ids := range m.Batch {
		if ids == nil {
			continue
		}
		start := len(flat)
		for _, id := range ids {
			flat = append(flat, pred.ID(id))
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out, nil
}

// Subscribe starts the notification stream. rules filters by rule name
// (none = all rules); preds additionally streams direct-predicate
// matches. The returned channel is closed when the connection ends.
func (c *Client) Subscribe(preds bool, rules ...string) (<-chan Notification, error) {
	c.notifyMu.Lock()
	if c.notify == nil {
		c.notify = make(chan Notification, c.notifyCap)
	}
	ch := c.notify
	c.notifyMu.Unlock()
	if _, err := c.call(&wire.Request{Op: wire.OpSubscribe, Rules: rules, Preds: preds}); err != nil {
		return nil, err
	}
	return ch, nil
}

// Unsubscribe stops the stream, reporting the total notifications the
// server generated for the subscription and how many it dropped.
// Notifications already queued may still arrive afterwards.
func (c *Client) Unsubscribe() (generated, dropped uint64, err error) {
	m, err := c.call(&wire.Request{Op: wire.OpUnsubscribe})
	if err != nil {
		return 0, 0, err
	}
	return m.Seq, m.Dropped, nil
}

// Stats fetches server statistics.
func (c *Client) Stats() (*wire.Stats, error) {
	m, err := c.call(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	return m.Stats, nil
}

// LastSeq returns the highest WAL sequence any mutation or DDL ack on
// this client has carried — the client's read-your-writes token. It is
// 0 against a server without a data directory (nothing is sequenced).
func (c *Client) LastSeq() uint64 { return c.lastSeq.Load() }

// Promote turns the follower this client is connected to into a
// leader: the replication stream is sealed and the server starts
// accepting mutations, continuing the leader's WAL sequence space. It
// returns the sequence the log was sealed at. Fails on a server that
// is already a leader.
func (c *Client) Promote() (uint64, error) {
	m, err := c.call(&wire.Request{Op: wire.OpPromote})
	if err != nil {
		return 0, err
	}
	return m.WalSeq, nil
}

// Backup forces the server to write a durable checkpoint snapshot,
// returning where it landed (server-side path), the log sequence it
// covers, and its size. Fails when the server runs without a data
// directory.
func (c *Client) Backup() (*wire.BackupInfo, error) {
	m, err := c.call(&wire.Request{Op: wire.OpBackup})
	if err != nil {
		return nil, err
	}
	return m.Backup, nil
}
