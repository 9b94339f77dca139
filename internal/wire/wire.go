// Package wire defines the predmatchd network protocol: the message
// types exchanged between the rule-service daemon (internal/server) and
// its clients (internal/client), plus the codecs that translate between
// JSON literals and the engine's typed values, tuples and predicates.
//
// Framing is newline-delimited JSON: every message is one JSON object
// followed by '\n', at most MaxLineBytes long. The client sends Request
// objects; the server sends Message objects, which are either responses
// (correlated to a request by ID) or asynchronous subscription
// notifications. See docs/PROTOCOL.md for the full protocol contract,
// including subscription ordering and the overflow/drop policy.
package wire

import (
	"encoding/json"
	"fmt"
	"math"

	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// MaxLineBytes bounds one framed message. Requests above the limit are
// rejected; the bound keeps a hostile or buggy client from ballooning
// server memory.
const MaxLineBytes = 1 << 20

// MaxReplFrameBytes bounds one frame on a replication stream, which is
// a server-to-server connection: a frame may carry a full state
// snapshot, so the limit matches the WAL's own record ceiling rather
// than the client line limit.
const MaxReplFrameBytes = 128 << 20

// Request operation names.
const (
	OpDeclare     = "declare"     // declare a relation schema
	OpRule        = "rule"        // define a rule from source text
	OpDropRule    = "droprule"    // drop a rule by name
	OpAddPred     = "addpred"     // register a bare predicate (server assigns the ID)
	OpRemovePred  = "rmpred"      // unregister a bare predicate
	OpInsert      = "insert"      // insert a tuple (fires rules)
	OpUpdate      = "update"      // update a tuple (fires rules)
	OpDelete      = "delete"      // delete a tuple (fires rules)
	OpMatch       = "match"       // match one tuple, no storage change
	OpMatchBatch  = "matchbatch"  // match a batch of tuples
	OpSubscribe   = "subscribe"   // start streaming firing notifications
	OpUnsubscribe = "unsubscribe" // stop the notification stream
	OpStats       = "stats"       // server + shard statistics
	OpPing        = "ping"        // liveness probe
	OpBackup      = "backup"      // force a durable checkpoint snapshot
	OpReplicate   = "replicate"   // follower: stream snapshot + live log tail
	OpPromote     = "promote"     // promote a follower to leader (seals replication)
)

// Attr is one attribute of a relation declaration.
type Attr struct {
	Name string `json:"name"`
	Type string `json:"type"` // int, float, string, bool (value.KindFromName)
}

// Bound is one end of a predicate clause interval; a nil *Bound means
// the end is unbounded (±infinity).
type Bound struct {
	Value any  `json:"value"`
	Open  bool `json:"open,omitempty"` // exclusive endpoint when true
}

// Clause is one conjunct of a wire predicate. Exactly one of Fn / Eq /
// (Lo,Hi) families is meaningful: Fn names a registered boolean
// function, Eq is a point equality, otherwise the clause is the
// interval [Lo, Hi] with nil meaning unbounded.
type Clause struct {
	Attr string `json:"attr"`
	Fn   string `json:"fn,omitempty"`
	Eq   any    `json:"eq,omitempty"`
	Lo   *Bound `json:"lo,omitempty"`
	Hi   *Bound `json:"hi,omitempty"`
}

// Predicate is the wire form of a disjunction-free predicate. The
// server assigns the ID on addpred and returns it in the response.
type Predicate struct {
	Rel     string   `json:"rel"`
	Clauses []Clause `json:"clauses,omitempty"`
}

// Request is one client command. Only the fields of the given Op are
// consulted; the rest stay at their zero values and are omitted on the
// wire.
type Request struct {
	ID uint64 `json:"id"`
	Op string `json:"op"`

	Relation string     `json:"relation,omitempty"` // declare, insert/update/delete, match*
	Attrs    []Attr     `json:"attrs,omitempty"`    // declare
	Source   string     `json:"source,omitempty"`   // rule
	Name     string     `json:"name,omitempty"`     // droprule
	Pred     *Predicate `json:"pred,omitempty"`     // addpred
	PredID   int64      `json:"pred_id,omitempty"`  // rmpred
	TupleID  int64      `json:"tuple_id,omitempty"` // update, delete
	Tuple    Tuple      `json:"tuple,omitempty"`    // insert, update, match
	Tuples   []Tuple    `json:"tuples,omitempty"`   // matchbatch
	Rules    []string   `json:"rules,omitempty"`    // subscribe filter (empty = all rules)
	Preds    bool       `json:"preds,omitempty"`    // subscribe: also stream direct-predicate matches

	// FromSeq is the replicate resume cursor: the last WAL sequence the
	// follower has already applied (0 = nothing; stream from the start or
	// from the newest snapshot when the tail was pruned).
	FromSeq uint64 `json:"from_seq,omitempty"`
	// MinSeq is the read-your-writes token on match/matchbatch: the
	// server answers only once its applied WAL sequence has reached it
	// (a follower waits for replication to catch up, then serves or
	// redirects). Mutation acks carry the token in Message.WalSeq.
	MinSeq uint64 `json:"min_seq,omitempty"`

	// Trace is the optional request-scoped trace context (absent on the
	// wire when nil, so untraced traffic is byte-identical to protocol
	// versions that predate it). A server with tracing enabled joins the
	// carried trace instead of making its own sampling decision, which
	// is how one trace crosses the network: client → leader → WAL →
	// replication stream → follower.
	Trace *TraceContext `json:"trace,omitempty"`
}

// TraceContext is the wire-portable identity of a trace: the trace id
// and (optionally) the sending side's span id, so a remote process can
// attach its own spans to the same trace. The id is 1–16 lowercase hex
// digits (see internal/trace FormatID/ParseID); presence of a context
// means "trace this" — there is no separate sampled bit.
type TraceContext struct {
	ID   string `json:"id"`
	Span uint64 `json:"span,omitempty"`
}

// Message type discriminators.
const (
	TypeResponse = "response"
	TypeNotify   = "notify"
	TypeRepl     = "repl" // replication stream frame (snapshot or one WAL record)
)

// ShardStat mirrors shard.ShardStats for the stats response.
type ShardStat struct {
	Rel        string `json:"rel"`
	Predicates int    `json:"predicates"`
	Version    uint64 `json:"version"`
	// Structure names the attribute-index structure serving the shard
	// ("ibs", "hint", …).
	Structure string `json:"structure,omitempty"`
}

// ConnStat describes one client connection in the stats response: its
// notification-queue occupancy and delivery counters, which is what an
// operator reads to find the subscriber that is falling behind.
type ConnStat struct {
	Remote     string `json:"remote"`
	Subscribed bool   `json:"subscribed"`
	// Queue/QueueCap are the notification queue's current depth and
	// capacity, both 0 until the connection's first subscribe makes the
	// queue; a queue pinned at capacity is a slow consumer.
	Queue    int `json:"queue"`
	QueueCap int `json:"queue_cap"`
	// Delivered counts notifications actually written to this
	// connection; Dropped those the overflow policy discarded; LastSeq
	// is the last sequence number generated for its subscription
	// (LastSeq - Delivered - Queue ≈ Dropped).
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped,omitempty"`
	LastSeq   uint64 `json:"last_seq,omitempty"`
	// Rules is the subscription's rule filter (empty = every rule).
	Rules []string `json:"rules,omitempty"`
	// Replica marks a follower's replication stream; ReplSeq is the last
	// WAL sequence shipped to it (LastSeq in the wal section minus
	// ReplSeq is that follower's lag as seen from the leader).
	Replica bool   `json:"replica,omitempty"`
	ReplSeq uint64 `json:"repl_seq,omitempty"`
}

// TreeStat mirrors core.TreeStats: the shape of one attribute IBS-tree,
// exposed so remote clients can check the paper's space and balance
// claims without shell access to the daemon.
type TreeStat struct {
	Rel       string `json:"rel"`
	Attr      string `json:"attr"`
	Intervals int    `json:"intervals"`
	Nodes     int    `json:"nodes"`
	Markers   int    `json:"markers"`
	Height    int    `json:"height"`
}

// RelStat describes one stored relation in the stats response.
type RelStat struct {
	Name   string `json:"name"`
	Rows   int    `json:"rows"`
	NextID int64  `json:"next_id"`
}

// WALStat describes the durability subsystem in the stats response;
// present only when the daemon runs with a data directory.
type WALStat struct {
	// LastSeq is the last assigned log sequence; DurableSeq the last one
	// known fsynced (they track each other under `always`, DurableSeq
	// lags under `interval`/`off`).
	LastSeq    uint64 `json:"last_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	// SnapshotSeq is the log sequence covered by the newest checkpoint
	// (0 = none yet).
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	Segments    int    `json:"segments"`
	Sync        string `json:"sync"`
}

// BackupInfo is the payload of a backup response: where the forced
// checkpoint landed.
type BackupInfo struct {
	Path  string `json:"path"`
	Seq   uint64 `json:"seq"`
	Bytes int64  `json:"bytes"`
}

// ReplStat describes the replication role in the stats response;
// present only when the daemon runs with a data directory.
type ReplStat struct {
	// Role is "leader" or "follower". A promoted follower reports
	// "leader" from the moment promote is acked.
	Role string `json:"role"`
	// Leader is the upstream address a follower replicates from (and
	// redirects mutations to); empty on a leader.
	Leader string `json:"leader,omitempty"`
	// AppliedSeq is the follower's replication frontier: the last WAL
	// sequence applied locally. LeaderSeq is the leader's last assigned
	// sequence as of the most recent stream frame; Lag is their
	// difference (0 when caught up or when the leader frontier is
	// unknown).
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	LeaderSeq  uint64 `json:"leader_seq,omitempty"`
	Lag        uint64 `json:"lag,omitempty"`
	// Reconnects counts replication stream re-establishments (the first
	// connection is not a reconnect).
	Reconnects uint64 `json:"reconnects,omitempty"`
	// Followers is the number of replication streams a leader is
	// currently serving.
	Followers int `json:"followers,omitempty"`
}

// PrefilterStat reports the sharded matcher's attribute-prefilter
// admission counters: how many tuples went through to a full index
// probe versus being proven unmatchable by the per-relation attribute
// envelopes alone.
type PrefilterStat struct {
	Admitted uint64 `json:"admitted"`
	Skipped  uint64 `json:"skipped"`
}

// Stats is the payload of a stats response.
type Stats struct {
	Rules       []string       `json:"rules"`
	Matcher     string         `json:"matcher"`
	Predicates  int            `json:"predicates"`
	Prefilter   *PrefilterStat `json:"prefilter,omitempty"`
	Shards      []ShardStat    `json:"shards,omitempty"`
	Trees       []TreeStat     `json:"trees,omitempty"`
	Relations   []RelStat      `json:"relations,omitempty"`
	WAL         *WALStat       `json:"wal,omitempty"`
	Repl        *ReplStat      `json:"repl,omitempty"`
	Conns       int            `json:"conns"`
	Subs        int            `json:"subs"`
	Delivered   uint64         `json:"delivered"`
	Dropped     uint64         `json:"dropped"`
	Connections []ConnStat     `json:"connections,omitempty"`
}

// Message is one server-to-client frame: a response when Type is
// "response" (ID echoes the request), a subscription notification when
// Type is "notify".
type Message struct {
	Type string `json:"type"`

	// Response fields.
	ID      uint64      `json:"id,omitempty"`
	OK      bool        `json:"ok,omitempty"`
	Error   string      `json:"error,omitempty"`
	TupleID int64       `json:"tuple_id,omitempty"` // insert result
	PredID  int64       `json:"pred_id,omitempty"`  // addpred result
	Name    string      `json:"name,omitempty"`     // rule result: parsed rule name
	Matches []int64     `json:"matches,omitempty"`  // match result
	Batch   [][]int64   `json:"batch,omitempty"`    // matchbatch result
	Stats   *Stats      `json:"stats,omitempty"`    // stats result
	Firings int         `json:"firings,omitempty"`  // rules fired by a mutation
	Backup  *BackupInfo `json:"backup,omitempty"`   // backup result
	// WalSeq is the WAL sequence a mutation or DDL op was logged as (the
	// read-your-writes token for Request.MinSeq), and the sealed log
	// frontier in a promote response. Leader is the redirect hint a
	// follower attaches when rejecting a mutation, and on min_seq
	// timeouts.
	WalSeq uint64 `json:"wal_seq,omitempty"`
	Leader string `json:"leader,omitempty"`

	// Notification fields. Seq numbers every notification generated for
	// the subscription (starting at 1), assigned before the overflow
	// policy decides whether to deliver or drop: a gap in received Seq
	// values is exactly the set of dropped notifications. Dropped is the
	// cumulative drop count for the subscription at send time.
	Seq      uint64 `json:"seq,omitempty"`
	Rule     string `json:"rule,omitempty"`
	Relation string `json:"relation,omitempty"`
	EventOp  string `json:"event_op,omitempty"` // insert, update, delete
	EventID  int64  `json:"event_id,omitempty"` // tuple ID of the triggering event
	Tuple    Tuple  `json:"tuple,omitempty"`    // matched tuple image
	Depth    int    `json:"depth,omitempty"`    // forward-chaining cascade depth
	Dropped  uint64 `json:"dropped,omitempty"`

	// Replication stream fields (Type == TypeRepl). Exactly one of Snap
	// / Rec is set: Snap carries a full wal.Snapshot (stream start when
	// the requested tail was pruned), Rec one wal.Record. Both are the
	// payload the leader's log stores, unchanged, as raw JSON; the
	// follower decodes them with the wal codecs and logs the same
	// bytes. AppendMessage writes them as they are, neither validated
	// nor compacted, so a sender sets only such payloads. LeaderSeq is
	// the leader's last assigned WAL sequence at send time, so the
	// follower can compute its lag.
	Snap      json.RawMessage `json:"snap,omitempty"`
	Rec       json.RawMessage `json:"rec,omitempty"`
	LeaderSeq uint64          `json:"leader_seq,omitempty"`

	// Trace echoes the trace context on responses to traced requests
	// (and carries the server-assigned id when the server head-sampled
	// an untraced request), so callers can log an explorable id.
	// Omitted everywhere else: frames without tracing are byte-identical
	// to protocol versions that predate the field.
	Trace *TraceContext `json:"trace,omitempty"`
}

// FromValue converts an engine value to its JSON literal: numbers for
// int/float, a string for string, a bool for bool.
func FromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

// Tuple is a tuple on the wire: a JSON array of scalar literals, typed
// by shape rather than by schema. A number literal with no '.', 'e' or
// 'E' that fits an int64 is an int, any other number a float (±Inf past
// float64 range); strings and booleans are themselves; anything else —
// null, a nested array or object — is NaN. ToTuple coerces the
// shape-typed values to a relation's attribute kinds and rejects the
// non-finite ones. The MarshalJSON / UnmarshalJSON pair
// keeps encoding/json users (the WAL, snapshots, tests) on the same
// bytes the socket codec reads and writes.
type Tuple []value.Value

// FromTuple converts a tuple to its wire form. It does not copy: stored
// tuple images are immutable (docs/INVARIANTS.md), so a frame queued
// behind a later update still carries the image it was built from.
func FromTuple(t tuple.Tuple) Tuple { return Tuple(t) }

// MarshalJSON renders the tuple as the socket codec does.
func (t Tuple) MarshalJSON() ([]byte, error) {
	return AppendTuple(make([]byte, 0, 2+12*len(t)), t)
}

// UnmarshalJSON parses a JSON array of scalars (or null) as the socket
// codec does, into freshly allocated memory.
func (t *Tuple) UnmarshalJSON(b []byte) error {
	d := decoder{b: b}
	d.ws()
	*t = nil
	return d.tuple(t)
}

// ToValue converts a decoded JSON literal to a value of the given kind.
// Numbers may arrive as json.Number (a decoder with UseNumber, as the
// codec uses for the predicates it hands to encoding/json) or float64
// (a plain decoder).
func ToValue(kind value.Kind, raw any) (value.Value, error) {
	switch kind {
	case value.KindInt:
		switch n := raw.(type) {
		case json.Number:
			i, err := n.Int64()
			if err != nil {
				return value.Value{}, fmt.Errorf("wire: %v is not an int", raw)
			}
			return value.Int(i), nil
		case float64:
			if n != float64(int64(n)) {
				return value.Value{}, fmt.Errorf("wire: %v is not an int", raw)
			}
			return value.Int(int64(n)), nil
		case int64:
			return value.Int(n), nil
		}
	case value.KindFloat:
		switch n := raw.(type) {
		case json.Number:
			f, err := n.Float64()
			if err != nil {
				return value.Value{}, fmt.Errorf("wire: %v is not a float", raw)
			}
			return value.Float(f), nil
		case float64:
			return value.Float(n), nil
		case int64:
			return value.Float(float64(n)), nil
		}
	case value.KindString:
		if s, ok := raw.(string); ok {
			return value.String_(s), nil
		}
	case value.KindBool:
		if b, ok := raw.(bool); ok {
			return value.Bool(b), nil
		}
	}
	return value.Value{}, fmt.Errorf("wire: cannot decode %T %v as %s", raw, raw, kind)
}

// ToTuple coerces a wire tuple to a relation's attribute kinds, into a
// freshly allocated tuple (raw may be a connection's decode scratch),
// by the rules of CoerceTuple.
func ToTuple(rel *schema.Relation, raw Tuple) (tuple.Tuple, error) {
	return CoerceTuple(make(tuple.Tuple, 0, len(raw)), rel, raw)
}

// CoerceTuple appends raw, coerced to a relation's attribute kinds, to
// dst. The rules are those ToValue applies to a json.Number: an int
// attribute takes only an int-shaped literal in int64 range, a float
// attribute any finite number, strings and booleans only themselves.
// dst may be raw's own memory (tuple.Tuple(raw[:0])), coercing in
// place: each value is read before its slot is written.
func CoerceTuple(dst tuple.Tuple, rel *schema.Relation, raw Tuple) (tuple.Tuple, error) {
	attrs := rel.Attrs()
	if len(raw) != len(attrs) {
		return nil, fmt.Errorf("wire: tuple arity %d does not match relation %s (arity %d)",
			len(raw), rel.Name(), len(attrs))
	}
	for i, v := range raw {
		kind := attrs[i].Type
		switch {
		case v.Kind() == value.KindFloat && (math.IsInf(v.AsFloat(), 0) || math.IsNaN(v.AsFloat())):
			// A number beyond float64 range, or an element that was not a
			// scalar at all: no attribute kind takes it.
			return nil, fmt.Errorf("wire: attribute %s of %s: cannot decode %v as %s", attrs[i].Name, rel.Name(), v, kind)
		case v.Kind() == kind:
			dst = append(dst, v)
		case kind == value.KindFloat && v.Kind() == value.KindInt:
			dst = append(dst, value.Float(float64(v.AsInt())))
		case kind == value.KindInt && v.Kind() == value.KindFloat:
			return nil, fmt.Errorf("wire: attribute %s of %s: %v is not an int", attrs[i].Name, rel.Name(), v)
		default:
			return nil, fmt.Errorf("wire: attribute %s of %s: cannot decode %s %v as %s",
				attrs[i].Name, rel.Name(), v.Kind(), v, kind)
		}
	}
	return dst, nil
}

// FromPredicate converts an engine predicate to its wire form (the ID is
// not carried; the server assigns IDs).
func FromPredicate(p *pred.Predicate) *Predicate {
	wp := &Predicate{Rel: p.Rel}
	for _, c := range p.Clauses {
		wc := Clause{Attr: c.Attr}
		switch c.Kind {
		case pred.KindFunc:
			wc.Fn = c.Func
		default:
			if c.Iv.IsPoint(value.Compare) {
				wc.Eq = FromValue(c.Iv.Lo.Value)
			} else {
				if c.Iv.Lo.Kind == interval.Finite {
					wc.Lo = &Bound{Value: FromValue(c.Iv.Lo.Value), Open: !c.Iv.Lo.Closed}
				}
				if c.Iv.Hi.Kind == interval.Finite {
					wc.Hi = &Bound{Value: FromValue(c.Iv.Hi.Value), Open: !c.Iv.Hi.Closed}
				}
			}
		}
		wp.Clauses = append(wp.Clauses, wc)
	}
	return wp
}

// ToPredicate decodes a wire predicate against a schema catalog,
// assigning it the given ID. Typing errors (unknown relation or
// attribute, mismatched bound kinds) surface here, before the predicate
// reaches the matcher.
func ToPredicate(cat *schema.Catalog, id pred.ID, wp *Predicate) (*pred.Predicate, error) {
	rel, ok := cat.Get(wp.Rel)
	if !ok {
		return nil, fmt.Errorf("wire: unknown relation %q", wp.Rel)
	}
	var clauses []pred.Clause
	for _, wc := range wp.Clauses {
		kind, ok := rel.AttrType(wc.Attr)
		if !ok {
			return nil, fmt.Errorf("wire: relation %s has no attribute %q", wp.Rel, wc.Attr)
		}
		switch {
		case wc.Fn != "":
			clauses = append(clauses, pred.FnClause(wc.Attr, wc.Fn))
		case wc.Eq != nil:
			v, err := ToValue(kind, wc.Eq)
			if err != nil {
				return nil, err
			}
			clauses = append(clauses, pred.EqClause(wc.Attr, v))
		default:
			iv := interval.All[value.Value]()
			if wc.Lo != nil {
				v, err := ToValue(kind, wc.Lo.Value)
				if err != nil {
					return nil, err
				}
				iv.Lo = interval.FiniteBound(v, !wc.Lo.Open)
			}
			if wc.Hi != nil {
				v, err := ToValue(kind, wc.Hi.Value)
				if err != nil {
					return nil, err
				}
				iv.Hi = interval.FiniteBound(v, !wc.Hi.Open)
			}
			clauses = append(clauses, pred.IvClause(wc.Attr, iv))
		}
	}
	return pred.New(id, wp.Rel, clauses...), nil
}

// FromIDs converts predicate IDs to the wire integer form.
func FromIDs(ids []pred.ID) []int64 {
	if ids == nil {
		return nil
	}
	return AppendIDs(make([]int64, 0, len(ids)), ids)
}

// AppendIDs appends ids to dst in the wire integer form.
func AppendIDs(dst []int64, ids []pred.ID) []int64 {
	for _, id := range ids {
		dst = append(dst, int64(id))
	}
	return dst
}

// ToIDs converts wire integers back to predicate IDs.
func ToIDs(raw []int64) []pred.ID {
	if raw == nil {
		return nil
	}
	out := make([]pred.ID, len(raw))
	for i, id := range raw {
		out[i] = pred.ID(id)
	}
	return out
}
