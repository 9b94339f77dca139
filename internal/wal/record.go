// Record framing: every log entry, and every checkpoint file, is one
// length-prefixed, CRC32C-checked frame of JSON. The payload reuses the
// wire package's codecs (wire.Attr, wire.Predicate, wire tuple
// literals), so the log speaks the same dialect as the network protocol
// and the two cannot drift apart.

package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"predmatch/internal/wire"
)

// Record kinds: one per state-changing operation of the daemon. A
// switch over these must be exhaustive or carry a default — enforced by
// the wireexhaustive analyzer, which treats Kind* exactly like the wire
// package's Op*/Type* groups.
const (
	// KindDeclare records a relation declaration (schema).
	KindDeclare = "declare"
	// KindIndex recorded a secondary-index creation. The daemon no
	// longer writes it; replay of an older log applies it as a no-op.
	KindIndex = "index"
	// KindRule records a rule definition by source text.
	KindRule = "rule"
	// KindDropRule records a rule removal by name.
	KindDropRule = "droprule"
	// KindAddPred records a direct-predicate registration with its
	// server-assigned ID.
	KindAddPred = "addpred"
	// KindRemovePred records a direct-predicate removal.
	KindRemovePred = "rmpred"
	// KindMutate records one client mutation as the full set of storage
	// events it applied — the triggering insert/update/delete plus every
	// cascaded rule-action change — in chronological order. The set is
	// one record, so it is atomic under recovery: a torn tail can never
	// leave half a cascade applied.
	KindMutate = "mutate"
)

// Event is one applied storage change inside a KindMutate record.
// Tuples are carried in the wire form (wire.Tuple) and coerced to the
// (already recovered) schema at replay time.
type Event struct {
	Rel string `json:"rel"`
	Op  string `json:"op"` // insert, update, delete (storage.Op.String)
	ID  int64  `json:"id"`
	// Tuple is the new image for inserts and updates; deletes carry
	// none (replay removes by ID).
	Tuple wire.Tuple `json:"tuple,omitempty"`
}

// Record is one logged operation. Only the fields of the given Kind are
// meaningful; the rest stay zero and are omitted from the payload.
type Record struct {
	// Seq is the record's log sequence number, assigned by Append.
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`

	Relation string          `json:"relation,omitempty"` // declare
	Attrs    []wire.Attr     `json:"attrs,omitempty"`    // declare
	Source   string          `json:"source,omitempty"`   // rule
	Name     string          `json:"name,omitempty"`     // droprule
	PredID   int64           `json:"pred_id,omitempty"`  // addpred, rmpred
	Pred     *wire.Predicate `json:"pred,omitempty"`     // addpred
	Events   []Event         `json:"events,omitempty"`   // mutate

	// Trace is the trace context of the traced request that produced
	// this record, if any. It rides the record through the log and the
	// replication stream so a follower can attach its apply span to the
	// same trace; recovery replay ignores it.
	Trace *wire.TraceContext `json:"trace,omitempty"`
}

// Frame layout constants.
const (
	headerBytes = 8 // uint32 length + uint32 CRC32C
	// maxRecordBytes bounds one record's payload; a length prefix above
	// it is treated as corruption, which keeps a bit-flipped length from
	// asking recovery to allocate gigabytes.
	maxRecordBytes = 64 << 20
)

// castagnoli is the CRC32C table (the checksum used by iSCSI, ext4 and
// most modern WALs; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes rec into one framed log entry appended to dst:
// the header's room first, the payload behind it, then the header
// filled in over the payload's length and checksum.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	mark := len(dst)
	dst, err := appendPayload(append(dst, make([]byte, headerBytes)...), rec)
	if err != nil {
		return dst[:mark], fmt.Errorf("wal: encode record: %w", err)
	}
	payload := dst[mark+headerBytes:]
	if len(payload) > maxRecordBytes {
		return dst[:mark], fmt.Errorf("wal: record payload %d bytes exceeds limit %d", len(payload), maxRecordBytes)
	}
	hdr := frameHeader(payload)
	copy(dst[mark:], hdr[:])
	return dst, nil
}

// frameHeader is the header that frames payload: its length and its
// CRC32C. Every frame — a log record, a checkpoint file — is written
// with it and validated against it (framePayload).
func frameHeader(payload []byte) (hdr [headerBytes]byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return hdr
}

// framePayload returns the payload of frame, which must be exactly one
// frame whose header matches it.
func framePayload(frame []byte) ([]byte, bool) {
	if len(frame) < headerBytes {
		return nil, false
	}
	payload := frame[headerBytes:]
	return payload, frameHeader(payload) == [headerBytes]byte(frame)
}

// appendPayload appends rec's JSON. A KindMutate record — the one kind
// every tuple write appends — is written by hand, through the socket
// codec's string and tuple appenders, to the bytes json.Marshal(rec)
// produces (TestMutatePayloadMatchesEncodingJSON); every other kind, and
// a mutate record with a field of another kind set, goes through
// json.Marshal itself.
func appendPayload(dst []byte, rec *Record) ([]byte, error) {
	if rec.Kind != KindMutate || rec.Relation != "" || len(rec.Attrs) > 0 ||
		rec.Source != "" || rec.Name != "" || rec.PredID != 0 || rec.Pred != nil {
		payload, err := json.Marshal(rec)
		return append(dst, payload...), err
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, rec.Seq, 10)
	dst = append(dst, `,"kind":"mutate"`...)
	for i := range rec.Events {
		ev := &rec.Events[i]
		if i == 0 {
			dst = append(dst, `,"events":[{"rel":`...)
		} else {
			dst = append(dst, `,{"rel":`...)
		}
		dst = wire.AppendString(dst, ev.Rel)
		dst = append(dst, `,"op":`...)
		dst = wire.AppendString(dst, ev.Op)
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendInt(dst, ev.ID, 10)
		if len(ev.Tuple) > 0 {
			dst = append(dst, `,"tuple":`...)
			var err error
			if dst, err = wire.AppendTuple(dst, ev.Tuple); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	if len(rec.Events) > 0 {
		dst = append(dst, ']')
	}
	if rec.Trace != nil {
		dst = append(dst, `,"trace":{"id":`...)
		dst = wire.AppendString(dst, rec.Trace.ID)
		if rec.Trace.Span != 0 {
			dst = append(dst, `,"span":`...)
			dst = strconv.AppendUint(dst, rec.Trace.Span, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// readFrame reads one frame and returns its checked payload. It
// distinguishes three outcomes: (payload, nil) for a valid frame;
// (nil, io.EOF) for a clean end of input; and (nil, errTorn) for
// anything else — a partial header, a length past limit, a short
// payload or a CRC mismatch. scanRecords treats errTorn as end-of-log.
func readFrame(r io.Reader, limit int) ([]byte, error) {
	var hdr [headerBytes]byte
	if n, err := io.ReadFull(r, hdr[:]); n == 0 {
		return nil, io.EOF // clean end: not a single byte of a next frame
	} else if err != nil {
		return nil, errTorn
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if uint64(length) > uint64(limit) {
		return nil, errTorn
	}
	frame := make([]byte, headerBytes+int(length))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[headerBytes:]); err != nil {
		return nil, errTorn
	}
	if payload, ok := framePayload(frame); ok {
		return payload, nil
	}
	return nil, errTorn
}

// UnmarshalRecord decodes a record payload — a log frame's, or the rec
// field of a replication frame.
func UnmarshalRecord(payload []byte) (*Record, error) {
	rec := new(Record)
	if err := unmarshal(payload, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// unmarshal decodes a payload with UseNumber: a predicate's numeric
// bounds must survive as json.Number, not float64 (tuples type their
// own numbers, see wire.Tuple).
func unmarshal(payload []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	return dec.Decode(v)
}

// errTorn marks a frame that failed validation; scanRecords converts it
// into a truncation point rather than an error.
var errTorn = fmt.Errorf("wal: torn record")

// scanRecords decodes framed records from r until a clean EOF or the
// first invalid frame or payload. It returns the byte length of the
// valid prefix and whether the scan ended on a torn/corrupt frame
// (false = clean EOF). err is non-nil only when fn rejects a record;
// corruption is never an error here — the caller decides whether a
// torn tail is tolerable (last segment) or fatal (interior segment).
func scanRecords(r io.Reader, fn func(*Record) error) (valid int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		payload, rerr := readFrame(br, maxRecordBytes)
		if rerr == io.EOF {
			return valid, false, nil
		}
		if rerr != nil {
			return valid, true, nil
		}
		rec, derr := UnmarshalRecord(payload)
		if derr != nil {
			return valid, true, nil
		}
		if err := fn(rec); err != nil {
			return valid, false, err
		}
		valid += headerBytes + int64(len(payload))
	}
}
