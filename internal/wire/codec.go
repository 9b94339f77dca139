// The socket codec: the only encoder and decoder internal/server,
// internal/client and internal/repl put between a frame and a Request
// or Message. It is hand-written against the two structs — no
// reflection, no intermediate `any` — and emits, byte for byte, what
// encoding/json emits for them, and accepts what a json.Decoder with
// UseNumber accepts (the deliberate differences are listed in
// docs/PROTOCOL.md, Framing). encoding/json stays in the path only for
// the cold nested values (pred, attrs, stats, backup, trace), which the
// codec delimits and hands over as sub-slices; snap and rec carry the
// log's own bytes and are copied as they are.
// FuzzWireCodec holds the two together.

package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"predmatch/internal/value"
)

// ---- Encoding ----

// AppendRequest appends r as one frame — the JSON object encoding/json
// would produce, then '\n' — to dst. On error dst is returned unchanged.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	e := encoder{b: dst, mark: len(dst)}
	e.b = append(e.b, `{"id":`...)
	e.b = strconv.AppendUint(e.b, r.ID, 10)
	e.b = append(e.b, `,"op":`...)
	e.b = AppendString(e.b, r.Op)
	e.str(`,"relation":`, r.Relation)
	if len(r.Attrs) > 0 {
		e.cold(`,"attrs":`, r.Attrs)
	}
	e.str(`,"source":`, r.Source)
	e.str(`,"name":`, r.Name)
	if r.Pred != nil {
		e.cold(`,"pred":`, r.Pred)
	}
	e.int(`,"pred_id":`, r.PredID)
	e.int(`,"tuple_id":`, r.TupleID)
	if len(r.Tuple) > 0 {
		e.b = append(e.b, `,"tuple":`...)
		e.tuple(r.Tuple)
	}
	if len(r.Tuples) > 0 {
		e.b = append(e.b, `,"tuples":[`...)
		for i, t := range r.Tuples {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.tuple(t)
		}
		e.b = append(e.b, ']')
	}
	if len(r.Rules) > 0 {
		e.b = append(e.b, `,"rules":[`...)
		for i, s := range r.Rules {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = AppendString(e.b, s)
		}
		e.b = append(e.b, ']')
	}
	if r.Preds {
		e.b = append(e.b, `,"preds":true`...)
	}
	e.uint(`,"from_seq":`, r.FromSeq)
	e.uint(`,"min_seq":`, r.MinSeq)
	if r.Trace != nil {
		e.cold(`,"trace":`, r.Trace)
	}
	return e.finish()
}

// AppendMessage appends m as one frame — the JSON object encoding/json
// would produce, then '\n' — to dst. On error dst is returned unchanged.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	e := encoder{b: dst, mark: len(dst)}
	e.b = append(e.b, `{"type":`...)
	e.b = AppendString(e.b, m.Type)
	e.uint(`,"id":`, m.ID)
	if m.OK {
		e.b = append(e.b, `,"ok":true`...)
	}
	e.str(`,"error":`, m.Error)
	e.int(`,"tuple_id":`, m.TupleID)
	e.int(`,"pred_id":`, m.PredID)
	e.str(`,"name":`, m.Name)
	if len(m.Matches) > 0 {
		e.b = append(e.b, `,"matches":`...)
		e.ints(m.Matches)
	}
	if len(m.Batch) > 0 {
		e.b = append(e.b, `,"batch":[`...)
		for i, ids := range m.Batch {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.ints(ids)
		}
		e.b = append(e.b, ']')
	}
	if m.Stats != nil {
		e.cold(`,"stats":`, m.Stats)
	}
	e.int(`,"firings":`, int64(m.Firings))
	if m.Backup != nil {
		e.cold(`,"backup":`, m.Backup)
	}
	e.uint(`,"wal_seq":`, m.WalSeq)
	e.str(`,"leader":`, m.Leader)
	e.uint(`,"seq":`, m.Seq)
	e.str(`,"rule":`, m.Rule)
	e.str(`,"relation":`, m.Relation)
	e.str(`,"event_op":`, m.EventOp)
	e.int(`,"event_id":`, m.EventID)
	if len(m.Tuple) > 0 {
		e.b = append(e.b, `,"tuple":`...)
		e.tuple(m.Tuple)
	}
	e.int(`,"depth":`, int64(m.Depth))
	e.uint(`,"dropped":`, m.Dropped)
	// Snap and Rec are the log's own bytes, already the compact JSON
	// encoding/json writes, so they go out as they are.
	if len(m.Snap) > 0 {
		e.b = append(append(e.b, `,"snap":`...), m.Snap...)
	}
	if len(m.Rec) > 0 {
		e.b = append(append(e.b, `,"rec":`...), m.Rec...)
	}
	e.uint(`,"leader_seq":`, m.LeaderSeq)
	if m.Trace != nil {
		e.cold(`,"trace":`, m.Trace)
	}
	return e.finish()
}

// encoder appends one frame; the first error sticks and finish rolls
// the buffer back to mark.
type encoder struct {
	b    []byte
	mark int
	err  error
}

func (e *encoder) finish() ([]byte, error) {
	if e.err != nil {
		return e.b[:e.mark], e.err
	}
	return append(e.b, '}', '\n'), nil
}

// str, int and uint append an omitempty field: nothing for the zero value.
func (e *encoder) str(key, s string) {
	if s != "" {
		e.b = append(e.b, key...)
		e.b = AppendString(e.b, s)
	}
}

func (e *encoder) int(key string, v int64) {
	if v != 0 {
		e.b = append(e.b, key...)
		e.b = strconv.AppendInt(e.b, v, 10)
	}
}

func (e *encoder) uint(key string, v uint64) {
	if v != 0 {
		e.b = append(e.b, key...)
		e.b = strconv.AppendUint(e.b, v, 10)
	}
}

// ints appends a JSON array of integers (null for a nil slice, which
// only an element of Batch can be: Matches is omitted when empty).
func (e *encoder) ints(ids []int64) {
	if ids == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, id := range ids {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, id, 10)
	}
	e.b = append(e.b, ']')
}

func (e *encoder) tuple(t Tuple) {
	var err error
	if e.b, err = AppendTuple(e.b, t); err != nil && e.err == nil {
		e.err = err
	}
}

// cold appends a nested value through encoding/json (which escapes HTML
// by default, as the Encoder the codec replaced did).
func (e *encoder) cold(key string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.b = append(e.b, key...)
	e.b = append(e.b, b...)
}

// AppendTuple appends t as a JSON array (null when nil), the way every
// frame and every WAL record carries a tuple.
func AppendTuple(dst []byte, t Tuple) ([]byte, error) {
	if t == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.Kind() {
		case value.KindInt:
			dst = strconv.AppendInt(dst, v.AsInt(), 10)
		case value.KindFloat:
			f := v.AsFloat()
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return dst, fmt.Errorf("wire: unsupported float value %v", f)
			}
			dst = appendFloat(dst, f)
		case value.KindString:
			dst = AppendString(dst, v.AsString())
		case value.KindBool:
			dst = strconv.AppendBool(dst, v.AsBool())
		default:
			dst = append(dst, "null"...)
		}
	}
	return append(dst, ']'), nil
}

// appendFloat formats a finite float the way encoding/json does: ES6
// number-to-string, 'e' form only below 1e-6 and from 1e21 up, and no
// zero padding in the exponent.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal with encoding/json's
// escaping: control characters, quote and backslash; '<', '>' and '&'
// as \u00XX (its HTML-safe default); U+2028 and U+2029; and each byte
// of invalid UTF-8 as the six characters \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ---- Decoding ----

// maxDepth is encoding/json's nesting limit; the codec keeps it so the
// two agree on which frames are acceptable.
const maxDepth = 10000

// DecodeRequest parses one request frame into *r, overwriting it. It
// validates the whole object in one pass, as encoding/json would:
// unknown keys are checked for syntax and skipped, a repeated key's last
// value wins, null leaves a scalar at its zero value, and anything after
// the closing brace is ignored.
//
// The capacity of r.Tuple and r.Tuples is reused from the previous
// decode, so a connection's read loop decodes tuples into one scratch;
// ToTuple copies out of it, and a match coerces in place. r.Relation is
// the previous decode's string again when the bytes repeat, so a
// connection that keeps naming one relation allocates its name once.
// Every other string, including those inside tuples, is freshly
// allocated, and none points into line.
func DecodeRequest(line []byte, r *Request) error {
	tuple, tuples, rel := r.Tuple[:0], r.Tuples[:0], r.Relation
	*r = Request{}
	d := decoder{b: line}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.uint(&r.ID)
		case "op":
			return d.interned(&r.Op, internOp)
		case "relation":
			return d.interned(&r.Relation, func(b []byte) string {
				if string(b) == rel {
					return rel
				}
				return string(b)
			})
		case "attrs":
			return d.cold(&r.Attrs)
		case "source":
			return d.string(&r.Source)
		case "name":
			return d.string(&r.Name)
		case "pred":
			return d.cold(&r.Pred)
		case "pred_id":
			return d.int(&r.PredID)
		case "tuple_id":
			return d.int(&r.TupleID)
		case "tuple":
			r.Tuple = tuple
			return d.tuple(&r.Tuple)
		case "tuples":
			r.Tuples = tuples
			return d.tuples(&r.Tuples)
		case "rules":
			return d.strings(&r.Rules)
		case "preds":
			return d.bool(&r.Preds)
		case "from_seq":
			return d.uint(&r.FromSeq)
		case "min_seq":
			return d.uint(&r.MinSeq)
		case "trace":
			return d.cold(&r.Trace)
		default:
			return d.skip(1)
		}
	})
}

// DecodeMessage parses one response, notification or replication frame
// into *m, overwriting it, under the rules of DecodeRequest. Everything
// it stores is freshly allocated; nothing points into line.
func DecodeMessage(line []byte, m *Message) error {
	_, err := decodeMessage(line, m, nil)
	return err
}

// LiteralDecoder is a subscriber's decode state; its zero value is
// ready. A rule fan-out sends one frame per firing, each carrying the
// same tuple text, so the decoder remembers the last tuple's text and
// its literals and hands a repeat out again without scanning, copying
// or boxing it. The literals are immutable values (string, bool,
// json.Number, nil), and each frame still gets its own slice. A tuple
// holding an array or an object, or longer than RetainBytes, is not
// remembered. The last relation name is reused the same way.
type LiteralDecoder struct {
	text     string // the remembered tuple's text, "" for none
	lits     []any  // its literals, never handed out themselves
	relation string
}

// Decode is DecodeMessage for a subscriber, which hands a
// notification's tuple on as literals and never types it: m.Tuple stays
// nil and the frame's tuple is returned as a json.Decoder with UseNumber
// would have decoded it — string, bool, json.Number holding the
// number's own text in the frame, nil for null (and whatever
// encoding/json makes of a nested array or object). A new tuple's
// literals are cut from one copy of its span of the frame, so a tuple
// of n scalars costs that copy, the slice and one interface box per
// string or number; a repeat of the last one costs the slice.
func (ld *LiteralDecoder) Decode(line []byte, m *Message) (tuple []any, err error) {
	return decodeMessage(line, m, ld)
}

func (ld *LiteralDecoder) internRelation(b []byte) string {
	if string(b) != ld.relation {
		ld.relation = string(b)
	}
	return ld.relation
}

func decodeMessage(line []byte, m *Message, ld *LiteralDecoder) (tuple []any, err error) {
	*m = Message{}
	d := decoder{b: line}
	err = d.object(func(key []byte) error {
		switch string(key) {
		case "type":
			return d.interned(&m.Type, internType)
		case "id":
			return d.uint(&m.ID)
		case "ok":
			return d.bool(&m.OK)
		case "error":
			return d.string(&m.Error)
		case "tuple_id":
			return d.int(&m.TupleID)
		case "pred_id":
			return d.int(&m.PredID)
		case "name":
			return d.string(&m.Name)
		case "matches":
			return d.ints(&m.Matches)
		case "batch":
			return d.batch(&m.Batch)
		case "stats":
			return d.cold(&m.Stats)
		case "firings":
			return d.goInt(&m.Firings)
		case "backup":
			return d.cold(&m.Backup)
		case "wal_seq":
			return d.uint(&m.WalSeq)
		case "leader":
			return d.string(&m.Leader)
		case "seq":
			return d.uint(&m.Seq)
		case "rule":
			return d.string(&m.Rule)
		case "relation":
			if ld != nil {
				return d.interned(&m.Relation, ld.internRelation)
			}
			return d.string(&m.Relation)
		case "event_op":
			return d.interned(&m.EventOp, internOp) // insert, update, delete
		case "event_id":
			return d.int(&m.EventID)
		case "tuple":
			if ld != nil {
				return d.literals(ld, &tuple)
			}
			return d.tuple(&m.Tuple)
		case "depth":
			return d.goInt(&m.Depth)
		case "dropped":
			return d.uint(&m.Dropped)
		case "snap":
			return d.raw(&m.Snap)
		case "rec":
			return d.raw(&m.Rec)
		case "leader_seq":
			return d.uint(&m.LeaderSeq)
		case "trace":
			return d.cold(&m.Trace)
		default:
			return d.skip(1)
		}
	})
	return tuple, err
}

// internOp returns the declared constant for a known op, so decoding
// the op of every request allocates nothing.
func internOp(b []byte) string {
	switch string(b) {
	case OpDeclare:
		return OpDeclare
	case OpRule:
		return OpRule
	case OpDropRule:
		return OpDropRule
	case OpAddPred:
		return OpAddPred
	case OpRemovePred:
		return OpRemovePred
	case OpInsert:
		return OpInsert
	case OpUpdate:
		return OpUpdate
	case OpDelete:
		return OpDelete
	case OpMatch:
		return OpMatch
	case OpMatchBatch:
		return OpMatchBatch
	case OpSubscribe:
		return OpSubscribe
	case OpUnsubscribe:
		return OpUnsubscribe
	case OpStats:
		return OpStats
	case OpPing:
		return OpPing
	case OpBackup:
		return OpBackup
	case OpReplicate:
		return OpReplicate
	case OpPromote:
		return OpPromote
	default:
		return string(b)
	}
}

func internType(b []byte) string {
	switch string(b) {
	case TypeResponse:
		return TypeResponse
	case TypeNotify:
		return TypeNotify
	case TypeRepl:
		return TypeRepl
	default:
		return string(b)
	}
}

// decoder is a cursor over one frame.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

var errUnexpectedEnd = errors.New("wire: unexpected end of frame")

// peek returns the byte at the cursor, or 0 at the end of the frame (a
// byte no JSON token starts with).
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// expect consumes c, which must be the next byte.
func (d *decoder) expect(c byte) error {
	if d.i >= len(d.b) {
		return errUnexpectedEnd
	}
	if d.b[d.i] != c {
		return d.errorf("invalid character %q, want %q", d.b[d.i], c)
	}
	d.i++
	return nil
}

// literal consumes the keyword lit if it is next.
func (d *decoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// object walks the frame's top-level object, calling field with each
// unquoted key and the cursor at that key's value. A top-level null is
// an empty object, as it is to encoding/json.
func (d *decoder) object(field func(key []byte) error) error {
	d.ws()
	if d.literal("null") {
		return nil
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	d.ws()
	if d.peek() == '}' {
		return nil
	}
	for {
		key, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if !plain {
			key = unquote(nil, key)
		}
		d.ws()
		if err := d.expect(':'); err != nil {
			return err
		}
		d.ws()
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		if d.peek() == ',' {
			d.i++
			d.ws()
			continue
		}
		// Whatever follows the closing brace is ignored, as it is by a
		// json.Decoder that reads one value per line.
		return d.expect('}')
	}
}

// scanString consumes a string literal and returns the bytes between
// its quotes. plain reports that those bytes are the string's value:
// no escapes and no invalid UTF-8 to replace.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	if err := d.expect('"'); err != nil {
		return nil, false, err
	}
	start := d.i
	plain = true
	for i := start; i < len(d.b); {
		c := d.b[i]
		switch {
		case c == '"':
			d.i = i + 1
			return d.b[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(d.b) {
				return nil, false, errUnexpectedEnd
			}
			switch d.b[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				i++
			case 'u':
				if getu4(d.b[i-1:]) < 0 {
					d.i = i
					return nil, false, d.errorf("invalid \\u escape in string")
				}
				i += 5
			default:
				d.i = i
				return nil, false, d.errorf("invalid escape %q in string", d.b[i])
			}
		case c < ' ':
			d.i = i
			return nil, false, d.errorf("control character %q in string", c)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.b[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	return nil, false, errUnexpectedEnd
}

// getu4 decodes \uXXXX at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote appends the value of a string literal's content, already
// validated by scanString, to dst: escapes resolved, surrogate pairs
// joined, and lone surrogates and invalid UTF-8 replaced by U+FFFD — the
// coercions encoding/json applies.
func unquote(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch s[r] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(s[r-1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						dst = utf8.AppendRune(dst, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, s[r])
			}
			r++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			dst = utf8.AppendRune(dst, rr)
		}
	}
	return dst
}

// scanNumber consumes a number literal of the JSON grammar. intShaped
// reports that it has no fraction and no exponent.
func (d *decoder) scanNumber() (lit []byte, intShaped bool, err error) {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.i = i
		if i >= len(b) {
			return nil, false, errUnexpectedEnd
		}
		return nil, false, d.errorf("invalid character %q in numeric literal", b[i])
	}
	intShaped = true
	if i < len(b) && b[i] == '.' {
		intShaped = false
		i++
		if !digits() {
			d.i = i
			return nil, false, d.errorf("missing digits after decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		intShaped = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.i = i
			return nil, false, d.errorf("missing digits in exponent")
		}
	}
	lit = b[d.i:i]
	d.i = i
	return lit, intShaped, nil
}

// skip validates and consumes one value of any type. depth is the
// number of containers open around it.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth++; depth > maxDepth {
			return d.errorf("exceeded max depth")
		}
		closer := c + 2 // '}' after '{', ']' after '['
		d.i++
		d.ws()
		if d.peek() == closer {
			d.i++
			return nil
		}
		for {
			if c == '{' {
				if _, _, err := d.scanString(); err != nil {
					return err
				}
				d.ws()
				if err := d.expect(':'); err != nil {
					return err
				}
				d.ws()
			}
			if err := d.skip(depth); err != nil {
				return err
			}
			d.ws()
			if d.peek() == ',' {
				d.i++
				d.ws()
				continue
			}
			return d.expect(closer)
		}
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '-' || ('0' <= c && c <= '9'):
		_, _, err := d.scanNumber()
		return err
	case d.literal("null") || d.literal("true") || d.literal("false"):
		return nil
	case d.i >= len(d.b):
		return errUnexpectedEnd
	default:
		return d.errorf("invalid character %q looking for beginning of value", c)
	}
}

// mismatch is the error for a well-formed value of the wrong type.
func (d *decoder) mismatch(want string) error {
	if d.i >= len(d.b) {
		return errUnexpectedEnd
	}
	return d.errorf("cannot decode value starting %q as %s", d.b[d.i], want)
}

// The scalar decoders leave *v alone on null, as encoding/json does.

func (d *decoder) uint(v *uint64) error {
	if d.literal("null") {
		return nil
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.mismatch("unsigned integer")
	}
	lit, _, err := d.scanNumber()
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return d.errorf("number %s is not an unsigned 64-bit integer", lit)
	}
	*v = n
	return nil
}

func (d *decoder) int(v *int64) error {
	if d.literal("null") {
		return nil
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.mismatch("integer")
	}
	lit, _, err := d.scanNumber()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return d.errorf("number %s is not a 64-bit integer", lit)
	}
	*v = n
	return nil
}

func (d *decoder) goInt(v *int) error {
	n := int64(*v)
	if err := d.int(&n); err != nil {
		return err
	}
	if int64(int(n)) != n {
		return d.errorf("number %d overflows int", n)
	}
	*v = int(n)
	return nil
}

func (d *decoder) bool(v *bool) error {
	switch {
	case d.literal("null"):
	case d.literal("true"):
		*v = true
	case d.literal("false"):
		*v = false
	default:
		return d.mismatch("boolean")
	}
	return nil
}

// stringBytes consumes a string literal and returns its value, which is
// valid only until the next call (it may sit in line or in a scratch).
func (d *decoder) stringBytes() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.mismatch("string")
	}
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	return unquote(make([]byte, 0, len(raw)), raw), nil
}

func (d *decoder) string(v *string) error {
	return d.interned(v, func(b []byte) string { return string(b) })
}

// interned is string for a field whose usual values are declared
// constants, which intern returns without allocating.
func (d *decoder) interned(v *string, intern func([]byte) string) error {
	if d.literal("null") {
		return nil
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	*v = intern(b)
	return nil
}

// array walks a JSON array, calling elem with the cursor at each
// element. It reports null (no array at all) and empty separately,
// because encoding/json leaves a nil slice for one and an empty one for
// the other.
func (d *decoder) array(what string, elem func() error) (null bool, err error) {
	if d.literal("null") {
		return true, nil
	}
	if d.peek() != '[' {
		return false, d.mismatch(what)
	}
	d.i++
	d.ws()
	if d.peek() == ']' {
		d.i++
		return false, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		d.ws()
		if d.peek() == ',' {
			d.i++
			d.ws()
			continue
		}
		return false, d.expect(']')
	}
}

// elemsHint guesses how many elements the array at the cursor holds —
// commas up to the first ']' — so a flat array is allocated once.
func (d *decoder) elemsHint() int {
	n := 1
	for _, c := range d.b[d.i:] {
		if c == ']' {
			break
		}
		if c == ',' {
			n++
		}
	}
	return n
}

func (d *decoder) ints(v *[]int64) error {
	out, null, err := d.appendInts(make([]int64, 0, d.elemsHint()))
	if *v = out; null {
		*v = nil
	}
	return err
}

// appendInts appends the JSON array of integers at the cursor to dst.
func (d *decoder) appendInts(dst []int64) (out []int64, null bool, err error) {
	null, err = d.array("array of integers", func() error {
		var n int64
		if err := d.int(&n); err != nil {
			return err
		}
		dst = append(dst, n)
		return nil
	})
	return dst, null, err
}

// batch decodes every row into one flat backing array and hands each
// row out as a capped sub-slice of it, so appending to one row never
// writes into the next.
func (d *decoder) batch(v *[][]int64) error {
	rows, elems := d.batchHint()
	out := make([][]int64, 0, rows)
	flat := make([]int64, 0, elems)
	null, err := d.array("array of integer arrays", func() error {
		start := len(flat)
		var null bool
		var err error
		if flat, null, err = d.appendInts(flat); null || err != nil {
			out = append(out, nil)
			return err
		}
		out = append(out, flat[start:len(flat):len(flat)])
		return nil
	})
	if *v = out; null {
		*v = nil
	}
	return err
}

// batchHint guesses, for the array of arrays at the cursor, how many
// rows it holds and how many integers at most: the commas at its top
// level, and all of its commas. A wrong guess costs only a regrowth:
// a row cut from the array before it grew still holds its integers.
func (d *decoder) batchHint() (rows, elems int) {
	if d.peek() != '[' {
		return 0, 0
	}
	depth := 0
	for _, c := range d.b[d.i:] {
		switch c {
		case '[':
			depth++
		case ']':
			if depth--; depth <= 0 {
				return rows + 1, elems + 1
			}
		case ',':
			elems++
			if depth == 1 {
				rows++
			}
		}
	}
	return rows + 1, elems + 1
}

func (d *decoder) strings(v *[]string) error {
	out := []string{}
	null, err := d.array("array of strings", func() error {
		var s string
		if err := d.string(&s); err != nil {
			return err
		}
		out = append(out, s)
		return nil
	})
	if *v = out; null {
		*v = nil
	}
	return err
}

// tuple decodes a JSON array of scalars into (*v)[:0], growing it as
// needed; null makes it nil. An element that is not a scalar — null, an
// array, an object — leaves the frame well-formed, as it always was, and
// decodes to NaN, which no number literal produces and ToTuple accepts
// for no attribute kind.
func (d *decoder) tuple(v *Tuple) error {
	out := *v
	if out == nil {
		out = make(Tuple, 0, d.elemsHint())
	}
	out = out[:0]
	null, err := d.array("tuple", func() error {
		switch c := d.peek(); {
		case c == '"':
			var s string
			if err := d.string(&s); err != nil {
				return err
			}
			out = append(out, value.String_(s))
		case c == '-' || ('0' <= c && c <= '9'):
			lit, intShaped, err := d.scanNumber()
			if err != nil {
				return err
			}
			out = append(out, numberValue(lit, intShaped))
		case d.literal("true"):
			out = append(out, value.Bool(true))
		case d.literal("false"):
			out = append(out, value.Bool(false))
		default:
			if !d.literal("null") {
				if err := d.skip(2); err != nil {
					return err
				}
			}
			out = append(out, value.Float(math.NaN()))
		}
		return nil
	})
	if *v = out; null {
		*v = nil
	}
	return err
}

// literals decodes a JSON array into the []any encoding/json with
// UseNumber would make of it; null makes it nil. An array whose text
// repeats ld's remembered one is given ld's literals in a new slice.
// Otherwise one pass records where each element sits, then the
// elements are cut from a single string copy of the array's text.
func (d *decoder) literals(ld *LiteralDecoder, v *[]any) error {
	// A JSON array's text ends itself, so a prefix match is the whole
	// value.
	if n := len(ld.text); n > 0 && len(d.b)-d.i >= n && string(d.b[d.i:d.i+n]) == ld.text {
		d.i += n
		*v = make([]any, len(ld.lits))
		copy(*v, ld.lits)
		return nil
	}
	type elem struct {
		kind       byte // 's' plain string, 'q' string to unquote, 'n' number, 't', 'f', 'z' null, 'v' array or object
		start, end int  // offsets into the array's text
	}
	var stack [32]elem
	elems := stack[:0]
	origin := d.i
	null, err := d.array("tuple", func() error {
		e := elem{kind: 'v', start: d.i - origin}
		var err error
		switch c := d.peek(); {
		case c == '"':
			var plain bool
			if _, plain, err = d.scanString(); plain {
				e.kind = 's'
			} else {
				e.kind = 'q'
			}
		case c == '-' || ('0' <= c && c <= '9'):
			e.kind = 'n'
			_, _, err = d.scanNumber()
		case d.literal("true"):
			e.kind = 't'
		case d.literal("false"):
			e.kind = 'f'
		case d.literal("null"):
			e.kind = 'z'
		default:
			err = d.skip(2)
		}
		e.end = d.i - origin
		elems = append(elems, e)
		return err
	})
	if *v = nil; null || err != nil {
		return err
	}
	text := string(d.b[origin:d.i])
	out := make([]any, len(elems))
	scalars := true
	for i, e := range elems {
		switch e.kind {
		case 's':
			out[i] = text[e.start+1 : e.end-1]
		case 'q':
			out[i] = string(unquote(nil, d.b[origin+e.start+1:origin+e.end-1]))
		case 'n':
			out[i] = json.Number(text[e.start:e.end])
		case 't':
			out[i] = true
		case 'f':
			out[i] = false
		case 'v':
			scalars = false
			dec := json.NewDecoder(strings.NewReader(text[e.start:e.end]))
			dec.UseNumber()
			if err := dec.Decode(&out[i]); err != nil {
				return err
			}
		}
	}
	*v = out
	ld.text, ld.lits = "", ld.lits[:0]
	if scalars && len(text) <= RetainBytes {
		ld.text, ld.lits = text, append(ld.lits, out...)
	}
	return nil
}

// numberValue types a number literal by its shape: an int when it has
// no fraction or exponent and fits an int64, otherwise a float (±Inf
// beyond float64 range, which ToTuple rejects for every kind).
func numberValue(lit []byte, intShaped bool) value.Value {
	if intShaped {
		if n, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
			return value.Int(n)
		}
	}
	f, _ := strconv.ParseFloat(string(lit), 64)
	return value.Float(f)
}

func (d *decoder) tuples(v *[]Tuple) error {
	// Elements beyond the new length keep their capacity for the next
	// frame, the way the outer slice does.
	prev := (*v)[:cap(*v)]
	out := (*v)[:0]
	if out == nil {
		out = []Tuple{}
	}
	null, err := d.array("array of tuples", func() error {
		var t Tuple
		if len(out) < len(prev) {
			t = prev[len(out)]
		}
		if err := d.tuple(&t); err != nil {
			return err
		}
		out = append(out, t)
		return nil
	})
	if *v = out; null {
		*v = nil
	}
	return err
}

// cold delimits the value at the cursor and hands it to encoding/json,
// with UseNumber so a predicate's numeric bounds keep their literals.
func (d *decoder) cold(v any) error {
	start := d.i
	if err := d.skip(1); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(d.b[start:d.i]))
	dec.UseNumber()
	return dec.Decode(v)
}

// raw copies the value at the cursor (null included, as
// json.RawMessage's own UnmarshalJSON does).
func (d *decoder) raw(v *json.RawMessage) error {
	start := d.i
	if err := d.skip(1); err != nil {
		return err
	}
	*v = append((*v)[:0], d.b[start:d.i]...)
	return nil
}
