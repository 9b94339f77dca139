// Package wiretest is the reference the socket codec is tested against:
// encoding/json, with UseNumber on the decode side, over shadow copies
// of wire.Request and wire.Message whose tuples are plain []any — no
// MarshalJSON / UnmarshalJSON in the way, so what comes out is exactly
// what the reflection-based codec the protocol grew up on reads and
// writes. Tests only; nothing on the socket path imports it.
package wiretest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// request and message mirror wire.Request and wire.Message field for
// field (checkShadow holds them to it) with method-less tuples.
type request struct {
	ID uint64 `json:"id"`
	Op string `json:"op"`

	Relation string          `json:"relation,omitempty"`
	Attrs    []wire.Attr     `json:"attrs,omitempty"`
	Source   string          `json:"source,omitempty"`
	Name     string          `json:"name,omitempty"`
	Pred     *wire.Predicate `json:"pred,omitempty"`
	PredID   int64           `json:"pred_id,omitempty"`
	TupleID  int64           `json:"tuple_id,omitempty"`
	Tuple    []any           `json:"tuple,omitempty"`
	Tuples   [][]any         `json:"tuples,omitempty"`
	Rules    []string        `json:"rules,omitempty"`
	Preds    bool            `json:"preds,omitempty"`

	FromSeq uint64 `json:"from_seq,omitempty"`
	MinSeq  uint64 `json:"min_seq,omitempty"`

	Trace *wire.TraceContext `json:"trace,omitempty"`
}

type message struct {
	Type string `json:"type"`

	ID      uint64           `json:"id,omitempty"`
	OK      bool             `json:"ok,omitempty"`
	Error   string           `json:"error,omitempty"`
	TupleID int64            `json:"tuple_id,omitempty"`
	PredID  int64            `json:"pred_id,omitempty"`
	Name    string           `json:"name,omitempty"`
	Matches []int64          `json:"matches,omitempty"`
	Batch   [][]int64        `json:"batch,omitempty"`
	Stats   *wire.Stats      `json:"stats,omitempty"`
	Firings int              `json:"firings,omitempty"`
	Backup  *wire.BackupInfo `json:"backup,omitempty"`
	WalSeq  uint64           `json:"wal_seq,omitempty"`
	Leader  string           `json:"leader,omitempty"`

	Seq      uint64 `json:"seq,omitempty"`
	Rule     string `json:"rule,omitempty"`
	Relation string `json:"relation,omitempty"`
	EventOp  string `json:"event_op,omitempty"`
	EventID  int64  `json:"event_id,omitempty"`
	Tuple    []any  `json:"tuple,omitempty"`
	Depth    int    `json:"depth,omitempty"`
	Dropped  uint64 `json:"dropped,omitempty"`

	Snap      json.RawMessage `json:"snap,omitempty"`
	Rec       json.RawMessage `json:"rec,omitempty"`
	LeaderSeq uint64          `json:"leader_seq,omitempty"`

	Trace *wire.TraceContext `json:"trace,omitempty"`
}

// CheckShadows reports how the shadow structs have drifted from the
// wire structs: every field must match in order, name and tag, and in
// type unless it holds tuples.
func CheckShadows() error {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeOf(request{}), reflect.TypeOf(wire.Request{})},
		{reflect.TypeOf(message{}), reflect.TypeOf(wire.Message{})},
	} {
		shadow, real := pair[0], pair[1]
		if shadow.NumField() != real.NumField() {
			return fmt.Errorf("wiretest: %s has %d fields, wire.%s has %d", shadow.Name(), shadow.NumField(), real.Name(), real.NumField())
		}
		for i := 0; i < real.NumField(); i++ {
			sf, rf := shadow.Field(i), real.Field(i)
			if sf.Name != rf.Name || sf.Tag != rf.Tag {
				return fmt.Errorf("wiretest: field %d of %s is %s `%s`, wire has %s `%s`", i, shadow.Name(), sf.Name, sf.Tag, rf.Name, rf.Tag)
			}
			if sf.Type != rf.Type && !strings.HasPrefix(sf.Name, "Tuple") {
				return fmt.Errorf("wiretest: field %s of %s is %s, wire has %s", sf.Name, shadow.Name(), sf.Type, rf.Type)
			}
		}
	}
	return nil
}

// MarshalRequest is the frame encoding/json writes for r: the object a
// json.Encoder emits, newline included.
func MarshalRequest(r *wire.Request) ([]byte, error) {
	var s request
	copyFields(&s, r)
	return marshal(&s)
}

// MarshalMessage is MarshalRequest for a server-to-client frame.
func MarshalMessage(m *wire.Message) ([]byte, error) {
	var s message
	copyFields(&s, m)
	return marshal(&s)
}

func marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// UnmarshalRequest decodes line the way the reflection-based read loops
// did — one value off a json.Decoder with UseNumber, the rest of the
// line ignored — and types the tuples by the literal-shape rule.
func UnmarshalRequest(line []byte) (*wire.Request, error) {
	var s request
	if err := unmarshal(line, &s); err != nil {
		return nil, err
	}
	r := new(wire.Request)
	copyFields(r, &s)
	return r, nil
}

// UnmarshalMessage is UnmarshalRequest for a server-to-client frame.
func UnmarshalMessage(line []byte) (*wire.Message, error) {
	var s message
	if err := unmarshal(line, &s); err != nil {
		return nil, err
	}
	m := new(wire.Message)
	copyFields(m, &s)
	return m, nil
}

// UnmarshalMessageLiterals is UnmarshalMessage for a subscriber: the
// tuple comes back as the UseNumber decode left it — string, bool,
// json.Number, nil, nested []any and map[string]any — and the message's
// own Tuple stays nil.
func UnmarshalMessageLiterals(line []byte) (*wire.Message, []any, error) {
	var s message
	if err := unmarshal(line, &s); err != nil {
		return nil, nil, err
	}
	lits := s.Tuple
	s.Tuple = nil
	m := new(wire.Message)
	copyFields(m, &s)
	return m, lits, nil
}

func unmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	return dec.Decode(v)
}

// copyFields copies src's fields into dst's same-named ones, converting
// the tuple fields between their two representations.
func copyFields(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < s.NumField(); i++ {
		df, sf := d.Field(i), s.Field(i)
		switch v := sf.Interface().(type) {
		case wire.Tuple:
			df.Set(reflect.ValueOf(literals(v)))
		case []wire.Tuple:
			var out [][]any
			if v != nil {
				out = make([][]any, len(v))
				for j, t := range v {
					out[j] = literals(t)
				}
			}
			df.Set(reflect.ValueOf(out))
		case []any:
			df.Set(reflect.ValueOf(typed(v)))
		case [][]any:
			var out []wire.Tuple
			if v != nil {
				out = make([]wire.Tuple, len(v))
				for j, t := range v {
					out[j] = typed(t)
				}
			}
			df.Set(reflect.ValueOf(out))
		default:
			df.Set(sf)
		}
	}
}

// literals is the []any the reflection-based codec carried for a tuple:
// int64, float64, string and bool.
func literals(t wire.Tuple) []any {
	if t == nil {
		return nil
	}
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = wire.FromValue(v)
	}
	return out
}

// typed applies the number-literal rule of docs/PROTOCOL.md to a
// UseNumber decode: a literal that strconv.ParseInt takes is an int, any
// other number a float (±Inf when out of range), and an element that is
// no scalar is NaN. int64 and float64 elements (a tuple built in
// process) keep their type.
func typed(raw []any) wire.Tuple {
	if raw == nil {
		return nil
	}
	t := make(wire.Tuple, len(raw))
	for i, e := range raw {
		switch e := e.(type) {
		case json.Number:
			if n, err := strconv.ParseInt(string(e), 10, 64); err == nil {
				t[i] = value.Int(n)
			} else {
				f, _ := strconv.ParseFloat(string(e), 64)
				t[i] = value.Float(f)
			}
		case int64:
			t[i] = value.Int(e)
		case float64:
			t[i] = value.Float(e)
		case string:
			t[i] = value.String_(e)
		case bool:
			t[i] = value.Bool(e)
		default:
			t[i] = value.Float(math.NaN())
		}
	}
	return t
}

// SameRequest reports whether two requests are equal field by field,
// nil and empty slices distinguished, NaN tuple elements equal to each
// other.
func SameRequest(a, b *wire.Request) bool {
	x, y := *a, *b
	x.Tuple, y.Tuple, x.Tuples, y.Tuples = nil, nil, nil, nil
	if !reflect.DeepEqual(x, y) || !sameTuple(a.Tuple, b.Tuple) ||
		(a.Tuples == nil) != (b.Tuples == nil) || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !sameTuple(a.Tuples[i], b.Tuples[i]) {
			return false
		}
	}
	return true
}

// SameMessage is SameRequest for messages.
func SameMessage(a, b *wire.Message) bool {
	x, y := *a, *b
	x.Tuple, y.Tuple = nil, nil
	return reflect.DeepEqual(x, y) && sameTuple(a.Tuple, b.Tuple)
}

func sameTuple(a, b wire.Tuple) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() {
			return false
		}
		if a[i].Kind() == value.KindFloat {
			if math.Float64bits(a[i].AsFloat()) != math.Float64bits(b[i].AsFloat()) &&
				!(math.IsNaN(a[i].AsFloat()) && math.IsNaN(b[i].AsFloat())) {
				return false
			}
		} else if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
