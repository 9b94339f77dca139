package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"predmatch/internal/matchertest"
	"predmatch/internal/value"
	"predmatch/internal/wire"
	"predmatch/internal/wire/wiretest"
)

// The decode half of the differential check: codec and oracle must
// agree on whether line is a frame, and on what it says. The one
// deliberate difference (docs/PROTOCOL.md, Framing) is excused here and
// nowhere else: the codec matches top-level keys by exact spelling,
// encoding/json also case-insensitively.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	if foldedKey(line) {
		return
	}
	var req wire.Request
	got := wire.DecodeRequest(line, &req)
	want, werr := wiretest.UnmarshalRequest(line)
	if (got == nil) != (werr == nil) {
		t.Fatalf("request %q: codec says %v, encoding/json says %v", line, got, werr)
	}
	if got == nil && !wiretest.SameRequest(&req, want) {
		t.Fatalf("request %q:\ncodec         %+v\nencoding/json %+v", line, req, *want)
	}
	// Again into the same Request, which reuses its tuple scratch and
	// its relation string.
	if got == nil {
		if err := wire.DecodeRequest(line, &req); err != nil || !wiretest.SameRequest(&req, want) {
			t.Fatalf("request %q decoded again: %v\ncodec         %+v\nencoding/json %+v", line, err, req, *want)
		}
	}
	var msg wire.Message
	got = wire.DecodeMessage(line, &msg)
	wantMsg, werr := wiretest.UnmarshalMessage(line)
	if (got == nil) != (werr == nil) {
		t.Fatalf("message %q: codec says %v, encoding/json says %v", line, got, werr)
	}
	if got == nil && !wiretest.SameMessage(&msg, wantMsg) {
		t.Fatalf("message %q:\ncodec         %+v\nencoding/json %+v", line, msg, *wantMsg)
	}
	// The subscriber's decode: the same message minus its typed tuple,
	// and the tuple as the literals UseNumber leaves. It runs three
	// times: on fresh state, right after the same line (a fan-out's
	// repeat, which reuses the remembered literals), and right after a
	// different tuple (which must forget them).
	wantMsg, wantLits, werr := wiretest.UnmarshalMessageLiterals(line)
	var fresh, other wire.LiteralDecoder
	if _, err := other.Decode([]byte(otherTupleFrame), &msg); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		name string
		ld   *wire.LiteralDecoder
	}{{"fresh", &fresh}, {"repeated", &fresh}, {"after another tuple", &other}} {
		lits, got := pass.ld.Decode(line, &msg)
		if (got == nil) != (werr == nil) {
			t.Fatalf("message literals (%s) %q: codec says %v, encoding/json says %v", pass.name, line, got, werr)
		}
		if got == nil && (!wiretest.SameMessage(&msg, wantMsg) || !reflect.DeepEqual(lits, wantLits)) {
			t.Fatalf("message literals (%s) %q:\ncodec         %+v %#v\nencoding/json %+v %#v", pass.name, line, msg, lits, *wantMsg, wantLits)
		}
	}
}

// otherTupleFrame is the notification checkDecode's miss path decodes
// first: its relation and tuple appear in no seed.
const otherTupleFrame = `{"type":"notify","relation":"other rel","tuple":["other",-7.25e3,true,null]}`

// foldedKey reports whether line is an object with a top-level key that
// is a protocol key in every respect but letter case.
func foldedKey(line []byte) bool {
	var keys map[string]json.RawMessage
	if json.Unmarshal(line, &keys) != nil {
		// Not one clean object; a json.Decoder may still take its first
		// value, so look for the keys in that.
		dec := json.NewDecoder(bytes.NewReader(line))
		if dec.Decode(&keys) != nil {
			return false
		}
	}
	for k := range keys {
		for _, name := range protocolKeys {
			if k != name && strings.EqualFold(k, name) {
				return true
			}
		}
	}
	return false
}

var protocolKeys = []string{
	"id", "op", "relation", "attrs", "source", "name", "pred", "pred_id",
	"tuple_id", "tuple", "tuples", "rules", "preds", "from_seq", "min_seq", "trace",
	"type", "ok", "error", "matches", "batch", "stats", "firings", "backup", "wal_seq",
	"leader", "seq", "rule", "event_op", "event_id", "depth", "dropped", "snap", "rec",
	"leader_seq",
}

// The encode half: for a Request and a Message built from the fuzz
// input, the codec's frame is encoding/json's, byte for byte, and the
// two fail on the same values.
func checkEncode(t *testing.T, data []byte) {
	t.Helper()
	g := gen{b: data}
	req, msg := g.request(), g.message()

	prefix := []byte("kept")
	got, err := wire.AppendRequest(prefix, req)
	want, werr := wiretest.MarshalRequest(req)
	if (err == nil) != (werr == nil) {
		t.Fatalf("request %+v: codec says %v, encoding/json says %v", *req, err, werr)
	}
	if err != nil {
		want = nil
	}
	if !bytes.Equal(got, append([]byte("kept"), want...)) {
		t.Fatalf("request %+v:\ncodec         %q\nencoding/json %q", *req, got[4:], want)
	}

	got, err = wire.AppendMessage(prefix, msg)
	want, werr = wiretest.MarshalMessage(msg)
	if (err == nil) != (werr == nil) {
		t.Fatalf("message %+v: codec says %v, encoding/json says %v", *msg, err, werr)
	}
	if err != nil {
		want = nil
	}
	if !bytes.Equal(got, append([]byte("kept"), want...)) {
		t.Fatalf("message %+v:\ncodec         %q\nencoding/json %q", *msg, got[4:], want)
	}
}

// gen draws struct fields from the fuzz input; an exhausted input
// yields zeros, so short inputs make sparse structs.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) flag() bool { return g.byte()&1 == 1 }

func (g *gen) u64() uint64 {
	var raw [8]byte
	g.b = g.b[copy(raw[:], g.b):]
	// Mostly small numbers, sometimes all 64 bits.
	if raw[7]&3 != 0 {
		return uint64(raw[0])
	}
	return binary.LittleEndian.Uint64(raw[:])
}

// str is raw input bytes: invalid UTF-8, control characters, HTML
// characters and U+2028 all reach the string escaper this way.
func (g *gen) str() string {
	n := int(g.byte() % 16)
	if n > len(g.b) {
		n = len(g.b)
	}
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

func (g *gen) value() value.Value {
	switch g.byte() % 4 {
	case 0:
		return value.Int(int64(g.u64()))
	case 1:
		return value.Float(math.Float64frombits(binary.LittleEndian.Uint64(append(g.take(8), make([]byte, 8)...))))
	case 2:
		return value.String_(g.str())
	default:
		return value.Bool(g.flag())
	}
}

func (g *gen) take(n int) []byte {
	if n > len(g.b) {
		n = len(g.b)
	}
	out := g.b[:n:n]
	g.b = g.b[n:]
	return out
}

// tuple is nil, empty or a few values.
func (g *gen) tuple() wire.Tuple {
	switch n := int(g.byte() % 6); n {
	case 0:
		return nil
	case 1:
		return wire.Tuple{}
	default:
		t := make(wire.Tuple, n-1)
		for i := range t {
			t[i] = g.value()
		}
		return t
	}
}

func (g *gen) ints() []int64 {
	switch n := int(g.byte() % 5); n {
	case 0:
		return nil
	case 1:
		return []int64{}
	default:
		ids := make([]int64, n-1)
		for i := range ids {
			ids[i] = int64(g.u64())
		}
		return ids
	}
}

func (g *gen) trace() *wire.TraceContext {
	if !g.flag() {
		return nil
	}
	return &wire.TraceContext{ID: g.str(), Span: g.u64()}
}

// rawJSON is a replication payload as a log stores it: compact, with
// encoding/json's escapes, which AppendMessage copies as it is (what it
// makes of other bytes is TestReplPayloadsVerbatim's).
func (g *gen) rawJSON() json.RawMessage {
	return [...]json.RawMessage{
		nil, {}, json.RawMessage(`null`), json.RawMessage(`{"seq":1,"kind":"rule","source":"a\u003cb \u0026 c\u003ed"}`),
		json.RawMessage(`{"seq":2,"events":[]}`), json.RawMessage(`{"s":"\u2028 and \u2029"}`),
		json.RawMessage(`{"s":"é \"q\" \\"}`), json.RawMessage(`[1,2.5,true,null]`),
	}[g.byte()%8]
}

func (g *gen) request() *wire.Request {
	r := &wire.Request{ID: g.u64(), Op: g.str(), Relation: g.str(), Source: g.str(), Name: g.str(),
		PredID: int64(g.u64()), TupleID: int64(g.u64()), Tuple: g.tuple(), Preds: g.flag(),
		FromSeq: g.u64(), MinSeq: g.u64(), Trace: g.trace()}
	if g.flag() {
		r.Attrs = []wire.Attr{{Name: g.str(), Type: "int"}}
	}
	if g.flag() {
		r.Pred = &wire.Predicate{Rel: g.str(), Clauses: []wire.Clause{
			{Attr: g.str(), Eq: g.str()},
			{Attr: "n", Lo: &wire.Bound{Value: int64(g.u64())}, Hi: &wire.Bound{Value: 2.5, Open: g.flag()}},
		}}
	}
	for n := g.byte() % 4; n > 0; n-- {
		r.Tuples = append(r.Tuples, g.tuple())
		r.Rules = append(r.Rules, g.str())
	}
	return r
}

func (g *gen) message() *wire.Message {
	m := &wire.Message{Type: g.str(), ID: g.u64(), OK: g.flag(), Error: g.str(), TupleID: int64(g.u64()),
		PredID: int64(g.u64()), Name: g.str(), Matches: g.ints(), Firings: int(int32(g.u64())),
		WalSeq: g.u64(), Leader: g.str(), Seq: g.u64(), Rule: g.str(), Relation: g.str(), EventOp: g.str(),
		EventID: int64(g.u64()), Tuple: g.tuple(), Depth: int(int32(g.u64())), Dropped: g.u64(),
		Snap: g.rawJSON(), Rec: g.rawJSON(), LeaderSeq: g.u64(), Trace: g.trace()}
	for n := g.byte() % 4; n > 0; n-- {
		m.Batch = append(m.Batch, g.ints())
	}
	if g.flag() {
		m.Stats = &wire.Stats{Rules: []string{g.str()}, Matcher: g.str(), Predicates: int(g.byte()),
			Shards: []wire.ShardStat{{Rel: g.str(), Version: g.u64()}}}
	}
	if g.flag() {
		m.Backup = &wire.BackupInfo{Path: g.str(), Seq: g.u64(), Bytes: int64(g.u64())}
	}
	return m
}

// codecSeeds are frames the protocol has actually carried, then the
// corners of the JSON and number grammars.
var codecSeeds = []string{
	// TestUntracedFramesUnchanged
	`{"id":7,"op":"insert","relation":"emp","tuple":["ada",52,18000,"deli"]}`,
	`{"type":"response","id":7,"ok":true,"tuple_id":3,"wal_seq":42}`,
	// the retired meta section of a stats frame
	`{"type":"response","id":7,"ok":true,"stats":{"rules":["band"],"matcher":"meta","predicates":2,` +
		`"shards":[{"rel":"emp","predicates":2,"version":5,"structure":"hint"}],` +
		`"meta":{"default":"ibs","rels":[{"rel":"emp","structure":"hint","since_secs":41}]},` +
		`"conns":1,"subs":0,"delivered":3,"dropped":0}}`,
	// traced request and response
	`{"id":9,"op":"match","relation":"emp","tuple":["bob",33,25000,"shoe"],"trace":{"id":"00000000deadbeef","span":1}}`,
	`{"type":"response","id":9,"ok":true,"matches":[1099511627776,3],"trace":{"id":"00000000deadbeef"}}`,
	// replication frames
	`{"type":"repl","rec":{"seq":3,"kind":"mutate","events":[{"rel":"emp","op":"insert","id":1,"tuple":["a",1]}]},"leader_seq":3}`,
	`{"type":"repl","snap":{"version":1,"seq":7,"relations":[]},"leader_seq":9}`,
	`{"id":1,"op":"replicate","from_seq":12}`,
	// the other ops
	`{"id":2,"op":"declare","relation":"emp","attrs":[{"name":"name","type":"string"},{"name":"age","type":"int"}]}`,
	`{"id":3,"op":"addpred","pred":{"rel":"emp","clauses":[{"attr":"age","lo":{"value":30},"hi":{"value":40,"open":true}},{"attr":"name","eq":"ada"}]}}`,
	`{"id":4,"op":"matchbatch","relation":"emp","tuples":[["a",1],["b",2],null,[]],"min_seq":5}`,
	`{"id":5,"op":"subscribe","rules":["r1","r2"],"preds":true}`,
	`{"type":"response","id":4,"ok":true,"batch":[[1,2],[],null]}`,
	`{"type":"notify","seq":1,"rule":"r1","relation":"emp","event_op":"insert","event_id":4,"tuple":["ada",52,1.5,true],"depth":1,"dropped":2}`,
	`{"type":"response","id":6,"ok":true,"backup":{"path":"/d/snap-7.ckpt","seq":7,"bytes":412}}`,
	`{"type":"response","id":0,"error":"server at connection limit"}`,
	// number literals
	`{"id":1,"op":"match","tuple":[1e3,1.0,-0,9223372036854775808,-9223372036854775808,1e999,-1e999,0.1e-7,1E+2]}`,
	`{"id":1.0}`, `{"id":1e3}`, `{"id":-0}`, `{"id":18446744073709551615}`, `{"id":18446744073709551616}`,
	`{"pred_id":-9223372036854775808,"tuple_id":9223372036854775808}`, `{"id":01}`, `{"id":-}`, `{"id":1.}`, `{"id":1e}`,
	`{"type":"notify","depth":2147483648,"firings":-3}`, `{"type":"notify","depth":9223372036854775808}`,
	// duplicate, unknown and null keys and values
	`{"id":1,"id":2,"op":"ping","op":"stats"}`,
	`{"tuple":[1,2,3],"tuple":[4]}`, `{"tuple":[1],"tuple":null}`, `{"tuple":[]}`, `{"tuples":[[1,2],[3]],"tuples":[[4]]}`,
	`{"trace":{"id":"a","span":1},"trace":{"id":"b"}}`, `{"attrs":[{"name":"a","type":"int"}],"attrs":[{"name":"b"}]}`,
	`{"id":null,"op":null,"relation":null,"tuple":null,"tuples":null,"rules":null,"preds":null,"pred":null,"trace":null}`,
	`{"type":null,"matches":null,"batch":null,"stats":null,"snap":null,"rec":null,"ok":null,"depth":null}`,
	`{"matches":[null,1],"batch":[null,[null]],"rules":[null,"x"],"tuples":[null]}`,
	`{"tuple":[null,[1,[2]],{"a":{"b":null}},"x"]}`,
	`{"unknown":{"a":[1,2,{"b":"c"}],"d":null},"id":3,"also":"x","n":-1.5e+10}`,
	`{"ID":3,"Op":"ping"}`, `{"TUPLE":[1]}`, `{"\u0069d":5,"o\u0070":"ping"}`,
	// strings
	`{"op":"a\"b\\c\/d\b\f\n\r\t\u00e9\u2028\ud83d\ude00\ud83dx\ude00"}`, `{"op":"<&>` + "\u2028\u2029\u00e9\xff\xc3" + `"}`,
	`{"op":"\x"}`, `{"op":"\u12"}`, `{"op":"\u12G4"}`, `{"op":"a` + "\x01" + `"}`, `{"op":"a`, `{"op":"\'"}`, `{"op":"\`,
	`{"relation":"` + "\xed\xa0\x80" + `","tuple":["` + "\xff" + `"]}`,
	// structure
	``, ` `, `null`, ` null `, `nullx`, `null x`, `{}`, ` { } `, `{"id":1} trailing`, `{"id":1}{"id":2}`, `[]`, `[1]`, `"x"`, `5`, `true`,
	`{`, `{"id"`, `{"id":`, `{"id":1`, `{"id":1,`, `{"id":1,}`, `{,}`, `{"id" 1}`, `{"id":1 "op":"x"}`, `{id:1}`, `{"a":tru}`, `{"a":nul}`,
	`{"tuple":[1,]}`, `{"tuple":[,1]}`, `{"tuple":[1 2]}`, `{"tuple":"x"}`, `{"tuple":{}}`, `{"matches":[1.5]}`, `{"matches":["1"]}`,
	`{"id":"1"}`, `{"op":1}`, `{"ok":1}`, `{"ok":"true"}`, `{"rules":["a",1]}`, `{"rules":"a"}`, `{"batch":[1]}`, `{"pred":5}`, `{"stats":[]}`,
	"{\"id\":\t1 ,\r\n\"op\" : \"ping\" }", "{\"id\":\v1}", "\ufeff{}",
	strings.Repeat(`{"a":`, 40) + `1` + strings.Repeat(`}`, 40),
	`{"a":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}`,
	`{"a":` + strings.Repeat(`[`, 10000) + strings.Repeat(`]`, 10000) + `}`,
	`{"tuple":[` + strings.Repeat(`[`, 9998) + strings.Repeat(`]`, 9998) + `]}`,
	`{"tuple":[` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `]}`,
	`{"pred":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}`,
}

// FuzzWireCodec holds the hand-written codec to encoding/json, which
// stays in the tree as that reference (package wiretest): any input
// line decodes the same or is rejected by both, and any struct encodes
// to the same bytes.
func FuzzWireCodec(f *testing.F) {
	if err := wiretest.CheckShadows(); err != nil {
		f.Fatal(err)
	}
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkEncode(t, data)
	})
}

// TestNumberLiteralRule pins the rule that replaced UseNumber: a number
// literal is typed by its shape, then ToTuple coerces it to the
// attribute's kind under the accept/reject rules json.Number had.
func TestNumberLiteralRule(t *testing.T) {
	f := matchertest.NewFixture()
	rel, _ := f.Catalog.Get("items") // (int, int, int, float)
	for _, tc := range []struct {
		lit       string
		shape     value.Value
		asInt     bool // accepted for an int attribute
		asFloat   bool // accepted for a float attribute
		intValue  int64
		floatBits uint64
	}{
		{"7", value.Int(7), true, true, 7, math.Float64bits(7)},
		{"-0", value.Int(0), true, true, 0, math.Float64bits(0)},
		{"1e3", value.Float(1000), false, true, 0, math.Float64bits(1000)},
		{"1.0", value.Float(1), false, true, 0, math.Float64bits(1)},
		{"-0.0", value.Float(math.Copysign(0, -1)), false, true, 0, math.Float64bits(math.Copysign(0, -1))},
		{"9223372036854775807", value.Int(math.MaxInt64), true, true, math.MaxInt64, math.Float64bits(9223372036854775807)},
		{"9223372036854775808", value.Float(9223372036854775808), false, true, 0, math.Float64bits(9223372036854775808)},
		{"9007199254740993", value.Int(9007199254740993), true, true, 9007199254740993, math.Float64bits(9007199254740992)},
		{"1e999", value.Float(math.Inf(1)), false, false, 0, 0},
		{"null", value.Float(math.NaN()), false, false, 0, 0},
		{`"7"`, value.String_("7"), false, false, 0, 0},
		{"true", value.Bool(true), false, false, 0, 0},
	} {
		var req wire.Request
		line := `{"tuple":[` + tc.lit + `,1,1,` + tc.lit + `]}`
		if err := wire.DecodeRequest([]byte(line), &req); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		got := req.Tuple[0]
		if got.Kind() != tc.shape.Kind() || (!value.Equal(got, tc.shape) && !math.IsNaN(tc.shape.AsFloat())) {
			t.Errorf("%s decodes to %s %v, want %s %v", tc.lit, got.Kind(), got, tc.shape.Kind(), tc.shape)
		}
		one := value.Int(1)
		tup, err := wire.ToTuple(rel, wire.Tuple{req.Tuple[0], one, one, value.Float(1)})
		if (err == nil) != tc.asInt || (err == nil && tup[0].AsInt() != tc.intValue) {
			t.Errorf("%s as int: %v, %v", tc.lit, tup, err)
		}
		tup, err = wire.ToTuple(rel, wire.Tuple{one, one, one, req.Tuple[3]})
		if (err == nil) != tc.asFloat || (err == nil && math.Float64bits(tup[3].AsFloat()) != tc.floatBits) {
			t.Errorf("%s as float: %v, %v", tc.lit, tup, err)
		}
	}
}

// TestTupleJSON: the typed tuple under encoding/json — the WAL's and
// the benchmark's path — reads and writes what the codec does.
func TestTupleJSON(t *testing.T) {
	type row struct {
		Tuple wire.Tuple `json:"tuple"`
		Opt   wire.Tuple `json:"opt,omitempty"`
	}
	for _, tc := range []struct {
		in   row
		want string
	}{
		{row{}, `{"tuple":null}`},
		{row{Tuple: wire.Tuple{}, Opt: wire.Tuple{}}, `{"tuple":[]}`},
		{row{Tuple: wire.Tuple{value.String_("a<b"), value.Int(-5), value.Float(2.5), value.Float(1e21), value.Bool(false)}},
			`{"tuple":["a\u003cb",-5,2.5,1e+21,false]}`},
	} {
		b, err := json.Marshal(tc.in)
		if err != nil || string(b) != tc.want {
			t.Errorf("Marshal(%+v) = %s, %v; want %s", tc.in, b, err, tc.want)
		}
		var back row
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		again, _ := json.Marshal(back)
		if string(again) != tc.want || (back.Tuple == nil) != (tc.in.Tuple == nil) {
			t.Errorf("round trip of %s gives %s (%+v)", tc.want, again, back)
		}
	}
	if _, err := json.Marshal(wire.Tuple{value.Float(math.NaN())}); err == nil {
		t.Error("NaN marshalled")
	}
	var tup wire.Tuple
	if err := json.Unmarshal([]byte(`{"a":1}`), &tup); err == nil {
		t.Error("object unmarshalled into a tuple")
	}
}

// TestMessageLiterals: a subscriber gets the tuple as the frame spells
// it — number texts verbatim, not re-formatted from a parsed value —
// and nothing typed.
func TestMessageLiterals(t *testing.T) {
	line := []byte(`{"type":"notify","seq":1,"rule":"r","tuple":["s","a\u003cb",1152921504606846976,0.50,1E+2,-0,true,false,null,[1]],"depth":1}`)
	var m wire.Message
	var ld wire.LiteralDecoder
	lits, err := ld.Decode(line, &m)
	want := []any{"s", "a<b", json.Number("1152921504606846976"), json.Number("0.50"), json.Number("1E+2"), json.Number("-0"),
		true, false, nil, []any{json.Number("1")}}
	if err != nil || !reflect.DeepEqual(lits, want) || m.Tuple != nil || m.Rule != "r" || m.Depth != 1 {
		t.Errorf("Decode = %#v, %v (message %+v); want %#v", lits, err, m, want)
	}
	// The literals are cut from a copy: the frame's buffer is free the
	// moment the decode returns.
	wire.Scribble(line)
	if !reflect.DeepEqual(lits, want) {
		t.Errorf("after the frame was overwritten: %#v", lits)
	}
	for _, tc := range []struct {
		frame string
		want  []any
	}{
		{`{"type":"response","id":1,"ok":true}`, nil},
		{`{"tuple":null}`, nil},
		{`{"tuple":[]}`, []any{}},
		{`{"tuple":[1],"tuple":null}`, nil},
	} {
		if lits, err := ld.Decode([]byte(tc.frame), &m); err != nil || !reflect.DeepEqual(lits, tc.want) {
			t.Errorf("%s: %#v, %v; want %#v", tc.frame, lits, err, tc.want)
		}
	}
	if _, err := ld.Decode([]byte(`{"tuple":"x"}`), &m); err == nil {
		t.Error("a string accepted as a tuple")
	}
}

// TestLiteralDecoderReuse: a repeated tuple's literals are the
// remembered ones, in a slice of the frame's own; a tuple with an array
// or an object in it, or longer than RetainBytes, is decoded afresh
// every time; a repeated relation name is the remembered string.
func TestLiteralDecoderReuse(t *testing.T) {
	shared := func(a, b any) bool {
		return unsafe.StringData(string(a.(json.Number))) == unsafe.StringData(string(b.(json.Number)))
	}
	long := strings.Repeat("x", wire.RetainBytes)
	for _, tc := range []struct {
		name, tuple string
		reused      bool
	}{
		{"scalars", `[1,"a\u003c",true,null,2.5]`, true},
		{"nested", `[1,"a",[2]]`, false},
		{"object", `[1,{"b":2}]`, false},
		{"long", `[1,"` + long + `"]`, false},
	} {
		var ld wire.LiteralDecoder
		var m wire.Message
		frame := []byte(`{"type":"notify","rule":"r1","relation":"emp","tuple":` + tc.tuple + `}`)
		first, err := ld.Decode(frame, &m)
		rel := m.Relation
		if err != nil {
			t.Fatal(err)
		}
		frame = []byte(`{"type":"notify","rule":"r2","relation":"emp","tuple":` + tc.tuple + `}`)
		second, err := ld.Decode(frame, &m)
		if err != nil || !reflect.DeepEqual(first, second) || m.Rule != "r2" {
			t.Fatalf("%s: repeat decodes to %#v, %v (%+v); first was %#v", tc.name, second, err, m, first)
		}
		if got := shared(first[0], second[0]); got != tc.reused {
			t.Errorf("%s: literals shared = %v, want %v", tc.name, got, tc.reused)
		}
		if unsafe.StringData(rel) != unsafe.StringData(m.Relation) {
			t.Errorf("%s: relation decoded afresh", tc.name)
		}
		first[0], second[0] = "x", "y"
		if third, _ := ld.Decode(frame, &m); third[0] != json.Number("1") || first[0] != "x" || second[0] != "y" {
			t.Errorf("%s: a write to one frame's tuple shows in another: %#v, %#v, %#v", tc.name, first, second, third)
		}
	}
}

// TestDecodeReuse: a request naming the previous request's relation
// gets the previous string, never a view into its line, and a request
// naming none gets none; a batch's rows are capped sub-slices of one
// array, so appending to one leaves the next alone.
func TestDecodeReuse(t *testing.T) {
	var r wire.Request
	decode := func(frame string) {
		t.Helper()
		line := []byte(frame)
		if err := wire.DecodeRequest(line, &r); err != nil {
			t.Fatal(err)
		}
		wire.Scribble(line)
	}
	decode(`{"id":1,"op":"match","relation":"emp"}`)
	first := r.Relation
	decode(`{"id":2,"op":"match","relation":"emp"}`)
	if r.Relation != "emp" || unsafe.StringData(r.Relation) != unsafe.StringData(first) {
		t.Errorf("repeated relation %q decoded afresh", r.Relation)
	}
	decode(`{"id":3,"op":"match","relation":"dept"}`)
	if r.Relation != "dept" {
		t.Errorf("relation = %q, want dept", r.Relation)
	}
	decode(`{"id":4,"op":"stats"}`)
	if r.Relation != "" {
		t.Errorf("a request naming no relation decoded as %q", r.Relation)
	}

	var m wire.Message
	if err := wire.DecodeMessage([]byte(`{"batch":[[1,2],[],null,[3]]}`), &m); err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2}, {}, nil, {3}}
	if !reflect.DeepEqual(m.Batch, want) || m.Batch[1] == nil {
		t.Fatalf("batch = %#v, want %#v", m.Batch, want)
	}
	if unsafe.Pointer(&m.Batch[3][0]) != unsafe.Add(unsafe.Pointer(&m.Batch[0][0]), 2*unsafe.Sizeof(int64(0))) {
		t.Error("the rows do not share one array")
	}
	if grown := append(m.Batch[0], 9); len(grown) != 3 || m.Batch[3][0] != 3 {
		t.Errorf("appending to row 0 changed row 3 to %v", m.Batch[3])
	}
}

// TestReplPayloadsVerbatim: AppendMessage copies snap and rec as they
// are, where encoding/json would compact and escape them; the sender
// owns their form (the log's payloads are already encoding/json's).
func TestReplPayloadsVerbatim(t *testing.T) {
	payload := "{ \"s\" : \"<&> \u2028\" }"
	got, err := wire.AppendMessage(nil, &wire.Message{Type: wire.TypeRepl, Snap: json.RawMessage(payload), Rec: json.RawMessage(payload)})
	want := `{"type":"repl","snap":` + payload + `,"rec":` + payload + "}\n"
	if err != nil || string(got) != want {
		t.Errorf("AppendMessage = %q, %v; want %q", got, err, want)
	}
}

// TestCodecAllocs is the codec's allocation budget on the benchmark's
// frames: nothing to encode into a warmed buffer; a 15-int match
// request decodes into the reused tuple scratch and the previous
// request's relation string, allocating nothing; a 3-ID response into
// its ID slice; a 64-row batch response into its rows and one flat
// array of IDs.
func TestCodecAllocs(t *testing.T) {
	tup := make(wire.Tuple, 15)
	for i := range tup {
		tup[i] = value.Int(int64(1000 * i))
	}
	req := &wire.Request{ID: 123456, Op: wire.OpMatch, Relation: "rel3", Tuple: tup}
	msg := &wire.Message{Type: wire.TypeResponse, ID: 123456, OK: true, Matches: []int64{1 << 40, 1<<40 + 1, 1<<40 + 2}}
	buf := make([]byte, 0, 1024)
	reqFrame, _ := wire.AppendRequest(nil, req)
	msgFrame, _ := wire.AppendMessage(nil, msg)

	if n := testing.AllocsPerRun(200, func() { buf, _ = wire.AppendRequest(buf[:0], req) }); n != 0 {
		t.Errorf("AppendRequest: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { buf, _ = wire.AppendMessage(buf[:0], msg) }); n != 0 {
		t.Errorf("AppendMessage: %v allocs, want 0", n)
	}
	var back wire.Request
	if n := testing.AllocsPerRun(200, func() {
		if err := wire.DecodeRequest(reqFrame, &back); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeRequest: %v allocs, want 0", n)
	}
	var mback wire.Message
	if n := testing.AllocsPerRun(200, func() {
		if err := wire.DecodeMessage(msgFrame, &mback); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("DecodeMessage: %v allocs, want <= 2", n)
	}
	if !wiretest.SameRequest(&back, req) || !wiretest.SameMessage(&mback, msg) {
		t.Errorf("round trip: %+v / %+v", back, mback)
	}
	batch := make([][]int64, 64)
	for i := range batch {
		batch[i] = msg.Matches
	}
	batchFrame, _ := wire.AppendMessage(nil, &wire.Message{Type: wire.TypeResponse, ID: 1, OK: true, Batch: batch})
	if n := testing.AllocsPerRun(200, func() {
		if err := wire.DecodeMessage(batchFrame, &mback); err != nil || len(mback.Batch) != len(batch) {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("DecodeMessage of a %d-row batch: %v allocs, want <= 2", len(batch), n)
	}

	// A subscriber's 15-attribute tuples, each unlike the last: one copy
	// of its text, the slice, and one interface box per number —
	// nothing per attribute besides.
	var ld wire.LiteralDecoder
	var tupFrames [2][]byte
	for i := range tupFrames {
		tup[0] = value.Int(int64(i))
		tupFrames[i], _ = wire.AppendMessage(nil, &wire.Message{Tuple: tup})
	}
	next := 0
	if n := testing.AllocsPerRun(200, func() {
		next++
		if lits, err := ld.Decode(tupFrames[next%2], &mback); err != nil || len(lits) != len(tup) {
			t.Fatal(lits, err)
		}
	}); n > float64(len(tup)+2) {
		t.Errorf("Decode of a new tuple: %v allocs for %d attributes, want <= arity+2", n, len(tup))
	}
	// The same tuple again, as a rule fan-out sends it: the slice only.
	if n := testing.AllocsPerRun(200, func() {
		if lits, err := ld.Decode(tupFrames[0], &mback); err != nil || len(lits) != len(tup) {
			t.Fatal(lits, err)
		}
	}); n > 1 {
		t.Errorf("Decode of a repeated tuple: %v allocs for %d attributes, want <= 1", n, len(tup))
	}
}
