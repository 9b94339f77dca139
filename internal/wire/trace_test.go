package wire

import (
	"encoding/json"
	"testing"

	"predmatch/internal/value"
)

// TestUntracedFramesUnchanged pins the exact bytes of requests and
// messages that carry no trace context: the `trace` field is opt-in,
// so a client or server from before the field existed must see
// byte-identical frames. If this test breaks, the protocol changed for
// everyone, not just traced traffic.
func TestUntracedFramesUnchanged(t *testing.T) {
	req := Request{ID: 7, Op: OpInsert, Relation: "emp",
		Tuple: Tuple{value.String_("ada"), value.Int(52), value.Int(18000), value.String_("deli")}}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	wantReq := `{"id":7,"op":"insert","relation":"emp","tuple":["ada",52,18000,"deli"]}`
	if string(b) != wantReq {
		t.Errorf("untraced request bytes changed:\ngot  %s\nwant %s", b, wantReq)
	}

	msg := Message{Type: TypeResponse, ID: 7, OK: true, TupleID: 3, WalSeq: 42}
	b, err = json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	wantMsg := `{"type":"response","id":7,"ok":true,"tuple_id":3,"wal_seq":42}`
	if string(b) != wantMsg {
		t.Errorf("untraced message bytes changed:\ngot  %s\nwant %s", b, wantMsg)
	}
}

// TestTraceContextRoundTrip covers the traced path: the context
// survives a request and response round trip, and absent contexts
// decode to nil (not a zero-value struct).
func TestTraceContextRoundTrip(t *testing.T) {
	req := Request{ID: 9, Op: OpMatch, Relation: "emp",
		Tuple: Tuple{value.String_("bob"), value.Int(33), value.Int(25000), value.String_("shoe")},
		Trace: &TraceContext{ID: "00000000deadbeef", Span: 1}}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace == nil || back.Trace.ID != "00000000deadbeef" || back.Trace.Span != 1 {
		t.Errorf("request trace context = %+v", back.Trace)
	}

	msg := Message{Type: TypeResponse, ID: 9, OK: true,
		Trace: &TraceContext{ID: "00000000deadbeef"}}
	b, err = json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var mback Message
	if err := json.Unmarshal(b, &mback); err != nil {
		t.Fatal(err)
	}
	if mback.Trace == nil || mback.Trace.ID != "00000000deadbeef" || mback.Trace.Span != 0 {
		t.Errorf("message trace context = %+v", mback.Trace)
	}

	// Span 0 (the common case: only an id) stays off the wire.
	b, _ = json.Marshal(TraceContext{ID: "ff"})
	if string(b) != `{"id":"ff"}` {
		t.Errorf("minimal context = %s", b)
	}

	var plain Request
	if err := json.Unmarshal([]byte(`{"id":1,"op":"ping"}`), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Errorf("absent trace decoded to %+v, want nil", plain.Trace)
	}
}
