package trace

import (
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Sampled() {
		t.Error("nil tracer: Sampled() = true")
	}
	if tr.Slow() != 0 {
		t.Error("nil tracer: Slow() != 0")
	}
	if sp := tr.Start("op"); sp != nil {
		t.Error("nil tracer: Start returned a span")
	}
	if sp := tr.Join("op", 42); sp != nil {
		t.Error("nil tracer: Join returned a span")
	}
	if id := tr.RecordSlow("op", time.Now(), time.Second); id != "" {
		t.Errorf("nil tracer: RecordSlow returned %q", id)
	}
	if got := tr.Traces(); got != nil {
		t.Error("nil tracer: Traces() != nil")
	}
	if got := tr.SlowTraces(); got != nil {
		t.Error("nil tracer: SlowTraces() != nil")
	}
}

// TestNilSpanIsNoOp pins constraint 1 of the package: an untraced
// request threads nil through the whole pipeline, so every Span method
// must tolerate a nil receiver.
func TestNilSpanIsNoOp(t *testing.T) {
	var sp *Span
	if c := sp.Child("x"); c != nil {
		t.Error("nil span: Child returned non-nil")
	}
	sp.SetStr("k", "v")
	sp.SetInt("k", 1)
	sp.SetBool("k", true)
	sp.End()
	if sp.TraceID() != "" {
		t.Error("nil span: TraceID() != \"\"")
	}
	if sp.SpanID() != 0 {
		t.Error("nil span: SpanID() != 0")
	}
	if sp.Duration() != 0 {
		t.Error("nil span: Duration() != 0")
	}
}

func TestFormatParseID(t *testing.T) {
	cases := []struct {
		id   uint64
		wire string
	}{
		{1, "0000000000000001"},
		{0xdeadbeef, "00000000deadbeef"},
		{0xffffffffffffffff, "ffffffffffffffff"},
	}
	for _, c := range cases {
		if got := FormatID(c.id); got != c.wire {
			t.Errorf("FormatID(%#x) = %q, want %q", c.id, got, c.wire)
		}
		got, ok := ParseID(c.wire)
		if !ok || got != c.id {
			t.Errorf("ParseID(%q) = %#x, %v; want %#x, true", c.wire, got, ok, c.id)
		}
	}
	// Short (unpadded) ids parse too: slow-log readers paste truncated ids.
	if got, ok := ParseID("deadbeef"); !ok || got != 0xdeadbeef {
		t.Errorf("ParseID(\"deadbeef\") = %#x, %v", got, ok)
	}
	for _, bad := range []string{"", "0", "0000000000000000", "xyz", "12345678901234567", "-1", "0x12"} {
		if _, ok := ParseID(bad); ok {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

func TestSampling(t *testing.T) {
	always := New(Config{SampleEvery: 1})
	for i := 0; i < 10; i++ {
		if !always.Sampled() {
			t.Fatal("SampleEvery=1: Sampled() = false")
		}
	}
	never := New(Config{SampleEvery: 0})
	for i := 0; i < 10; i++ {
		if never.Sampled() {
			t.Fatal("SampleEvery=0: Sampled() = true")
		}
	}
	third := New(Config{SampleEvery: 3})
	n := 0
	for i := 0; i < 300; i++ {
		if third.Sampled() {
			n++
		}
	}
	if n != 100 {
		t.Errorf("SampleEvery=3: sampled %d of 300, want 100", n)
	}
}

func TestStartEndRecordsTrace(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("server.match")
	root.SetStr("rel", "emp")
	stab := root.Child("shard.stab")
	stab.SetInt("results", 7)
	stab.End()
	wantID := root.TraceID()
	root.End()
	root.End() // double End must be a no-op

	got := tr.Traces()
	if len(got) != 1 {
		t.Fatalf("Traces() returned %d traces, want 1", len(got))
	}
	rec := got[0]
	if rec.ID != wantID {
		t.Errorf("trace id %q, want %q", rec.ID, wantID)
	}
	if rec.Root != "server.match" {
		t.Errorf("root name %q", rec.Root)
	}
	if rec.Remote || rec.Slow {
		t.Errorf("unexpected flags: remote=%v slow=%v", rec.Remote, rec.Slow)
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(rec.Spans))
	}
	// Spans land in end order: the child ended first.
	if rec.Spans[0].Name != "shard.stab" || rec.Spans[0].Parent != 1 || rec.Spans[0].ID != 2 {
		t.Errorf("child span = %+v", rec.Spans[0])
	}
	if rec.Spans[1].Name != "server.match" || rec.Spans[1].Parent != 0 || rec.Spans[1].ID != 1 {
		t.Errorf("root span = %+v", rec.Spans[1])
	}
	if len(rec.Spans[0].Attrs) != 1 || rec.Spans[0].Attrs[0].Int != 7 {
		t.Errorf("child attrs = %+v", rec.Spans[0].Attrs)
	}
}

func TestJoinRecordsRemoteTrace(t *testing.T) {
	tr := New(Config{})
	sp := tr.Join("follower.apply", 0xabc)
	if got := sp.TraceID(); got != FormatID(0xabc) {
		t.Errorf("joined TraceID = %q, want %q", got, FormatID(0xabc))
	}
	sp.End()
	got := tr.Traces()
	if len(got) != 1 || !got[0].Remote || got[0].ID != FormatID(0xabc) {
		t.Fatalf("joined trace = %+v", got)
	}
}

func TestRecordSlow(t *testing.T) {
	tr := New(Config{Slow: time.Millisecond})
	id := tr.RecordSlow("server.insert", time.Now().Add(-5*time.Millisecond), 5*time.Millisecond,
		Str("rel", "emp"))
	if _, ok := ParseID(id); !ok {
		t.Fatalf("RecordSlow returned unparseable id %q", id)
	}
	slow := tr.SlowTraces()
	if len(slow) != 1 {
		t.Fatalf("SlowTraces() returned %d, want 1", len(slow))
	}
	rec := slow[0]
	if !rec.Slow || rec.ID != id || rec.Root != "server.insert" {
		t.Errorf("slow trace = %+v", rec)
	}
	if len(rec.Spans) != 1 || rec.Spans[0].ID != 1 || rec.Spans[0].Parent != 0 {
		t.Errorf("synthesized trace is not root-only: %+v", rec.Spans)
	}
	// The merged view includes slow-ring-only traces.
	if all := tr.Traces(); len(all) != 1 || all[0].ID != id {
		t.Errorf("Traces() merge = %d traces", len(all))
	}
}

// TestSlowTraceDedup: a sampled trace past the slow threshold enters
// both rings but must appear once in the merged view.
func TestSlowTraceDedup(t *testing.T) {
	tr := New(Config{Slow: time.Nanosecond})
	sp := tr.Start("server.match")
	time.Sleep(time.Millisecond) // guarantee the 1ns threshold is crossed
	sp.End()
	if slow := tr.SlowTraces(); len(slow) != 1 || !slow[0].Slow {
		t.Fatalf("SlowTraces() = %d", len(slow))
	}
	if all := tr.Traces(); len(all) != 1 {
		t.Errorf("Traces() returned %d, want 1 (dedup across rings)", len(all))
	}
}

func TestRingEvictionAndOrder(t *testing.T) {
	tr := New(Config{Capacity: 8}) // one slot per stripe
	var last string
	for i := 0; i < 100; i++ {
		sp := tr.Start("op")
		last = sp.TraceID()
		sp.End()
	}
	got := tr.Traces()
	if len(got) != 8 {
		t.Fatalf("Traces() returned %d, want 8 (ring capacity)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Seq < got[i].Seq {
			t.Fatalf("traces not newest-first at %d", i)
		}
	}
	if got[0].ID != last {
		t.Errorf("newest trace is %s, want %s", got[0].ID, last)
	}
}

// TestIDUniqueness: the splitmix64 walk must not repeat or mint the
// reserved 0 over a realistic run.
func TestIDUniqueness(t *testing.T) {
	tr := New(Config{})
	seen := make(map[string]bool, 10000)
	for i := 0; i < 10000; i++ {
		id := FormatID(tr.newID())
		if seen[id] {
			t.Fatalf("duplicate id %s after %d draws", id, i)
		}
		if strings.Trim(id, "0") == "" {
			t.Fatal("minted the reserved zero id")
		}
		seen[id] = true
	}
}
