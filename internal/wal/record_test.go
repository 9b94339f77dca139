package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// TestMutatePayloadMatchesEncodingJSON is the differential behind the
// hand-written mutate encoder: over random records — any number of
// events, deletes without tuples, empty tuples, trace contexts with and
// without a span, strings that need every kind of escape, numbers at
// the edges of both formats, and mutate records that carry a field of
// another kind — the frame's payload is json.Marshal's, byte for byte,
// its header the payload's length and CRC32C, and the frame reads back
// through the replay scanner. A value encoding/json refuses (NaN) is
// refused here too, leaving the buffer as it was.
func TestMutatePayloadMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	strs := []string{"", "emp", "insert", "a\"b\\c", "<&>", "\u2028\u2029", "caf\u00e9 \U0001F600", "\xff\xc3 broken", "tab\tnl\n\x01", "00000000deadbeef"}
	str := func() string { return strs[rng.Intn(len(strs))] }
	val := func() value.Value {
		switch rng.Intn(8) {
		case 0:
			return value.Int(rng.Int63() - rng.Int63())
		case 1:
			return value.Int([]int64{0, -1, math.MaxInt64, math.MinInt64, 9007199254740993}[rng.Intn(5)])
		case 2:
			return value.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
		case 3:
			return value.Float([]float64{0, math.Copysign(0, -1), 1e21, 1e-7, 1e20, 1e-6, math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5}[rng.Intn(9)])
		case 4:
			return value.Bool(rng.Intn(2) == 0)
		default:
			return value.String_(str())
		}
	}
	prefix := []byte("kept")
	for i := 0; i < 3000; i++ {
		rec := &Record{Seq: uint64(rng.Int63n(1 << uint(1+rng.Intn(62)))), Kind: KindMutate}
		for n := rng.Intn(5); n > 0; n-- {
			ev := Event{Rel: str(), Op: str(), ID: rng.Int63() - rng.Int63()}
			switch rng.Intn(5) {
			case 0: // a delete: no tuple
			case 1:
				ev.Tuple = wire.Tuple{}
			default:
				ev.Tuple = make(wire.Tuple, 1+rng.Intn(6))
				for j := range ev.Tuple {
					ev.Tuple[j] = val()
				}
			}
			rec.Events = append(rec.Events, ev)
		}
		if rng.Intn(8) == 0 {
			rec.Events = []Event{}
		}
		switch rng.Intn(4) {
		case 0:
			rec.Trace = &wire.TraceContext{ID: str()}
		case 1:
			rec.Trace = &wire.TraceContext{ID: str(), Span: uint64(rng.Int63())}
		}
		// Now and then a mutate record that is not purely one, or is
		// another kind altogether: those take the encoding/json path.
		switch rng.Intn(12) {
		case 0:
			rec.Relation = "emp"
		case 1:
			rec.PredID = 7
		case 2:
			rec.Pred = &wire.Predicate{Rel: "emp"}
		case 3:
			rec.Kind, rec.Source = KindRule, "rule r on insert to emp do log '<x>'"
		case 4:
			rec.Attrs = []wire.Attr{{Name: "a", Type: "int"}}
		}

		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := appendFrame(prefix, rec)
		if err != nil {
			t.Fatalf("record %+v: %v", rec, err)
		}
		if !bytes.HasPrefix(frame, prefix) {
			t.Fatalf("record %+v: frame does not extend the buffer", rec)
		}
		frame = frame[len(prefix):]
		if got := frame[headerBytes:]; !bytes.Equal(got, want) {
			t.Fatalf("record %+v:\nlog           %s\nencoding/json %s", rec, got, want)
		}
		if n, sum := binary.LittleEndian.Uint32(frame[0:4]), binary.LittleEndian.Uint32(frame[4:8]); int(n) != len(want) || sum != crc32.Checksum(want, castagnoli) {
			t.Fatalf("record %+v: header says %d bytes, sum %08x", rec, n, sum)
		}
		valid, torn, err := scanRecords(bytes.NewReader(frame), func(back *Record) error {
			if back.Seq != rec.Seq || back.Kind != rec.Kind || len(back.Events) != len(rec.Events) {
				t.Fatalf("record %+v reads back as %+v", rec, back)
			}
			return nil
		})
		if err != nil || torn || valid != int64(len(frame)) {
			t.Fatalf("record %+v: scan valid=%d torn=%v err=%v", rec, valid, torn, err)
		}
	}

	nan := &Record{Seq: 1, Kind: KindMutate, Events: []Event{{Rel: "emp", Op: "insert", ID: 1, Tuple: wire.Tuple{value.Float(math.NaN())}}}}
	if _, err := json.Marshal(nan); err == nil {
		t.Fatal("encoding/json took NaN")
	}
	if frame, err := appendFrame(prefix, nan); err == nil || !bytes.Equal(frame, prefix) {
		t.Errorf("NaN record: frame %q, err %v; want the buffer unchanged and an error", frame, err)
	}
}

// TestAppendAllocs: in steady state — buffer grown, nobody parked in
// WaitSeq — appending the benchmark's record, one insert of a
// 15-attribute tuple, allocates nothing, with or without metrics.
func TestAppendAllocs(t *testing.T) {
	l := openEmpty(t, testOptions(t, SyncOff))
	defer l.Close()
	tup := make(wire.Tuple, 15)
	for i := range tup {
		tup[i] = value.Int(int64(1000 * i))
	}
	tup[3] = value.String_("shoe")
	rec := &Record{Kind: KindMutate, Events: []Event{{Rel: "rel3", Op: "insert", ID: 1, Tuple: tup}}}
	n := testing.AllocsPerRun(200, func() {
		rec.Events[0].ID++
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Append of a one-event mutate record: %v allocs, want 0", n)
	}
}
