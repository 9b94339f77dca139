package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"predmatch/internal/value"
	"predmatch/internal/wire"
	"predmatch/internal/wire/wiretest"
)

// pinnedRecord and indexedSnapshot were written by the commit before
// tuples were typed (Event.Tuple and SnapRow.Tuple were []any under
// encoding/json's reflection), and indexedSnapshot also by a daemon that
// still kept secondary indexes. A data directory from those versions
// must keep recovering, and a mixed-version replica set must keep
// exchanging records, so both directions are pinned: today's structs
// marshal to exactly pinnedRecord and pinnedSnapshot, and the old bytes
// decode to exactly those structs.
const (
	pinnedRecord = `{"seq":42,"kind":"mutate","events":[{"rel":"emp","op":"insert","id":7,"tuple":["ada \u003c\u0026\u003e \u2028 é",9007199254740993,2.5,true]},{"rel":"emp","op":"update","id":7,"tuple":["",-1,1e+21,false]},{"rel":"emp","op":"update","id":8,"tuple":["x",0,1e-7,false]},{"rel":"emp","op":"delete","id":7}],"trace":{"id":"00000000deadbeef","span":3}}`
	// length and CRC32C of that payload, as the old writer framed it
	pinnedRecordHeader = "5a01000031e80de2"
	// pinnedSnapshot is indexedSnapshot as today's writer encodes it.
	pinnedSnapshot  = `{"version":1,"seq":9,"taken_unix_nano":5,"relations":[{"name":"emp","attrs":[{"name":"name","type":"string"},{"name":"n","type":"int"},{"name":"f","type":"float"},{"name":"b","type":"bool"}],"next_id":9,"rows":[{"id":1,"tuple":["ada",9007199254740993,0.1,true]},{"id":8,"tuple":["b\"q",-5,-3,false]}]},{"name":"empty","attrs":[{"name":"k","type":"int"}],"next_id":1,"rows":null}],"rules":["rule r1 on insert to emp when n \u003c 100 do log 'x'"],"preds":[{"id":1099511627776,"pred":{"rel":"emp","clauses":[{"attr":"n","lo":{"value":3}}]}}],"next_pred_id":1099511627777}`
	indexedSnapshot = `{"version":1,"seq":9,"taken_unix_nano":5,"relations":[{"name":"emp","attrs":[{"name":"name","type":"string"},{"name":"n","type":"int"},{"name":"f","type":"float"},{"name":"b","type":"bool"}],"indexes":["n"],"next_id":9,"rows":[{"id":1,"tuple":["ada",9007199254740993,0.1,true]},{"id":8,"tuple":["b\"q",-5,-3,false]}]},{"name":"empty","attrs":[{"name":"k","type":"int"}],"next_id":1,"rows":null}],"rules":["rule r1 on insert to emp when n \u003c 100 do log 'x'"],"preds":[{"id":1099511627776,"pred":{"rel":"emp","clauses":[{"attr":"n","lo":{"value":3}}]}}],"next_pred_id":1099511627777}`
)

func TestPinnedRecordBytes(t *testing.T) {
	rec := &Record{Seq: 42, Kind: KindMutate, Events: []Event{
		{Rel: "emp", Op: "insert", ID: 7, Tuple: wireTuple("ada <&> \u2028 \u00e9", 9007199254740993, 2.5, true)},
		{Rel: "emp", Op: "update", ID: 7, Tuple: wireTuple("", -1, 1e21, false)},
		{Rel: "emp", Op: "update", ID: 8, Tuple: wireTuple("x", 0, 1e-7, false)},
		{Rel: "emp", Op: "delete", ID: 7},
	}, Trace: &wire.TraceContext{ID: "00000000deadbeef", Span: 3}}
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(frame[headerBytes:]); got != pinnedRecord {
		t.Errorf("record payload changed:\ngot  %s\nwant %s", got, pinnedRecord)
	}
	if got := hex.EncodeToString(frame[:headerBytes]); got != pinnedRecordHeader {
		t.Errorf("record header = %s, want %s", got, pinnedRecordHeader)
	}

	// The old writer's frame through today's replay scanner.
	header, _ := hex.DecodeString(pinnedRecordHeader)
	var back *Record
	valid, torn, err := scanRecords(bytes.NewReader(append(header, pinnedRecord...)), func(r *Record) error {
		back = r
		return nil
	})
	if err != nil || torn || back == nil || valid != int64(headerBytes+len(pinnedRecord)) {
		t.Fatalf("scan of the old frame: valid=%d torn=%v err=%v", valid, torn, err)
	}
	if again, _ := json.Marshal(back); string(again) != pinnedRecord {
		t.Errorf("old record re-encodes as\n%s", again)
	}
	ins := back.Events[0].Tuple
	if len(back.Events) != 4 || back.Events[3].Tuple != nil || len(ins) != 4 ||
		!value.Equal(ins[0], value.String_("ada <&> \u2028 \u00e9")) || !value.Equal(ins[1], value.Int(9007199254740993)) ||
		!value.Equal(ins[2], value.Float(2.5)) || !value.Equal(ins[3], value.Bool(true)) ||
		!value.Equal(back.Events[1].Tuple[2], value.Float(1e21)) {
		t.Errorf("old record decodes to %+v", back.Events)
	}
}

func TestPinnedSnapshotBytes(t *testing.T) {
	snap := &Snapshot{Version: 1, Seq: 9, TakenUnixNano: 5, Relations: []SnapRelation{{
		Name:   "emp",
		Attrs:  []wire.Attr{{Name: "name", Type: "string"}, {Name: "n", Type: "int"}, {Name: "f", Type: "float"}, {Name: "b", Type: "bool"}},
		NextID: 9,
		Rows:   []SnapRow{{ID: 1, Tuple: wireTuple("ada", 9007199254740993, 0.1, true)}, {ID: 8, Tuple: wireTuple("b\"q", -5, -3.0, false)}},
	}, {Name: "empty", Attrs: []wire.Attr{{Name: "k", Type: "int"}}, NextID: 1}},
		Rules:      []string{"rule r1 on insert to emp when n < 100 do log 'x'"},
		Preds:      []SnapPred{{ID: 1 << 40, Pred: wire.Predicate{Rel: "emp", Clauses: []wire.Clause{{Attr: "n", Lo: &wire.Bound{Value: int64(3)}}}}}},
		NextPredID: 1<<40 + 1}
	if got, err := json.Marshal(snap); err != nil || string(got) != pinnedSnapshot {
		t.Errorf("snapshot payload changed (%v):\ngot  %s\nwant %s", err, got, pinnedSnapshot)
	}

	// The old writer's checkpoint file, and today's, through today's
	// reader: the old one's "indexes" key is ignored.
	for _, payload := range []string{indexedSnapshot, pinnedSnapshot} {
		var hdr [headerBytes]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte(payload), castagnoli))
		path := filepath.Join(t.TempDir(), "old.ckpt")
		if err := os.WriteFile(path, append(hdr[:], payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := json.Marshal(back); string(again) != pinnedSnapshot {
			t.Errorf("snapshot %.40s... re-encodes as\n%s", payload, again)
		}
		rows := back.Relations[0].Rows
		// -3 was a float attribute's value: it comes back int-shaped and
		// wire.ToTuple makes it a float again, as it did for json.Number.
		if !value.Equal(rows[0].Tuple[1], value.Int(9007199254740993)) || !value.Equal(rows[0].Tuple[2], value.Float(0.1)) ||
			!value.Equal(rows[1].Tuple[2], value.Int(-3)) || back.Relations[1].Rows != nil {
			t.Errorf("snapshot %.40s... decodes to %+v", payload, back.Relations)
		}
	}
}

// TestPinnedPayloadsShipUnchanged: a leader streams these payloads in
// repl frames, copied as they are. The frames must be the bytes the
// encoding/json path that used to re-marshal them wrote, so a follower
// of either version reads the same stream.
func TestPinnedPayloadsShipUnchanged(t *testing.T) {
	for _, m := range []*wire.Message{
		{Type: wire.TypeRepl, Rec: json.RawMessage(pinnedRecord), LeaderSeq: 42},
		{Type: wire.TypeRepl, Snap: json.RawMessage(pinnedSnapshot), LeaderSeq: 42},
		{Type: wire.TypeRepl, Snap: json.RawMessage(indexedSnapshot), LeaderSeq: 42},
	} {
		got, err := wire.AppendMessage(nil, m)
		want, werr := wiretest.MarshalMessage(m)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Errorf("repl frame (%v, %v):\ngot  %s\nwant %s", err, werr, got, want)
		}
	}
}
