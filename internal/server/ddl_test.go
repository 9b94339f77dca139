package server_test

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"predmatch/internal/server"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// rawConn speaks NDJSON to a server directly, so a test sees the exact
// error text a response carries and can send requests the typed client
// refuses to build.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	r  *bufio.Reader
	id uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, r: bufio.NewReader(nc)}
}

func (c *rawConn) call(req wire.Request) wire.Message {
	c.t.Helper()
	return c.callWith(req, nil)
}

// callWith sends req with extra top-level fields merged into its line,
// so a test can send what an older client sent: fields Request no
// longer has.
func (c *rawConn) callWith(req wire.Request, extra map[string]string) wire.Message {
	c.t.Helper()
	c.id++
	req.ID = c.id
	line, err := json.Marshal(&req)
	if err != nil {
		c.t.Fatal(err)
	}
	if len(extra) > 0 {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			c.t.Fatal(err)
		}
		for k, v := range extra {
			obj[k] = v
		}
		if line, err = json.Marshal(obj); err != nil {
			c.t.Fatal(err)
		}
	}
	if _, err := c.nc.Write(append(line, '\n')); err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.r.ReadBytes('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	var m wire.Message
	if err := json.Unmarshal(resp, &m); err != nil {
		c.t.Fatalf("decode %s: %v", resp, err)
	}
	if m.ID != req.ID {
		c.t.Fatalf("response %d to request %d", m.ID, req.ID)
	}
	return m
}

func (c *rawConn) mustOK(req wire.Request) wire.Message {
	c.t.Helper()
	m := c.call(req)
	if m.Error != "" || !m.OK {
		c.t.Fatalf("%s: %+v", req.Op, m)
	}
	return m
}

func (c *rawConn) lastSeq() uint64 {
	c.t.Helper()
	m := c.mustOK(wire.Request{Op: wire.OpStats})
	if m.Stats == nil || m.Stats.WAL == nil {
		c.t.Fatalf("stats without a wal section: %+v", m.Stats)
	}
	return m.Stats.WAL.LastSeq
}

func intBound(v int64) *wire.Bound { return &wire.Bound{Value: v} }

// TestDDLErrorText pins the error each failing DDL command returns to a
// client, byte for byte, and checks that a refused command logs
// nothing: the log's last sequence does not move.
func TestDDLErrorText(t *testing.T) {
	_, addr, stop := startDurable(t, server.Config{DataDir: t.TempDir()})
	defer stop()
	c := dialRaw(t, addr)
	c.mustOK(wire.Request{Op: wire.OpDeclare, Relation: "emp",
		Attrs: []wire.Attr{{Name: "name", Type: "string"}, {Name: "salary", Type: "int"}}})

	cases := []struct {
		name string
		req  wire.Request
		want string
	}{
		{"declare bad attribute type", wire.Request{Op: wire.OpDeclare, Relation: "bad",
			Attrs: []wire.Attr{{Name: "x", Type: "blob"}}},
			`value: unknown type "blob"`},
		{"declare duplicate relation", wire.Request{Op: wire.OpDeclare, Relation: "emp",
			Attrs: []wire.Attr{{Name: "x", Type: "int"}}},
			`schema: relation emp already defined`},
		// The daemon no longer serves index: an older client's index
		// request is refused as an unknown op whatever it names.
		{"index unknown relation", wire.Request{Op: "index", Relation: "nope"},
			`unknown op "index"`},
		{"index unknown attribute", wire.Request{Op: "index", Relation: "emp"},
			`unknown op "index"`},
		{"rule does not parse", wire.Request{Op: wire.OpRule, Source: "rule broken on"},
			`parser: expected identifier at offset 14, got ""`},
		{"drop unknown rule", wire.Request{Op: wire.OpDropRule, Name: "nope"},
			`engine: unknown rule "nope"`},
		{"addpred without pred", wire.Request{Op: wire.OpAddPred},
			`addpred needs a pred`},
		{"addpred unknown attribute", wire.Request{Op: wire.OpAddPred, Pred: &wire.Predicate{
			Rel: "emp", Clauses: []wire.Clause{{Attr: "nope", Lo: intBound(1)}}}},
			`wire: relation emp has no attribute "nope"`},
		{"rmpred below DirectPredBase", wire.Request{Op: wire.OpRemovePred, PredID: 5},
			`predicate 5 is not client-registered`},
		{"rmpred unknown id", wire.Request{Op: wire.OpRemovePred, PredID: int64(server.DirectPredBase) + 99},
			`shard: unknown predicate id 1099511627875`},
	}
	// oldAttr is the "attr" field an older client put on an index
	// request; Request no longer carries it.
	oldAttr := map[string]string{"index unknown relation": "x", "index unknown attribute": "nope"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c.t = t
			before := c.lastSeq()
			var extra map[string]string
			if a, ok := oldAttr[tc.name]; ok {
				extra = map[string]string{"attr": a}
			}
			m := c.callWith(tc.req, extra)
			if m.OK || m.Error != tc.want {
				t.Errorf("error = %q (ok %v), want %q", m.Error, m.OK, tc.want)
			}
			if m.WalSeq != 0 {
				t.Errorf("refused %s carries wal_seq %d", tc.req.Op, m.WalSeq)
			}
			if after := c.lastSeq(); after != before {
				t.Errorf("refused %s moved last_seq %d -> %d", tc.req.Op, before, after)
			}
		})
	}
}

// TestDDLRecordBytes logs one record of each DDL kind a leader writes
// on a durable leader, reads the segment back, and holds every payload
// to testdata/ddl_records.golden. Recovery of existing data directories
// and mixed-version replication both read these bytes, so the log
// format must not change. What an older leader wrote, an index record
// among it, is pinned as a replay input by TestOldDDLRecordsRecover.
func TestDDLRecordBytes(t *testing.T) {
	dir := t.TempDir()
	_, addr, stop := startDurable(t, server.Config{DataDir: dir})
	defer stop()
	c := dialRaw(t, addr)
	c.mustOK(wire.Request{Op: wire.OpDeclare, Relation: "emp", Attrs: []wire.Attr{
		{Name: "name", Type: "string"}, {Name: "age", Type: "int"},
		{Name: "pay", Type: "float"}, {Name: "on", Type: "bool"}}})
	if m := c.mustOK(wire.Request{Op: wire.OpRule,
		Source: "rule r1 on insert, update to emp when age > 50 and pay < 2.5 do log 'old \u2028 \"x\"'"}); m.Name != "r1" {
		t.Fatalf("rule ack names %q, want r1", m.Name)
	}
	c.mustOK(wire.Request{Op: wire.OpDropRule, Name: "r1"})
	m := c.mustOK(wire.Request{Op: wire.OpAddPred, Pred: &wire.Predicate{Rel: "emp", Clauses: []wire.Clause{
		{Attr: "age", Lo: intBound(18), Hi: &wire.Bound{Value: int64(65), Open: true}},
		{Attr: "name", Eq: "ada \u00e9"},
		{Attr: "pay", Lo: &wire.Bound{Value: 1e21}},
	}}})
	if m.PredID != int64(server.DirectPredBase) {
		t.Fatalf("addpred ack id %d, want %d", m.PredID, server.DirectPredBase)
	}
	c.mustOK(wire.Request{Op: wire.OpRemovePred, PredID: m.PredID})

	var got strings.Builder
	for _, p := range segmentPayloads(t, dir) {
		got.Write(p)
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "ddl_records.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("DDL record payloads do not match %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segmentPayloads reads every record payload of dir's log segments in
// sequence order, checking each frame's length and checksum the way the
// log's own scanner does (wal package doc, "Log format").
func segmentPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var out [][]byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			if len(b) < 8 {
				t.Fatalf("%s: %d trailing bytes", seg, len(b))
			}
			n := binary.LittleEndian.Uint32(b[0:4])
			if uint64(len(b)-8) < uint64(n) {
				t.Fatalf("%s: frame of %d bytes past the file end", seg, n)
			}
			payload := b[8 : 8+n]
			if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
				t.Fatalf("%s: checksum mismatch", seg)
			}
			if _, err := wal.UnmarshalRecord(payload); err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			out = append(out, payload)
			b = b[8+n:]
		}
	}
	return out
}
