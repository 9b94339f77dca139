package wire_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"predmatch/internal/interval"
	"predmatch/internal/matchertest"
	"predmatch/internal/pred"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// decode round-trips v through a JSON encode and a UseNumber decode, the
// way every frame travels between client and server.
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	f := matchertest.NewFixture()
	rel, _ := f.Catalog.Get("items")
	orig := tuple.New(value.Int(7), value.Int(3), value.Int(10), value.Float(2.5))

	var raw wire.Tuple
	roundTrip(t, wire.FromTuple(orig), &raw)
	got, err := wire.ToTuple(rel, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("tuple round trip: got %v, want %v", got, orig)
	}

	// Arity and kind mismatches are rejected.
	if _, err := wire.ToTuple(rel, raw[:2]); err == nil {
		t.Fatal("short tuple accepted")
	}
	raw[0] = value.String_("seven")
	if _, err := wire.ToTuple(rel, raw); err == nil {
		t.Fatal("string for int attribute accepted")
	}
}

func TestPredicateRoundTrip(t *testing.T) {
	f := matchertest.NewFixture()
	cases := []*pred.Predicate{
		pred.New(1, "emp"),
		pred.New(2, "emp",
			pred.IvClause("age", interval.Open(value.Int(30), value.Int(50))),
			pred.EqClause("dept", value.String_("shoe"))),
		pred.New(3, "emp",
			pred.IvClause("salary", interval.AtLeast(value.Int(20000))),
			pred.FnClause("age", "isodd")),
		pred.New(4, "items",
			pred.IvClause("price", interval.OpenClosed(value.Float(1.5), value.Float(9.5)))),
		pred.New(5, "events",
			pred.EqClause("open", value.Bool(true)),
			pred.IvClause("kind", interval.AtMost(value.String_("info")))),
	}
	for _, orig := range cases {
		var wp wire.Predicate
		roundTrip(t, wire.FromPredicate(orig), &wp)
		got, err := wire.ToPredicate(f.Catalog, orig.ID, &wp)
		if err != nil {
			t.Fatalf("%v: %v", orig, err)
		}
		if got.String() != orig.String() {
			t.Fatalf("predicate round trip: got %v, want %v", got, orig)
		}
		if err := got.Validate(f.Catalog, f.Funcs); err != nil {
			t.Fatalf("%v: decoded predicate invalid: %v", orig, err)
		}
		// The decoded predicate must match exactly the tuples the
		// original matches.
		ob, err := orig.Bind(f.Catalog, f.Funcs)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := got.Bind(f.Catalog, f.Funcs)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := f.Catalog.Get(orig.Rel)
		rng := newRand(int64(orig.ID))
		for i := 0; i < 200; i++ {
			tp := f.RandomTuple(rng, rel)
			if ob.Match(tp) != gb.Match(tp) {
				t.Fatalf("%v: decoded predicate diverges on %v", orig, tp)
			}
		}
	}
}

func TestToPredicateErrors(t *testing.T) {
	f := matchertest.NewFixture()
	for _, wp := range []*wire.Predicate{
		{Rel: "nosuch"},
		{Rel: "emp", Clauses: []wire.Clause{{Attr: "nosuch", Eq: "x"}}},
		{Rel: "emp", Clauses: []wire.Clause{{Attr: "age", Eq: "notanint"}}},
	} {
		if _, err := wire.ToPredicate(f.Catalog, 1, wp); err == nil {
			t.Fatalf("ToPredicate(%+v) accepted", wp)
		}
	}
}

func TestIDConversion(t *testing.T) {
	ids := []pred.ID{3, 1, 2}
	if got := wire.ToIDs(wire.FromIDs(ids)); !reflect.DeepEqual(got, ids) {
		t.Fatalf("ID round trip: %v", got)
	}
	if wire.FromIDs(nil) != nil || wire.ToIDs(nil) != nil {
		t.Fatal("nil should stay nil")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestStatsFrameWithRetiredMetaSection: older daemons attach sections
// to stats responses that current clients no longer model — "meta" from
// before the adaptive selector was removed, "profiles" from before the
// workload profile was. A current client must still decode such a
// frame, skipping the retired key and keeping every section around it,
// both through the codec client.readLoop uses and through
// encoding/json.
func TestStatsFrameWithRetiredMetaSection(t *testing.T) {
	for _, tc := range []struct{ name, retired string }{
		{"meta", `"meta":{"default":"ibs","rels":[{"rel":"emp","structure":"hint","since_secs":41,"migrations":2,` +
			`"reason":"hint, because stab-heavy","est_ns":300,"alt":"ibs","alt_ns":2100}]}`},
		{"profiles", `"profiles":[{"rel":"emp","stabs":12,"skipped":1,"results":30,"stab_secs":0.000041,"writes":4,` +
			`"attrs":[{"name":"name","queried":0},{"name":"salary","queried":12}]},{"rel":"dept","stabs":0,"writes":1}]`},
	} {
		frame := `{"type":"response","id":7,"ok":true,"stats":{"rules":["band"],"matcher":"sharded","predicates":2,` +
			`"prefilter":{"admitted":12,"skipped":1},` + tc.retired + `,` +
			`"shards":[{"rel":"emp","predicates":2,"version":5,"structure":"hint"}],` +
			`"relations":[{"name":"emp","rows":4,"next_id":5}],` +
			`"conns":1,"subs":0,"delivered":3,"dropped":0}}` + "\n"
		decoders := map[string]func(*wire.Message) error{
			"codec": func(m *wire.Message) error {
				var ld wire.LiteralDecoder
				_, err := ld.Decode([]byte(frame), m)
				return err
			},
			"encoding/json": func(m *wire.Message) error {
				dec := json.NewDecoder(bytes.NewBufferString(frame))
				dec.UseNumber()
				return dec.Decode(m)
			},
		}
		for dname, decode := range decoders {
			var m wire.Message
			if err := decode(&m); err != nil {
				t.Fatalf("%s via %s: %v", tc.name, dname, err)
			}
			st := m.Stats
			if m.ID != 7 || !m.OK || st == nil || st.Matcher != "sharded" || st.Predicates != 2 ||
				st.Conns != 1 || st.Delivered != 3 {
				t.Fatalf("%s via %s: message %+v, stats %+v", tc.name, dname, m, st)
			}
			if st.Prefilter == nil || *st.Prefilter != (wire.PrefilterStat{Admitted: 12, Skipped: 1}) {
				t.Errorf("%s via %s: prefilter = %+v", tc.name, dname, st.Prefilter)
			}
			if len(st.Shards) != 1 || st.Shards[0] != (wire.ShardStat{Rel: "emp", Predicates: 2, Version: 5, Structure: "hint"}) {
				t.Errorf("%s via %s: shards = %+v", tc.name, dname, st.Shards)
			}
			if len(st.Relations) != 1 || st.Relations[0] != (wire.RelStat{Name: "emp", Rows: 4, NextID: 5}) {
				t.Errorf("%s via %s: relations = %+v", tc.name, dname, st.Relations)
			}
		}
	}
}
