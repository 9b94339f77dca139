package storage

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"predmatch/internal/interval"
	"predmatch/internal/schema"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

func empRel() *schema.Relation {
	return schema.MustRelation("emp",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "age", Type: value.KindInt},
		schema.Attribute{Name: "salary", Type: value.KindInt},
	)
}

func empT(name string, age, salary int64) tuple.Tuple {
	return tuple.New(value.String_(name), value.Int(age), value.Int(salary))
}

func TestCreateRelation(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateRelation(empRel())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Relation().Name() != "emp" {
		t.Fatal("wrong relation")
	}
	if _, err := db.CreateRelation(empRel()); err == nil {
		t.Error("duplicate relation accepted")
	}
	got, ok := db.Table("emp")
	if !ok || got != tab {
		t.Error("Table lookup failed")
	}
	if _, ok := db.Table("nosuch"); ok {
		t.Error("Table found missing relation")
	}
	if db.Catalog().Len() != 1 {
		t.Error("catalog not updated")
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateRelation(empRel())
	id, err := tab.Insert(empT("alice", 30, 100))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
	row, ok := tab.Get(id)
	if !ok || row[0].AsString() != "alice" {
		t.Fatalf("Get = %v, %v", row, ok)
	}
	if err := tab.Update(id, empT("alice", 31, 120)); err != nil {
		t.Fatal(err)
	}
	row, _ = tab.Get(id)
	if row[1].AsInt() != 31 {
		t.Fatal("update not applied")
	}
	if err := tab.Update(999, empT("x", 1, 1)); err == nil {
		t.Error("update of missing tuple accepted")
	}
	if err := tab.Delete(id); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 0 {
		t.Fatal("delete not applied")
	}
	if err := tab.Delete(id); err == nil {
		t.Error("double delete accepted")
	}
	// Malformed tuples rejected.
	if _, err := tab.Insert(tuple.New(value.Int(1))); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestInsertIsolation(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateRelation(empRel())
	row := empT("alice", 30, 100)
	id, _ := tab.Insert(row)
	row[1] = value.Int(99) // caller mutates its slice afterwards
	got, _ := tab.Get(id)
	if got[1].AsInt() != 30 {
		t.Fatal("Insert did not copy the tuple")
	}
}

func TestObservers(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateRelation(empRel())
	var events []Event
	db.Observe(func(ev Event) error {
		events = append(events, ev)
		return nil
	})
	id, _ := tab.Insert(empT("a", 1, 2))
	_ = tab.Update(id, empT("a", 2, 3))
	_ = tab.Delete(id)
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Op != OpInsert || events[0].New == nil || events[0].Old != nil {
		t.Errorf("insert event wrong: %+v", events[0])
	}
	if events[1].Op != OpUpdate || events[1].New == nil || events[1].Old == nil {
		t.Errorf("update event wrong: %+v", events[1])
	}
	if events[2].Op != OpDelete || events[2].New != nil || events[2].Old == nil {
		t.Errorf("delete event wrong: %+v", events[2])
	}
	for _, ev := range events {
		if ev.Rel != "emp" || ev.ID != id {
			t.Errorf("event metadata wrong: %+v", ev)
		}
	}
	// Observer errors propagate.
	db.Observe(func(ev Event) error { return fmt.Errorf("boom") })
	if _, err := tab.Insert(empT("b", 1, 2)); err == nil {
		t.Error("observer error not propagated")
	}
}

func TestSecondaryIndex(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateRelation(empRel())
	// Insert before creating the index: existing rows must be indexed.
	ids := make([]tuple.ID, 0)
	for i := int64(0); i < 20; i++ {
		id, _ := tab.Insert(empT(fmt.Sprintf("e%d", i), 20+i, i*10))
		ids = append(ids, id)
	}
	if err := tab.CreateIndex("age"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("age"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := tab.CreateIndex("nosuch"); err == nil {
		t.Error("index on missing attribute accepted")
	}
	if !tab.HasIndex("age") || tab.HasIndex("salary") {
		t.Error("HasIndex wrong")
	}

	scan := func(iv interval.Interval[value.Value]) []int64 {
		var out []int64
		ok := tab.ScanIndex("age", iv, func(_ tuple.ID, row tuple.Tuple) bool {
			out = append(out, row[1].AsInt())
			return true
		})
		if !ok {
			t.Fatal("ScanIndex reported no index")
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	got := scan(interval.Closed(value.Int(25), value.Int(28)))
	if !reflect.DeepEqual(got, []int64{25, 26, 27, 28}) {
		t.Fatalf("scan = %v", got)
	}
	// Updates move index entries.
	_ = tab.Update(ids[0], empT("e0", 27, 0))
	got = scan(interval.Point(value.Int(27)))
	if !reflect.DeepEqual(got, []int64{27, 27}) {
		t.Fatalf("scan after update = %v", got)
	}
	// Deletes remove index entries.
	_ = tab.Delete(ids[7]) // age 27
	_ = tab.Delete(ids[0]) // age 27 (updated)
	got = scan(interval.Point(value.Int(27)))
	if len(got) != 0 {
		t.Fatalf("scan after delete = %v", got)
	}
	// ScanIndex on unindexed attribute reports false.
	if tab.ScanIndex("salary", interval.All[value.Value](), func(tuple.ID, tuple.Tuple) bool { return true }) {
		t.Error("ScanIndex on unindexed attribute returned true")
	}
}

func TestStats(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateRelation(empRel())
	for i := int64(0); i < 10; i++ {
		_, _ = tab.Insert(empT("x", i%5, i*10)) // ages 0..4 twice
	}
	st := tab.Stats("age")
	if st == nil {
		t.Fatal("Stats nil")
	}
	if st.Count() != 10 || st.Distinct() != 5 {
		t.Fatalf("Count/Distinct = %d/%d", st.Count(), st.Distinct())
	}
	mn, _ := st.Min()
	mx, _ := st.Max()
	if mn.AsInt() != 0 || mx.AsInt() != 4 {
		t.Fatalf("Min/Max = %v/%v", mn, mx)
	}
	if f := st.Fraction(interval.Closed(value.Int(0), value.Int(1))); f != 0.4 {
		t.Fatalf("Fraction = %v, want 0.4", f)
	}
	if f := st.Fraction(interval.AtLeast(value.Int(100))); f != 0 {
		t.Fatalf("Fraction above max = %v", f)
	}
	if tab.Stats("nosuch") != nil {
		t.Error("Stats for missing attribute non-nil")
	}
	// Stats shrink on delete.
	var first tuple.ID
	tab.Scan(func(id tuple.ID, _ tuple.Tuple) bool { first = id; return false })
	_ = tab.Delete(first)
	if st.Count() != 9 {
		t.Fatalf("Count after delete = %d", st.Count())
	}
	// Empty stats.
	empty := tab.Stats("name")
	_ = empty
}

func TestScanEarlyStop(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateRelation(empRel())
	for i := int64(0); i < 10; i++ {
		_, _ = tab.Insert(empT("x", i, i))
	}
	count := 0
	tab.Scan(func(tuple.ID, tuple.Tuple) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("Scan early stop visited %d", count)
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpUpdate.String() != "update" || OpDelete.String() != "delete" {
		t.Fatal("Op.String wrong")
	}
	if Op(99).String() != "?" {
		t.Fatal("unknown Op.String wrong")
	}
}
