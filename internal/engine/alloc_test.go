package engine

import (
	"fmt"
	"testing"

	"predmatch/internal/core"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/storage"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// TestFiringAllocs is the engine's allocation budget for the benchmark's
// shape of event: one tuple matching 8 `do log` rules (16 predicates —
// each rule's condition is a disjunction, so the de-duplication runs),
// with an OnFire hook installed and no logger. Nothing is formatted for
// the discarded log lines, and the list of rules to fire lives in the
// engine's reused stack.
func TestFiringAllocs(t *testing.T) {
	db := storage.NewDB()
	rel := schema.MustRelation("emp",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "age", Type: value.KindInt})
	if _, err := db.CreateRelation(rel); err != nil {
		t.Fatal(err)
	}
	funcs := pred.NewRegistry()
	for _, logger := range []Logger{nil, func(string, ...any) {}} {
		e := New(db, funcs, core.New(db.Catalog(), funcs), WithLogger(logger))
		fired := 0
		e.OnFire(func(FiringEvent) { fired++ })
		for i := 0; i < 8; i++ {
			src := fmt.Sprintf("rule r%d priority %d on insert to emp when age > %d or age < 100 do log 'seen'", i, i%3, i)
			if _, err := e.DefineRule(src); err != nil {
				t.Fatal(err)
			}
		}
		ev := storage.Event{Rel: "emp", Op: storage.OpInsert, ID: 1, New: tuple.New(value.String_("ada"), value.Int(40))}
		n := testing.AllocsPerRun(200, func() {
			if err := e.onEvent(ev); err != nil {
				t.Fatal(err)
			}
		})
		if fired != 8*201 {
			t.Fatalf("fired %d rules over 201 events, want 8 each", fired)
		}
		t.Logf("logger installed=%v: %v allocs per event", logger != nil, n)
		if logger == nil && n > 2 {
			t.Errorf("one event firing 8 log rules with no logger: %v allocs, want <= 2", n)
		}
	}
}
