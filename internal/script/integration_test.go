package script

import (
	"bytes"
	"strings"
	"testing"

	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/storage"
	"predmatch/internal/strategy"
)

// TestFullScenario drives every language feature in one session: schema
// and index DDL, prioritized single-relation rules with every action
// kind, arithmetic derived-column maintenance, disjunctive conditions,
// function clauses, join rules with backfill, planned selects, rule
// drops, and teardown — asserting the interleaved observable output.
func TestFullScenario(t *testing.T) {
	var buf bytes.Buffer
	in := New(&buf)
	steps := []struct {
		stmt string
		want []string // substrings that must appear in output so far
	}{
		{"relation items (sku int, stock int, threshold int, deficit int)", nil},
		{"relation orders (sku int, qty int)", nil},
		{"index items stock", nil},
		{"index items sku", nil},

		// Derived-column maintenance + reorder trigger (Section 3).
		{"rule maintain priority 10 on insert, update to items do set deficit = stock - threshold", nil},
		{"rule reorder on update to items when deficit < 0 do insert into orders (0, 50); log 'reorder placed'", nil},
		// Disjunction + function clause.
		{"rule oddball on insert to items when isodd(sku) or stock = 777 do log 'oddball'", nil},
		// Integrity rule.
		{"rule nonneg on insert, update to items when stock < -1000 do raise 'impossible stock'", nil},

		{"insert items (2, 100, 40, 0)", []string{"inserted items id=1"}},
		{"insert items (3, 50, 45, 0)", []string{"oddball"}},

		// Draining stock below threshold: maintain recomputes, reorder
		// fires and inserts an order row.
		{"update items 2 (3, 20, 45, -25)", []string{"reorder placed"}},
		{"dump orders", []string{"orders (1 tuples)"}},

		// Join rule over items/orders with backfill from existing rows.
		{"joinrule pending on items, orders when items.sku = orders.sku and qty > 10 do log 'pending order'", nil},
		{"insert orders (3, 20)", []string{"pending order"}},

		// Planned queries.
		{"select items where stock >= 50", []string{"plan: index scan on items.stock", "items: 1 row(s)"}},
		{"select items where sku = 2 or sku = 3", []string{"items: 2 row(s)"}},

		// Raise aborts (engine) — stock below the floor. The message
		// arrives via the returned error, checked specially below.
		{"insert items (9, -5000, 0, 0)", nil},

		{"drop rule oddball", nil},
		{"insert items (5, 777, 0, 777)", nil},
		{"drop joinrule pending", nil},
		{"stats", []string{"matcher: ibs"}},
	}
	for i, st := range steps {
		err := in.Exec(st.stmt)
		if strings.Contains(st.stmt, "insert items (9,") {
			if err == nil || !strings.Contains(err.Error(), "impossible stock") {
				t.Fatalf("step %d: expected raise, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("step %d %q: %v\noutput:\n%s", i, st.stmt, err, buf.String())
		}
		for _, want := range st.want {
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("step %d %q: output missing %q\n%s", i, st.stmt, want, buf.String())
			}
		}
	}
	out := buf.String()
	// The dropped oddball rule must not have fired for sku 5.
	if got := strings.Count(out, "[rule oddball]"); got != 1 {
		t.Fatalf("oddball fired %d times, want 1\n%s", got, out)
	}
	// Exactly one reorder in the session.
	if got := strings.Count(out, "] reorder placed"); got != 1 {
		t.Fatalf("reorder fired %d times\n%s", got, out)
	}
}

// TestScenarioAcrossMatchers replays a rule scenario under every
// strategy in the registry (what cmd/predmatch -matcher offers) and
// requires identical observable behavior — the paper's thesis that the
// strategies differ only in speed.
func TestScenarioAcrossMatchers(t *testing.T) {
	src := `
relation emp (name string, age int, salary int, dept string)
rule a on insert to emp when salary between 100 and 200 do log 'band'
rule b on insert to emp when dept = 'shoe' and isodd(age) do log 'odd shoe'
rule c priority 3 on insert, update to emp when age > 60 do log 'senior'
insert emp ('u', 61, 150, 'shoe')
insert emp ('v', 33, 50, 'shoe')
insert emp ('w', 70, 300, 'toy')
update emp 2 ('v', 35, 120, 'shoe')
`
	var reference string
	for i, st := range strategy.All() {
		var buf bytes.Buffer
		in := New(&buf, WithMatcher(func(db *storage.DB, funcs *pred.Registry) matcher.Matcher {
			return st.New(db.Catalog(), funcs)
		}))
		if err := in.Run(strings.NewReader(src)); err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		// Strip the stats-free output; firing lines must be identical.
		out := buf.String()
		if i == 0 {
			reference = out
			for _, want := range []string{"band", "odd shoe", "senior"} {
				if !strings.Contains(out, want) {
					t.Fatalf("reference output missing %q:\n%s", want, out)
				}
			}
			continue
		}
		if out != reference {
			t.Fatalf("%s output differs from ibs reference:\n--- ibs ---\n%s\n--- %s ---\n%s",
				st.Name, reference, st.Name, out)
		}
	}
}
