package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"predmatch/internal/core"
	"predmatch/internal/engine"
	"predmatch/internal/hashseq"
	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/shard"
	"predmatch/internal/storage"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// setup builds an engine over emp and alerts. The first result records
// every firing through the public OnFire hook, in firing order.
func setup(t *testing.T, mk func(*storage.DB, *pred.Registry) matcher.Matcher, opts ...engine.Option) (*[]engine.FiringEvent, *engine.Engine, *storage.Table, *storage.Table) {
	t.Helper()
	db := storage.NewDB()
	emp := schema.MustRelation("emp",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "age", Type: value.KindInt},
		schema.Attribute{Name: "salary", Type: value.KindInt},
		schema.Attribute{Name: "dept", Type: value.KindString},
	)
	alerts := schema.MustRelation("alerts",
		schema.Attribute{Name: "msg", Type: value.KindString},
		schema.Attribute{Name: "level", Type: value.KindInt},
	)
	empTab, err := db.CreateRelation(emp)
	if err != nil {
		t.Fatal(err)
	}
	alertTab, err := db.CreateRelation(alerts)
	if err != nil {
		t.Fatal(err)
	}
	funcs := pred.NewRegistry()
	eng := engine.New(db, funcs, mk(db, funcs), opts...)
	fired := new([]engine.FiringEvent)
	eng.OnFire(func(ev engine.FiringEvent) { *fired = append(*fired, ev) })
	return fired, eng, empTab, alertTab
}

func ibsMatcher(db *storage.DB, funcs *pred.Registry) matcher.Matcher {
	return core.New(db.Catalog(), funcs)
}

func empT(name string, age, salary int64, dept string) tuple.Tuple {
	return tuple.New(value.String_(name), value.Int(age), value.Int(salary), value.String_(dept))
}

func TestRuleFiresOnInsert(t *testing.T) {
	fired, eng, empTab, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule high on insert to emp when salary > 50000 do log 'rich'"); err != nil {
		t.Fatal(err)
	}
	if _, err := empTab.Insert(empT("a", 30, 60000, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := empTab.Insert(empT("b", 30, 40000, "x")); err != nil {
		t.Fatal(err)
	}
	f := *fired
	if len(f) != 1 || f[0].Rule != "high" {
		t.Fatalf("firings = %+v", f)
	}
}

func TestEventFiltering(t *testing.T) {
	fired, eng, empTab, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule upd on update to emp when age >= 0 do log 'updated'"); err != nil {
		t.Fatal(err)
	}
	id, _ := empTab.Insert(empT("a", 30, 1, "x"))
	if got := *fired; len(got) != 0 {
		t.Fatalf("insert fired update rule: %+v", got)
	}
	_ = empTab.Update(id, empT("a", 31, 1, "x"))
	if got := *fired; len(got) != 1 {
		t.Fatalf("update firings = %+v", got)
	}
}

func TestDeleteRulesMatchOldTuple(t *testing.T) {
	fired, eng, empTab, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule bye on delete to emp when dept = 'shoe' do log 'gone'"); err != nil {
		t.Fatal(err)
	}
	id1, _ := empTab.Insert(empT("a", 30, 1, "shoe"))
	id2, _ := empTab.Insert(empT("b", 30, 1, "toy"))
	_ = empTab.Delete(id2)
	if got := *fired; len(got) != 0 {
		t.Fatalf("non-matching delete fired: %+v", got)
	}
	_ = empTab.Delete(id1)
	if got := *fired; len(got) != 1 || got[0].Rule != "bye" {
		t.Fatalf("firings = %+v", got)
	}
}

func TestDisjunctionFiresOnce(t *testing.T) {
	fired, eng, empTab, _ := setup(t, ibsMatcher)
	// Both disjuncts match the same tuple; the rule must fire once.
	if _, err := eng.DefineRule(
		"rule d on insert to emp when age > 10 or salary > 10 do log 'hit'"); err != nil {
		t.Fatal(err)
	}
	_, _ = empTab.Insert(empT("a", 50, 50, "x"))
	if got := *fired; len(got) != 1 {
		t.Fatalf("disjunctive rule fired %d times", len(got))
	}
}

func TestInsertActionChains(t *testing.T) {
	fired, eng, empTab, alertTab := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule a on insert to emp when salary > 100 do insert into alerts ('high', 1)"); err != nil {
		t.Fatal(err)
	}
	// A second rule watches the alerts relation: forward chaining.
	if _, err := eng.DefineRule(
		"rule b on insert to alerts when level >= 1 do log 'alert seen'"); err != nil {
		t.Fatal(err)
	}
	_, _ = empTab.Insert(empT("a", 30, 200, "x"))
	if alertTab.Len() != 1 {
		t.Fatalf("alerts len = %d", alertTab.Len())
	}
	f := *fired
	if len(f) != 2 || f[0].Rule != "a" || f[1].Rule != "b" {
		t.Fatalf("firings = %+v", f)
	}
}

func TestSetActionAndNoOpGuard(t *testing.T) {
	_, eng, empTab, _ := setup(t, ibsMatcher)
	// Clamp salaries over 100 down to 100; the set triggers an update
	// event, on which the rule no longer matches (salary = 100).
	if _, err := eng.DefineRule(
		"rule clamp on insert, update to emp when salary > 100 do set salary = 100"); err != nil {
		t.Fatal(err)
	}
	id, err := empTab.Insert(empT("a", 30, 500, "x"))
	if err != nil {
		t.Fatal(err)
	}
	row, _ := empTab.Get(id)
	if row[2].AsInt() != 100 {
		t.Fatalf("salary = %d, want clamped 100", row[2].AsInt())
	}
}

func TestRaiseAborts(t *testing.T) {
	_, eng, empTab, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule nokids on insert to emp when age < 18 do raise 'minimum age is 18'"); err != nil {
		t.Fatal(err)
	}
	if _, err := empTab.Insert(empT("kid", 12, 0, "x")); err == nil {
		t.Fatal("raise did not abort")
	} else if !strings.Contains(err.Error(), "minimum age is 18") {
		t.Fatalf("error = %v", err)
	}
	if _, err := empTab.Insert(empT("adult", 30, 0, "x")); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAction(t *testing.T) {
	_, eng, empTab, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule purge on insert to emp when dept = 'temp' do delete"); err != nil {
		t.Fatal(err)
	}
	_, _ = empTab.Insert(empT("t", 30, 0, "temp"))
	_, _ = empTab.Insert(empT("p", 30, 0, "perm"))
	if empTab.Len() != 1 {
		t.Fatalf("len = %d, want 1 (temp tuple purged)", empTab.Len())
	}
}

func TestCascadeDepthLimit(t *testing.T) {
	_, eng, _, alertTab := setup(t, ibsMatcher)
	// Mutual recursion: alerts insert -> alerts insert.
	if _, err := eng.DefineRule(
		"rule loop on insert to alerts do insert into alerts ('again', 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := alertTab.Insert(tuple.New(value.String_("boom"), value.Int(1))); err == nil {
		t.Fatal("infinite cascade not caught")
	} else if !strings.Contains(err.Error(), "cascade depth limit 16 exceeded") {
		t.Fatalf("error = %v", err)
	}
}

func TestDropRule(t *testing.T) {
	fired, eng, empTab, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule r on insert to emp when age > 0 do log 'x'"); err != nil {
		t.Fatal(err)
	}
	if got := eng.Rules(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("Rules = %v", got)
	}
	if eng.Matcher().Len() == 0 {
		t.Fatal("matcher empty after define")
	}
	if err := eng.DropRule("r"); err != nil {
		t.Fatal(err)
	}
	if eng.Matcher().Len() != 0 {
		t.Fatal("matcher not empty after drop")
	}
	if err := eng.DropRule("r"); err == nil {
		t.Fatal("double drop accepted")
	}
	_, _ = empTab.Insert(empT("a", 30, 1, "x"))
	if got := *fired; len(got) != 0 {
		t.Fatalf("dropped rule fired: %+v", got)
	}
}

func TestDuplicateRuleAndBadPredicate(t *testing.T) {
	_, eng, _, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule("rule r on insert to emp do log 'x'"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DefineRule("rule r on insert to emp do log 'y'"); err == nil {
		t.Fatal("duplicate rule name accepted")
	}
	if _, err := eng.DefineRule("rule bad on insert to emp when nosuch = 1 do log 'x'"); err == nil {
		t.Fatal("bad condition accepted")
	}
}

func TestLoggerReceivesLogActions(t *testing.T) {
	var msgs []string
	logger := func(format string, args ...any) {
		msgs = append(msgs, fmt.Sprintf(format, args...))
	}
	_, eng, empTab, _ := setup(t, ibsMatcher, engine.WithLogger(logger))
	if _, err := eng.DefineRule(
		"rule l on insert to emp when isodd(age) do log 'odd age'"); err != nil {
		t.Fatal(err)
	}
	_, _ = empTab.Insert(empT("a", 3, 1, "x"))
	_, _ = empTab.Insert(empT("b", 4, 1, "x"))
	if len(msgs) != 1 || !strings.Contains(msgs[0], "odd age") {
		t.Fatalf("log messages = %v", msgs)
	}
}

// TestEngineMatcherInterchangeable runs the same scenario with two
// matching strategies and requires identical firing sequences.
func TestEngineMatcherInterchangeable(t *testing.T) {
	run := func(mk func(*storage.DB, *pred.Registry) matcher.Matcher) []engine.FiringEvent {
		fired, eng, empTab, _ := setup(t, mk)
		for i, src := range []string{
			"rule r1 on insert to emp when salary between 100 and 200 do log 'band'",
			"rule r2 on insert to emp when dept = 'shoe' and isodd(age) do log 'odd shoe'",
			"rule r3 on insert, update to emp when age > 60 do log 'senior'",
		} {
			if _, err := eng.DefineRule(src); err != nil {
				t.Fatalf("rule %d: %v", i, err)
			}
		}
		data := []tuple.Tuple{
			empT("a", 61, 150, "shoe"),
			empT("b", 33, 50, "shoe"),
			empT("c", 70, 300, "toy"),
			empT("d", 20, 100, "deli"),
		}
		for _, tp := range data {
			if _, err := empTab.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		return *fired
	}
	a := run(ibsMatcher)
	for name, mk := range map[string]func(*storage.DB, *pred.Registry) matcher.Matcher{
		"hashseq": func(db *storage.DB, funcs *pred.Registry) matcher.Matcher {
			return hashseq.New(db.Catalog(), funcs)
		},
		"sharded": func(db *storage.DB, funcs *pred.Registry) matcher.Matcher {
			return shard.New(db.Catalog(), funcs)
		},
	} {
		b := run(mk)
		if len(a) != len(b) {
			t.Fatalf("%s: firing counts differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i].Rule != b[i].Rule {
				t.Fatalf("%s: firing %d differs: %s vs %s", name, i, a[i].Rule, b[i].Rule)
			}
		}
	}
}

func TestRulePriorityOrder(t *testing.T) {
	var msgs []string
	logger := func(format string, args ...any) {
		msgs = append(msgs, fmt.Sprintf(format, args...))
	}
	_, eng, empTab, _ := setup(t, ibsMatcher, engine.WithLogger(logger))
	rules := []string{
		"rule zlow priority 1 on insert to emp when age > 0 do log 'low'",
		"rule ahigh priority 10 on insert to emp when age > 0 do log 'high'",
		"rule mid on insert to emp when age > 0 do log 'default'", // priority 0
	}
	for _, src := range rules {
		if _, err := eng.DefineRule(src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := empTab.Insert(empT("a", 30, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("msgs = %v", msgs)
	}
	wantOrder := []string{"high", "low", "default"}
	for i, want := range wantOrder {
		if !strings.Contains(msgs[i], want) {
			t.Fatalf("firing %d = %q, want %q (messages %v)", i, msgs[i], want, msgs)
		}
	}
}

func TestRulePriorityParseErrors(t *testing.T) {
	_, eng, _, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule("rule r priority x on insert to emp do log 'm'"); err == nil {
		t.Fatal("non-numeric priority accepted")
	}
	if _, err := eng.DefineRule("rule r priority on insert to emp do log 'm'"); err == nil {
		t.Fatal("missing priority value accepted")
	}
	if _, err := eng.DefineRule("rule r priority -5 on insert to emp do log 'm'"); err != nil {
		t.Fatalf("negative priority rejected: %v", err)
	}
}

func TestSetActionSkippedOnDelete(t *testing.T) {
	fired, eng, empTab, _ := setup(t, ibsMatcher)
	// A delete-trigger with a set action: nothing to modify, no error.
	if _, err := eng.DefineRule(
		"rule r on delete to emp when age > 0 do set age = 1; log 'deleted'"); err != nil {
		t.Fatal(err)
	}
	id, _ := empTab.Insert(empT("a", 5, 1, "x"))
	if err := empTab.Delete(id); err != nil {
		t.Fatal(err)
	}
	if len(*fired) != 1 {
		t.Fatal("delete rule did not fire")
	}
}

func TestDeleteActionAfterCascadedDelete(t *testing.T) {
	_, eng, empTab, _ := setup(t, ibsMatcher)
	// Two rules both deleting the same triggering tuple: the second
	// delete finds the tuple gone and must be a no-op.
	if _, err := eng.DefineRule(
		"rule a priority 2 on insert to emp when dept = 'tmp' do delete"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DefineRule(
		"rule b priority 1 on insert to emp when dept = 'tmp' do delete; log 'second'"); err != nil {
		t.Fatal(err)
	}
	if _, err := empTab.Insert(empT("a", 1, 1, "tmp")); err != nil {
		t.Fatal(err)
	}
	if empTab.Len() != 0 {
		t.Fatalf("len = %d", empTab.Len())
	}
}

func TestSetActionAfterCascadedDelete(t *testing.T) {
	_, eng, empTab, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule a priority 2 on insert to emp when dept = 'tmp' do delete"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DefineRule(
		"rule b priority 1 on insert to emp when dept = 'tmp' do set age = 9"); err != nil {
		t.Fatal(err)
	}
	// Rule a removes the tuple; rule b's set must silently skip.
	if _, err := empTab.Insert(empT("a", 1, 1, "tmp")); err != nil {
		t.Fatal(err)
	}
	if empTab.Len() != 0 {
		t.Fatalf("len = %d", empTab.Len())
	}
}

func TestInsertActionIntoUnknownRelationCaughtAtParse(t *testing.T) {
	_, eng, _, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule r on insert to emp do insert into nosuch (1)"); err == nil {
		t.Fatal("insert into unknown relation accepted at definition")
	}
}

// TestDerivedColumnRule exercises arithmetic set expressions: a rule
// maintains deficit = salary - age (a stand-in for the stock-reorder
// derived column), and a second rule watches the derived value — the
// paper's Section 3 pattern implemented entirely in rules.
func TestDerivedColumnRule(t *testing.T) {
	fired, eng, empTab, _ := setup(t, ibsMatcher)
	if _, err := eng.DefineRule(
		"rule maintain priority 5 on insert, update to emp do set salary = age * 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DefineRule(
		"rule watch on update to emp when salary > 100 do log 'big'"); err != nil {
		t.Fatal(err)
	}
	id, err := empTab.Insert(empT("a", 60, 0, "x"))
	if err != nil {
		t.Fatal(err)
	}
	row, _ := empTab.Get(id)
	if row[2].AsInt() != 120 {
		t.Fatalf("derived salary = %d, want 120", row[2].AsInt())
	}
	// The maintain rule's own update re-fires it, but the no-op guard
	// (salary already equals age*2) stops the cascade; watch fired once
	// on the derived update.
	count := 0
	for _, f := range *fired {
		if f.Rule == "watch" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("watch fired %d times, want 1", count)
	}
}

func TestOnFireHook(t *testing.T) {
	_, eng, empTab, alertTab := setup(t, ibsMatcher)
	// A cascading pair: the first rule's action inserts an alert, which
	// fires the second rule one cascade level deeper.
	if _, err := eng.DefineRule(
		"rule rich on insert to emp when salary > 50000 do insert into alerts ('rich', 2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DefineRule(
		"rule loud on insert to alerts when level > 1 do log 'loud'"); err != nil {
		t.Fatal(err)
	}
	var got []engine.FiringEvent
	eng.OnFire(func(ev engine.FiringEvent) { got = append(got, ev) })

	if _, err := empTab.Insert(empT("a", 30, 60000, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := empTab.Insert(empT("b", 30, 40000, "x")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d firing events, want 2: %+v", len(got), got)
	}
	first, second := got[0], got[1]
	if first.Rule != "rich" || first.Rel != "emp" || first.Op != storage.OpInsert || first.Depth != 0 {
		t.Fatalf("first firing = %+v", first)
	}
	if first.TupleID != 1 || len(first.Tuple) != 4 || first.Tuple[2].AsInt() != 60000 {
		t.Fatalf("first firing tuple = id=%d %v", first.TupleID, first.Tuple)
	}
	if second.Rule != "loud" || second.Rel != "alerts" || second.Op != storage.OpInsert || second.Depth != 1 {
		t.Fatalf("second (cascaded) firing = %+v", second)
	}
	if alertTab.Len() != 1 {
		t.Fatalf("alerts rows = %d, want 1", alertTab.Len())
	}
	// A delete firing carries the old tuple image.
	if _, err := eng.DefineRule(
		"rule gone on delete to emp do log 'gone'"); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	if err := empTab.Delete(2); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Rule != "gone" || got[0].Op != storage.OpDelete {
		t.Fatalf("delete firing = %+v", got)
	}
	if got[0].Tuple[0].AsString() != "b" {
		t.Fatalf("delete firing should carry old image, got %v", got[0].Tuple)
	}
}

// TestFiringOrderAndLogLines pins what a firing delivers: rules fire by
// priority (high first), ties by name, once each however many of their
// disjuncts matched; a cascaded event fires its own rules, in its own
// order, between two rules of the event that caused it; and a log action
// hands the logger exactly this line.
func TestFiringOrderAndLogLines(t *testing.T) {
	var lines []string
	logger := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	fired, eng, empTab, _ := setup(t, ibsMatcher, engine.WithLogger(logger))
	for _, src := range []string{
		"rule b on insert to emp when age > 0 or salary > 0 do log 'b saw it'",
		"rule a on insert to emp when age > 0 or salary > 0 do log 'a saw it'",
		"rule d priority 5 on insert to emp when age > 0 do log 'd saw it'",
		"rule c priority 5 on insert to emp when age > 0 or salary > 0 do insert into alerts ('hi', 2); log 'c saw it'",
		"rule z on insert to alerts when level > 0 or level < 10 do log 'z saw it'",
		"rule y on insert to alerts when level > 0 do log 'y saw it'",
		"rule x priority -1 on insert to alerts when level > 0 do log 'x saw it'",
	} {
		if _, err := eng.DefineRule(src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := empTab.Insert(empT("ada", 30, 100, "toy")); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, f := range *fired {
		order = append(order, f.Rule)
	}
	if got, want := strings.Join(order, " "), "c y z x d a b"; got != want {
		t.Errorf("firing order %q, want %q", got, want)
	}
	want := []string{
		"[rule y] y saw it (insert on alerts ('hi', 2))",
		"[rule z] z saw it (insert on alerts ('hi', 2))",
		"[rule x] x saw it (insert on alerts ('hi', 2))",
		"[rule c] c saw it (insert on emp ('ada', 30, 100, 'toy'))",
		"[rule d] d saw it (insert on emp ('ada', 30, 100, 'toy'))",
		"[rule a] a saw it (insert on emp ('ada', 30, 100, 'toy'))",
		"[rule b] b saw it (insert on emp ('ada', 30, 100, 'toy'))",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("log lines:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// TestNoLoggerDiscards: the default, and an explicit nil, drop log
// actions without formatting them; the rules still fire.
func TestNoLoggerDiscards(t *testing.T) {
	for _, opts := range [][]engine.Option{nil, {engine.WithLogger(nil)}} {
		fired, eng, empTab, _ := setup(t, ibsMatcher, opts...)
		if _, err := eng.DefineRule("rule l on insert to emp when age > 0 do log 'dropped'"); err != nil {
			t.Fatal(err)
		}
		if _, err := empTab.Insert(empT("a", 3, 1, "x")); err != nil {
			t.Fatal(err)
		}
		if f := *fired; len(f) != 1 || f[0].Rule != "l" {
			t.Fatalf("firings = %+v", f)
		}
	}
}
