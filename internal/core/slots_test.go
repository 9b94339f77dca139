package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/seqscan"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// wideFixture is one relation of twelve integer attributes and the
// eight built-in functions: 96 (function, attribute) pairs, more than a
// relation's 64 slots, plus "counted", which counts its calls.
func wideFixture(t *testing.T) (cat *schema.Catalog, funcs *pred.Registry, fns []string, calls *int) {
	attrs := make([]schema.Attribute, 12)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), Type: value.KindInt}
	}
	cat = schema.NewCatalog()
	if err := cat.Add(schema.MustRelation("wide", attrs...)); err != nil {
		t.Fatal(err)
	}
	funcs = pred.NewRegistry()
	calls = new(int)
	funcs.MustRegister("counted", func(v value.Value) bool { *calls++; return v.AsInt() >= 0 })
	fns = []string{"isodd", "iseven", "ispositive", "isnegative", "iszero", "isempty", "isupper", "islower"}
	return cat, funcs, fns, calls
}

// TestFunctionSlotsCallOncePerTuple: thirty predicates that share one
// function clause cost one call per tuple in an Index, and in a View's
// base; a second clause shape costs a second call, and only when a
// predicate gets that far. A View's delta rows are tested one row at a
// time: here the 13 rows 17..29, four of them (18, 21, 24, 27) with the
// second clause, cost 17 calls when all match and 13 when the first
// clause fails.
func TestFunctionSlotsCallOncePerTuple(t *testing.T) {
	cat, funcs, _, calls := wideFixture(t)
	ix := New(cat, funcs)
	v := NewView(cat, funcs)
	for id := pred.ID(0); id < 30; id++ {
		clauses := []pred.Clause{pred.FnClause("a0", "counted")}
		if id%3 == 0 {
			clauses = append(clauses, pred.FnClause("a1", "counted"))
		}
		p := pred.New(id, "wide", clauses...)
		if err := ix.Add(p); err != nil {
			t.Fatal(err)
		}
		next, err := v.With(p)
		if err != nil {
			t.Fatal(err)
		}
		v = next.Merged()
	}
	if v.base.Len() != 17 || v.deltaLen() != 13 {
		t.Fatalf("base %d, delta %d: want 17 and 13", v.base.Len(), v.deltaLen())
	}
	tup := make(tuple.Tuple, 12)
	for i := range tup {
		tup[i] = value.Int(int64(i))
	}
	for _, c := range []struct {
		name  string
		a0    int64
		match func() ([]pred.ID, error)
		want  int // calls: one per slot in an index, one per clause tested in a delta row
	}{
		{"Index, all match", 1, func() ([]pred.ID, error) { return ix.Match("wide", tup, nil) }, 2},
		{"Index, first clause fails", -1, func() ([]pred.ID, error) { return ix.Match("wide", tup, nil) }, 1},
		{"View, all match", 1, func() ([]pred.ID, error) { return v.Match("wide", tup, nil) }, 2 + 17},
		{"View, first clause fails", -1, func() ([]pred.ID, error) { return v.Match("wide", tup, nil) }, 1 + 13},
	} {
		tup[0] = value.Int(c.a0)
		*calls = 0
		got, err := c.match()
		if err != nil {
			t.Fatal(err)
		}
		if want := 30 * int(min(c.a0, 0)+1); len(got) != want {
			t.Errorf("%s: %d matches, want %d", c.name, len(got), want)
		}
		if *calls != c.want {
			t.Errorf("%s: the function ran %d times for one tuple, want %d", c.name, *calls, c.want)
		}
	}
}

// TestFunctionSlotsDifferential runs function-only predicates over 96
// clause shapes, mixed function+interval predicates and the predicate
// of no clause at all through an Index (Add, Remove, Clone) and a View
// (With, Without, Merged) beside the seqscan oracle, which tests every
// predicate with plain Bound.Match. Past 64 shapes a relation's table is
// full and later predicates take the Bound.Match fallback; both sides
// of that line must be populated and must agree with the oracle.
func TestFunctionSlotsDifferential(t *testing.T) {
	cat, funcs, fns, _ := wideFixture(t)
	rng := rand.New(rand.NewSource(64))
	oracle := seqscan.New(cat, funcs)
	ix := New(cat, funcs)
	v := NewView(cat, funcs)

	fnClause := func() pred.Clause {
		return pred.FnClause(fmt.Sprintf("a%d", rng.Intn(12)), fns[rng.Intn(len(fns))])
	}
	randomPredicate := func(id pred.ID) *pred.Predicate {
		var clauses []pred.Clause
		switch r := rng.Intn(10); {
		case r == 0: // matches every tuple; lands on the non-indexable list with no slot to need
		case r < 3: // mixed: indexed by its interval, the function clause tested by MatchSkipping
			lo := int64(rng.Intn(80))
			clauses = []pred.Clause{fnClause(), pred.IvClause(fmt.Sprintf("a%d", rng.Intn(12)), interval.Closed(value.Int(lo), value.Int(lo+30)))}
		default:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				clauses = append(clauses, fnClause())
			}
		}
		return pred.New(id, "wide", clauses...)
	}
	var (
		live               []pred.ID
		nextID             pred.ID
		slotted, fallbacks int
	)
	tally := func(ix *Index) {
		ri, ok := ix.rels["wide"]
		if !ok {
			return
		}
		if len(ri.fnSlots) > 64 {
			t.Fatalf("%d function slots", len(ri.fnSlots))
		}
		for _, x := range ri.nonIndexable {
			if x.slotted {
				slotted++
			} else {
				fallbacks++
			}
		}
	}
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(live) < 40:
			p := randomPredicate(nextID)
			nextID++
			next, err := v.With(p)
			if err != nil {
				t.Fatal(err)
			}
			v = next.Merged()
			if err := ix.Add(p); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Add(p); err != nil {
				t.Fatal(err)
			}
			live = append(live, p.ID)
		case r < 7:
			j := rng.Intn(len(live))
			id := live[j]
			live = slices.Delete(live, j, j+1)
			next, err := v.Without(id)
			if err != nil {
				t.Fatal(err)
			}
			v = next.Merged()
			if err := ix.Remove(id); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Remove(id); err != nil {
				t.Fatal(err)
			}
		case r == 7:
			ix = ix.Clone() // adopt assigns the slots afresh
		default:
			tup := make(tuple.Tuple, 12)
			for i := range tup {
				tup[i] = value.Int(int64(rng.Intn(120) - 10))
			}
			want := sortedMatch(t, oracle, "wide", tup)
			if got := sortedMatch(t, ix, "wide", tup); !slices.Equal(got, want) {
				t.Fatalf("step %d: Index.Match(%v) = %v, oracle %v", step, tup, got, want)
			}
			if got := sortedMatch(t, v, "wide", tup); !slices.Equal(got, want) {
				t.Fatalf("step %d: View.Match(%v) = %v, oracle %v", step, tup, got, want)
			}
		}
		if step%100 == 0 {
			tally(ix)
			tally(v.base)
		}
	}
	if slotted < 1000 || fallbacks < 100 {
		t.Fatalf("sampled %d slotted and %d fallback predicates; want plenty of each", slotted, fallbacks)
	}
}
