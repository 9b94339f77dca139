package core

import (
	"math/rand"
	"slices"
	"testing"

	"predmatch/internal/interval"
	"predmatch/internal/matchertest"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/seqscan"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

func sortedMatch(t *testing.T, m interface {
	Match(string, tuple.Tuple, []pred.ID) ([]pred.ID, error)
}, rel string, tup tuple.Tuple) []pred.ID {
	t.Helper()
	got, err := m.Match(rel, tup, nil)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	return got
}

// TestViewDifferential drives a View the way a shard does (With or
// Without, then Merged) beside the seqscan oracle through 6,000 random
// steps: adds, removes from the delta and from the base, re-adds of
// removed IDs with a different predicate, and the four error paths.
// Every match must equal the oracle's, and every view stashed along the
// way must still answer as it did when it was current. The oracle tests
// each predicate with plain Bound.Match, so the same run is the
// differential of the function slots; and "events" never holds a
// function-only or open-ended predicate, so a third of its tuples lie
// outside every envelope and take Match's skip path.
func TestViewDifferential(t *testing.T) {
	f := matchertest.NewFixture()
	rng := rand.New(rand.NewSource(14))
	oracle := seqscan.New(f.Catalog, f.Funcs)
	v := NewView(f.Catalog, f.Funcs)
	events := f.Rels[2]
	randomPredicate := func(id pred.ID) *pred.Predicate {
		p := f.RandomPredicate(rng, id)
		if p.Rel != events.Name() {
			return p
		}
		lo, hi := int64(rng.Intn(100)), int64(rng.Intn(100))
		p.Clauses = []pred.Clause{pred.IvClause("severity", interval.Closed(value.Int(min(lo, hi)), value.Int(max(lo, hi))))}
		if rng.Intn(2) == 0 {
			p.Clauses = append(p.Clauses, pred.EqClause("kind", f.RandomValue(rng, value.KindString, "kind")))
		}
		return p
	}
	randomTuple := func(rel *schema.Relation) tuple.Tuple {
		tup := f.RandomTuple(rng, rel)
		if rel == events && rng.Intn(3) == 0 { // no severity clause reaches 100, no kind clause "zzz"
			tup[0], tup[1] = value.String_("zzz"), value.Int(100+int64(rng.Intn(50)))
		}
		return tup
	}

	type stash struct {
		v    *View
		tups []tuple.Tuple
		want [][]pred.ID
	}
	var (
		live, freed []pred.ID
		nextID      pred.ID
		merges      int
		stashes     []stash
		reAdds      int
		skips       int
	)
	publish := func(next *View) {
		m := next.Merged()
		if m != next {
			merges++
			if m.delta.Len() != 0 || len(m.dead) != 0 {
				t.Fatalf("merge left an overlay: delta %d, dead %d", m.delta.Len(), len(m.dead))
			}
		}
		v = m
	}
	for step := 0; step < 6000; step++ {
		switch r := rng.Intn(10); {
		case r < 4: // add, re-using a freed ID one time in three
			id := nextID
			if len(freed) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(freed))
				id = freed[j]
				freed = slices.Delete(freed, j, j+1)
				if _, inBase := v.base.preds[id]; inBase {
					reAdds++ // the base copy is tombstoned; the new one goes to delta
				}
			} else {
				nextID++
			}
			p := randomPredicate(id)
			if err := oracle.Add(p); err != nil {
				t.Fatal(err)
			}
			next, err := v.With(p)
			if err != nil {
				t.Fatalf("step %d: With(%v): %v", step, p, err)
			}
			publish(next)
			live = append(live, id)
		case r < 7 && len(live) > 0: // remove: recent IDs sit in delta, old ones in base
			j := rng.Intn(len(live))
			if rng.Intn(2) == 0 {
				j = len(live) - 1 - rng.Intn(min(len(live), 8))
			}
			id := live[j]
			live = slices.Delete(live, j, j+1)
			freed = append(freed, id)
			if err := oracle.Remove(id); err != nil {
				t.Fatal(err)
			}
			next, err := v.Without(id)
			if err != nil {
				t.Fatalf("step %d: Without(%d): %v", step, id, err)
			}
			publish(next)
		case r == 7: // error paths leave the view untouched
			if len(live) > 0 {
				if _, err := v.With(randomPredicate(live[rng.Intn(len(live))])); err == nil {
					t.Fatalf("step %d: duplicate of a live ID accepted", step)
				}
			}
			if len(freed) > 0 {
				if _, err := v.Without(freed[rng.Intn(len(freed))]); err == nil {
					t.Fatalf("step %d: removal of a removed ID accepted", step)
				}
			}
			if _, err := v.Without(nextID + 1000); err == nil {
				t.Fatalf("step %d: removal of an unknown ID accepted", step)
			}
		default:
			rel := f.Rels[rng.Intn(len(f.Rels))]
			tup := randomTuple(rel)
			got, want := sortedMatch(t, v, rel.Name(), tup), sortedMatch(t, oracle, rel.Name(), tup)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Match(%s, %v) = %v, oracle %v", step, rel.Name(), tup, got, want)
			}
			if !v.Admit(rel.Name(), tup) {
				skips++
			}
		}
		if v.Len() != oracle.Len() {
			t.Fatalf("step %d: Len = %d, oracle %d", step, v.Len(), oracle.Len())
		}
		if step%250 == 0 {
			s := stash{v: v}
			for _, rel := range f.Rels {
				for k := 0; k < 4; k++ {
					tup := randomTuple(rel)
					s.tups = append(s.tups, tup)
					s.want = append(s.want, sortedMatch(t, oracle, rel.Name(), tup))
				}
			}
			stashes = append(stashes, s)
		}
	}
	if merges < 5 || reAdds < 5 || skips < 50 {
		t.Fatalf("the run crossed %d merges, re-added %d tombstoned IDs and skipped %d tuples; want at least 5, 5 and 50", merges, reAdds, skips)
	}
	for i, s := range stashes {
		for k, tup := range s.tups {
			rel := f.Rels[k/4].Name()
			if got := sortedMatch(t, s.v, rel, tup); !slices.Equal(got, s.want[k]) {
				t.Fatalf("view stashed at step %d changed: Match(%s, %v) = %v, was %v", i*250, rel, tup, got, s.want[k])
			}
		}
	}
}

func salaryAtLeast(id pred.ID, n int64) *pred.Predicate {
	return pred.New(id, "emp", pred.IvClause("salary", interval.AtLeast(value.Int(n))))
}

// TestViewTombstoneMasksBaseOnly walks one ID through base, tombstone,
// re-add into the delta and removal again.
func TestViewTombstoneMasksBaseOnly(t *testing.T) {
	f := matchertest.NewFixture()
	v := NewView(f.Catalog, f.Funcs)
	must := func(next *View, err error) *View {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return next.Merged()
	}
	// IDs 0..16 match salaries ≥ 50; the 17th add overflows the overlay
	// and folds everything into the base.
	for id := pred.ID(0); id <= 16; id++ {
		v = must(v.With(salaryAtLeast(id, 50)))
	}
	if v.base.Len() != 17 || v.delta.Len() != 0 {
		t.Fatalf("base %d, delta %d after the first merge; want 17, 0", v.base.Len(), v.delta.Len())
	}
	emp := func(salary int64) tuple.Tuple {
		return tuple.New(value.String_("a"), value.Int(30), value.Int(salary), value.String_("toy"))
	}
	has3 := func(v *View, salary int64) bool {
		return slices.Contains(sortedMatch(t, v, "emp", emp(salary)), 3)
	}

	if _, err := v.With(salaryAtLeast(3, 0)); err == nil {
		t.Fatal("duplicate of a live base ID accepted")
	}
	inBase := v
	v = must(v.Without(3))
	if has3(v, 60) || v.Len() != 16 {
		t.Fatalf("tombstoned ID still matches (Len %d)", v.Len())
	}
	if _, err := v.Without(3); err == nil {
		t.Fatal("removal of a tombstoned ID accepted")
	}
	// Re-add the same ID with a narrower predicate: salary ≥ 90.
	tombstoned := v
	v = must(v.With(salaryAtLeast(3, 90)))
	if !has3(v, 95) {
		t.Fatal("the delta copy of a re-added ID is masked by its base tombstone")
	}
	if has3(v, 60) {
		t.Fatal("the tombstoned base copy of a re-added ID matches")
	}
	if _, err := v.With(salaryAtLeast(3, 0)); err == nil {
		t.Fatal("duplicate of a live delta ID accepted")
	}
	readded := v
	v = must(v.Without(3))
	if has3(v, 95) || v.Len() != 16 {
		t.Fatalf("ID removed from the delta still matches (Len %d)", v.Len())
	}
	if _, err := v.Without(3); err == nil {
		t.Fatal("removal of an ID gone from both base and delta accepted")
	}
	// Earlier views are untouched by everything derived from them.
	if !has3(inBase, 60) || has3(tombstoned, 95) || !has3(readded, 95) || has3(readded, 60) {
		t.Fatal("a view changed after a later write")
	}

	// One stats row per tree, summed over base and delta.
	v = must(v.With(salaryAtLeast(100, 10)))
	v = must(v.With(pred.New(101, "emp", pred.EqClause("age", value.Int(44)))))
	trees := v.Trees()
	if len(trees) != 2 || trees[0].Attr != "age" || trees[1].Attr != "salary" {
		t.Fatalf("Trees() = %+v, want one row for age and one for salary", trees)
	}
	if trees[0].Intervals != 1 || trees[1].Intervals != 18 {
		t.Fatalf("Trees() intervals = %d, %d; want 1 (delta only) and 17 base + 1 delta", trees[0].Intervals, trees[1].Intervals)
	}
}

// TestViewMatchAllocs: the overlay adds no allocation to a match. The
// tombstone filter and the delta stab run in the scratch slice the base
// stab grew, so for every tuple View.Match allocates exactly what
// Index.MatchSnapshot on its base does — with the delta empty, where
// the two hold the same predicate set, and with it populated. (An Index
// rebuilt over base+delta has differently shaped trees, so its
// append-growth count differs by one either way for reasons that are
// not the overlay's.)
func TestViewMatchAllocs(t *testing.T) {
	f := matchertest.NewFixture()
	rng := rand.New(rand.NewSource(3))
	emp := f.Rels[0]
	tups := make([]tuple.Tuple, 64)
	for i := range tups {
		tups[i] = f.RandomTuple(rng, emp)
	}
	dst := make([]pred.ID, 0, 1024)
	allocs := func(match func(string, tuple.Tuple, []pred.ID) ([]pred.ID, error), tup tuple.Tuple) float64 {
		return testing.AllocsPerRun(5, func() { dst, _ = match("emp", tup, dst[:0]) })
	}
	v := NewView(f.Catalog, f.Funcs)
	checked := map[bool]int{}
	for id := pred.ID(0); id < 400; id++ {
		next, err := v.With(pred.New(id, "emp", f.RandomClause(rng, emp), f.RandomClause(rng, emp)))
		if err != nil {
			t.Fatal(err)
		}
		v = next.Merged()
		emptyDelta := v.delta.Len() == 0
		if id < 300 || checked[emptyDelta] > 0 {
			continue
		}
		base, delta := v.base.Clone(), v.delta.Clone() // Candidates writes its index's scratch
		for _, tup := range tups {
			if delta.Candidates("emp", tup) > base.Candidates("emp", tup) {
				continue // the delta stab outgrows the base's scratch: nothing to share
			}
			checked[emptyDelta]++
			if got, want := allocs(v.Match, tup), allocs(v.base.MatchSnapshot, tup); got != want {
				t.Errorf("%d predicates, %d in delta: View.Match(%v) allocates %v times, MatchSnapshot on the base %v",
					v.Len(), v.delta.Len(), tup, got, want)
			}
		}
	}
	if checked[true] < 32 || checked[false] < 32 {
		t.Fatalf("compared %d tuples with an empty delta and %d with a populated one; want at least 32 of each",
			checked[true], checked[false])
	}
}
