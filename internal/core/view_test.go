package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
// outside every envelope and take Match's skip path. The random steps
// run between two scripted sequences over the same oracle: writes that
// change the shape of an all-delta view before them, a tombstoned ID
// re-added and removed again after.
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
			if m.deltaLen() != 0 || len(m.dead) != 0 {
				t.Fatalf("merge left an overlay: delta %d, dead %d", m.deltaLen(), len(m.dead))
			}
		}
		v = m
	}
	add := func(p *pred.Predicate) {
		t.Helper()
		if err := oracle.Add(p); err != nil {
			t.Fatal(err)
		}
		next, err := v.With(p)
		if err != nil {
			t.Fatalf("With(%v): %v", p, err)
		}
		publish(next)
		live = append(live, p.ID)
	}
	remove := func(j int) {
		t.Helper()
		id := live[j]
		live = slices.Delete(live, j, j+1)
		freed = append(freed, id)
		if err := oracle.Remove(id); err != nil {
			t.Fatal(err)
		}
		next, err := v.Without(id)
		if err != nil {
			t.Fatalf("Without(%d): %v", id, err)
		}
		publish(next)
	}
	check := func(rel *schema.Relation, tup tuple.Tuple) {
		t.Helper()
		got, want := sortedMatch(t, v, rel.Name(), tup), sortedMatch(t, oracle, rel.Name(), tup)
		if !slices.Equal(got, want) {
			t.Fatalf("Match(%s, %v) = %v, oracle %v", rel.Name(), tup, got, want)
		}
	}

	// Scripted, on the empty view, where every write lands in the delta:
	// a predicate with no interval clause makes the relation's rows admit
	// every tuple while it is there and no longer once it is gone; the
	// last predicate of the relation takes its rows with it.
	emp := f.Rels[0]
	rich := tuple.New(value.String_("a"), value.Int(30), value.Int(60), value.String_("toy"))
	poor := tuple.New(value.String_("a"), value.Int(31), value.Int(10), value.String_("toy"))
	add(salaryAtLeast(0, 50))
	add(pred.New(1, "emp", pred.EqClause("age", value.Int(30))))
	add(pred.New(2, "emp", pred.FnClause("age", "iseven")))
	check(emp, rich)
	if !v.Admit("emp", poor) {
		t.Fatal("a row with no interval clause is in the delta and a tuple outside every envelope is skipped")
	}
	remove(2)
	check(emp, rich)
	if d := v.delta["emp"]; len(d.rows) != 2 || v.Admit("emp", poor) {
		t.Fatalf("the row with no interval clause left %d rows that admit a tuple outside every envelope", len(d.rows))
	}
	remove(1)
	check(emp, rich)
	remove(0)
	check(emp, rich)
	if _, ok := v.delta["emp"]; ok || v.Admit("emp", rich) {
		t.Fatal("the relation's last predicate left and its delta still admits")
	}
	nextID = 3

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
			add(randomPredicate(id))
		case r < 7 && len(live) > 0: // remove: recent IDs sit in delta, old ones in base
			j := rng.Intn(len(live))
			if rng.Intn(2) == 0 {
				j = len(live) - 1 - rng.Intn(min(len(live), 8))
			}
			remove(j)
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
			check(rel, tup)
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
	// Scripted: a base predicate is tombstoned, its ID re-added into the
	// delta with another predicate, removed from there and added again.
	j := slices.IndexFunc(live, func(id pred.ID) bool { _, inBase := v.base.preds[id]; return inBase })
	id := live[j]
	for _, salary := range []int64{10, 70} {
		remove(slices.Index(live, id))
		check(emp, rich)
		freed = freed[:len(freed)-1]
		add(salaryAtLeast(id, salary))
		check(emp, rich)
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
	if v.base.Len() != 17 || v.deltaLen() != 0 {
		t.Fatalf("base %d, delta %d after the first merge; want 17, 0", v.base.Len(), v.deltaLen())
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

	// Trees reports the base's trees alone: the delta rows are not in
	// one. The tombstoned copy of 3 still occupies the salary tree.
	v = must(v.With(salaryAtLeast(100, 10)))
	v = must(v.With(pred.New(101, "emp", pred.EqClause("age", value.Int(44)))))
	if trees := v.Trees(); len(trees) != 1 || trees[0].Attr != "salary" || trees[0].Intervals != 17 {
		t.Fatalf("Trees() = %+v, want one row for the base's salary tree of 17 intervals", trees)
	}
}

// TestViewDeltaAliasing: Views derived from one parent share its delta
// rows, so a write that appended into the parent's backing array would
// let one child overwrite a row another child or the parent still
// holds. Children are derived from parents of 1 to 8 rows, where an
// appending With would find spare capacity at some size: With(p) and
// With(q) side by side, and With after each delta Without. Every View
// must match exactly its own predicate set against the seqscan oracle,
// and the parent must be unchanged.
func TestViewDeltaAliasing(t *testing.T) {
	f := matchertest.NewFixture()
	salaryIs := func(id pred.ID) *pred.Predicate {
		return pred.New(id, "emp", pred.EqClause("salary", value.Int(int64(id))))
	}
	with := func(v *View, p *pred.Predicate) *View {
		t.Helper()
		next, err := v.With(p) // never Merged: every row stays in the delta
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	same := func(what string, v *View, preds []*pred.Predicate) {
		t.Helper()
		oracle := seqscan.New(f.Catalog, f.Funcs)
		for _, p := range preds {
			if err := oracle.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if v.Len() != len(preds) {
			t.Fatalf("%s: Len %d, want %d", what, v.Len(), len(preds))
		}
		for salary := int64(0); salary < 16; salary++ {
			tup := tuple.New(value.String_("a"), value.Int(30), value.Int(salary), value.String_("toy"))
			if got, want := sortedMatch(t, v, "emp", tup), sortedMatch(t, oracle, "emp", tup); !slices.Equal(got, want) {
				t.Fatalf("%s: Match(salary %d) = %v, oracle %v", what, salary, got, want)
			}
		}
	}
	for n := 1; n <= 8; n++ {
		parent := NewView(f.Catalog, f.Funcs)
		var preds []*pred.Predicate
		for id := pred.ID(1); id <= pred.ID(n); id++ {
			parent = with(parent, salaryIs(id))
			preds = append(preds, salaryIs(id))
		}
		p, q := salaryIs(10), salaryIs(11)
		vp, vq := with(parent, p), with(parent, q)
		same(fmt.Sprintf("%d rows + p", n), vp, append(slices.Clip(preds), p))
		same(fmt.Sprintf("%d rows + q", n), vq, append(slices.Clip(preds), q))
		same(fmt.Sprintf("the parent of %d rows", n), parent, preds)
		for i := range preds {
			rest := slices.Concat(preds[:i], preds[i+1:])
			w, err := parent.Without(preds[i].ID)
			if err != nil {
				t.Fatal(err)
			}
			ww := with(w, salaryIs(12))
			same(fmt.Sprintf("%d rows - row %d", n, i), w, rest)
			same(fmt.Sprintf("%d rows - row %d + r", n, i), ww, append(slices.Clip(rest), salaryIs(12)))
			same(fmt.Sprintf("the parent of %d rows", n), parent, preds)
		}
	}
}

// TestRetainedViewsUnderWriter: trees, probe lists, non-indexable lists
// and slot tables are shared between a delta and its successors, so a
// writer deriving the next view must not write anything a retained one
// can reach. Four goroutines keep matching every view retained so far
// while a writer derives 1,000 successors, a quarter of its adds with
// no indexed clause, and beside each a sibling it discards; each
// retained view must go on returning the seqscan answers recorded when
// it was published. Run under -race.
func TestRetainedViewsUnderWriter(t *testing.T) {
	f := matchertest.NewFixture()
	rng := rand.New(rand.NewSource(19))
	oracle := seqscan.New(f.Catalog, f.Funcs)
	type retained struct {
		v    *View
		tups []tuple.Tuple // four per relation, in f.Rels order
		want [][]pred.ID
	}
	var (
		mu   sync.Mutex
		kept []retained // append-only: readers take the header under mu
		wg   sync.WaitGroup
	)
	verify := func(r retained) bool {
		for k, tup := range r.tups {
			got, _ := r.v.Match(f.Rels[k/4].Name(), tup, nil)
			slices.Sort(got)
			if !slices.Equal(got, r.want[k]) {
				t.Errorf("a retained view changed: Match(%s, %v) = %v, was %v", f.Rels[k/4].Name(), tup, got, r.want[k])
				return false
			}
		}
		return true
	}
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				seen := kept
				mu.Unlock()
				for _, r := range seen {
					if !verify(r) {
						return
					}
				}
			}
		}()
	}

	v := NewView(f.Catalog, f.Funcs)
	var live []pred.ID
	for w := 0; w < 1000; w++ {
		var next *View
		var err error
		if len(live) < 24 || rng.Intn(2) == 0 {
			p := f.RandomPredicate(rng, pred.ID(w))
			if rng.Intn(4) == 0 {
				p.Clauses = []pred.Clause{pred.FnClause(f.Rels[0].Attrs()[1+rng.Intn(2)].Name, "isodd")}
				p.Rel = f.Rels[0].Name()
			}
			if err := oracle.Add(p); err != nil {
				t.Fatal(err)
			}
			next, err = v.With(p)
			live = append(live, p.ID)
		} else {
			j := len(live) - 1 - rng.Intn(16) // mostly still in the delta
			if err := oracle.Remove(live[j]); err != nil {
				t.Fatal(err)
			}
			next, err = v.Without(live[j])
			live = slices.Delete(live, j, j+1)
		}
		if err != nil {
			t.Fatal(err)
		}
		// A sibling derived from the same predecessor and thrown away:
		// its appends must not land in arrays next has inherited.
		if _, err := v.With(pred.New(1<<20, f.Rels[0].Name(), pred.FnClause("salary", "iseven"))); err != nil {
			t.Fatal(err)
		}
		v = next.Merged()
		if w%10 != 0 {
			continue
		}
		r := retained{v: v}
		for _, rel := range f.Rels {
			for k := 0; k < 4; k++ {
				tup := f.RandomTuple(rng, rel)
				r.tups = append(r.tups, tup)
				r.want = append(r.want, sortedMatch(t, oracle, rel.Name(), tup))
			}
		}
		mu.Lock()
		kept = append(kept, r)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	for _, r := range kept {
		verify(r)
	}
}

// TestViewMatchAllocs: a match allocates nothing when the caller's dst
// has room for the candidates. The base stab runs in dst's spare
// capacity, the tombstone filter compacts it in place and the delta
// rows are tested where they lie, with the delta empty and with it
// populated.
func TestViewMatchAllocs(t *testing.T) {
	f := matchertest.NewFixture()
	rng := rand.New(rand.NewSource(3))
	emp := f.Rels[0]
	tups := make([]tuple.Tuple, 64)
	for i := range tups {
		tups[i] = f.RandomTuple(rng, emp)
	}
	dst := make([]pred.ID, 0, 1024)
	v := NewView(f.Catalog, f.Funcs)
	checked := map[bool]int{}
	for id := pred.ID(0); id < 400; id++ {
		next, err := v.With(pred.New(id, "emp", f.RandomClause(rng, emp), f.RandomClause(rng, emp)))
		if err != nil {
			t.Fatal(err)
		}
		if id%7 == 0 && id > 0 {
			if next, err = next.Without(id / 2); err != nil { // a tombstone or a delta removal
				t.Fatal(err)
			}
		}
		v = next.Merged()
		emptyDelta := v.deltaLen() == 0
		if id < 300 || checked[emptyDelta] > 0 {
			continue
		}
		for _, tup := range tups {
			checked[emptyDelta]++
			if n := testing.AllocsPerRun(5, func() { dst, _ = v.Match("emp", tup, dst[:0]) }); n != 0 {
				t.Errorf("%d predicates, %d in delta, %d tombstoned: View.Match(%v) allocates %v times, want 0",
					v.Len(), v.deltaLen(), len(v.dead), tup, n)
			}
		}
	}
	if checked[true] < 32 || checked[false] < 32 {
		t.Fatalf("checked %d tuples with an empty delta and %d with a populated one; want at least 32 of each",
			checked[true], checked[false])
	}
}
