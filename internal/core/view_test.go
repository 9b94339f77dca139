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
// re-added and removed again after; and checkDelta holds every derived
// delta to the shape Match relies on.
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
		checkDelta(t, next)
		m := next.Merged()
		if m != next {
			merges++
			if m.delta.Len() != 0 || len(m.dead) != 0 {
				t.Fatalf("merge left an overlay: delta %d, dead %d", m.delta.Len(), len(m.dead))
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
	// a predicate with no indexed clause comes and goes beside two trees
	// and leaves them probed; the last predicate on an attribute takes
	// its tree with it, the last of the relation its relIndex.
	emp := f.Rels[0]
	rich := tuple.New(value.String_("a"), value.Int(30), value.Int(60), value.String_("toy"))
	add(salaryAtLeast(0, 50))
	add(pred.New(1, "emp", pred.EqClause("age", value.Int(30))))
	before := v.delta.rels["emp"]
	add(pred.New(2, "emp", pred.FnClause("age", "iseven")))
	check(emp, rich)
	remove(2)
	check(emp, rich)
	if ri := v.delta.rels["emp"]; len(ri.probes) != 2 || ri.trees["age"] != before.trees["age"] || ri.trees["salary"] != before.trees["salary"] {
		t.Fatalf("a predicate with no indexed clause came and went and left %d probes over %d trees, want the 2 trees it found", len(ri.probes), len(ri.trees))
	}
	remove(1)
	check(emp, rich)
	if ri := v.delta.rels["emp"]; len(ri.trees) != 1 || ri.trees["salary"] != before.trees["salary"] {
		t.Fatalf("%d trees after the last predicate on age left, want salary's alone and untouched", len(ri.trees))
	}
	remove(0)
	check(emp, rich)
	if _, ok := v.delta.rels["emp"]; ok || v.Admit("emp", rich) {
		t.Fatal("the relation's last predicate left and its relIndex still admits")
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

// checkDelta holds a derived delta to the shape Match relies on: every
// tree non-empty and probed exactly once at its attribute's position,
// and no relation kept without a predicate.
func checkDelta(t *testing.T, v *View) {
	t.Helper()
	for name, ri := range v.delta.rels {
		if len(ri.trees) == 0 && len(ri.nonIndexable) == 0 {
			t.Fatalf("the delta keeps a relIndex for %s, which has no predicate there", name)
		}
		if len(ri.probes) != len(ri.trees) {
			t.Fatalf("%s: %d probes over %d trees", name, len(ri.probes), len(ri.trees))
		}
		for _, pr := range ri.probes {
			if attr := ri.rel.Attrs()[pr.pos].Name; ri.trees[attr] != pr.tree || pr.tree.Len() == 0 {
				t.Fatalf("%s.%s: the probe holds a tree of %d intervals, the map another or none", name, attr, pr.tree.Len())
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

// TestViewWriteRebuildsOneTree is a delta write's cost by count and its
// sharing by identity: in a delta holding 4 predicates on each of a
// relation's 5 attributes, With pays the 5 insertions of the tree its
// predicate lands in and Without the 4 of what is left there (a copy of
// the whole delta paid 21 and 20), and the successor's other four trees
// and the other relation's relIndex are the predecessor's own. The
// side of the property with nothing to share — one indexed attribute —
// is internal/shard's TestWriteCostSublinear.
func TestViewWriteRebuildsOneTree(t *testing.T) {
	cat := schema.NewCatalog()
	for _, name := range []string{"r", "q"} {
		attrs := make([]schema.Attribute, 5)
		for i := range attrs {
			attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), Type: value.KindInt}
		}
		if err := cat.Add(schema.MustRelation(name, attrs...)); err != nil {
			t.Fatal(err)
		}
	}
	var inserts int
	v := NewView(cat, pred.NewRegistry(), WithIndexFactory(func() AttrIndex {
		return &matchertest.CountingIndex{Inserts: &inserts}
	}))
	on := func(id pred.ID, rel string, attr int) *pred.Predicate {
		return pred.New(id, rel, pred.EqClause(fmt.Sprintf("a%d", attr), value.Int(int64(id))))
	}
	with := func(p *pred.Predicate) *View {
		t.Helper()
		next, err := v.With(p) // never Merged: everything stays in the delta
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	for id := pred.ID(0); id < 20; id++ {
		v = with(on(id, "r", int(id)%5))
	}
	v = with(on(20, "q", 0))

	// shared checks next against prev: only r's tree on a2 may differ.
	shared := func(what string, prev, next *View) {
		t.Helper()
		if next.delta.rels["q"] != prev.delta.rels["q"] {
			t.Errorf("%s: the other relation's relIndex was copied", what)
		}
		for attr, tree := range prev.delta.rels["r"].trees {
			if same := next.delta.rels["r"].trees[attr] == tree; same != (attr != "a2") {
				t.Errorf("%s: tree %s shared with the predecessor = %v", what, attr, same)
			}
		}
	}
	was := inserts
	added := with(on(21, "r", 2))
	if got := inserts - was; got != 5 {
		t.Errorf("With on one of 5 attributes paid %d insertions, want the 5 of its tree", got)
	}
	shared("With", v, added)
	was = inserts
	removed, err := added.Without(21)
	if err != nil {
		t.Fatal(err)
	}
	if got := inserts - was; got != 4 {
		t.Errorf("Without paid %d insertions, want the 4 left in its tree", got)
	}
	shared("Without", added, removed)
	for i, want := range []int{4, 5, 4} {
		if got := []*View{v, added, removed}[i].delta.rels["r"].trees["a2"].Len(); got != want {
			t.Errorf("view %d holds %d intervals on a2, want %d", i, got, want)
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
