package shard_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"predmatch/internal/core"
	"predmatch/internal/interval"
	"predmatch/internal/islist"
	"predmatch/internal/matcher"
	"predmatch/internal/matchertest"
	"predmatch/internal/obs"
	"predmatch/internal/pred"
	"predmatch/internal/shard"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/workload"
)

func newSharded(f *matchertest.Fixture) matcher.Matcher {
	return shard.New(f.Catalog, f.Funcs)
}

// TestConformance runs the sharded matcher through the sequential
// conformance suite every strategy must pass.
func TestConformance(t *testing.T) {
	matchertest.Run(t, newSharded)
}

// TestConcurrentConformance runs the read/write storm harness against
// the matcher bare — its native concurrency is the point.
func TestConcurrentConformance(t *testing.T) {
	matchertest.RunConcurrent(t, newSharded)
}

// TestConformanceSkipListShards swaps the per-shard attribute index via
// WithIndexOptions, checking the option plumbing end to end.
func TestConformanceSkipListShards(t *testing.T) {
	matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher {
		return shard.New(f.Catalog, f.Funcs,
			shard.WithIndexOptions(core.WithIndexFactory(func() core.AttrIndex {
				return islist.New(value.Compare)
			})),
			shard.WithName("sharded-islist"))
	})
}

func TestNameAndOptions(t *testing.T) {
	f := matchertest.NewFixture()
	if got := shard.New(f.Catalog, f.Funcs).Name(); got != "sharded" {
		t.Errorf("Name = %q, want sharded", got)
	}
	m := shard.New(f.Catalog, f.Funcs, shard.WithName("x"))
	if got := m.Name(); got != "x" {
		t.Errorf("Name = %q, want x", got)
	}
}

// TestMatchBatch checks that a batch returns exactly the per-tuple
// Match results, positionally and in the same order.
func TestMatchBatch(t *testing.T) {
	f := matchertest.NewFixture()
	rng := rand.New(rand.NewSource(3))
	m := shard.New(f.Catalog, f.Funcs)
	for id := pred.ID(0); id < 60; id++ {
		if err := m.Add(f.RandomPredicate(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rel := range f.Rels {
		for _, n := range []int{0, 1, 5, 64} {
			tuples := make([]tuple.Tuple, n)
			for i := range tuples {
				tuples[i] = f.RandomTuple(rng, rel)
			}
			batch, err := m.MatchBatch(rel.Name(), tuples)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != n {
				t.Fatalf("MatchBatch returned %d results for %d tuples", len(batch), n)
			}
			for i, tup := range tuples {
				want, err := m.Match(rel.Name(), tup, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(batch[i], want) {
					t.Fatalf("%s tuple %d: batch %v, Match %v", rel.Name(), i, batch[i], want)
				}
			}
		}
	}
}

// TestMatchBatchUnknownRelation covers the empty-shard paths.
func TestMatchBatchUnknownRelation(t *testing.T) {
	f := matchertest.NewFixture()
	m := shard.New(f.Catalog, f.Funcs)
	res, err := m.MatchBatch("nosuch", make([]tuple.Tuple, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if len(r) != 0 {
			t.Fatalf("unexpected matches %v", r)
		}
	}
}

// TestSnapshotFrozen pins down the published-snapshot contract: a view
// obtained before a write keeps answering with the old predicate set —
// after one more write, and after enough of them (adds, a tombstone for
// the predicate it holds, a re-add of that ID) to merge the shard's base
// several times over.
func TestSnapshotFrozen(t *testing.T) {
	f := matchertest.NewFixture()
	reg := obs.NewRegistry()
	m := shard.New(f.Catalog, f.Funcs, shard.WithMetrics(reg))
	mustAdd := func(p *pred.Predicate) {
		t.Helper()
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(pred.New(1, "emp", pred.IvClause("salary", interval.AtLeast(value.Int(50)))))
	old := m.Snapshot("emp")
	if old == nil {
		t.Fatal("no snapshot after Add")
	}
	mustAdd(pred.New(2, "emp", pred.IvClause("salary", interval.AtLeast(value.Int(10)))))

	tup := tuple.New(value.String_("a"), value.Int(30), value.Int(60), value.String_("toy"))
	matchSorted := func(m interface {
		Match(string, tuple.Tuple, []pred.ID) ([]pred.ID, error)
	}) []pred.ID {
		t.Helper()
		got, err := m.Match("emp", tup, nil)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		return got
	}
	if got := matchSorted(old); !reflect.DeepEqual(got, []pred.ID{1}) {
		t.Fatalf("old snapshot matched %v, want [1]", got)
	}
	if got := matchSorted(m); !reflect.DeepEqual(got, []pred.ID{1, 2}) {
		t.Fatalf("current matched %v, want [1 2]", got)
	}
	if m.Snapshot("events") != nil {
		t.Error("snapshot for predicate-free relation should be nil")
	}

	for id := pred.ID(3); id < 120; id++ {
		mustAdd(pred.New(id, "emp", pred.IvClause("salary", interval.AtLeast(value.Int(70)))))
	}
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	mustAdd(pred.New(1, "emp", pred.IvClause("salary", interval.AtLeast(value.Int(99)))))
	if got := matchSorted(old); !reflect.DeepEqual(got, []pred.ID{1}) {
		t.Fatalf("old snapshot matched %v after later writes and merges, want [1]", got)
	}
	if got := matchSorted(m); !reflect.DeepEqual(got, []pred.ID{2}) {
		t.Fatalf("current matched %v, want [2]", got)
	}

	// 121 publications, a handful of them merges; the stats count live
	// predicates and show the base's one salary tree.
	swaps := reg.Counter("predmatch_shard_snapshot_swaps_total", "").Value()
	merges := reg.Counter("predmatch_shard_merges_total", "").Value()
	if swaps != 121 || merges < 3 || merges > 12 {
		t.Errorf("swaps = %d, merges = %d; want 121 and a handful", swaps, merges)
	}
	if st := m.Stats(); len(st) != 1 || st[0].Predicates != 119 || st[0].Version != 121 || st[0].Structure != "ibs" {
		t.Errorf("Stats() = %+v, want 119 live predicates at version 121", st)
	}
	if trees := m.Trees(); len(trees) != 1 || trees[0].Attr != "salary" || trees[0].Intervals < 119 {
		t.Errorf("Trees() = %+v, want one salary row", trees)
	}
}

// TestWriteCostSublinear counts tree insertions instead of timing them:
// with N standing predicates in one relation, 1,000 alternating
// add/remove writes (the churn workload's FIFO) average at most 4·√N
// insertions each. Clone-per-write paid about N. A write appends or
// drops one delta row or tombstone and inserts into no tree; every
// insertion is a merge's rebuild of the base, and the counts are held
// to what that costs.
func TestWriteCostSublinear(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // insertions per write, all of them paid by merges
	}{{500, 15.5}, {8000, 64.0}} {
		n, want := c.n, c.want
		f := matchertest.NewFixture()
		var inserts int
		reg := obs.NewRegistry()
		merges := reg.Counter("predmatch_shard_merges_total", "")
		m := shard.New(f.Catalog, f.Funcs, shard.WithMetrics(reg),
			shard.WithIndexOptions(core.WithIndexFactory(func() core.AttrIndex {
				return &matchertest.CountingIndex{Inserts: &inserts}
			})))
		add := func(id pred.ID) {
			t.Helper()
			lo := int64(id % 90)
			if err := m.Add(pred.New(id, "emp", pred.IvClause("salary", interval.Closed(value.Int(lo), value.Int(lo+9))))); err != nil {
				t.Fatal(err)
			}
		}
		next := pred.ID(0)
		for ; int(next) < n; next++ {
			add(next)
		}
		loaded := inserts
		if per, limit := float64(loaded)/float64(n), 4*math.Sqrt(float64(n)); per > limit {
			t.Errorf("N=%d: loading paid %.1f insertions per predicate, want at most 4·√N = %.0f", n, per, limit)
		}
		const writes = 1000
		oldest := pred.ID(n - 100) // removals reach into the base and, later, the delta
		for w := 0; w < writes; w++ {
			was, merged := inserts, merges.Value()
			if w%2 == 0 {
				add(next)
				next++
			} else {
				if err := m.Remove(oldest); err != nil {
					t.Fatal(err)
				}
				oldest++
			}
			if merges.Value() == merged && inserts != was {
				t.Fatalf("N=%d: write %d merged nothing and made %d tree insertions, want 0", n, w, inserts-was)
			}
		}
		per, limit := float64(inserts-loaded)/writes, 4*math.Sqrt(float64(n))
		t.Logf("N=%d: %.1f insertions per write (4·√N = %.0f, clone-per-write ≈ %d)", n, per, limit, n)
		if per > limit {
			t.Errorf("N=%d: %.1f tree insertions per write, want at most 4·√N = %.0f", n, per, limit)
		}
		if math.Abs(per-want) > 0.5 {
			t.Errorf("N=%d: %.1f tree insertions per write, want %.1f as before", n, per, want)
		}
	}
}

// benchSpec is the benchmark's population (bench/inputs.go): 4
// relations of 15 attributes, a third of them used, perRel predicates
// of 2 clauses each.
func benchSpec(perRel int) workload.SchemaSpec {
	return workload.SchemaSpec{
		Relations: 4, AttrsPerRel: 15, UsedAttrFrac: 1.0 / 3.0,
		PredsPerRel: perRel, ClausesPer: 2, IndexableFrac: 0.9, PointFrac: 0.5,
	}
}

// loadBench registers the benchmark's 4 × 500 standing predicates.
func loadBench(t *testing.T, rng *rand.Rand, opts ...shard.Option) (*workload.Population, *shard.ShardedMatcher) {
	t.Helper()
	pop, err := benchSpec(500).Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	m := shard.New(pop.Catalog, pop.Funcs, opts...)
	for _, p := range pop.Preds {
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return pop, m
}

// TestMatchAllocs is the blocking allocation gate on the serving-layer
// match at the benchmark's population: with a dst that has room, the
// stab and the completion run in it and nothing is allocated.
func TestMatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	pop, m := loadBench(t, rng)
	tups := make([]tuple.Tuple, 256)
	for i := range tups {
		tups[i] = pop.Tuple(rng, pop.Rels[i%len(pop.Rels)])
	}
	dst := make([]pred.ID, 0, 1024)
	i := 0
	if n := testing.AllocsPerRun(4*len(tups), func() {
		dst, _ = m.Match(pop.Rels[i%len(pop.Rels)].Name(), tups[i%len(tups)], dst[:0])
		i++
	}); n != 0 {
		t.Fatalf("shard.Match allocates %v times per match at the benchmark population, want 0", n)
	}
}

// TestWriteAllocs is the blocking allocation gate on the predicate
// write at the benchmark's population, with 16 churned predicates
// registered per relation as the churn workload keeps them: adding one
// more and removing it again — both land in the delta, and copy its
// rows — allocates at most 32 times (18 when this gate was set). No
// merge runs inside the measured loop:
// a pair leaves the overlay as it found it, and each relation's first
// pair is run beforehand.
func TestWriteAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	reg := obs.NewRegistry()
	_, m := loadBench(t, rng, shard.WithMetrics(reg))
	churn, err := benchSpec(64).Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	var spare []*pred.Predicate // a relation's predicates past its first 16
	perRel := map[string]int{}
	for i, p := range churn.Preds {
		p = pred.New(1<<20+pred.ID(i), p.Rel, p.Clauses...)
		if perRel[p.Rel]++; perRel[p.Rel] > 16 {
			spare = append(spare, p)
		} else if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	pair := func() {
		p := spare[i%len(spare)]
		i++
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	for range spare {
		pair()
	}
	merges := reg.Counter("predmatch_shard_merges_total", "")
	before := merges.Value()
	n := testing.AllocsPerRun(2*len(spare), pair)
	if merges.Value() != before {
		t.Fatalf("%d merges inside the measured loop", merges.Value()-before)
	}
	t.Logf("%.1f allocations per Add + Remove pair", n)
	if n > 32 {
		t.Fatalf("an Add + Remove pair of a churn predicate allocates %v times at the benchmark population, want at most 32", n)
	}
}

// TestCrossShardWriterParallelism checks that writers on different
// relations do not corrupt each other (per-shard mutexes are
// independent; the race detector covers the rest).
func TestCrossShardWriterParallelism(t *testing.T) {
	f := matchertest.NewFixture()
	m := shard.New(f.Catalog, f.Funcs)
	var wg sync.WaitGroup
	perRel := 50
	for w, rel := range f.Rels {
		wg.Add(1)
		go func(w int, relName string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := pred.ID(w * perRel)
			for i := 0; i < perRel; i++ {
				rel := f.Rels[w]
				clauses := []pred.Clause{f.RandomClause(rng, rel)}
				if err := m.Add(pred.New(base+pred.ID(i), relName, clauses...)); err != nil {
					t.Errorf("%s: Add: %v", relName, err)
					return
				}
			}
			for i := 0; i < perRel/2; i++ {
				if err := m.Remove(base + pred.ID(i)); err != nil {
					t.Errorf("%s: Remove: %v", relName, err)
					return
				}
			}
		}(w, rel.Name())
	}
	wg.Wait()
	if want := len(f.Rels) * (perRel - perRel/2); m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
	rels := m.Relations()
	if len(rels) != len(f.Rels) {
		t.Fatalf("Relations = %v", rels)
	}
}

// TestMatchBatchSeesOneVersion writes concurrently with large batches of
// one repeated tuple: every tuple of a batch must observe the same
// snapshot, so every row of a batch must be the same. The adder keeps
// changing which predicates match under the batch; the remover narrows
// what a tuple can be admitted by — the standing predicate never
// matches the tuple and the relation holds no function-only predicate,
// so once the churned predicate is gone the tuple lies outside every
// envelope, and a batch that asked a newer summary than its snapshot's
// would return its later rows empty.
func TestMatchBatchSeesOneVersion(t *testing.T) {
	salary := func(id pred.ID, iv interval.Interval[value.Value]) *pred.Predicate {
		return pred.New(id, "emp", pred.IvClause("salary", iv))
	}
	for _, c := range []struct {
		name     string
		standing *pred.Predicate
		write    func(m *shard.ShardedMatcher, id pred.ID) error
	}{
		{"adder", salary(0, interval.AtLeast(value.Int(10))), func(m *shard.ShardedMatcher, id pred.ID) error {
			if id > 64 { // keep the rows, and the test's run time, bounded
				if err := m.Remove(id - 64); err != nil {
					return err
				}
			}
			return m.Add(pred.New(id, "emp", pred.IvClause("age", interval.AtLeast(value.Int(0)))))
		}},
		{"remover", salary(0, interval.Closed(value.Int(0), value.Int(10))), func(m *shard.ShardedMatcher, id pred.ID) error {
			if err := m.Add(salary(id, interval.Closed(value.Int(40), value.Int(60)))); err != nil {
				return err
			}
			return m.Remove(id)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := matchertest.NewFixture()
			m := shard.New(f.Catalog, f.Funcs)
			if err := m.Add(c.standing); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer wg.Wait()
			defer close(stop)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for id := pred.ID(1); ; id++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := c.write(m, id); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()

			// One fixed tuple repeated across the batch.
			tup := tuple.New(value.String_("alice"), value.Int(50), value.Int(50), value.String_("shoe"))
			tuples := make([]tuple.Tuple, 256)
			for i := range tuples {
				tuples[i] = tup
			}
			for round := 0; round < 50; round++ {
				batch, err := m.MatchBatch("emp", tuples)
				if err != nil {
					t.Fatal(err)
				}
				first := append([]pred.ID(nil), batch[0]...)
				sort.Slice(first, func(i, j int) bool { return first[i] < first[j] })
				for i := 1; i < len(batch); i++ {
					got := append([]pred.ID(nil), batch[i]...)
					sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
					if !reflect.DeepEqual(first, got) {
						t.Fatalf("round %d: batch position %d saw %v, position 0 saw %v (torn snapshot)",
							round, i, got, first)
					}
				}
			}
		})
	}
}

func TestStats(t *testing.T) {
	f := matchertest.NewFixture()
	m := shard.New(f.Catalog, f.Funcs)
	if got := m.Stats(); len(got) != 0 {
		t.Fatalf("empty matcher stats = %+v", got)
	}
	age := func(id pred.ID, lo int64) *pred.Predicate {
		return pred.New(id, "emp", pred.IvClause("age", interval.AtLeast(value.Int(lo))))
	}
	for i, p := range []*pred.Predicate{
		age(1, 10),
		age(2, 20),
		pred.New(3, "items", pred.IvClause("stock", interval.AtMost(value.Int(5)))),
	} {
		if err := m.Add(p); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	want := []shard.ShardStats{
		{Rel: "emp", Predicates: 2, Version: 2, Structure: "ibs"},
		{Rel: "items", Predicates: 1, Version: 1, Structure: "ibs"},
	}
	if got := m.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats after adds = %+v, want %+v", got, want)
	}
	if err := m.Remove(2); err != nil {
		t.Fatal(err)
	}
	// A removal publishes a new snapshot: the count drops, the version
	// still advances — the shard itself survives with zero predicates
	// once its last predicate goes.
	if err := m.Remove(3); err != nil {
		t.Fatal(err)
	}
	want = []shard.ShardStats{
		{Rel: "emp", Predicates: 1, Version: 3, Structure: "ibs"},
		{Rel: "items", Predicates: 0, Version: 2, Structure: "ibs"},
	}
	if got := m.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats after removes = %+v, want %+v", got, want)
	}
}
