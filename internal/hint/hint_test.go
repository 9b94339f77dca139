package hint_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"predmatch/internal/core"
	"predmatch/internal/hint"
	"predmatch/internal/interval"
	"predmatch/internal/ivindex"
	"predmatch/internal/markset"
	"predmatch/internal/matcher"
	"predmatch/internal/matchertest"
	"predmatch/internal/pred"
	"predmatch/internal/shard"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/workload"
)

func sorted(ids []markset.ID) []markset.ID {
	out := append([]markset.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []markset.ID) bool {
	a, b = sorted(a), sorted(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// naiveStab evaluates every interval directly.
func naiveStab(items map[markset.ID]interval.Interval[int64], x int64) []markset.ID {
	var out []markset.ID
	for id, iv := range items {
		if iv.Contains(ivindex.Int64Cmp, x) {
			out = append(out, id)
		}
	}
	return out
}

func TestHINTBasic(t *testing.T) {
	ix := hint.New(ivindex.Int64Cmp)
	items := map[markset.ID]interval.Interval[int64]{
		1: interval.Closed[int64](10, 20),
		2: interval.Point[int64](15),
		3: interval.Open[int64](15, 30),
		4: interval.AtLeast[int64](25),
		5: interval.AtMost[int64](12),
		6: interval.All[int64](),
		7: interval.ClosedOpen[int64](20, 25),
		8: interval.OpenClosed[int64](5, 10),
	}
	for id, iv := range items {
		if err := ix.Insert(id, iv); err != nil {
			t.Fatalf("Insert(%d, %v): %v", id, iv, err)
		}
	}
	if ix.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(items))
	}
	if err := ix.Insert(1, interval.Point[int64](0)); err == nil {
		t.Fatal("duplicate Insert succeeded")
	}
	if err := ix.Delete(99); err == nil {
		t.Fatal("Delete of unknown id succeeded")
	}
	for x := int64(0); x <= 35; x++ {
		got, want := ix.Stab(x), naiveStab(items, x)
		if !equalIDs(got, want) {
			t.Errorf("Stab(%d) = %v, want %v", x, sorted(got), sorted(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete half and re-verify: rebuild must reflect the survivors.
	for _, id := range []markset.ID{2, 4, 6, 8} {
		if err := ix.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		delete(items, id)
	}
	for x := int64(0); x <= 35; x++ {
		if got, want := ix.Stab(x), naiveStab(items, x); !equalIDs(got, want) {
			t.Errorf("after deletes: Stab(%d) = %v, want %v", x, sorted(got), sorted(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHINTEmptyAndSingle(t *testing.T) {
	ix := hint.New(ivindex.Int64Cmp)
	if got := ix.Stab(7); len(got) != 0 {
		t.Fatalf("empty Stab = %v", got)
	}
	if err := ix.Insert(1, interval.Point[int64](7)); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stab(7); !equalIDs(got, []markset.ID{1}) {
		t.Fatalf("Stab(7) = %v", got)
	}
	for _, x := range []int64{6, 8} {
		if got := ix.Stab(x); len(got) != 0 {
			t.Fatalf("Stab(%d) = %v", x, got)
		}
	}
	if err := ix.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stab(7); len(got) != 0 {
		t.Fatalf("Stab after delete = %v", got)
	}
}

func TestHINTRejectsMalformed(t *testing.T) {
	ix := hint.New(ivindex.Int64Cmp)
	bad := interval.Interval[int64]{
		Lo: interval.Bound[int64]{Kind: interval.Finite, Value: 10, Closed: true},
		Hi: interval.Bound[int64]{Kind: interval.Finite, Value: 5, Closed: true},
	}
	if err := ix.Insert(1, bad); err == nil {
		t.Fatal("malformed interval accepted")
	}
	if ix.Len() != 0 {
		t.Fatal("failed insert left residue")
	}
}

// TestHINTPaperWorkload stabs the Section 5.2 interval population and
// cross-checks against direct evaluation.
func TestHINTPaperWorkload(t *testing.T) {
	for _, a := range []float64{0, 0.5, 1} {
		rng := rand.New(rand.NewSource(6))
		ix := hint.New(ivindex.Int64Cmp)
		items := make(map[markset.ID]interval.Interval[int64])
		for i, iv := range workload.Intervals(rng, 500, a) {
			id := markset.ID(i + 1)
			if err := ix.Insert(id, iv); err != nil {
				t.Fatal(err)
			}
			items[id] = iv
		}
		for _, x := range workload.StabPoints(rng, 200) {
			if got, want := ix.Stab(x), naiveStab(items, x); !equalIDs(got, want) {
				t.Fatalf("a=%v: Stab(%d): got %d ids, want %d", a, x, len(got), len(want))
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStabAppendAllocFree is the blocking allocation gate on the flat
// index: once built, a stab into a pre-sized dst allocates nothing.
func TestStabAppendAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ix := hint.New(ivindex.Int64Cmp)
	for i, iv := range workload.Intervals(rng, 500, 0.5) {
		if err := ix.Insert(markset.ID(i+1), iv); err != nil {
			t.Fatal(err)
		}
	}
	points := workload.StabPoints(rng, 64)
	dst := ix.StabAppend(points[0], make([]markset.ID, 0, 512)) // builds the hierarchy
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		dst = ix.StabAppend(points[i%len(points)], dst[:0])
	}); n != 0 {
		t.Fatalf("StabAppend into a pre-sized dst allocates %v times per stab, want 0", n)
	}
}

// TestHINTStats exercises the introspection surface used by
// core.AttrIndexStats.
func TestHINTStats(t *testing.T) {
	ix := hint.New(ivindex.Int64Cmp)
	for i, iv := range workload.DisjointIntervals(64) {
		if err := ix.Insert(markset.ID(i+1), iv); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NodeCount() <= 0 || ix.MarkerCount() < 64 || ix.Height() <= 0 {
		t.Fatalf("stats: nodes=%d markers=%d height=%d",
			ix.NodeCount(), ix.MarkerCount(), ix.Height())
	}
}

// hintFactory builds a core.Index whose attribute indexes are HINT
// hierarchies — the same WithIndexFactory seam every other structure
// uses.
func hintFactory(f *matchertest.Fixture) *core.Index {
	return core.New(f.Catalog, f.Funcs,
		core.WithIndexFactory(func() core.AttrIndex { return hint.New(value.Compare) }),
		core.WithName("hint"),
	)
}

// TestConformance runs the full matcher behavioral gauntlet over a
// HINT-backed core.Index.
func TestConformance(t *testing.T) {
	matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher { return hintFactory(f) })
}

// TestConformanceSharded runs the gauntlet over the serving-layer
// sharded matcher with HINT attribute indexes — the configuration
// predmatchd -index hint serves.
func TestConformanceSharded(t *testing.T) {
	matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher {
		return shard.New(f.Catalog, f.Funcs, shard.WithIndexOptions(
			core.WithIndexFactory(func() core.AttrIndex { return hint.New(value.Compare) }),
			core.WithName("hint"),
		), shard.WithName("sharded-hint"))
	})
}

// TestConcurrentSharded storms the sharded HINT configuration: 4
// writers and 4 readers race against clone-and-publish snapshot swaps.
// Run under -race this proves a lazily built HINT snapshot is never
// observed torn.
func TestConcurrentSharded(t *testing.T) {
	matchertest.RunConcurrent(t, func(f *matchertest.Fixture) matcher.Matcher {
		return shard.New(f.Catalog, f.Funcs, shard.WithIndexOptions(
			core.WithIndexFactory(func() core.AttrIndex { return hint.New(value.Compare) }),
			core.WithName("hint"),
		), shard.WithName("sharded-hint"))
	})
}

// TestConcurrentSynchronized storms a bare HINT-backed core.Index
// behind the mutex wrapper, the non-sharded concurrency baseline.
func TestConcurrentSynchronized(t *testing.T) {
	matchertest.RunConcurrent(t, func(f *matchertest.Fixture) matcher.Matcher {
		return matchertest.Synchronized(hintFactory(f))
	})
}

// TestConcurrentFirstStab races the lazy build directly: each round
// invalidates the hierarchy (with no readers in flight, matching the
// clone-then-publish contract), then releases a pack of goroutines
// whose stabs all hit the unbuilt index at once. The double-checked
// build must hand every racer a fully constructed hierarchy — a torn
// one would drop or duplicate ids against the direct-evaluation oracle.
func TestConcurrentFirstStab(t *testing.T) {
	const (
		nItems  = 300
		rounds  = 40
		readers = 8
	)
	rng := rand.New(rand.NewSource(7))
	items := make(map[markset.ID]interval.Interval[int64])
	ix := hint.New(ivindex.Int64Cmp)
	for i, iv := range workload.Intervals(rng, nItems, 0.3) {
		id := markset.ID(i + 1)
		items[id] = iv
		if err := ix.Insert(id, iv); err != nil {
			t.Fatal(err)
		}
	}
	points := workload.StabPoints(rng, 64)
	want := make(map[int64][]markset.ID, len(points))
	for _, x := range points {
		want[x] = sorted(naiveStab(items, x))
	}

	probeID := markset.ID(nItems + 1)
	for r := 0; r < rounds; r++ {
		// Quiescent mutation: Insert+Delete of an interval far outside
		// the probe domain leaves the item set unchanged but marks the
		// built hierarchy stale.
		if err := ix.Insert(probeID, interval.Closed[int64](1_000_000, 1_000_001)); err != nil {
			t.Fatal(err)
		}
		if err := ix.Delete(probeID); err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				<-start
				for n := 0; n < 20; n++ {
					x := points[rng.Intn(len(points))]
					got := sorted(ix.Stab(x))
					w := want[x]
					if len(got) != len(w) {
						t.Errorf("torn read: Stab(%d) returned %d ids, want %d", x, len(got), len(w))
						return
					}
					for i := range got {
						if got[i] != w[i] {
							t.Errorf("torn read: Stab(%d)[%d] = %d, want %d", x, i, got[i], w[i])
							return
						}
					}
				}
			}(int64(r*readers + g))
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildUnderWrite proves the snapshot-swap rebuild never serves a
// torn index end to end: writers churn throwaway predicates through the
// sharded matcher (every Add/Remove clones the relation's core.Index,
// re-inserting all intervals into *fresh, unbuilt* HINT hierarchies and
// publishing them), while readers continuously Match. Each published
// snapshot's first Match triggers concurrent lazy builds from racing
// reader goroutines. A fixed "stable" predicate population pins the
// expected result for every probe tuple; churn predicates can never
// match a probe, so any deviation — missing stable ids, duplicates,
// ghost churn ids — is a torn or stale hierarchy.
func TestRebuildUnderWrite(t *testing.T) {
	f := matchertest.NewFixture()
	sm := shard.New(f.Catalog, f.Funcs, shard.WithIndexOptions(
		core.WithIndexFactory(func() core.AttrIndex { return hint.New(value.Compare) }),
		core.WithName("hint"),
	), shard.WithName("sharded-hint"))

	// Stable population: age-band predicates over emp. Probe tuples
	// carry age 0..99, so expected matches are derivable in closed form.
	const nStable = 60
	for i := 0; i < nStable; i++ {
		lo := int64(i)
		p := pred.New(markset.ID(i+1), "emp",
			pred.IvClause("age", interval.Closed(value.Int(lo), value.Int(lo+20))))
		if err := sm.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	wantFor := func(age int64) []markset.ID {
		var out []markset.ID
		for i := 0; i < nStable; i++ {
			lo := int64(i)
			if age >= lo && age <= lo+20 {
				out = append(out, markset.ID(i+1))
			}
		}
		return out
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				age := rng.Int63n(100)
				tup := tuple.Tuple{value.String_("x"), value.Int(age), value.Int(1), value.String_("d")}
				got, err := sm.Match("emp", tup, nil)
				if err != nil {
					t.Errorf("Match: %v", err)
					return
				}
				w := wantFor(age)
				if !equalIDs(got, w) {
					t.Errorf("torn snapshot: Match(age=%d) = %v, want %v", age, sorted(got), w)
					return
				}
			}
		}(int64(g))
	}
	// Writer: churn predicates on salary far above any probe tuple's
	// salary, forcing constant clone-rebuild-publish cycles.
	churnID := markset.ID(10_000)
	for r := 0; r < 200; r++ {
		p := pred.New(churnID, "emp",
			pred.IvClause("salary", interval.Closed(value.Int(1_000_000), value.Int(1_000_100))))
		if err := sm.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := sm.Remove(churnID); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}
