package core_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"predmatch/internal/core"
	"predmatch/internal/matcher"
	"predmatch/internal/matchertest"
	"predmatch/internal/pred"
	"predmatch/internal/tuple"
	"predmatch/internal/workload"
)

// parallel is an Index whose Match is MatchParallel, so the matcher
// gauntlets cover parallel matching.
type parallel struct{ *core.Index }

func (p parallel) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	return p.MatchParallel(rel, t, dst, 4)
}

// TestParallelConformance runs parallel matching through the full
// matcher conformance suite.
func TestParallelConformance(t *testing.T) {
	matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher {
		return parallel{core.New(f.Catalog, f.Funcs)}
	})
}

// TestParallelConcurrentConformance runs the read/write storm harness
// over parallel matching behind the Synchronized wrapper: a Match's
// worker goroutines must all finish before it returns, or the race
// detector sees them overlap the next write.
func TestParallelConcurrentConformance(t *testing.T) {
	matchertest.RunConcurrent(t, func(f *matchertest.Fixture) matcher.Matcher {
		return matchertest.Synchronized(parallel{core.New(f.Catalog, f.Funcs)})
	})
}

// TestMatchParallelEqualsSerial checks result equality between serial
// and parallel matching over the paper's scenario population.
func TestMatchParallelEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pop, err := workload.PaperScenario().Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	ix := core.New(pop.Catalog, pop.Funcs)
	for _, p := range pop.Preds {
		if err := ix.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	rel := pop.Rels[0]
	for i := 0; i < 300; i++ {
		tup := pop.Tuple(rng, rel)
		serial, err := ix.Match(rel.Name(), tup, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8, 0} {
			par, err := ix.MatchParallel(rel.Name(), tup, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(serial, func(a, b int) bool { return serial[a] < serial[b] })
			sort.Slice(par, func(a, b int) bool { return par[a] < par[b] })
			if len(serial) == 0 && len(par) == 0 {
				continue
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("tuple %d workers %d: parallel %v != serial %v", i, workers, par, serial)
			}
		}
	}
}

// TestMatchParallelUnknownRelation covers the early-out path.
func TestMatchParallelUnknownRelation(t *testing.T) {
	f := matchertest.NewFixture()
	ix := core.New(f.Catalog, f.Funcs)
	got, err := ix.MatchParallel("nosuch", nil, nil, 4)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestMatchParallelSmallFallback covers the serial fallback for tiny
// indexes.
func TestMatchParallelSmallFallback(t *testing.T) {
	f := matchertest.NewFixture()
	ix := core.New(f.Catalog, f.Funcs)
	p := f.RandomPredicate(rand.New(rand.NewSource(1)), 1)
	if err := ix.Add(p); err != nil {
		t.Fatal(err)
	}
	rel := p.Rel
	for _, r := range f.Rels {
		if r.Name() != rel {
			continue
		}
		tup := f.RandomTuple(rand.New(rand.NewSource(2)), r)
		serial, _ := ix.Match(rel, tup, nil)
		par, err := ix.MatchParallel(rel, tup, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(serial, func(a, b int) bool { return serial[a] < serial[b] })
		sort.Slice(par, func(a, b int) bool { return par[a] < par[b] })
		if !reflect.DeepEqual(serial, par) && (len(serial) != 0 || len(par) != 0) {
			t.Fatalf("fallback mismatch: %v vs %v", par, serial)
		}
	}
}
