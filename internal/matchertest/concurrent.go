package matchertest

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/tuple"
)

// Synchronized wraps a matcher that is not safe for concurrent use with
// a mutex, so every strategy can run the RunConcurrent harness: the
// wrapper supplies thread safety, the harness checks that matching
// stays exact under interleaved Add/Remove/Match. A concurrency-native
// matcher (shard.ShardedMatcher) should be passed to RunConcurrent bare
// instead.
func Synchronized(m matcher.Matcher) matcher.Matcher {
	return &syncMatcher{m: m}
}

type syncMatcher struct {
	mu sync.Mutex
	m  matcher.Matcher
}

func (s *syncMatcher) Name() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Name()
}

func (s *syncMatcher) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Len()
}

func (s *syncMatcher) Add(p *pred.Predicate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Add(p)
}

func (s *syncMatcher) Remove(id pred.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Remove(id)
}

func (s *syncMatcher) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Match(rel, t, dst)
}

// RunConcurrent is the concurrent conformance harness: N writer
// goroutines toggle predicates from a pre-generated pool (each writer
// owns a disjoint ID range, so add/remove races on one ID never occur)
// while M reader goroutines match random tuples. The matcher under test
// must be safe for concurrent use — wrap single-threaded strategies in
// Synchronized.
//
// Readers verify invariants that hold regardless of write timing,
// because predicates are immutable once created: every returned ID must
// belong to the pool, target the matched relation, actually match the
// tuple, and appear at most once. After the writers finish, a full
// conformance sweep compares the matcher against the brute-force oracle
// on the final predicate set. The data races the harness cannot observe
// directly are the race detector's job: run it under `go test -race`.
func RunConcurrent(t *testing.T, factory Factory) {
	t.Helper()
	const (
		writers   = 4
		readers   = 4
		perWriter = 24
	)
	opsPerWriter := 200
	if testing.Short() {
		opsPerWriter = 50
	}

	fix := NewFixture()
	m := factory(fix)
	rng := rand.New(rand.NewSource(990))

	// The shared pool: predicates are generated (and bound, for the
	// oracle and the reader-side validity checks) before any goroutine
	// starts, so the pool itself is read-only during the storm.
	total := writers * perWriter
	pool := make([]*pred.Predicate, total)
	bounds := make([]*pred.Bound, total)
	for i := range pool {
		p := fix.RandomPredicate(rng, pred.ID(i))
		b, err := p.Bind(fix.Catalog, fix.Funcs)
		if err != nil {
			t.Fatalf("binding pool predicate %d: %v", i, err)
		}
		pool[i], bounds[i] = p, b
	}

	// Seed half of each writer's range so readers see matches from the
	// first instant.
	finalLive := make([]bool, total)
	for w := 0; w < writers; w++ {
		for i := w * perWriter; i < w*perWriter+perWriter/2; i++ {
			if err := m.Add(pool[i]); err != nil {
				t.Fatalf("seeding predicate %d: %v", i, err)
			}
			finalLive[i] = true
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			lo := w * perWriter
			for op := 0; op < opsPerWriter; op++ {
				i := lo + rng.Intn(perWriter)
				if finalLive[i] {
					if err := m.Remove(pool[i].ID); err != nil {
						t.Errorf("writer %d: Remove(%d): %v", w, pool[i].ID, err)
						return
					}
					finalLive[i] = false
				} else {
					if err := m.Add(pool[i]); err != nil {
						t.Errorf("writer %d: Add(%d): %v", w, pool[i].ID, err)
						return
					}
					finalLive[i] = true
				}
			}
		}(w)
	}

	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			var buf []pred.ID
			for {
				select {
				case <-done:
					return
				default:
				}
				rel := fix.Rels[rng.Intn(len(fix.Rels))]
				tup := fix.RandomTuple(rng, rel)
				got, err := m.Match(rel.Name(), tup, buf[:0])
				if err != nil {
					t.Errorf("reader %d: Match: %v", r, err)
					return
				}
				buf = got
				if msg := validateIDs(got, rel.Name(), tup, bounds); msg != "" {
					t.Errorf("reader %d: Match(%s, %v): %s", r, rel.Name(), tup, msg)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(done)
	rwg.Wait()
	if t.Failed() {
		return
	}

	// Final conformance sweep against the brute-force oracle: with the
	// writers quiesced, the matcher must agree exactly on the surviving
	// predicate set.
	want := 0
	for _, alive := range finalLive {
		if alive {
			want++
		}
	}
	if m.Len() != want {
		t.Fatalf("after storm: Len = %d, want %d", m.Len(), want)
	}
	sweepRng := rand.New(rand.NewSource(991))
	for _, rel := range fix.Rels {
		for k := 0; k < 50; k++ {
			tup := fix.RandomTuple(sweepRng, rel)
			got, err := m.Match(rel.Name(), tup, nil)
			if err != nil {
				t.Fatalf("sweep Match(%s): %v", rel.Name(), err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			var wantIDs []pred.ID
			for i, alive := range finalLive {
				if alive && bounds[i].Pred.Rel == rel.Name() && bounds[i].Match(tup) {
					wantIDs = append(wantIDs, pool[i].ID)
				}
			}
			if !equalIDs(got, wantIDs) {
				t.Fatalf("sweep Match(%s, %v) = %v, want %v", rel.Name(), tup, got, wantIDs)
			}
		}
	}
}

// validateIDs checks the timing-independent result invariants: IDs in
// range, unique, on the right relation, and actually matching the
// tuple. It returns "" when the result is valid.
func validateIDs(got []pred.ID, rel string, tup tuple.Tuple, bounds []*pred.Bound) string {
	seen := make(map[pred.ID]bool, len(got))
	for _, id := range got {
		if id < 0 || int(id) >= len(bounds) {
			return fmt.Sprintf("returned unknown id %d", id)
		}
		if seen[id] {
			return fmt.Sprintf("returned duplicate id %d", id)
		}
		seen[id] = true
		b := bounds[id]
		if b.Pred.Rel != rel {
			return fmt.Sprintf("id %d belongs to relation %s", id, b.Pred.Rel)
		}
		if !b.Match(tup) {
			return fmt.Sprintf("id %d does not match the tuple", id)
		}
	}
	return ""
}
