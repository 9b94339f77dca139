package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"predmatch/internal/pred"
	"predmatch/internal/tuple"
)

// This file implements the parallel matching mode sketched in the
// paper's Section 6: "Parallelism can be achieved by searching the
// second-level index on each attribute of a tuple simultaneously,
// devoting a processor per attribute. In addition, when brute force
// search is required, as in the case of non-indexable predicates and
// when doing the final predicate test, the set of predicates to be
// checked can be divided evenly among the available processors."
//
// MatchParallel fans the per-attribute IBS-tree stabs out to one
// goroutine per attribute tree, then partitions the candidate completion
// tests and the non-indexable list across workers. As the paper notes,
// the initial relation-name hash is a per-tuple cost and does not scale.

// ParallelMatcher wraps an Index with a worker pool configuration,
// yielding a matcher that is safe for concurrent use and exploits
// intra-query parallelism. Construct with NewParallel.
//
// Concurrency model: the matcher holds an atomically published,
// immutable Index snapshot. Match performs one atomic load and then
// runs entirely against that frozen snapshot — no lock is held while
// trees are stabbed or candidates are completed, so readers never block
// writers or each other. Writers (Add/Remove) serialize on a mutex,
// clone the current snapshot, apply the change to the clone, and
// publish it; a Match that is already in flight keeps observing the
// snapshot it loaded. Every Match therefore sees some index state that
// existed between the call's start and end, never a half-applied write.
type ParallelMatcher struct {
	writeMu sync.Mutex // serializes clone-and-publish writers
	snap    atomic.Pointer[Index]
	workers int
}

// NewParallel wraps ix, adopting it as the initial snapshot; the caller
// must not use ix directly afterwards. workers bounds the
// completion-test fan-out; workers <= 0 selects GOMAXPROCS.
func NewParallel(ix *Index, workers int) *ParallelMatcher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pm := &ParallelMatcher{workers: workers}
	pm.snap.Store(ix)
	return pm
}

// Name implements matcher.Matcher.
func (pm *ParallelMatcher) Name() string { return pm.snap.Load().Name() + "-parallel" }

// Len implements matcher.Matcher.
func (pm *ParallelMatcher) Len() int { return pm.snap.Load().Len() }

// Add implements matcher.Matcher by clone-and-publish: the new snapshot
// becomes visible to subsequent Match calls in one atomic store.
func (pm *ParallelMatcher) Add(p *pred.Predicate) error {
	pm.writeMu.Lock()
	defer pm.writeMu.Unlock()
	next := pm.snap.Load().Clone()
	if err := next.Add(p); err != nil {
		return err
	}
	pm.snap.Store(next)
	return nil
}

// Remove implements matcher.Matcher by clone-and-publish.
func (pm *ParallelMatcher) Remove(id pred.ID) error {
	pm.writeMu.Lock()
	defer pm.writeMu.Unlock()
	next := pm.snap.Load().Clone()
	if err := next.Remove(id); err != nil {
		return err
	}
	pm.snap.Store(next)
	return nil
}

// Match implements matcher.Matcher using intra-query parallelism. The
// only synchronization is the snapshot acquisition — one atomic load —
// so the critical section no longer spans candidate completion.
func (pm *ParallelMatcher) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	return pm.snap.Load().matchParallel(rel, t, dst, pm.workers)
}

// MatchParallel runs one match with per-attribute tree probes in
// parallel and the completion tests partitioned over workers
// (workers <= 0 selects GOMAXPROCS). Unlike ParallelMatcher, it adds no
// snapshotting: the caller must not mutate the index concurrently.
func (ix *Index) MatchParallel(rel string, t tuple.Tuple, dst []pred.ID, workers int) ([]pred.ID, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return ix.matchParallel(rel, t, dst, workers)
}

func (ix *Index) matchParallel(rel string, t tuple.Tuple, dst []pred.ID, workers int) ([]pred.ID, error) {
	ri, ok := ix.rels[rel]
	if !ok {
		return dst, nil
	}
	// Small inputs don't amortize goroutine fan-out; fall back. The
	// threshold is deliberately coarse — the crossover is measured by
	// BenchmarkParallelMatch.
	if len(ri.probes) <= 1 && len(ri.nonIndexable) < 64 {
		return ix.matchMasked(ri, t, dst, nil), nil
	}

	// Phase 1: one goroutine per attribute tree (the paper's "processor
	// per attribute").
	partials := make([][]pred.ID, len(ri.probes))
	var wg sync.WaitGroup
	for i, pr := range ri.probes {
		wg.Add(1)
		go func(i int, pr probe) {
			defer wg.Done()
			partials[i] = pr.tree.StabAppend(t[pr.pos], nil)
		}(i, pr)
	}
	wg.Wait()
	var candidates []pred.ID
	for _, p := range partials {
		candidates = append(candidates, p...)
	}

	// Phase 2: divide the completion tests and the non-indexable list
	// evenly among the workers.
	type unit struct {
		id     pred.ID
		e      *entry
		isCand bool
	}
	units := make([]unit, 0, len(candidates)+len(ri.nonIndexable))
	for _, id := range candidates {
		units = append(units, unit{id: id, e: ix.preds[id], isCand: true})
	}
	for _, x := range ri.nonIndexable {
		units = append(units, unit{id: x.id, e: x.e})
	}
	if len(units) == 0 {
		return dst, nil
	}
	if workers > len(units) {
		workers = len(units)
	}
	results := make([][]pred.ID, workers)
	chunk := (len(units) + workers - 1) / workers
	wg = sync.WaitGroup{}
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(units) {
			hi = len(units)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []pred.ID
			for _, u := range units[lo:hi] {
				if u.isCand {
					if u.e.bound.MatchSkipping(t, u.e.clause) {
						out = append(out, u.id)
					}
				} else if u.e.bound.Match(t) {
					out = append(out, u.id)
				}
			}
			results[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	for _, r := range results {
		dst = append(dst, r...)
	}
	return dst, nil
}
