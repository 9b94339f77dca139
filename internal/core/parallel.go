package core

import (
	"runtime"
	"sync"

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

// MatchParallel runs one match with per-attribute tree probes in
// parallel and the completion tests partitioned over workers
// (workers <= 0 selects GOMAXPROCS). It adds no snapshotting: the
// caller must not mutate the index concurrently.
func (ix *Index) MatchParallel(rel string, t tuple.Tuple, dst []pred.ID, workers int) ([]pred.ID, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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
