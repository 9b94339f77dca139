package main

import (
	"predmatch/internal/pred"
	"predmatch/internal/shard"
)

const (
	matchBlock = 64  // embedded: matches per timed sample, so clock reads stay under 2%
	writeEvery = 256 // embedded: one Add+Remove pair per this many blocks (16,384 matches)
)

// embeddedRound: no server and no wire; shard.New in process, Match
// from both goroutines, an Add+Remove pair beside them on goroutine 0.
func embeddedRound(e *env, ops int, tr *tracing) (*round, error) {
	in := e.in
	var sm *shard.ShardedMatcher
	xlat := identityIDs(len(in.pop.Preds))
	standing := func(id pred.ID) bool { return id < churnIDBase }
	var ds []*driver
	for d := 0; d < 2; d++ {
		n := ops / 2 / matchBlock
		codes := in.opCodes(n + n/warmDiv)
		var dst []pred.ID
		drv := newDriver(n, matchBlock, func(i int) int {
			rel, k := unpack(codes[i])
			name, pool := in.rels[rel], in.pool[rel]
			failed := 0
			for j := 0; j < matchBlock; j++ {
				var err error
				dst, err = sm.Match(name, pool[(k+j)%poolPerRel], dst[:0])
				if err != nil {
					failed++
				}
			}
			// The last match of the block is the one checked: every 64th.
			if !sameSet(dst, in.want[rel][(k+matchBlock-1)%poolPerRel], xlat, standing) {
				failed++
			}
			return failed
		})
		if d == 0 {
			next := 0
			drv.withSide(writeEvery, func(int) int {
				p := in.churn[next%len(in.churn)]
				next++
				if sm.Add(p) != nil || sm.Remove(p.ID) != nil {
					return 1
				}
				return 0
			})
		}
		ds = append(ds, drv)
	}
	tr.attach(ds)

	clk := beginRound()
	sm = shard.New(in.pop.Catalog, in.pop.Funcs, shard.WithMetrics(tr.registry()))
	for _, p := range in.pop.Preds {
		if err := sm.Add(p); err != nil {
			return nil, err
		}
	}
	clk.ready()

	p := measure(ds)
	r := clk.finish(p, heapNow(), ds, nil)
	tr.collect(ds, "shard.match_x64", "shard.add_remove")
	// The matcher must outlive the heap reading above.
	if sm.Len() != len(in.pop.Preds) {
		r.failed++
	}
	return r, nil
}
