package main

import (
	"predmatch/internal/client"
	"predmatch/internal/pred"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
)

const (
	oracleEvery = 64  // every 64th match result is compared with the seqscan oracle
	batchEvery  = 256 // probe: one matchbatch per this many matches on connection 0
	batchSize   = 64
)

// probeRound: daemon on loopback TCP, population loaded by addpred,
// match on both connections, a 64-tuple matchbatch beside it.
func probeRound(e *env, ops int, tr *tracing) (*round, error) {
	in := e.in
	var ds []*driver
	var cs [2]*client.Client
	var xlat []pred.ID
	for d := 0; d < 2; d++ {
		d := d
		n := ops / 2
		codes := in.opCodes(n + n/warmDiv)
		drv := newDriver(n, 1, func(i int) int {
			rel, k := unpack(codes[i])
			got, err := cs[d].Match(in.rels[rel], in.pool[rel][k])
			if err != nil || (i%oracleEvery == 0 && !sameSet(got, in.want[rel][k], xlat, nil)) {
				return 1
			}
			return 0
		})
		if d == 0 {
			batch := make([]tuple.Tuple, batchSize)
			drv.withSide(batchEvery, func(i int) int {
				rel, k := unpack(codes[i])
				for j := range batch {
					batch[j] = in.pool[rel][(k+j)%poolPerRel]
				}
				got, err := cs[0].MatchBatch(in.rels[rel], batch)
				if err != nil || len(got) != batchSize || !sameSet(got[0], in.want[rel][k], xlat, nil) {
					return 1
				}
				return 0
			})
		}
		ds = append(ds, drv)
	}
	tr.attach(ds)

	clk := beginRound()
	dm, err := startDaemon(server.Config{Registry: tr.registry()})
	if err != nil {
		return nil, err
	}
	defer dm.stop()
	if cs, err = dm.dial2(); err != nil {
		return nil, err
	}
	defer closeAll(cs)
	if err := declare(cs[0], in); err != nil {
		return nil, err
	}
	if xlat, err = loadPreds(cs[0], in); err != nil {
		return nil, err
	}
	clk.ready()

	p := measure(ds)
	r := clk.finish(p, heapNow(), ds, nil)
	tr.collect(ds, "client.match", "client.matchbatch")
	return r, nil
}
