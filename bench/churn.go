package main

import (
	"time"

	"predmatch/internal/client"
	"predmatch/internal/pred"
	"predmatch/internal/server"
)

const (
	churnFIFO   = 64 // churned predicates registered at any time, beside the standing population
	probesPerOp = 4  // churn: match probes on connection 1 per predicate write
)

// churned is a registered churn predicate awaiting its removal.
type churned struct {
	id  pred.ID
	rel int
}

// churnRound: memory-only daemon, population as probe; connection 0
// alternates addpred and rmpred over a FIFO of 64 churned predicates
// while connection 1 probes the relation being written.
func churnRound(e *env, ops int, tr *tracing) (*round, error) {
	in := e.in
	var cs [2]*client.Client
	var xlat []pred.ID
	var standingEnd pred.ID // IDs below it are the standing population
	fifo := make([]churned, 0, churnFIFO+1)
	next := 0 // next churn predicate to add
	add := func(p *pred.Predicate) error {
		id, err := cs[0].AddPredicate(p)
		fifo = append(fifo, churned{id, in.relIdx[p.Rel]})
		return err
	}

	total := ops + ops/warmDiv
	codes := in.opCodes(total * probesPerOp)
	// Each write announces its relation before it starts, so the
	// probes run beside it; the buffer holds every token of the round,
	// so the writer never waits for the prober.
	type token struct{ i, rel int }
	tokens := make(chan token, total)
	sideLat := make([]int64, 0, ops*probesPerOp)
	sideFailed := 0
	sideDone := make(chan struct{})
	standing := func(id pred.ID) bool { return id < standingEnd }

	drv := newDriver(ops, 1, func(i int) int {
		var err error
		if i%2 == 0 {
			p := in.churn[next%len(in.churn)]
			next++
			tokens <- token{i, in.relIdx[p.Rel]}
			err = add(p)
		} else {
			head := fifo[0]
			tokens <- token{i, head.rel}
			err = cs[0].RemovePredicate(head.id)
			fifo = fifo[:copy(fifo, fifo[1:])]
		}
		if err != nil {
			return 1
		}
		return 0
	})
	ds := []*driver{drv}
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
	for ; next < churnFIFO; next++ {
		if err := add(in.churn[next]); err != nil {
			return nil, err
		}
	}
	standingEnd = fifo[0].id
	clk.ready()

	go func() {
		defer close(sideDone)
		j := 0
		for tk := range tokens {
			for q := 0; q < probesPerOp; q, j = q+1, j+1 {
				_, k := unpack(codes[j])
				s := time.Now()
				got, err := cs[1].Match(in.rels[tk.rel], in.pool[tk.rel][k])
				lat := int64(time.Since(s))
				if tk.i >= drv.warm() {
					sideLat = append(sideLat, lat)
					if err != nil || (j%oracleEvery == 0 && !sameSet(got, in.want[tk.rel][k], xlat, standing)) {
						sideFailed++
					}
				}
			}
		}
	}()
	p := measure(ds)
	close(tokens)
	<-sideDone
	r := clk.finish(p, heapNow(), ds, [][]int64{sideLat})
	r.attempted += len(sideLat)
	r.failed += sideFailed
	tr.collect(ds, "client.addpred_rmpred", "")
	return r, nil
}
