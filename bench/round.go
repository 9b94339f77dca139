package main

import (
	"time"
)

// roundClock brackets one round: the heap reading before any program
// state exists, and the start of set-up.
type roundClock struct {
	heap0 uint64
	t0    time.Time
	setup time.Duration
	cal   []float64 // calKernel's time before set-up, after it and after the measured phase
}

// beginRound is called after the harness buffers of the round are
// allocated, so heap_mb counts the program's state and not them.
func beginRound() *roundClock {
	c := &roundClock{cal: []float64{float64(calKernel())}}
	c.heap0, c.t0 = heapNow(), time.Now()
	return c
}

// ready marks the end of set-up: the workload can serve.
func (c *roundClock) ready() {
	c.setup = time.Since(c.t0)
	c.cal = append(c.cal, float64(calKernel()))
}

// finish folds a measured phase into the round's metrics. heap is the
// reading taken while the program's state was still live.
func (c *roundClock) finish(p phase, heap uint64, ds []*driver, side [][]int64) *round {
	var mains [][]int64
	for _, d := range ds {
		mains = append(mains, d.lat)
		if d.side != nil {
			side = append(side, d.sideLat)
		}
	}
	mq, mn := latQuantiles(mains, 0.5, 0.99, 1)
	sq, sn := latQuantiles(side, 0.5)
	ops := float64(p.mainOps)
	// The machine's speed over this round, see calibrate.go.
	speed := float64(calRef) / median(append(c.cal, float64(calKernel())))
	return &round{
		e2e: map[string]float64{
			"setup_s":            c.setup.Seconds() * speed,
			"ops_per_s":          p.opsPerS / speed,
			"main_p50_us":        mq[0] * speed,
			"side_p50_us":        sq[0] * speed,
			"cpu_us_per_op":      p.cpuPerOp * speed,
			"allocs_per_op":      float64(p.mallocs) / ops,
			"alloc_bytes_per_op": float64(p.bytes) / ops,
			"heap_mb":            (float64(heap) - float64(c.heap0)) / (1 << 20),
		},
		layer: map[string]float64{
			"harness.machine_speed": speed,
			"client.main_p99_us":    mq[1],
			"client.main_max_us":    mq[2],
			"harness.main_samples":  float64(mn),
			"harness.side_samples":  float64(sn),
			"runtime.gc_cycles":     float64(p.gcCycles),
			"runtime.gc_pause_ms":   p.gcPause.Seconds() * 1e3,
			"runtime.gc_cpu_frac":   p.gcCPU / p.cpu.Seconds(),
		},
		attempted: p.attempted,
		failed:    p.failed,
	}
}
