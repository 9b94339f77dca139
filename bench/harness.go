package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Load-model constants. They are part of the benchmark's definition:
// changing one changes what every number means, so none is a flag.
const (
	rounds  = 3  // fresh-state repetitions per invocation; metrics are the median
	windows = 16 // equal-op-count windows per driver; rates are the window median
	warmDiv = 10 // warm-up runs samples/warmDiv samples first, discarded
)

// driver is one closed-loop goroutine of a measured phase. main runs
// sample i (block main ops) and returns how many of them failed; after
// every sideEvery-th sample the driver also runs and times side.
type driver struct {
	samples   int // measured main samples; a multiple of windows
	block     int // main ops per sample
	main      func(i int) int
	sideEvery int
	side      func(i int) int

	lat     []int64 // per-sample main latency, ns per op
	sideLat []int64
	// Traced rounds also keep each sample's start, ns since t0.
	t0         time.Time
	starts     []int64
	sideStarts []int64
	stamps     [windows + 1]stamp
	failed     int
	sideN      int
}

type stamp struct {
	wall time.Time
	cpu  time.Duration
	ops  int64
}

func newDriver(samples, block int, main func(int) int) *driver {
	samples -= samples % windows
	if samples < windows {
		samples = windows
	}
	return &driver{samples: samples, block: block, main: main, lat: make([]int64, 0, samples)}
}

func (d *driver) withSide(every int, side func(int) int) *driver {
	d.sideEvery, d.side = every, side
	d.sideLat = make([]int64, 0, d.samples/every+1)
	return d
}

func (d *driver) warm() int { return d.samples / warmDiv }

// phase is what one measured phase yields beyond the drivers' samples.
type phase struct {
	wall      time.Duration
	cpu       time.Duration
	mainOps   int64
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPause   time.Duration
	gcCPU     float64 // seconds
	opsPerS   float64 // sum over drivers of the median window rate
	cpuPerOp  float64 // µs, median over all drivers' windows
	attempted int
	failed    int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measure runs the warm-up and then the measured phase of ds, all
// drivers concurrently in each. Op indices continue from the warm-up
// into the measured phase, so the op stream is one sequence.
func measure(ds []*driver) phase {
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			for i := 0; i < d.warm(); i++ {
				d.main(i)
				if d.side != nil && (i+1)%d.sideEvery == 0 {
					d.side(i)
				}
			}
		}(d)
	}
	wg.Wait()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	var done atomic.Int64
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, d := range ds {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			per := d.samples / windows
			i := d.warm()
			d.stamps[0] = stamp{time.Now(), cpuTime(), done.Load()}
			for w := 1; w <= windows; w++ {
				for j := 0; j < per; j++ {
					s := time.Now()
					d.failed += d.main(i)
					d.lat = append(d.lat, int64(time.Since(s))/int64(d.block))
					done.Add(int64(d.block))
					if d.starts != nil {
						d.starts = append(d.starts, int64(s.Sub(d.t0)))
					}
					if d.side != nil && (i+1)%d.sideEvery == 0 {
						s = time.Now()
						d.failed += d.side(i)
						d.sideLat = append(d.sideLat, int64(time.Since(s)))
						d.sideN++
						if d.sideStarts != nil {
							d.sideStarts = append(d.sideStarts, int64(s.Sub(d.t0)))
						}
					}
					i++
				}
				d.stamps[w] = stamp{time.Now(), cpuTime(), done.Load()}
			}
		}(d)
	}
	wg.Wait()
	p := phase{wall: time.Since(t0), cpu: cpuTime() - cpu0, mainOps: done.Load()}
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.gcCPU = gc1 - gc0

	var cpus []float64
	for _, d := range ds {
		var rates []float64
		for w := 1; w <= windows; w++ {
			a, b := d.stamps[w-1], d.stamps[w]
			rates = append(rates, float64(d.samples/windows*d.block)/b.wall.Sub(a.wall).Seconds())
			if n := b.ops - a.ops; n > 0 {
				cpus = append(cpus, float64(b.cpu-a.cpu)/1e3/float64(n))
			}
		}
		p.opsPerS += median(rates)
		p.attempted += d.samples*d.block + d.sideN
		p.failed += d.failed
	}
	p.cpuPerOp = median(cpus)
	return p
}

// heapNow is HeapAlloc after two collections: the second one frees
// what the first one's finalizers and sweeps released.
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by nearest rank; v is reordered.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	return v[int(q*float64(len(v)-1)+0.5)]
}

// latQuantiles merges the drivers' latency samples (ns) and returns the
// qs-quantiles in µs, with the sample count.
func latQuantiles(samples [][]int64, qs ...float64) ([]float64, int) {
	var all []float64
	for _, s := range samples {
		for _, ns := range s {
			all = append(all, float64(ns)/1e3)
		}
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(all, q)
	}
	return out, len(all)
}
