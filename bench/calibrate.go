package main

import (
	"sort"
	"time"
)

// This sandbox runs at two speeds some 15-25% apart and changes
// between them every ten minutes to an hour (run to run within an
// invocation the rounds agree within 1-2%; ten invocations an hour
// apart do not agree within a quarter). A timing taken at one speed
// cannot be held to a bound against one taken at the other, so every
// round times a fixed kernel of its own beside the program and reports
// its timings at the reference machine's speed:
//
//	reported time = measured time * speed,  reported rate = measured rate / speed
//
// where speed = calRef / (what the kernel took now). The kernel uses
// nothing of the program under test, so no change to the program can
// move it.

// calRef is what calKernel takes on the reference machine: this
// sandbox at the faster of its two speeds.
const calRef = 67 * time.Millisecond

var calSink uint64

type calNode struct {
	key  int
	vals []int
}

// calKernel is half register arithmetic and half the work a Go server
// does: allocation, hashing, sorting and pointer walks. Over an hour
// of both speeds its time tracked the four workloads' timings better
// than arithmetic or memory latency alone.
func calKernel() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	m := make(map[int]*calNode)
	keys := make([]int, 0, 40000)
	for i := 0; i < 40000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int(x >> 40)
		n := m[k]
		if n == nil {
			n = &calNode{key: k}
			m[k] = n
			keys = append(keys, k)
		}
		n.vals = append(n.vals, i)
	}
	sort.Ints(keys)
	sum := 0
	for r := 0; r < 20; r++ {
		for _, k := range keys {
			sum += len(m[k].vals) + m[k].key
		}
	}
	calSink += x + uint64(sum)
	return time.Since(t0)
}
