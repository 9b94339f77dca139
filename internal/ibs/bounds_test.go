package ibs

import (
	"math/bits"
	"math/rand"
	"testing"

	"predmatch/internal/interval"
	"predmatch/internal/obs"
)

// The paper's Section 5.1 analysis as counting tests. A seeded sweep
// over N = 2⁸ … 2¹⁴ holds every N to one bound with one constant,
// fitted once on this sweep and written down here (docs/MATCHERS.md
// publishes them), so a change that bends a curve fails even where each
// single value still looks small.
const (
	// stabNodesC: nodes visited per stab ≤ stabNodesC·⌈log₂ N⌉ + L,
	// for a stab that returns L intervals. The sweep reads 1.21–1.38,
	// the most on disjoint intervals at N = 2⁸.
	stabNodesC = 1.5
	// markersC: MarkerCount() ≤ markersC·N·⌈log₂ N⌉ on overlapping
	// intervals. The sweep reads 2.10–2.17 on nested intervals and
	// 1.29–1.67 on random ones.
	markersC = 2.5
	// disjointMarkersC: MarkerCount() ≤ disjointMarkersC·N on disjoint
	// intervals. The sweep reads exactly 3.00 at every N.
	disjointMarkersC = 3.0
)

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// population builds one of the sweep's interval sets of n intervals in
// the domain [0, 100n): "random" overlaps heavily (lengths up to a tenth
// of the domain, a tenth of them one-sided), "nested" is n intervals
// around one centre, the O(N log N) shape, and "disjoint" is the O(N)
// shape. Every set is inserted in a random order.
func population(kind string, n int, rng *rand.Rand) []interval.Interval[int] {
	ivs := make([]interval.Interval[int], n)
	for i := range ivs {
		switch kind {
		case "random":
			lo := rng.Intn(100 * n)
			switch r := rng.Intn(20); {
			case r == 0:
				ivs[i] = interval.AtLeast(lo)
			case r == 1:
				ivs[i] = interval.AtMost(lo)
			default:
				ivs[i] = interval.Closed(lo, lo+rng.Intn(10*n))
			}
		case "nested":
			ivs[i] = interval.Closed(50*n-50*i, 50*n+50*i+1)
		case "disjoint":
			ivs[i] = interval.Closed(100*i, 100*i+50)
		}
	}
	rng.Shuffle(n, func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })
	return ivs
}

// TestSection51Bounds builds a balanced tree over each population at
// every N of the sweep and holds it to the bounds. Space: O(N log N) in
// the worst case and O(N) for disjoint intervals. Stabs: a stab walks
// one root-to-leaf path and collects its L results on the way, so the
// nodes it visits grow with ⌈log₂ N⌉ and not with N. (Nested intervals
// are left out of the stab check: their stabs return up to N intervals
// each and add nothing to the path length.)
func TestSection51Bounds(t *testing.T) {
	for _, kind := range []string{"random", "nested", "disjoint"} {
		for n := 1 << 8; n <= 1<<14; n <<= 1 {
			rng := rand.New(rand.NewSource(int64(n)))
			c := RegisterCounters(obs.NewRegistry())
			tr := New(intCmp, Instrument(c))
			for i, iv := range population(kind, n, rng) {
				mustInsert(t, tr, ID(i), iv)
			}
			log := float64(ceilLog2(n))

			markers := float64(tr.MarkerCount())
			limit, bound := markersC*float64(n)*log, "markersC·N·⌈log₂ N⌉"
			if kind == "disjoint" {
				limit, bound = disjointMarkersC*float64(n), "disjointMarkersC·N"
			}
			if markers > limit {
				t.Fatalf("%s, N=%d: %.0f markers, want ≤ %s = %.0f", kind, n, markers, bound, limit)
			}
			if kind == "nested" {
				t.Logf("%s, N=%d: %.2f·N·⌈log₂ N⌉ markers", kind, n, markers/(float64(n)*log))
				continue
			}

			worst := 0.0
			for q := 0; q < 256; q++ {
				before := c.NodesVisited.Value()
				l := len(tr.Stab(rng.Intn(100*n+20) - 10))
				visited := float64(c.NodesVisited.Value() - before)
				if limit := stabNodesC*log + float64(l); visited > limit {
					t.Fatalf("%s, N=%d: a stab returning %d visited %.0f nodes, want ≤ stabNodesC·⌈log₂ N⌉ + L = %.1f", kind, n, l, visited, limit)
				}
				worst = max(worst, visited/log)
			}
			t.Logf("%s, N=%d: %.2f·N·⌈log₂ N⌉ markers (%.2f·N), at most %.2f·⌈log₂ N⌉ nodes per stab",
				kind, n, markers/(float64(n)*log), markers/float64(n), worst)
		}
	}
}
