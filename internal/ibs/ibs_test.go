package ibs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"predmatch/internal/interval"
	"predmatch/internal/markset"
)

func intCmp(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// naiveIndex is the brute-force reference implementation.
type naiveIndex struct {
	ivs map[ID]interval.Interval[int]
}

func newNaive() *naiveIndex { return &naiveIndex{ivs: map[ID]interval.Interval[int]{}} }

func (n *naiveIndex) insert(id ID, iv interval.Interval[int]) { n.ivs[id] = iv }
func (n *naiveIndex) delete(id ID)                            { delete(n.ivs, id) }

func (n *naiveIndex) stab(x int) []ID {
	var out []ID
	for id, iv := range n.ivs {
		if iv.Contains(intCmp, x) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mustInsert(t *testing.T, tr *Tree[int], id ID, iv interval.Interval[int]) {
	t.Helper()
	if err := tr.Insert(id, iv); err != nil {
		t.Fatalf("Insert(%d, %v): %v", id, iv, err)
	}
}

func checkStab(t *testing.T, tr *Tree[int], ref *naiveIndex, x int) {
	t.Helper()
	got := tr.Stab(x)
	want := ref.stab(x)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stab(%d) = %v, want %v\ntree:\n%s", x, got, want, tr.Dump())
	}
}

// paperIntervals is the interval set of the paper's Figure 2 (OCR of the
// figure is partially garbled; values follow the legible entries: A=[9,19],
// B=[2,7], C=[1,3), D=(17,20], E=[7,12], F=[18,18], G=(-inf,17]).
func paperIntervals() map[ID]interval.Interval[int] {
	return map[ID]interval.Interval[int]{
		1: interval.Closed(9, 19),
		2: interval.Closed(2, 7),
		3: interval.ClosedOpen(1, 3),
		4: interval.OpenClosed(17, 20),
		5: interval.Closed(7, 12),
		6: interval.Point(18),
		7: interval.AtMost(17),
	}
}

func TestFigure2Example(t *testing.T) {
	for _, balanced := range []bool{false, true} {
		t.Run(fmt.Sprintf("balanced=%v", balanced), func(t *testing.T) {
			tr := New(intCmp, Balanced(balanced))
			ref := newNaive()
			for id := ID(1); id <= 7; id++ {
				iv := paperIntervals()[id]
				mustInsert(t, tr, id, iv)
				ref.insert(id, iv)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants after inserts: %v\n%s", err, tr.Dump())
			}
			for x := -5; x <= 25; x++ {
				checkStab(t, tr, ref, x)
			}
			if tr.Len() != 7 {
				t.Fatalf("Len() = %d, want 7", tr.Len())
			}
		})
	}
}

func TestPointIntervals(t *testing.T) {
	tr := New(intCmp)
	ref := newNaive()
	for i := 0; i < 50; i++ {
		iv := interval.Point(i * 2)
		mustInsert(t, tr, ID(i), iv)
		ref.insert(ID(i), iv)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for x := -1; x <= 101; x++ {
		checkStab(t, tr, ref, x)
	}
	// Point intervals never overlap each other: marker space must be Θ(N)
	// (one '=' mark per point).
	if got := tr.MarkerCount(); got != 50 {
		t.Errorf("MarkerCount() = %d for 50 disjoint points, want 50", got)
	}
}

func TestOpenEndedIntervals(t *testing.T) {
	cases := map[ID]interval.Interval[int]{
		1: interval.AtMost(10),  // (-inf, 10]
		2: interval.Less(5),     // (-inf, 5)
		3: interval.AtLeast(20), // [20, +inf)
		4: interval.Greater(25), // (25, +inf)
		5: interval.All[int](),  // (-inf, +inf)
		6: interval.Closed(8, 22),
	}
	for _, balanced := range []bool{false, true} {
		t.Run(fmt.Sprintf("balanced=%v", balanced), func(t *testing.T) {
			tr := New(intCmp, Balanced(balanced))
			ref := newNaive()
			for id := ID(1); id <= 6; id++ {
				mustInsert(t, tr, id, cases[id])
				ref.insert(id, cases[id])
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%v\n%s", err, tr.Dump())
			}
			for x := -10; x <= 40; x++ {
				checkStab(t, tr, ref, x)
			}
			// Deleting in arbitrary order must keep the rest intact.
			for _, id := range []ID{5, 1, 4, 6, 2, 3} {
				if err := tr.Delete(id); err != nil {
					t.Fatalf("Delete(%d): %v", id, err)
				}
				ref.delete(id)
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("after Delete(%d): %v\n%s", id, err, tr.Dump())
				}
				for x := -10; x <= 40; x += 3 {
					checkStab(t, tr, ref, x)
				}
			}
			if tr.Len() != 0 || tr.NodeCount() != 0 || tr.MarkerCount() != 0 {
				t.Fatalf("tree not empty after deleting all: len=%d nodes=%d marks=%d",
					tr.Len(), tr.NodeCount(), tr.MarkerCount())
			}
		})
	}
}

func TestInsertErrors(t *testing.T) {
	tr := New(intCmp)
	mustInsert(t, tr, 1, interval.Closed(1, 5))
	if err := tr.Insert(1, interval.Closed(2, 3)); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := tr.Insert(2, interval.Closed(5, 1)); err == nil {
		t.Error("inverted interval accepted")
	}
	if err := tr.Insert(3, interval.Open(4, 4)); err == nil {
		t.Error("empty interval (4,4) accepted")
	}
	if err := tr.Insert(4, interval.Interval[int]{Lo: interval.Above[int](), Hi: interval.Above[int]()}); err == nil {
		t.Error("+inf lower bound accepted")
	}
	if err := tr.Delete(99); err == nil {
		t.Error("deleting unknown id succeeded")
	}
}

func TestGetAndEach(t *testing.T) {
	tr := New(intCmp)
	want := interval.Closed(3, 9)
	mustInsert(t, tr, 7, want)
	got, ok := tr.Get(7)
	if !ok || got != want {
		t.Fatalf("Get(7) = %v, %v", got, ok)
	}
	if _, ok := tr.Get(8); ok {
		t.Fatal("Get(8) found nonexistent interval")
	}
	count := 0
	tr.Each(func(id ID, iv interval.Interval[int]) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("Each visited %d intervals, want 1", count)
	}
}

func TestStabAppendReuse(t *testing.T) {
	tr := New(intCmp)
	mustInsert(t, tr, 1, interval.Closed(0, 10))
	mustInsert(t, tr, 2, interval.Closed(5, 15))
	buf := make([]ID, 0, 8)
	buf = tr.StabAppend(7, buf)
	if !reflect.DeepEqual(buf, []ID{1, 2}) {
		t.Fatalf("StabAppend(7) = %v", buf)
	}
	buf = buf[:0]
	buf = tr.StabAppend(12, buf)
	if !reflect.DeepEqual(buf, []ID{2}) {
		t.Fatalf("StabAppend(12) = %v", buf)
	}
}

// TestStabAppendAllocFree is the blocking allocation gate on the paper's
// stabbing query: into a pre-sized dst it allocates nothing, with
// either mark-set representation (markset.Set.AppendTo takes no
// callback, so nothing escapes per visited node).
func TestStabAppendAllocFree(t *testing.T) {
	for name, set := range map[string]markset.Factory{"slice": markset.NewSlice, "avl": markset.NewAVL} {
		rng := rand.New(rand.NewSource(4))
		tr := New(intCmp, MarkSets(set))
		for id := ID(1); id <= 500; id++ {
			lo := rng.Intn(10000)
			mustInsert(t, tr, id, interval.Closed(lo, lo+rng.Intn(1000)))
		}
		dst := make([]ID, 0, 512)
		x := 0
		if n := testing.AllocsPerRun(200, func() {
			x = (x + 997) % 11000
			dst = tr.StabAppend(x, dst[:0])
		}); n != 0 {
			t.Errorf("%s mark sets: StabAppend into a pre-sized dst allocates %v times per stab, want 0", name, n)
		}
	}
}

func TestStabFunc(t *testing.T) {
	tr := New(intCmp)
	mustInsert(t, tr, 1, interval.Closed(0, 10))
	mustInsert(t, tr, 2, interval.Closed(5, 15))
	mustInsert(t, tr, 3, interval.Closed(20, 30))
	seen := map[ID]bool{}
	tr.StabFunc(7, func(id ID) bool { seen[id] = true; return true })
	if !seen[1] || !seen[2] || seen[3] {
		t.Fatalf("StabFunc(7) visited %v", seen)
	}
	// Early termination.
	calls := 0
	tr.StabFunc(7, func(id ID) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("StabFunc early-stop made %d calls, want 1", calls)
	}
}

// randomInterval produces the mix of predicate shapes from the paper:
// equality points, closed/open/half-open bounded intervals, and
// open-ended intervals.
func randomInterval(rng *rand.Rand, maxVal int) interval.Interval[int] {
	a := rng.Intn(maxVal)
	b := rng.Intn(maxVal)
	if a > b {
		a, b = b, a
	}
	switch rng.Intn(10) {
	case 0:
		return interval.Point(a)
	case 1:
		return interval.AtLeast(a)
	case 2:
		return interval.AtMost(b)
	case 3:
		return interval.Greater(a)
	case 4:
		return interval.Less(b + 1)
	case 5:
		if a == b {
			return interval.Point(a)
		}
		return interval.Open(a, b)
	case 6:
		if a == b {
			return interval.Point(a)
		}
		return interval.ClosedOpen(a, b)
	case 7:
		if a == b {
			return interval.Point(a)
		}
		return interval.OpenClosed(a, b)
	case 8:
		return interval.All[int]()
	default:
		return interval.Closed(a, b)
	}
}

// TestRandomizedAgainstNaive drives random insert/delete/stab sequences
// against the brute-force reference, across every configuration axis
// (balanced x mark-set representation), verifying full invariants
// periodically and query equivalence continuously.
func TestRandomizedAgainstNaive(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"balanced-slice", []Option{Balanced(true), MarkSets(markset.NewSlice)}},
		{"balanced-avl", []Option{Balanced(true), MarkSets(markset.NewAVL)}},
		{"unbalanced-slice", []Option{Balanced(false), MarkSets(markset.NewSlice)}},
		{"unbalanced-avl", []Option{Balanced(false), MarkSets(markset.NewAVL)}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := New(intCmp, cfg.opts...)
				ref := newNaive()
				nextID := ID(0)
				live := []ID{}
				const maxVal = 60
				ops := 400
				if testing.Short() {
					ops = 120
				}
				for op := 0; op < ops; op++ {
					switch {
					case len(live) == 0 || rng.Intn(3) != 0:
						iv := randomInterval(rng, maxVal)
						id := nextID
						nextID++
						mustInsert(t, tr, id, iv)
						ref.insert(id, iv)
						live = append(live, id)
					default:
						i := rng.Intn(len(live))
						id := live[i]
						live = append(live[:i], live[i+1:]...)
						if err := tr.Delete(id); err != nil {
							t.Fatalf("seed %d op %d: Delete(%d): %v", seed, op, id, err)
						}
						ref.delete(id)
					}
					// Spot-check queries every operation.
					for i := 0; i < 5; i++ {
						checkStab(t, tr, ref, rng.Intn(maxVal+10)-5)
					}
					if op%25 == 0 {
						if err := tr.CheckInvariants(); err != nil {
							t.Fatalf("seed %d op %d: %v\n%s", seed, op, err, tr.Dump())
						}
					}
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("seed %d final: %v", seed, err)
				}
				// Exhaustive final sweep.
				for x := -5; x <= maxVal+5; x++ {
					checkStab(t, tr, ref, x)
				}
				// Delete everything; the tree must drain completely.
				for _, id := range live {
					if err := tr.Delete(id); err != nil {
						t.Fatalf("drain Delete(%d): %v", id, err)
					}
					ref.delete(id)
				}
				if tr.Len() != 0 || tr.NodeCount() != 0 || tr.MarkerCount() != 0 {
					t.Fatalf("seed %d: tree not empty after drain: len=%d nodes=%d marks=%d",
						seed, tr.Len(), tr.NodeCount(), tr.MarkerCount())
				}
			}
		})
	}
}

// TestBalancedSortedInsertion verifies the payoff of Section 4.3: with
// balancing, sorted insertion order still yields logarithmic height,
// while the unbalanced tree degrades to a linear spine.
func TestBalancedSortedInsertion(t *testing.T) {
	const n = 512
	bal := New(intCmp, Balanced(true))
	unbal := New(intCmp, Balanced(false))
	ref := newNaive()
	for i := 0; i < n; i++ {
		iv := interval.Closed(i*10, i*10+5)
		mustInsert(t, bal, ID(i), iv)
		mustInsert(t, unbal, ID(i), iv)
		ref.insert(ID(i), iv)
	}
	if h := bal.Height(); h > 22 {
		t.Errorf("balanced height = %d for %d sorted intervals, want O(log n)", h, n)
	}
	if h := unbal.Height(); h < n {
		t.Errorf("unbalanced height = %d, expected a linear spine of %d", h, 2*n)
	}
	if err := bal.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for x := -5; x < n*10+10; x += 7 {
		checkStab(t, bal, ref, x)
		checkStab(t, unbal, ref, x)
	}
}

// TestMarkerSpaceDisjoint verifies the Section 5.1 observation: when
// intervals do not overlap, only O(N) markers are placed.
func TestMarkerSpaceDisjoint(t *testing.T) {
	const n = 256
	tr := New(intCmp, Balanced(true))
	for i := 0; i < n; i++ {
		mustInsert(t, tr, ID(i), interval.Closed(i*10, i*10+5))
	}
	if got, limit := tr.MarkerCount(), 4*n; got > limit {
		t.Errorf("disjoint intervals placed %d markers, want <= %d (O(N))", got, limit)
	}
}

// TestMarkerSpaceNested verifies that heavily overlapping (nested)
// intervals approach the O(N log N) worst case rather than O(N^2).
func TestMarkerSpaceNested(t *testing.T) {
	const n = 256
	tr := New(intCmp, Balanced(true))
	for i := 0; i < n; i++ {
		mustInsert(t, tr, ID(i), interval.Closed(i, 2*n-i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	markers := tr.MarkerCount()
	// log2(512) = 9; allow a generous constant.
	if limit := 40 * n; markers > limit {
		t.Errorf("nested intervals placed %d markers, want O(N log N) <= %d", markers, limit)
	}
	if markers < n {
		t.Errorf("nested intervals placed %d markers, impossibly few", markers)
	}
}

// TestSharedEndpoints exercises many intervals sharing lower bounds, the
// case the paper highlights as awkward for priority search trees and
// direct for IBS-trees.
func TestSharedEndpoints(t *testing.T) {
	tr := New(intCmp)
	ref := newNaive()
	id := ID(0)
	for i := 0; i < 10; i++ {
		iv := interval.Closed(100, 100+i*3)
		mustInsert(t, tr, id, iv)
		ref.insert(id, iv)
		id++
	}
	for i := 0; i < 10; i++ {
		iv := interval.Closed(80+i*2, 130)
		mustInsert(t, tr, id, iv)
		ref.insert(id, iv)
		id++
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for x := 70; x <= 140; x++ {
		checkStab(t, tr, ref, x)
	}
	// Delete the shared-lower-bound group; the rest must survive.
	for d := ID(0); d < 10; d++ {
		if err := tr.Delete(d); err != nil {
			t.Fatal(err)
		}
		ref.delete(d)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for x := 70; x <= 140; x++ {
		checkStab(t, tr, ref, x)
	}
}

// TestStringDomain verifies the paper's claim that IBS-trees work
// unmodified on any totally ordered domain — here, strings.
func TestStringDomain(t *testing.T) {
	strCmp := func(a, b string) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	tr := New(strCmp)
	if err := tr.Insert(1, interval.Closed("apple", "mango")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(2, interval.Point("banana")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(3, interval.AtLeast("kiwi")); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.Stab("banana")
	if !reflect.DeepEqual(got, []ID{1, 2}) {
		t.Fatalf("Stab(banana) = %v, want [1 2]", got)
	}
	got = tr.Stab("lemon")
	if !reflect.DeepEqual(got, []ID{1, 3}) {
		t.Fatalf("Stab(lemon) = %v, want [1 3]", got)
	}
	got = tr.Stab("zebra")
	if !reflect.DeepEqual(got, []ID{3}) {
		t.Fatalf("Stab(zebra) = %v, want [3]", got)
	}
}

// TestDeleteReinsertCycle stresses the unmark/splice/re-mark machinery by
// repeatedly deleting and re-inserting in a dense overlapping set.
func TestDeleteReinsertCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New(intCmp, Balanced(true))
	ref := newNaive()
	const n = 64
	for i := 0; i < n; i++ {
		iv := randomInterval(rng, 40)
		mustInsert(t, tr, ID(i), iv)
		ref.insert(ID(i), iv)
	}
	for cycle := 0; cycle < 30; cycle++ {
		id := ID(rng.Intn(n))
		if _, ok := tr.Get(id); !ok {
			continue
		}
		if err := tr.Delete(id); err != nil {
			t.Fatal(err)
		}
		ref.delete(id)
		iv := randomInterval(rng, 40)
		mustInsert(t, tr, id, iv)
		ref.insert(id, iv)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	for x := -2; x < 45; x++ {
		checkStab(t, tr, ref, x)
	}
}

func TestDumpSmoke(t *testing.T) {
	tr := New(intCmp)
	mustInsert(t, tr, 1, interval.Closed(1, 3))
	d := tr.Dump()
	if d == "" {
		t.Fatal("Dump returned empty string for non-empty tree")
	}
}

func TestSlotStringAndAccessors(t *testing.T) {
	tr := New(intCmp, Balanced(true))
	if !tr.Balanced() {
		t.Error("Balanced() = false")
	}
	if ub := New(intCmp, Balanced(false)); ub.Balanced() {
		t.Error("unbalanced Balanced() = true")
	}
	// slot String coverage via Dump of a marked tree plus direct checks.
	mustInsert(t, tr, 1, interval.Closed(1, 10))
	if s := tr.Dump(); s == "" {
		t.Error("Dump empty")
	}
}

func TestEachEarlyStop(t *testing.T) {
	tr := New(intCmp)
	mustInsert(t, tr, 1, interval.Point(1))
	mustInsert(t, tr, 2, interval.Point(2))
	mustInsert(t, tr, 3, interval.Point(3))
	count := 0
	tr.Each(func(ID, interval.Interval[int]) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("Each early stop visited %d", count)
	}
}

func TestStabFuncUniversalAndEqualityStops(t *testing.T) {
	tr := New(intCmp)
	mustInsert(t, tr, 1, interval.All[int]())
	mustInsert(t, tr, 2, interval.Point(5))
	// Early stop while visiting the universal set.
	calls := 0
	tr.StabFunc(5, func(ID) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop during universal visit made %d calls", calls)
	}
	// Equality landing collects the '=' slot.
	seen := map[ID]bool{}
	tr.StabFunc(5, func(id ID) bool { seen[id] = true; return true })
	if !seen[1] || !seen[2] {
		t.Fatalf("StabFunc(5) = %v", seen)
	}
	// Miss path: descend past equality into empty child.
	seen = map[ID]bool{}
	tr.StabFunc(7, func(id ID) bool { seen[id] = true; return true })
	if !seen[1] || seen[2] {
		t.Fatalf("StabFunc(7) = %v", seen)
	}
}

// TestCheckInvariantsDetectsCorruption corrupts trees in targeted ways
// and requires the checker to object — guarding the guard.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Tree[int] {
		tr := New(intCmp, Balanced(true))
		mustInsert(t, tr, 1, interval.Closed(5, 15))
		mustInsert(t, tr, 2, interval.Point(10))
		mustInsert(t, tr, 3, interval.AtLeast(12))
		return tr
	}
	// Baseline sanity.
	if err := build().CheckInvariants(); err != nil {
		t.Fatalf("clean tree flagged: %v", err)
	}
	// Foreign mark in an '=' slot (unsound + registry mismatch).
	tr := build()
	tr.root.marks[slotEQ].Add(99) //predmatchvet:ignore markdiscipline deliberate corruption to exercise CheckInvariants
	if err := tr.CheckInvariants(); err == nil {
		t.Error("foreign '=' mark not detected")
	}
	// Dropped mark (incomplete + registry mismatch).
	tr = build()
	for _, s := range []slot{slotLT, slotEQ, slotGT} {
		if tr.root.marks[s].Len() > 0 {
			//predmatchvet:ignore markdiscipline deliberate corruption to exercise CheckInvariants
			tr.root.marks[s].Remove(tr.root.marks[s].IDs()[0])
			break
		}
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Error("dropped mark not detected")
	}
	// Corrupted height.
	tr = build()
	tr.root.height = 42
	if err := tr.CheckInvariants(); err == nil {
		t.Error("corrupted height not detected")
	}
	// Bogus endpoint reference.
	tr = build()
	tr.root.lo.Add(77)
	if err := tr.CheckInvariants(); err == nil {
		t.Error("bogus endpoint reference not detected")
	}
	// Marker count drift.
	tr = build()
	tr.marks += 5
	if err := tr.CheckInvariants(); err == nil {
		t.Error("marker count drift not detected")
	}
	// Universal set referencing a deleted id.
	tr = build()
	tr.universal[1234] = true
	if err := tr.CheckInvariants(); err == nil {
		t.Error("stale universal id not detected")
	}
}
