package btree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"predmatch/internal/interval"
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

func TestEmpty(t *testing.T) {
	m := New[int, string](intCmp)
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("Get on empty found a value")
	}
	if _, _, ok := m.Min(); ok {
		t.Fatal("Min on empty")
	}
	if _, _, ok := m.Max(); ok {
		t.Fatal("Max on empty")
	}
	if _, removed := m.Delete(5); removed {
		t.Fatal("Delete on empty removed")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetReplace(t *testing.T) {
	m := New[int, string](intCmp, Degree(4))
	for i := 0; i < 100; i++ {
		if _, replaced := m.Put(i, "a"); replaced {
			t.Fatalf("Put(%d) replaced on first insert", i)
		}
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d", m.Len())
	}
	old, replaced := m.Put(42, "b")
	if !replaced || old != "a" {
		t.Fatalf("Put replace = %q, %v", old, replaced)
	}
	if m.Len() != 100 {
		t.Fatalf("Len changed on replace: %d", m.Len())
	}
	v, ok := m.Get(42)
	if !ok || v != "b" {
		t.Fatalf("Get(42) = %q, %v", v, ok)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxAscend(t *testing.T) {
	m := New[int, int](intCmp, Degree(4))
	perm := rand.New(rand.NewSource(3)).Perm(500)
	for _, k := range perm {
		m.Put(k, k*2)
	}
	k, v, ok := m.Min()
	if !ok || k != 0 || v != 0 {
		t.Fatalf("Min = %d,%d,%v", k, v, ok)
	}
	k, v, ok = m.Max()
	if !ok || k != 499 || v != 998 {
		t.Fatalf("Max = %d,%d,%v", k, v, ok)
	}
	prev := -1
	count := 0
	m.Ascend(func(k, v int) bool {
		if k <= prev {
			t.Fatalf("Ascend out of order: %d after %d", k, prev)
		}
		if v != k*2 {
			t.Fatalf("Ascend wrong value for %d: %d", k, v)
		}
		prev = k
		count++
		return true
	})
	if count != 500 {
		t.Fatalf("Ascend visited %d", count)
	}
	// Early stop.
	count = 0
	m.Ascend(func(k, v int) bool { count++; return count < 10 })
	if count != 10 {
		t.Fatalf("Ascend early stop visited %d", count)
	}
}

func TestAscendRange(t *testing.T) {
	m := New[int, int](intCmp, Degree(4))
	for i := 0; i < 100; i++ {
		m.Put(i*2, i) // even keys 0..198
	}
	collect := func(iv interval.Interval[int]) []int {
		var out []int
		m.AscendRange(iv, func(k, v int) bool {
			out = append(out, k)
			return true
		})
		return out
	}
	if got := collect(interval.Closed(10, 16)); !reflect.DeepEqual(got, []int{10, 12, 14, 16}) {
		t.Fatalf("Closed(10,16) = %v", got)
	}
	if got := collect(interval.Open(10, 16)); !reflect.DeepEqual(got, []int{12, 14}) {
		t.Fatalf("Open(10,16) = %v", got)
	}
	if got := collect(interval.AtMost(4)); !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("AtMost(4) = %v", got)
	}
	if got := collect(interval.AtLeast(194)); !reflect.DeepEqual(got, []int{194, 196, 198}) {
		t.Fatalf("AtLeast(194) = %v", got)
	}
	if got := collect(interval.Point(50)); !reflect.DeepEqual(got, []int{50}) {
		t.Fatalf("Point(50) = %v", got)
	}
	if got := collect(interval.Closed(13, 13)); got != nil {
		t.Fatalf("Closed(13,13) = %v (13 absent)", got)
	}
	if got := collect(interval.All[int]()); len(got) != 100 {
		t.Fatalf("All returned %d keys", len(got))
	}
	// Early stop.
	count := 0
	m.AscendRange(interval.All[int](), func(k, v int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("AscendRange early stop visited %d", count)
	}
}

// TestRandomizedAgainstMap drives random Put/Delete/Update/Get against a
// Go map and checks invariants as the tree grows and shrinks through many splits
// and merges.
func TestRandomizedAgainstMap(t *testing.T) {
	for _, degree := range []int{3, 4, 8, 32} {
		rng := rand.New(rand.NewSource(int64(degree)))
		m := New[int, int](intCmp, Degree(degree))
		ref := map[int]int{}
		for op := 0; op < 4000; op++ {
			k := rng.Intn(300)
			switch rng.Intn(6) {
			case 0, 1, 2:
				v := rng.Int()
				_, wantReplace := ref[k]
				_, replaced := m.Put(k, v)
				if replaced != wantReplace {
					t.Fatalf("degree %d op %d: Put(%d) replaced=%v want %v", degree, op, k, replaced, wantReplace)
				}
				ref[k] = v
			case 3:
				_, wantOK := ref[k]
				_, removed := m.Delete(k)
				if removed != wantOK {
					t.Fatalf("degree %d op %d: Delete(%d) removed=%v want %v", degree, op, k, removed, wantOK)
				}
				delete(ref, k)
			case 4:
				// All four outcomes of the single-walk upsert: replace,
				// remove, insert, and leaving an absent key absent.
				wantV, wantOK := ref[k]
				v, keep := rng.Int(), rng.Intn(2) == 0
				m.Update(k, func(old int, ok bool) (int, bool) {
					if ok != wantOK || old != wantV {
						t.Fatalf("degree %d op %d: Update(%d) saw %d,%v want %d,%v", degree, op, k, old, ok, wantV, wantOK)
					}
					return v, keep
				})
				if keep {
					ref[k] = v
				} else {
					delete(ref, k)
				}
			default:
				wantV, wantOK := ref[k]
				v, ok := m.Get(k)
				if ok != wantOK || (ok && v != wantV) {
					t.Fatalf("degree %d op %d: Get(%d) = %d,%v want %d,%v", degree, op, k, v, ok, wantV, wantOK)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("degree %d op %d: Len %d != %d", degree, op, m.Len(), len(ref))
			}
			if op%200 == 0 {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("degree %d op %d: %v", degree, op, err)
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("degree %d final: %v", degree, err)
		}
		// Drain completely.
		keys := make([]int, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		for _, k := range keys {
			if _, removed := m.Delete(k); !removed {
				t.Fatalf("drain Delete(%d) failed", k)
			}
		}
		if m.Len() != 0 {
			t.Fatalf("degree %d: Len %d after drain", degree, m.Len())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("degree %d after drain: %v", degree, err)
		}
	}
}

// Property: ascending iteration equals the sorted reference key set.
func TestQuickAscendMatchesSorted(t *testing.T) {
	f := func(keys []int16) bool {
		m := New[int, bool](intCmp, Degree(4))
		ref := map[int]bool{}
		for _, k16 := range keys {
			k := int(k16)
			m.Put(k, true)
			ref[k] = true
		}
		want := make([]int, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Ints(want)
		got := make([]int, 0, len(ref))
		m.Ascend(func(k int, _ bool) bool {
			got = append(got, k)
			return true
		})
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AscendRange equals filtering Ascend by interval membership.
func TestQuickAscendRangeMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(keys []int16, lo16, hi16 int16, shape uint8) bool {
		m := New[int, bool](intCmp, Degree(4))
		for _, k16 := range keys {
			m.Put(int(k16), true)
		}
		lo, hi := int(lo16), int(hi16)
		if lo > hi {
			lo, hi = hi, lo
		}
		var iv interval.Interval[int]
		switch shape % 6 {
		case 0:
			iv = interval.Closed(lo, hi)
		case 1:
			if lo == hi {
				iv = interval.Point(lo)
			} else {
				iv = interval.Open(lo, hi)
			}
		case 2:
			iv = interval.AtLeast(lo)
		case 3:
			iv = interval.AtMost(hi)
		case 4:
			iv = interval.Point(lo)
		default:
			iv = interval.All[int]()
		}
		var want []int
		m.Ascend(func(k int, _ bool) bool {
			if iv.Contains(intCmp, k) {
				want = append(want, k)
			}
			return true
		})
		var got []int
		m.AscendRange(iv, func(k int, _ bool) bool {
			got = append(got, k)
			return true
		})
		_ = rng
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringKeys(t *testing.T) {
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
	m := New[string, int](strCmp, Degree(3))
	words := []string{"pear", "apple", "fig", "date", "cherry", "banana", "grape"}
	for i, w := range words {
		m.Put(w, i)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	k, _, _ := m.Min()
	if k != "apple" {
		t.Fatalf("Min = %q", k)
	}
	var got []string
	m.AscendRange(interval.Closed("banana", "fig"), func(k string, _ int) bool {
		got = append(got, k)
		return true
	})
	if !reflect.DeepEqual(got, []string{"banana", "cherry", "date", "fig"}) {
		t.Fatalf("range = %v", got)
	}
}

func TestHas(t *testing.T) {
	m := New[int, int](intCmp)
	m.Put(5, 50)
	if !m.Has(5) || m.Has(6) {
		t.Fatal("Has wrong")
	}
}

// The closures Put and Delete hand to Update stay on the stack: a
// replace, a remove and a re-insert into a leaf with room allocate
// nothing.
func TestUpdateDoesNotAllocate(t *testing.T) {
	m := New[int, int](intCmp)
	for i := 0; i < 1000; i++ {
		m.Put(i, i)
	}
	bump := func(n int, _ bool) (int, bool) { return n + 1, true }
	if n := testing.AllocsPerRun(100, func() {
		m.Put(500, 1)
		m.Update(500, bump)
		m.Delete(500)
		m.Put(500, 2)
	}); n != 0 {
		t.Errorf("Put/Update/Delete/Put: %v allocs, want 0", n)
	}
}
