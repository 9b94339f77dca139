package markset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func implementations() map[string]Factory {
	return map[string]Factory{
		"slice": NewSlice,
		"avl":   NewAVL,
	}
}

func TestBasicOperations(t *testing.T) {
	for name, factory := range implementations() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			if s.Len() != 0 {
				t.Fatalf("new set has Len %d", s.Len())
			}
			if !s.Add(5) || !s.Add(3) || !s.Add(9) {
				t.Fatal("Add of new element returned false")
			}
			if s.Add(5) {
				t.Fatal("Add of duplicate returned true")
			}
			if s.Len() != 3 {
				t.Fatalf("Len = %d, want 3", s.Len())
			}
			if !s.Has(3) || !s.Has(5) || !s.Has(9) || s.Has(4) {
				t.Fatal("Has wrong")
			}
			if !reflect.DeepEqual(s.IDs(), []ID{3, 5, 9}) {
				t.Fatalf("IDs = %v", s.IDs())
			}
			if !s.Remove(5) {
				t.Fatal("Remove of present element returned false")
			}
			if s.Remove(5) {
				t.Fatal("Remove of absent element returned true")
			}
			if !reflect.DeepEqual(s.IDs(), []ID{3, 9}) {
				t.Fatalf("IDs after remove = %v", s.IDs())
			}
		})
	}
}

func TestEachOrderAndEarlyStop(t *testing.T) {
	for name, factory := range implementations() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			for _, id := range []ID{7, 1, 4, 9, 2} {
				s.Add(id)
			}
			var got []ID
			s.Each(func(id ID) bool {
				got = append(got, id)
				return true
			})
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("Each order not ascending: %v", got)
			}
			count := 0
			s.Each(func(id ID) bool {
				count++
				return count < 2
			})
			if count != 2 {
				t.Fatalf("early stop visited %d, want 2", count)
			}
		})
	}
}

// TestAppendTo checks the callback-free iteration: ascending members
// after dst's existing prefix, and no allocation into a pre-sized dst
// (the property ibs.StabAppend's zero-allocation gate rests on).
func TestAppendTo(t *testing.T) {
	for name, factory := range implementations() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			for _, id := range []ID{7, 1, 4, 9, 2} {
				s.Add(id)
			}
			if got := s.AppendTo([]ID{42}); !reflect.DeepEqual(got, []ID{42, 1, 2, 4, 7, 9}) {
				t.Fatalf("AppendTo = %v", got)
			}
			dst := make([]ID, 0, 8)
			if n := testing.AllocsPerRun(100, func() { dst = s.AppendTo(dst[:0]) }); n != 0 {
				t.Fatalf("AppendTo into a pre-sized dst allocates %v times", n)
			}
		})
	}
}

// TestImplementationsAgree drives both implementations with identical
// random operation sequences and requires identical observable state.
func TestImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := NewSlice(), NewAVL()
	for op := 0; op < 5000; op++ {
		id := ID(rng.Intn(200))
		switch rng.Intn(3) {
		case 0, 1:
			if a.Add(id) != b.Add(id) {
				t.Fatalf("op %d: Add(%d) disagreed", op, id)
			}
		default:
			if a.Remove(id) != b.Remove(id) {
				t.Fatalf("op %d: Remove(%d) disagreed", op, id)
			}
		}
		if a.Len() != b.Len() {
			t.Fatalf("op %d: Len %d vs %d", op, a.Len(), b.Len())
		}
	}
	if !reflect.DeepEqual(a.IDs(), b.IDs()) {
		t.Fatalf("final IDs differ:\n%v\n%v", a.IDs(), b.IDs())
	}
}

// Property: a set behaves like a map[ID]bool.
func TestQuickSetSemantics(t *testing.T) {
	for name, factory := range implementations() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []int16) bool {
				s := factory()
				ref := map[ID]bool{}
				for _, raw := range ops {
					id := ID(raw % 64)
					if raw >= 0 {
						if s.Add(id) != !ref[id] {
							return false
						}
						ref[id] = true
					} else {
						if s.Remove(id) != ref[id] {
							return false
						}
						delete(ref, id)
					}
					if s.Len() != len(ref) {
						return false
					}
				}
				for id := range ref {
					if !s.Has(id) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAVLBalance checks the AVL set stays logarithmic under sorted inserts.
func TestAVLBalance(t *testing.T) {
	s := &AVLSet{}
	const n = 1 << 12
	for i := 0; i < n; i++ {
		s.Add(ID(i))
	}
	if h := int(height(s.root)); h > 14 { // 1.44*log2(4096) ~ 17; AVL of 4096 <= 14 levels in practice
		t.Errorf("AVL height %d for %d sorted inserts", h, n)
	}
	for i := 0; i < n; i += 2 {
		s.Remove(ID(i))
	}
	if s.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", s.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		if s.Has(ID(i)) != (i%2 == 1) {
			t.Fatalf("Has(%d) wrong after removals", i)
		}
	}
}
