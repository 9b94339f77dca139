package storage

import (
	"math/rand"
	"sort"
	"testing"

	"predmatch/internal/interval"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// TestStatsOnDemand is the property statistics-on-demand has to keep:
// whenever an attribute's statistics are first asked for — on the empty
// table, somewhere in the middle of a history of Insert / Update /
// Delete / DB.Apply, twice, or never before the end — they read, after
// the history, exactly what a count over the final rows gives. The
// secondary index, maintained by the same shared bodies, is held to the
// rows as well.
func TestStatsOnDemand(t *testing.T) {
	attrs := []string{"name", "age", "salary"}
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		tab, _ := db.CreateRelation(empRel())
		if err := tab.CreateIndex("age"); err != nil {
			t.Fatal(err)
		}
		const ops = 250
		// asks[i] lists the steps before which Stats(attrs[i]) is called:
		// none, step 0 (empty table), or one or two random steps.
		asks := make([][]int, len(attrs))
		for i := range asks {
			switch rng.Intn(4) {
			case 0: // never
			case 1:
				asks[i] = []int{0}
			case 2:
				asks[i] = []int{rng.Intn(ops)}
			default:
				asks[i] = []int{rng.Intn(ops), rng.Intn(ops)}
			}
		}
		row := func() tuple.Tuple {
			return empT(string(rune('a'+rng.Intn(6))), int64(rng.Intn(12)), int64(rng.Intn(40))*100)
		}
		var live []tuple.ID
		pick := func() (tuple.ID, int) {
			i := rng.Intn(len(live))
			return live[i], i
		}
		for step := 0; step < ops; step++ {
			for i, at := range asks {
				for _, s := range at {
					if s == step && tab.Stats(attrs[i]) == nil {
						t.Fatalf("seed %d: Stats(%s) nil", seed, attrs[i])
					}
				}
			}
			var err error
			switch op := rng.Intn(8); {
			case op < 2 || len(live) == 0:
				var id tuple.ID
				id, err = tab.Insert(row())
				live = append(live, id)
			case op == 2:
				// A replayed insert lands on an ID of its own choosing.
				id := tab.NextID() + tuple.ID(rng.Intn(3))
				err = db.Apply(Event{Rel: "emp", Op: OpInsert, ID: id, New: row()})
				live = append(live, id)
			case op == 3:
				id, _ := pick()
				err = tab.Update(id, row())
			case op == 4:
				id, _ := pick()
				err = db.Apply(Event{Rel: "emp", Op: OpUpdate, ID: id, New: row()})
			case op == 5 || op == 6:
				id, i := pick()
				if op == 5 {
					err = tab.Delete(id)
				} else {
					err = db.Apply(Event{Rel: "emp", Op: OpDelete, ID: id})
				}
				live = append(live[:i], live[i+1:]...)
			default:
				// Refused operations change nothing.
				if tab.Update(tab.NextID()+5, row()) == nil || db.Apply(Event{Rel: "emp", Op: OpDelete, ID: tab.NextID() + 5}) == nil ||
					db.Apply(Event{Rel: "emp", Op: OpInsert, ID: live[0], New: row()}) == nil {
					t.Fatalf("seed %d step %d: operation on a missing or duplicate ID accepted", seed, step)
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if tab.Len() != len(live) {
			t.Fatalf("seed %d: %d rows, %d live IDs", seed, tab.Len(), len(live))
		}

		for i, attr := range attrs {
			if len(asks[i]) == 0 && tab.stats[i] != nil {
				t.Errorf("seed %d: statistics for %s exist though nobody asked", seed, attr)
			}
			var vals []value.Value
			tab.Scan(func(_ tuple.ID, row tuple.Tuple) bool {
				vals = append(vals, row[i])
				return true
			})
			sort.Slice(vals, func(a, b int) bool { return value.Compare(vals[a], vals[b]) < 0 })
			distinct := 0
			for j := range vals {
				if j == 0 || value.Compare(vals[j-1], vals[j]) != 0 {
					distinct++
				}
			}
			st := tab.Stats(attr)
			if st.Count() != len(vals) || st.Distinct() != distinct {
				t.Fatalf("seed %d %s (asked at %v): Count/Distinct = %d/%d, rows say %d/%d",
					seed, attr, asks[i], st.Count(), st.Distinct(), len(vals), distinct)
			}
			mn, okMin := st.Min()
			mx, okMax := st.Max()
			if okMin != (len(vals) > 0) || okMax != okMin ||
				(okMin && (value.Compare(mn, vals[0]) != 0 || value.Compare(mx, vals[len(vals)-1]) != 0)) {
				t.Fatalf("seed %d %s: Min/Max = %v/%v", seed, attr, mn, mx)
			}
			for k := 0; k < 20 && len(vals) > 0; k++ {
				a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
				if value.Compare(a, b) > 0 {
					a, b = b, a
				}
				iv := []interval.Interval[value.Value]{
					interval.Closed(a, b), interval.ClosedOpen(a, b), interval.OpenClosed(a, b),
					interval.AtLeast(a), interval.Less(b), interval.Point(a), interval.All[value.Value](),
				}[rng.Intn(7)]
				if iv.Validate(value.Compare) != nil {
					continue // (a, a] and the like
				}
				in := 0
				for _, v := range vals {
					if iv.Contains(value.Compare, v) {
						in++
					}
				}
				if got, want := st.Fraction(iv), float64(in)/float64(len(vals)); got != want {
					t.Fatalf("seed %d %s: Fraction(%v) = %v, rows say %v", seed, attr, iv, got, want)
				}
			}
			if st.distinct.CheckInvariants() != nil {
				t.Fatalf("seed %d %s: %v", seed, attr, st.distinct.CheckInvariants())
			}
		}

		// The index files every row under its current age and under no
		// other.
		indexed := 0
		for age := int64(0); age < 12; age++ {
			want := 0
			tab.Scan(func(_ tuple.ID, row tuple.Tuple) bool {
				if row[1].AsInt() == age {
					want++
				}
				return true
			})
			got := 0
			tab.ScanIndex("age", interval.Point(value.Int(age)), func(id tuple.ID, row tuple.Tuple) bool {
				if row == nil || row[1].AsInt() != age {
					t.Fatalf("seed %d: index files tuple %d (%v) under age %d", seed, id, row, age)
				}
				got++
				return true
			})
			if got != want {
				t.Fatalf("seed %d: index holds %d rows of age %d, table %d", seed, got, age, want)
			}
			indexed += got
		}
		if indexed != tab.Len() {
			t.Fatalf("seed %d: index holds %d of %d rows", seed, indexed, tab.Len())
		}
	}
}
