package shard_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"predmatch/internal/matchertest"
	"predmatch/internal/pred"
	"predmatch/internal/shard"
)

// FuzzShardedMatcher drives Add/Match/Remove through the sharded
// matcher from a byte stream, cross-checking every match against a
// brute-force reference — the same differential style as
// internal/ibs's FuzzOps, lifted to the whole-scheme level. Each
// 4-byte op descriptor selects an opcode, a relation, and two value
// bytes that seed the predicate shape / tuple generators, so relation
// names, clause shapes (intervals, points, open ends, opaque
// functions) and tuple values all vary under fuzzing. Run open-ended
// with:
//
//	go test -fuzz FuzzShardedMatcher ./internal/shard
func FuzzShardedMatcher(f *testing.F) {
	f.Add([]byte{0, 0, 7, 9, 3, 1, 20, 4, 2, 0, 0, 0, 3, 1, 5, 5})
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 2, 3, 1, 9, 9, 2, 0, 0, 0, 3, 2, 4, 4})
	f.Add([]byte{1, 0, 30, 31, 1, 0, 32, 33, 2, 0, 1, 0, 1, 1, 8, 8, 3, 0, 0, 0})
	f.Add([]byte{3, 5, 200, 100, 0, 255, 6, 6, 2, 9, 9, 9})
	// Long enough to cross merges of a shard's base (the overlay holds at
	// most 16 writes while the base is small): 40 adds on one relation,
	// then removes — tombstones in the base, drops from the delta — with
	// a match after each, then adds and matches again; and the same mix
	// with 60 adds spread over all three relations.
	var one, spread []byte
	for i := 0; i < 60; i++ {
		if i < 40 {
			one = append(one, 0, 0, byte(i*7), byte(i*13))
		}
		spread = append(spread, 1, byte(i), byte(i*5), byte(i*11))
	}
	for i := 0; i < 30; i++ {
		one = append(one, 2, 0, byte(i*11), byte(i), 3, 0, byte(i*5+1), byte(i*3))
		spread = append(spread, 2, byte(i), byte(i*3), byte(i*17), 3, byte(i), byte(i*7+2), byte(i))
	}
	for i := 0; i < 25; i++ {
		one = append(one, 1, 0, byte(i*3), byte(i*29), 3, 0, byte(i*9+4), byte(i*2))
		spread = append(spread, 0, byte(i), byte(i*13), byte(i*19), 3, byte(i+1), byte(i*3+1), byte(i*23))
	}
	f.Add(one)
	f.Add(spread)
	f.Fuzz(func(t *testing.T, data []byte) {
		fix := matchertest.NewFixture()
		m := shard.New(fix.Catalog, fix.Funcs)
		ref := make(map[pred.ID]*pred.Bound)
		var live []pred.ID
		next := pred.ID(0)

		for i := 0; i+3 < len(data) && i < 4*200; i += 4 {
			op, relSel, a, b := data[i], data[i+1], data[i+2], data[i+3]
			rel := fix.Rels[int(relSel)%len(fix.Rels)]
			rng := rand.New(rand.NewSource(int64(a)<<8 | int64(b)))
			switch op % 4 {
			case 0, 1: // add a predicate on the selected relation
				n := 1 + int(a)%3
				clauses := make([]pred.Clause, n)
				for c := range clauses {
					clauses[c] = fix.RandomClause(rng, rel)
				}
				p := pred.New(next, rel.Name(), clauses...)
				next++
				if err := m.Add(p); err != nil {
					t.Fatalf("Add(%v): %v", p, err)
				}
				bound, err := p.Bind(fix.Catalog, fix.Funcs)
				if err != nil {
					t.Fatalf("Bind(%v): %v", p, err)
				}
				ref[p.ID] = bound
				live = append(live, p.ID)
			case 2: // remove a live predicate (or probe the error path)
				if len(live) == 0 {
					if err := m.Remove(next + 100); err == nil {
						t.Fatal("Remove of unknown id accepted")
					}
					continue
				}
				j := (int(a)*37 + int(b)) % len(live)
				id := live[j]
				live = append(live[:j], live[j+1:]...)
				if err := m.Remove(id); err != nil {
					t.Fatalf("Remove(%d): %v", id, err)
				}
				delete(ref, id)
			default: // match a random tuple, including bogus relations
				if a%7 == 0 {
					got, err := m.Match(string(data[i:i+2]), fix.RandomTuple(rng, rel), nil)
					if err != nil || len(got) != 0 {
						t.Fatalf("bogus relation matched %v, %v", got, err)
					}
					continue
				}
				tup := fix.RandomTuple(rng, rel)
				got, err := m.Match(rel.Name(), tup, nil)
				if err != nil {
					t.Fatalf("Match: %v", err)
				}
				sort.Slice(got, func(x, y int) bool { return got[x] < got[y] })
				var want []pred.ID
				for id, bound := range ref {
					if bound.Pred.Rel == rel.Name() && bound.Match(tup) {
						want = append(want, id)
					}
				}
				sort.Slice(want, func(x, y int) bool { return want[x] < want[y] })
				if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("Match(%s, %v) = %v, want %v", rel.Name(), tup, got, want)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
			}
		}

		// Final sweep: every relation, several tuples.
		rng := rand.New(rand.NewSource(99))
		for _, rel := range fix.Rels {
			for k := 0; k < 8; k++ {
				tup := fix.RandomTuple(rng, rel)
				got, err := m.Match(rel.Name(), tup, nil)
				if err != nil {
					t.Fatalf("sweep Match: %v", err)
				}
				sort.Slice(got, func(x, y int) bool { return got[x] < got[y] })
				var want []pred.ID
				for id, bound := range ref {
					if bound.Pred.Rel == rel.Name() && bound.Match(tup) {
						want = append(want, id)
					}
				}
				sort.Slice(want, func(x, y int) bool { return want[x] < want[y] })
				if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("sweep Match(%s, %v) = %v, want %v", rel.Name(), tup, got, want)
				}
			}
		}
	})
}
