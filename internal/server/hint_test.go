package server_test

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"predmatch/internal/client"
	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/seqscan"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// TestServerHintIndexE2E is the daemon-level check of `predmatchd
// -index hint`: a durable server configured with Index "hint" answers
// match probes exactly like the seqscan oracle while addpred/rmpred
// writers republish the shard beside them, reports sharded-hint over
// hint shards, and after a close and reopen the recovered matcher still
// serves the same match sets from hint shards.
func TestServerHintIndexE2E(t *testing.T) {
	cfg := server.Config{DataDir: t.TempDir(), Index: "hint"}

	cat := schema.NewCatalog()
	if err := cat.Add(empRel); err != nil {
		t.Fatal(err)
	}
	oracle := seqscan.New(cat, pred.NewRegistry())
	rng := rand.New(rand.NewSource(13))
	probes := make([]tuple.Tuple, 64)
	for i := range probes {
		probes[i] = randomEmp(rng)
	}
	// checkProbes compares every probe's match set with the oracle's.
	checkProbes := func(c *client.Client) {
		t.Helper()
		for _, tp := range probes {
			got, err := c.Match("emp", tp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Match("emp", tp, nil)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("match(%v) = %v, oracle says %v", tp, got, want)
			}
		}
	}
	checkStats := func(c *client.Client, preds int) {
		t.Helper()
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Matcher != "sharded-hint" || st.Predicates != preds {
			t.Fatalf("stats: matcher %q with %d predicates, want sharded-hint with %d",
				st.Matcher, st.Predicates, preds)
		}
		if len(st.Shards) != 1 || st.Shards[0].Rel != "emp" || st.Shards[0].Structure != "hint" {
			t.Fatalf("shard stats = %+v, want one emp shard on hint", st.Shards)
		}
	}

	const standing = 48
	{
		_, addr, stop := startDurable(t, cfg)
		c := dial(t, addr)
		if err := c.DeclareRelation(empRel); err != nil {
			t.Fatal(err)
		}
		// Standing population: salary bands and age floors, mirrored into
		// the oracle under the IDs the daemon assigned.
		for i := 0; i < standing; i++ {
			lo := int64(10000 + rng.Intn(80000))
			p := pred.New(0, "emp", pred.IvClause("salary",
				interval.Closed(value.Int(lo), value.Int(lo+int64(1000+rng.Intn(20000))))))
			if i%3 == 0 {
				p = pred.New(0, "emp", pred.IvClause("age",
					interval.AtLeast(value.Int(int64(20+rng.Intn(50))))))
			}
			id, err := c.AddPredicate(p)
			if err != nil {
				t.Fatal(err)
			}
			p.ID = id
			if err := oracle.Add(p); err != nil {
				t.Fatal(err)
			}
		}

		// Writers churn predicates above every probe's salary: each pair
		// rebuilds and republishes the emp shard twice without changing
		// any probe's answer, so every response has one right value.
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wc, err := client.Dial(addr)
				if err != nil {
					t.Errorf("writer %d: dial: %v", w, err)
					return
				}
				defer wc.Close()
				for i := 0; i < 100; i++ {
					id, err := wc.AddPredicate(pred.New(0, "emp", pred.IvClause("salary",
						interval.AtLeast(value.Int(int64(200000+1000*w+i))))))
					if err == nil {
						err = wc.RemovePredicate(id)
					}
					if err != nil {
						t.Errorf("writer %d: churn %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		writersDone := make(chan struct{})
		go func() { wg.Wait(); close(writersDone) }()
		for running := true; running; {
			select {
			case <-writersDone:
				running = false
			default:
			}
			checkProbes(c)
		}
		checkStats(c, standing)
		c.Close()
		stop()
	}

	_, addr, stop := startDurable(t, cfg)
	defer stop()
	c := dial(t, addr)
	defer c.Close()
	checkStats(c, standing)
	checkProbes(c)
}

// TestOpenRejectsUnknownIndex checks Config.Index accepts exactly the
// served index names: the reproduction-only islist and the
// whole-matcher strategies fail Open with the registry's error.
func TestOpenRejectsUnknownIndex(t *testing.T) {
	for _, index := range []string{"islist", "seqscan", "sharded-hint"} {
		_, err := server.Open(server.Config{Index: index})
		want := `unknown index "` + index + `" (want one of ibs, hint)`
		if err == nil || err.Error() != want {
			t.Errorf("Open(Index %q) = %v, want %s", index, err, want)
		}
	}
}
