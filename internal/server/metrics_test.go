package server_test

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"predmatch/internal/client"
	"predmatch/internal/interval"
	"predmatch/internal/obs"
	"predmatch/internal/pred"
	"predmatch/internal/repl"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// docRow matches one metric row of a docs/OBSERVABILITY.md catalogue
// table: the family name (labels stripped) and the first word of its
// Type column.
var docRow = regexp.MustCompile("^\\| `(predmatch_[a-z0-9_]+)(?:\\{[^}]*\\})?` \\| ([a-z]+)")

// TestMetricFamiliesDocumented keeps the metric catalogue honest in both
// directions: every predmatch_* family the daemon can register — a
// durable server with a Registry, a follower's replication stream, and
// the runtime gauges predmatchd adds — has a row in
// docs/OBSERVABILITY.md whose type matches the exposition's # TYPE, and
// every row there names a family that is registered.
func TestMetricFamiliesDocumented(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	s, addr, stop := startDurable(t, server.Config{Registry: reg, DataDir: t.TempDir()})
	defer stop()
	// The follower families are registered when a stream is built; this
	// one is never run.
	repl.New(addr, s, repl.Options{Registry: reg})

	registered := families(t, reg)
	if len(registered) == 0 {
		t.Fatal("no predmatch_* family in the exposition")
	}

	doc, err := os.Open("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	documented := map[string]string{} // family -> documented type
	sc := bufio.NewScanner(doc)
	for sc.Scan() {
		if m := docRow.FindStringSubmatch(sc.Text()); m != nil {
			documented[m[1]] = m[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for name, want := range registered {
		switch typ, ok := documented[name]; {
		case !ok:
			t.Errorf("%s (%s) is registered but has no row in docs/OBSERVABILITY.md", name, want)
		case typ != want:
			t.Errorf("%s: docs/OBSERVABILITY.md says %s, the exposition says %s", name, typ, want)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which nothing registers", name)
		}
	}
}

// families maps every predmatch_* family in reg's exposition to its
// # TYPE.
func families(t *testing.T, reg *obs.Registry) map[string]string {
	t.Helper()
	var exp bytes.Buffer
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(exp.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasPrefix(f[2], "predmatch_") {
			out[f[2]] = f[3]
		}
	}
	return out
}

// TestIBSCountersFollowIndex checks the IBS-tree counters are
// registered only where they can move: under the default index, whose
// trees feed them, and not under hint, which has no IBS-tree.
func TestIBSCountersFollowIndex(t *testing.T) {
	ibsFamilies := []string{
		"predmatch_ibs_stabs_total", "predmatch_ibs_nodes_visited_total",
		"predmatch_ibs_comparisons_total", "predmatch_ibs_rotations_total",
	}
	for _, index := range []string{"", "ibs", "hint"} {
		reg := obs.NewRegistry()
		s := server.New(server.Config{Registry: reg, Index: index})
		got := families(t, reg)
		s.Close()
		for _, name := range ibsFamilies {
			if _, ok := got[name]; ok != (index != "hint") {
				t.Errorf("Index %q: %s registered = %v", index, name, ok)
			}
		}
	}
}

// TestServerSubscribeWhileScraped: connections subscribe, with and
// without predicate matches, unsubscribe and subscribe again while a
// writer fires notifications, the registry is scraped and stats are
// answered. A connection's first subscribe makes its queue, so under
// the race detector this checks that everything reading the queue
// takes the subscription lock.
func TestServerSubscribeWhileScraped(t *testing.T) {
	const subscribers, queueLen = 6, 8
	reg := obs.NewRegistry()
	_, addr, stop := startServer(t, server.Config{Registry: reg, QueueLen: queueLen})
	defer stop()
	admin := dial(t, addr)
	defer admin.Close()
	if err := admin.DeclareRelation(empRel); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.DefineRule(e2eRules[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.AddPredicate(pred.New(0, "emp",
		pred.IvClause("age", interval.Less(value.Int(30))))); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the writer
		defer bg.Done()
		w, err := client.Dial(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer w.Close()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := w.Insert("emp", tuple.New(value.String_("e"),
				value.Int(int64(20+i%20)), value.Int(25000), value.String_("d"))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the scraper
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if _, err := admin.Stats(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	subs := make([]*client.Client, subscribers)
	var wg sync.WaitGroup
	for i := range subs {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		subs[i] = c
		wg.Add(1)
		go func(preds bool) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if round > 0 {
					if _, _, err := c.Unsubscribe(); err != nil {
						t.Error(err)
						return
					}
				}
				ch, err := c.Subscribe(preds)
				if err != nil {
					t.Error(err)
					return
				}
				if round == 0 {
					go func() { // drain, so the client never stalls its responses
						for range ch {
						}
					}()
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
	close(done)
	bg.Wait()

	st, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Subs != subscribers {
		t.Fatalf("stats counts %d subscriptions, want %d", st.Subs, subscribers)
	}
	for _, cs := range st.Connections {
		want := 0
		if cs.Subscribed {
			want = queueLen
		}
		if cs.QueueCap != want {
			t.Errorf("connection %s (subscribed %v) reports queue_cap %d, want %d",
				cs.Remote, cs.Subscribed, cs.QueueCap, want)
		}
	}
}
