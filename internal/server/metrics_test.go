package server_test

import (
	"bufio"
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"predmatch/internal/obs"
	"predmatch/internal/repl"
	"predmatch/internal/server"
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
