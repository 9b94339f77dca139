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

	var exp bytes.Buffer
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	registered := map[string]string{} // family -> exposition type
	for _, line := range strings.Split(exp.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasPrefix(f[2], "predmatch_") {
			registered[f[2]] = f[3]
		}
	}
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
