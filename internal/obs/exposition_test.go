package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestExpositionGolden pins the exact Prometheus text format the
// registry emits (same pattern as cmd/predmatch/testdata): scrapers
// and the CI curl assertions depend on this shape, so it must not
// drift silently. Regenerate with `go test ./internal/obs -update`.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("predmatch_ibs_nodes_visited_total",
		"IBS-tree nodes visited by stabbing queries.").Add(1234)
	g := r.Gauge("predmatch_active_connections", "Open client connections.")
	g.Set(3)
	r.GaugeSet("predmatch_shard_predicates",
		"Predicates per relation shard.", []string{"rel"}, func(emit Emit) {
			emit(200, "emp")
			emit(17, "dept")
		})
	v := r.CounterVec("predmatch_rule_firings_total",
		"Rule activations by rule name.", "rule")
	v.With("band").Add(9)
	v.With("senior").Add(2)
	h := r.HistogramVec("predmatch_match_latency_seconds",
		"Match latency per relation.", []float64{0.001, 0.01, 0.1}, "rel")
	emp := h.With("emp")
	emp.Observe(0.0005)
	emp.Observe(0.0005)
	emp.Observe(0.05)
	emp.Observe(2)
	r.CounterFunc("predmatch_notify_dropped_total",
		"Notifications dropped by the overflow policy.", func() uint64 { return 42 })
	// Fixed values stand in for what RegisterRuntime derives from
	// debug.ReadBuildInfo and the process clock.
	registerBuildInfo(r, "v0.9.0", "go1.99.7", time.Unix(1700000000, 0))

	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from %s:\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
