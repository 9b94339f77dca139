package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeConfig is a workload at about 1% scale: a twentieth of the
// population and half a second of ops.
func smokeConfig(t *testing.T, workload string, seed int64) config {
	return config{workload: workload, seed: seed, seconds: 0.5, predsPerRel: 25, outDir: t.TempDir()}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram pins BENCHMARK.json to what the program
// prints: same workloads, same metric names and units, within the
// contract's limits.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloadDefs))
	}
	for i, w := range man.Workloads {
		if i < len(workloadDefs) && w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadDefs[i].name)
		}
	}
	if len(man.EndToEnd) > 16 || len(man.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(man.EndToEnd), len(man.PerLayer))
	}
	seen := map[string]bool{}
	compare := func(kind string, got []metric, name func(i int) (string, string), n int) {
		if n != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, n, len(got))
			return
		}
		for i, m := range got {
			mn, mu := name(i)
			if mn != m.name || mu != m.unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, mn, mu, m.name, m.unit)
			}
			if !nameRe.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s name %q is malformed or used twice", kind, m.name)
			}
			seen[m.name] = true
		}
	}
	compare("end_to_end", endToEnd, func(i int) (string, string) { return man.EndToEnd[i].Name, man.EndToEnd[i].Unit }, len(man.EndToEnd))
	compare("per_layer", perLayer, func(i int) (string, string) { return man.PerLayer[i].Name, man.PerLayer[i].Unit }, len(man.PerLayer))
}

// TestWorkloadsSmoke runs every workload small: each end-to-end metric
// printed exactly once with its unit and a usable value, nothing
// failed, with the oracle, notification and restart checks active.
func TestWorkloadsSmoke(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(smokeConfig(t, def.name, 1), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				prefix := def.name + "/" + m.name + " "
				n := 0
				for _, line := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(line, prefix) {
						n++
						if f := strings.Fields(line); len(f) < 3 || f[2] != m.unit {
							t.Errorf("%q does not carry the unit %s", line, m.unit)
						}
					}
				}
				if n != 1 {
					t.Errorf("%s printed %d times, want once", prefix, n)
				}
				if v := res.Metrics[m.name]; !(v.Value > 0) || v.Unit != m.unit {
					t.Errorf("%s = %v %q, want a positive value in %s", m.name, v.Value, v.Unit, m.unit)
				}
			}
			if !strings.Contains(out.String(), def.name+"/fail_ratio 0 ratio") {
				t.Errorf("fail_ratio is not printed as 0:\n%s", out.String())
			}
		})
	}
}

// TestCorruptedOracleFails: one wrong expected answer must turn the
// run incorrect, which is what makes the command exit non-zero.
func TestCorruptedOracleFails(t *testing.T) {
	cfg := smokeConfig(t, "probe", 1)
	in, err := newInputs(cfg.seed, cfg.predsPerRel)
	if err != nil {
		t.Fatal(err)
	}
	for k := range in.want[0] {
		in.want[0][k] = append(in.want[0][k], in.pop.Preds[len(in.pop.Preds)-1].ID) // a predicate of another relation
	}
	res, err := runInputs(cfg, in, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d with a corrupted oracle", res.Correct, res.Failed)
	}
}

// TestTracedRun: a traced run prints every per-layer metric, writes
// the span file its timings are derived from, and its input digest
// depends on the seed and nothing else.
func TestTracedRun(t *testing.T) {
	digest := map[int64][]float64{}
	for _, seed := range []int64{1, 1, 2} {
		cfg := smokeConfig(t, "embedded", seed)
		cfg.trace = true
		var out bytes.Buffer
		res, err := run(cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("seed %d: %d of %d failed\n%s", seed, res.Failed, res.Attempted, out.String())
		}
		for _, m := range perLayer {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("seed %d: %s missing or in %q, want %s", seed, m.name, v.Unit, m.unit)
			}
		}
		if fi, err := os.Stat(filepath.Join(cfg.outDir, "embedded.trace.json")); err != nil || fi.Size() == 0 {
			t.Errorf("seed %d: no span file: %v", seed, err)
		}
		digest[seed] = append(digest[seed], res.Metrics["harness.input_digest"].Value)
	}
	if digest[1][0] != digest[1][1] {
		t.Errorf("seed 1 gave digests %v and %v", digest[1][0], digest[1][1])
	}
	if digest[1][0] == digest[2][0] {
		t.Errorf("seeds 1 and 2 gave the same digest %v", digest[1][0])
	}
}
