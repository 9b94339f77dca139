package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the self-check reads: the
// bound and direction of every end-to-end metric.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// selfCheck runs two sets of n invocations of every workload on this
// binary, the i-th of each set on seed cfg.seed+i, alternating which
// set goes first, and compares the sets the way a reviewer compares a
// change with its parent: per metric, both medians, the quartile
// spread of each set, and how far the second median is worse than the
// first. It returns the exit code: 1 if any disagreement or spread
// exceeds the metric's bound in BENCHMARK.json.
func selfCheck(cfg config, n int) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa: run from the repository root:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 2
	}
	// values[set][workload/metric] holds one value per invocation.
	values := [2]map[string][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, w := range man.Workloads {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				out, err := exec.Command(self, "-workload", w.Name,
					"-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)).Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench -aa: %s seed %d: %v\n%s", w.Name, cfg.seed+int64(i), err, out)
					return 2
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					fmt.Fprintln(os.Stderr, "bench -aa: last line:", err)
					return 2
				}
				for name, m := range res.Metrics {
					key := w.Name + "/" + name
					values[set][key] = append(values[set][key], m.Value)
				}
				speed := ""
				for _, l := range lines {
					if bytes.Contains(l, []byte("harness.machine_speed")) {
						speed = string(l)
					}
				}
				fmt.Fprintf(os.Stderr, "set %c run %d done: %s\n", 'A'+set, i+1, speed)
			}
		}
	}

	code := 0
	fmt.Printf("%-28s %12s %12s %8s %8s %8s %6s\n", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound")
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			key := w.Name + "/" + m.Name
			a, b := values[0][key], values[1][key]
			ma, sa := medianSpread(a)
			mb, sb := medianSpread(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			// setup_s is held to the disagreement only: its spread is
			// what the median of several set-ups per run exists to absorb.
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				flag = "  EXCEEDS"
				code = 1
			} else if sa > m.Bound/3 || sb > m.Bound/3 {
				flag = "  wide"
			}
			fmt.Printf("%-28s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				key, ma, mb, 100*sa, 100*sb, 100*worse, 100*m.Bound, flag)
			fmt.Fprintf(os.Stderr, "%s A %.5g\n%s B %.5g\n", key, a, key, b)
		}
	}
	return code
}

// medianSpread returns the median of v and the distance between its
// first and third quartiles as a share of the median, the quartiles as
// Python's statistics.quantiles(v, n=4) gives them.
func medianSpread(v []float64) (med, spread float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	q := func(i int) float64 {
		m := len(x)
		if m == 1 {
			return x[0]
		}
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		d := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-d) + x[j]*d) / 4
	}
	med = q(2)
	return med, (q(3) - q(1)) / med
}
