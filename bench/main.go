// Command bench is the repository's benchmark: four seeded, closed-loop
// workloads measured from outside the program's public functions, and a
// traced run that prices each layer. See README.md in this directory.
//
//	go run ./bench -workload probe -seed 1
//	go run ./bench -workload ingest -trace 1
//	go run ./bench -aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// config is everything a run depends on. The command line sets only
// the first four fields; predsPerRel and outDir exist for the smoke
// test, which shrinks the population and writes to a temp directory.
type config struct {
	workload    string
	seed        int64
	seconds     float64 // measured seconds per invocation at the nominal rates
	trace       bool
	predsPerRel int
	outDir      string
}

// metric names one reported number; the same tables are in
// BENCHMARK.json, and the smoke test checks the two agree.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"main_p50_us", "us"},
	{"side_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"heap_mb", "MB"},
}

// workloadDef is one workload: how to run a round of it, and the main
// ops per second this box sustains on it, which turns -seconds into a
// fixed op count (so the op mix never depends on the clock).
type workloadDef struct {
	name      string
	opsPerSec float64
	round     func(e *env, ops int, tr *tracing) (*round, error)
}

var workloadDefs = []workloadDef{
	{"probe", 40000, probeRound},
	{"ingest", 4300, ingestRound},
	{"churn", 820, churnRound},
	{"embedded", 325000, embeddedRound},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// env is one invocation's shared state.
type env struct {
	cfg config
	in  *inputs
	log io.Writer
}

// round is the outcome of one round on fresh state.
type round struct {
	e2e       map[string]float64
	layer     map[string]float64 // per-layer numbers only a whole round yields
	attempted int
	failed    int
}

// result is what one invocation prints as its last line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	var aa bool
	var aaN int
	flag.StringVar(&cfg.workload, "workload", "", "probe, ingest, churn or embedded")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generator")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "measured seconds per invocation (sets the op counts)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file")
	flag.BoolVar(&aa, "aa", false, "self-check: two sets of -n invocations per workload must agree")
	flag.IntVar(&aaN, "n", 5, "invocations per set under -aa")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.predsPerRel = 500
	cfg.outDir = "bench/out"
	// The load model is two closed-loop drivers on two cores; more
	// procs would only add scheduler noise on a bigger box.
	runtime.GOMAXPROCS(2)

	if aa {
		os.Exit(selfCheck(cfg, aaN))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation: three rounds of the workload (or the
// traced run), printing every metric by name to w.
func run(cfg config, w io.Writer) (*result, error) {
	if findWorkload(cfg.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	in, err := newInputs(cfg.seed, cfg.predsPerRel)
	if err != nil {
		return nil, err
	}
	return runInputs(cfg, in, w)
}

// runInputs is run on inputs already generated; the tests use it to
// corrupt an expected answer first.
func runInputs(cfg config, in *inputs, w io.Writer) (*result, error) {
	def := findWorkload(cfg.workload)
	e := &env{cfg: cfg, in: in, log: w}
	ops := int(def.opsPerSec * cfg.seconds / rounds)
	if cfg.trace {
		return tracedRun(e, def, ops)
	}

	var rs []*round
	for i := 0; i < rounds; i++ {
		r, err := def.round(e, ops, nil)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", cfg.workload, i+1, err)
		}
		rs = append(rs, r)
	}
	res := &result{Metrics: map[string]metricOut{}}
	for _, r := range rs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	for _, m := range endToEnd {
		var vs []float64
		for _, r := range rs {
			vs = append(vs, r.e2e[m.name])
		}
		v := median(vs) // sorts vs
		res.Metrics[m.name] = metricOut{v, m.unit}
		fmt.Fprintf(w, "%s/%s %.6g %s (round spread %.1f%%)\n", cfg.workload, m.name, v, m.unit, 100*(vs[len(vs)-1]-vs[0])/v)
	}
	// Diagnostics, not gated: tails and the collector, per round.
	for _, k := range sortedKeys(rs[0].layer) {
		fmt.Fprintf(w, "%s: %s", cfg.workload, k)
		for _, r := range rs {
			fmt.Fprintf(w, " %.6g", r.layer[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s/fail_ratio %g ratio (%d of %d)\n", cfg.workload,
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
