// Command loadgen drives a predmatchd daemon with a synthetic rule
// workload and reports throughput. It declares an EMP-style relation,
// defines a handful of rules with varied selectivity, registers a
// standing population of direct predicates, starts one subscriber
// draining the notification stream, and runs N workers each
// streaming a deterministic mix of inserts, updates, deletes and match
// probes over its own connection.
//
// Usage:
//
//	loadgen [-addr 127.0.0.1:7341 | -self [-index ibs]] [-workers 4] [-duration 2s]
//	        [-seed 1] [-suffix s] [-followers addr1,addr2]
//	        [-trace-every 64]
//
// With -self, loadgen starts an in-process daemon on a loopback port
// and tears it down afterwards — a single-binary smoke test; -index
// picks that daemon's per-shard index structure. The target daemon must
// not already hold the relations/rules loadgen declares; use -suffix to
// namespace them when sharing a daemon.
//
// Every -trace-every'th request per worker carries a client-minted
// trace context, so the daemon traces it end to end regardless of its
// own sampling; the report lists the slowest traced requests with
// their trace ids, ready to paste into `predmatch trace -id` or the
// daemon's /traces endpoint.
//
// With -followers, match probes are split round-robin across the given
// replica addresses instead of the leader, each probe carrying the
// worker's read-your-writes token (min_seq = the last acked WAL
// sequence), and the report breaks read latency out per target — the
// follower-read scaling measurement docs/REPLICATION.md describes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/interval"
	"predmatch/internal/obs"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/strategy"
	"predmatch/internal/trace"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// standingPreds is the size of the standing direct-predicate population
// loadgen registers before streaming load.
const standingPreds = 32

func main() {
	addr := flag.String("addr", "127.0.0.1:7341", "daemon address to drive")
	self := flag.Bool("self", false, "start an in-process daemon on a loopback port instead of dialing -addr")
	selfIndex := flag.String("index", "ibs", "with -self: the daemon's "+strategy.IndexFlagHelp())
	workers := flag.Int("workers", 4, "concurrent mutation/match workers, one connection each")
	duration := flag.Duration("duration", 2*time.Second, "how long to stream load")
	seed := flag.Int64("seed", 1, "base seed for the deterministic workload")
	suffix := flag.String("suffix", "", "suffix for relation and rule names (namespacing a shared daemon)")
	followersFlag := flag.String("followers", "", "comma-separated follower addresses: match probes round-robin across them with read-your-writes tokens; mutations stay on -addr")
	traceEvery := flag.Int("trace-every", 64, "send a trace context on every Nth request per worker (0 = never)")
	flag.Parse()

	logger := log.New(os.Stderr, "loadgen: ", 0)

	target := *addr
	var srv *server.Server
	if *self {
		var err error
		srv, err = server.Open(server.Config{Addr: "127.0.0.1:0", MaxConns: *workers + 8, Index: *selfIndex})
		if err != nil {
			logger.Fatalf("%v", err)
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.ListenAndServe() }()
		for srv.Addr() == nil {
			select {
			case err := <-errc:
				logger.Fatalf("self-hosted daemon: %v", err)
			default:
				time.Sleep(5 * time.Millisecond)
			}
		}
		target = srv.Addr().String()
		logger.Printf("self-hosted daemon on %s", target)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				logger.Fatalf("shutdown: %v", err)
			}
		}()
	}

	emp := "emp" + *suffix
	audit := "audit" + *suffix
	empRel := schema.MustRelation(emp,
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "age", Type: value.KindInt},
		schema.Attribute{Name: "salary", Type: value.KindInt},
		schema.Attribute{Name: "dept", Type: value.KindString},
	)
	auditRel := schema.MustRelation(audit,
		schema.Attribute{Name: "note", Type: value.KindString},
		schema.Attribute{Name: "level", Type: value.KindInt},
	)
	rules := []string{
		fmt.Sprintf("rule band%s on insert, update to %s when salary between 20000 and 30000 do log 'band'", *suffix, emp),
		fmt.Sprintf("rule senior%s on insert to %s when age > 50 do log 'senior'", *suffix, emp),
		fmt.Sprintf("rule cheap%s on delete to %s when salary < 25000 do log 'cheap'", *suffix, emp),
		fmt.Sprintf("rule paid%s on insert to %s when salary > 90000 do insert into %s ('paid', 2)", *suffix, emp, audit),
		fmt.Sprintf("rule loud%s on insert to %s when level > 1 do log 'loud'", *suffix, audit),
	}

	admin, err := client.Dial(target)
	if err != nil {
		logger.Fatalf("dial %s: %v", target, err)
	}
	defer admin.Close()
	for _, rel := range []*schema.Relation{empRel, auditRel} {
		if err := admin.DeclareRelation(rel); err != nil {
			logger.Fatalf("declare %s: %v", rel.Name(), err)
		}
	}
	for _, src := range rules {
		if _, err := admin.DefineRule(src); err != nil {
			logger.Fatalf("rule: %v", err)
		}
	}
	// A standing population of direct predicates, overlapping salary
	// bands across the workload's range. A shard keeps its most recent
	// predicates in a flat delta and indexes them only when it merges,
	// so without these the five rules never reach the -index structure
	// and no probe or insert would stab it.
	for i := range standingPreds {
		lo := int64(10000 + i*90000/standingPreds)
		p := pred.New(0, emp, pred.IvClause("salary", interval.Closed(value.Int(lo), value.Int(lo+5000))))
		if _, err := admin.AddPredicate(p); err != nil {
			logger.Fatalf("addpred: %v", err)
		}
	}

	// Subscriber draining everything the daemon streams.
	sub, err := client.Dial(target, client.WithNotifyBuffer(1<<14))
	if err != nil {
		logger.Fatalf("dial subscriber: %v", err)
	}
	defer sub.Close()
	notes, err := sub.Subscribe(false)
	if err != nil {
		logger.Fatalf("subscribe: %v", err)
	}
	var received atomic.Uint64
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for range notes {
			received.Add(1)
		}
	}()

	var (
		mutations atomic.Uint64
		probes    atomic.Uint64
		matched   atomic.Uint64
		errs      atomic.Uint64
	)
	// Read targets: the leader itself, or the follower fleet. Each gets
	// its own latency histogram so per-replica tail latency is visible.
	var followers []string
	for _, a := range strings.Split(*followersFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			followers = append(followers, a)
		}
	}
	readTargets := []string{target}
	if len(followers) > 0 {
		readTargets = followers
	}
	readLat := make(map[string]*obs.Histogram, len(readTargets))
	for _, a := range readTargets {
		readLat[a] = obs.NewHistogram(obs.DefBuckets...)
	}

	// One shared request-latency histogram across all workers; obs
	// histograms are lock-free, so contention is a few atomic adds.
	lat := obs.NewHistogram(obs.DefBuckets...)
	slowest := &slowestTraced{max: 5}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(target)
			if err != nil {
				logger.Printf("worker %d: dial: %v", w, err)
				errs.Add(1)
				return
			}
			defer c.Close()
			// One read connection per target; probes rotate across them.
			readers := make([]*client.Client, len(readTargets))
			for i, a := range readTargets {
				if a == target {
					readers[i] = c
					continue
				}
				rc, err := client.Dial(a)
				if err != nil {
					logger.Printf("worker %d: dial follower %s: %v", w, a, err)
					errs.Add(1)
					return
				}
				defer rc.Close()
				readers[i] = rc
			}
			nextRead := 0
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			var live []tuple.ID
			var reqN int
			for {
				select {
				case <-stop:
					return
				default:
				}
				tp := randomEmp(rng)
				// Every Nth request carries a worker-minted trace context;
				// arm() attaches it to whichever connection the branch uses.
				var traceID, tracedOp string
				if *traceEvery > 0 {
					if reqN++; reqN%*traceEvery == 0 {
						id := rng.Uint64()
						if id == 0 {
							id = 1
						}
						traceID = trace.FormatID(id)
					}
				}
				arm := func(tc *client.Client, op string) {
					if traceID != "" {
						tracedOp = op
						tc.TraceNext(&wire.TraceContext{ID: traceID})
					}
				}
				var err error
				t0 := time.Now()
				switch r := rng.Intn(10); {
				case r < 5 || len(live) < 5: // insert
					arm(c, "insert")
					var id tuple.ID
					id, _, err = c.Insert(emp, tp)
					if err == nil {
						live = append(live, id)
						mutations.Add(1)
					}
				case r < 7: // update
					arm(c, "update")
					_, err = c.Update(emp, live[rng.Intn(len(live))], tp)
					if err == nil {
						mutations.Add(1)
					}
				case r < 8: // delete
					arm(c, "delete")
					k := rng.Intn(len(live))
					_, err = c.Delete(emp, live[k])
					if err == nil {
						live = append(live[:k], live[k+1:]...)
						mutations.Add(1)
					}
				default: // match probe (lock-free path)
					k := nextRead % len(readers)
					nextRead++
					arm(readers[k], "match")
					// The token makes a follower read wait for this worker's
					// own acked writes — stale answers would undercount hits.
					var res []pred.ID
					res, err = readers[k].MatchAt(emp, tp, c.LastSeq())
					if err == nil {
						probes.Add(1)
						matched.Add(uint64(len(res)))
						readLat[readTargets[k]].ObserveSince(t0)
					}
				}
				if err != nil {
					select {
					case <-stop:
					default:
						logger.Printf("worker %d: %v", w, err)
						errs.Add(1)
					}
					return
				}
				if traceID != "" {
					slowest.add(tracedReq{ID: traceID, Op: tracedOp, Elapsed: time.Since(t0)})
				}
				lat.ObserveSince(t0)
			}
		}(w)
	}

	start := time.Now()
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	generated, dropped, err := sub.Unsubscribe()
	if err != nil {
		logger.Fatalf("unsubscribe: %v", err)
	}
	// Already-queued notifications may still trail in; give them a
	// bounded moment, then snapshot.
	flush := time.After(2 * time.Second)
	for received.Load() < generated-dropped {
		select {
		case <-flush:
			goto report
		default:
			sub.Ping()
			time.Sleep(10 * time.Millisecond)
		}
	}
report:
	st, err := admin.Stats()
	if err != nil {
		logger.Fatalf("stats: %v", err)
	}

	muts, prb := mutations.Load(), probes.Load()
	fmt.Printf("loadgen: %d workers, %s\n", *workers, elapsed.Round(time.Millisecond))
	fmt.Printf("  mutations   %8d  (%.0f/s)\n", muts, float64(muts)/elapsed.Seconds())
	fmt.Printf("  match probes%8d  (%.0f/s), %d predicate hits\n", prb, float64(prb)/elapsed.Seconds(), matched.Load())
	fmt.Printf("  latency     p50 %s  p95 %s  p99 %s  (%d requests)\n",
		quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99), lat.Count())
	if rs := slowest.list(); len(rs) > 0 {
		fmt.Printf("  slowest traced requests (pull spans with `predmatch trace -id <id>`):\n")
		for _, r := range rs {
			fmt.Printf("    %s  %-6s  %s\n", r.ID, r.Op, r.Elapsed.Round(time.Microsecond))
		}
	}
	if len(followers) > 0 {
		fmt.Printf("  follower reads:\n")
		for _, a := range readTargets {
			h := readLat[a]
			fmt.Printf("    %-22s p50 %s  p95 %s  p99 %s  (%d probes)\n",
				a, quantile(h, 0.50), quantile(h, 0.95), quantile(h, 0.99), h.Count())
		}
	}
	fmt.Printf("  firings     %8d generated, %d received, %d dropped\n", generated, received.Load(), dropped)
	fmt.Printf("  server      %d rules, %d predicates, %d conns, matcher %s\n",
		len(st.Rules), st.Predicates, st.Conns, st.Matcher)
	if generated != received.Load()+dropped {
		logger.Printf("warning: %d notifications unaccounted for (still queued?)",
			generated-received.Load()-dropped)
	}
	if err := errors.Join(admin.Err(), sub.Err()); err != nil {
		logger.Fatalf("connection error: %v", err)
	}
	if n := errs.Load(); n > 0 {
		logger.Printf("%d request errors", n)
		os.Exit(1)
	}
}

// quantile renders a histogram quantile estimate as a duration.
func quantile(h *obs.Histogram, q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second)).Round(time.Microsecond)
}

// tracedReq is one traced request's identity and latency.
type tracedReq struct {
	ID      string
	Op      string
	Elapsed time.Duration
}

// slowestTraced keeps the max slowest traced requests seen across all
// workers, so the report can surface their trace ids next to the
// percentile block.
type slowestTraced struct {
	mu   sync.Mutex
	max  int
	reqs []tracedReq // guarded-by: mu (sorted slowest first, len <= max)
}

func (s *slowestTraced) add(r tracedReq) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs = append(s.reqs, r)
	sort.Slice(s.reqs, func(i, j int) bool { return s.reqs[i].Elapsed > s.reqs[j].Elapsed })
	if len(s.reqs) > s.max {
		s.reqs = s.reqs[:s.max]
	}
}

func (s *slowestTraced) list() []tracedReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]tracedReq(nil), s.reqs...)
}

func randomEmp(rng *rand.Rand) tuple.Tuple {
	return tuple.New(
		value.String_(fmt.Sprintf("w%d", rng.Intn(50))),
		value.Int(int64(20+rng.Intn(50))),
		value.Int(int64(10000+rng.Intn(90000))),
		value.String_([]string{"shoe", "toy", "deli"}[rng.Intn(3)]),
	)
}
