// Command predmatchd serves the predicate matching engine over TCP as
// a long-running rule-service daemon. Clients speak newline-delimited
// JSON (see docs/PROTOCOL.md): they declare relations, define rules,
// register predicates, stream tuple mutations, run match probes, and
// subscribe to rule-firing / predicate-match notifications.
//
// Usage:
//
//	predmatchd [-addr :7341] [-max-conns 128] [-queue 1024]
//	           [-write-timeout 10s] [-idle-timeout 0] [-drain 10s]
//	           [-admin addr] [-slowreq 0] [-v] [-index ibs]
//	           [-data-dir dir] [-fsync always|interval|off]
//	           [-fsync-interval 100ms] [-wal-segment 64MiB]
//	           [-snapshot-every 0] [-follow leader-addr]
//	           [-trace-sample 0] [-trace-buf 256]
//
// -index picks the per-shard attribute index structure by its name in
// the shared strategy registry (internal/strategy): the paper's
// IBS-trees by default, or hint (docs/MATCHERS.md, "Choosing -index");
// `predmatch stats` shows each shard's structure.
//
// With -admin, a second HTTP listener serves the operational surface:
// /metrics (Prometheus), /varz (JSON), /healthz, /traces and
// /debug/pprof (see docs/OBSERVABILITY.md for the metric catalogue).
// -slowreq logs every request slower than the threshold and retains a
// trace for it. Structured logs go to stderr.
//
// Tracing (docs/OBSERVABILITY.md, "Tracing"): requests that carry a
// trace context are always traced end to end; -trace-sample N
// additionally head-samples one in every N requests server-side. Both
// land in an in-memory flight recorder of -trace-buf traces served at
// /traces and by `predmatch trace`.
//
// With -data-dir, the daemon is durable: it recovers the directory's
// snapshot and write-ahead log before listening, and appends every
// state-changing request to the log before acknowledging it. -fsync
// picks the sync policy (see docs/DURABILITY.md for the guarantees of
// each), -snapshot-every adds periodic background checkpoints on top
// of the shutdown and on-demand (backup op) ones.
//
// With -follow, the daemon starts as a replication follower of the
// leader at the given address (requires -data-dir): it applies the
// leader's WAL stream, serves match/subscribe/stats locally, rejects
// mutations with a leader redirect, and reconnects with backoff across
// leader outages until `predmatch promote` seals the stream and turns
// it into a leader (see docs/REPLICATION.md).
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests for up to -drain, then force-closes stragglers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"predmatch/internal/obs"
	"predmatch/internal/repl"
	"predmatch/internal/server"
	"predmatch/internal/strategy"
	"predmatch/internal/trace"
	"predmatch/internal/wal"
)

func main() {
	addr := flag.String("addr", ":7341", "TCP listen address")
	maxConns := flag.Int("max-conns", 128, "maximum concurrent client connections")
	queue := flag.Int("queue", 1024, "notification queue capacity of each subscribing connection")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "deadline for writing one frame to a client")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections neither subscribed nor replicating that are idle for this long (0 = never)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget before force-closing connections")
	adminAddr := flag.String("admin", "", "admin HTTP listen address for /metrics, /varz, /healthz and /debug/pprof (empty = disabled)")
	slowReq := flag.Duration("slowreq", 0, "log requests slower than this threshold (0 = disabled)")
	verbose := flag.Bool("v", false, "log connection-level diagnostics (debug level)")
	dataDir := flag.String("data-dir", "", "durable state directory: WAL + snapshots (empty = memory only)")
	fsync := flag.String("fsync", "always", "WAL sync policy: always (fsync before ack), interval (periodic), off (OS decides)")
	fsyncEvery := flag.Duration("fsync-interval", wal.DefaultSyncEvery, "fsync cadence under -fsync interval")
	walSegment := flag.Int64("wal-segment", wal.DefaultSegmentBytes, "target WAL segment size in bytes before rotation")
	snapEvery := flag.Duration("snapshot-every", 0, "background checkpoint cadence (0 = only on shutdown and backup op)")
	follow := flag.String("follow", "", "start as a replication follower of the leader at this address (requires -data-dir)")
	traceSample := flag.Int("trace-sample", 0, "head-sample one in every N requests into the trace flight recorder (0 = only client-initiated and slow traces)")
	traceBuf := flag.Int("trace-buf", 256, "flight recorder capacity in traces")
	indexName := flag.String("index", "ibs", strategy.IndexFlagHelp())
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: predmatchd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// Metrics are always collected: the daemon is the one binary whose
	// instrumentation overhead is budgeted for (docs/OBSERVABILITY.md,
	// "Overhead"); -admin only controls whether they are exposed.
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)

	if !slices.Contains(strategy.IndexNames(), *indexName) {
		fmt.Fprintf(os.Stderr, "predmatchd: %v\n", strategy.UnknownIndexErr(*indexName))
		os.Exit(2)
	}

	cfg := server.Config{
		Addr:         *addr,
		MaxConns:     *maxConns,
		QueueLen:     *queue,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
		Registry:     reg,
		Logger:       logger,
		Index:        *indexName,
		// The tracer is always on: client-initiated traces and slow-trace
		// retention work without any flag; -trace-sample adds server-side
		// head sampling on top.
		Tracer: trace.New(trace.Config{
			SampleEvery: *traceSample,
			Slow:        *slowReq,
			Capacity:    *traceBuf,
		}),
	}
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "predmatchd: %v\n", err)
			os.Exit(2)
		}
		cfg.DataDir = *dataDir
		cfg.Sync = policy
		cfg.SyncEvery = *fsyncEvery
		cfg.WALSegmentBytes = *walSegment
		cfg.SnapshotEvery = *snapEvery
	}
	if *follow != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "predmatchd: -follow requires -data-dir (a follower persists the replicated log)")
			os.Exit(2)
		}
		cfg.FollowerOf = *follow
	}
	srv, err := server.Open(cfg)
	if err != nil {
		logger.Error("recovery", "err", err)
		os.Exit(1)
	}

	// followErr surfaces a fatal replication failure (an apply refusal);
	// stream losses are retried inside the follower, not reported here.
	followErr := make(chan error, 1)
	if *follow != "" {
		f := repl.New(*follow, srv, repl.Options{Logger: logger, Registry: reg})
		srv.AttachFollower(f, f.Stop)
		go func() {
			if err := f.Run(); err != nil {
				followErr <- err
			}
		}()
		logger.Info("following", "leader", *follow)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	go func() {
		// Addr is nil until Serve installs the listener.
		for range 500 {
			if a := srv.Addr(); a != nil {
				logger.Info("listening", "addr", a.String())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	var admin *server.Admin
	adminErr := make(chan error, 1)
	if *adminAddr != "" {
		admin = server.NewAdmin(*adminAddr, reg, srv)
		go func() { adminErr <- admin.ListenAndServe() }()
		go func() {
			for range 500 {
				if a := admin.Addr(); a != nil {
					logger.Info("admin listening", "addr", a.String())
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}

	shutdown := func() int {
		logger.Info("draining", "budget", drain.String())
		sctx, scancel := context.WithTimeout(context.Background(), *drain)
		defer scancel()
		code := 0
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("shutdown", "err", err)
			code = 1
		}
		<-errc
		if admin != nil {
			// The admin listener stops last so /healthz can report
			// "stopping" for the whole drain window.
			if err := admin.Shutdown(sctx); err != nil {
				logger.Error("admin shutdown", "err", err)
				code = 1
			}
			if err := <-adminErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin", "err", err)
				code = 1
			}
		}
		logger.Info("stopped")
		return code
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, server.ErrServerClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	case err := <-adminErr:
		// The admin listener failing (port clash, bad address) is fatal:
		// an operator who asked for observability should not get a
		// silently blind daemon.
		logger.Error("admin serve", "err", err)
		os.Exit(1)
	case err := <-followErr:
		// The leader's stream was refused permanently (diverged history,
		// apply failure): a follower serving ever-staler reads while
		// pretending to replicate is worse than a crash.
		logger.Error("replication failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		logger.Info("signal received")
		os.Exit(shutdown())
	}
}
