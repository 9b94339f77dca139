package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/core"
	"predmatch/internal/engine"
	"predmatch/internal/hint"
	"predmatch/internal/ibs"
	"predmatch/internal/parser"
	"predmatch/internal/pred"
	"predmatch/internal/server"
	"predmatch/internal/shard"
	"predmatch/internal/storage"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// Ladder sizes at full scale: generated ops replayed rung by rung.
const (
	ladderReads      = 20000 // match ops
	ladderPredWrites = 1000  // addpred/rmpred ops
	ladderInserts    = 5000  // tuple inserts against the rule population
	cloneReps        = 64
)

// perLayer is every metric a traced run prints; the same table is in
// BENCHMARK.json. A layer the workload does not reach reads 0 in the
// four taken from the workload's own rounds (marked "round").
var perLayer = []metric{
	{"ibs.stab_ns", "ns"}, {"hint.stab_ns", "ns"},
	{"ibs.markers_per_pred", "count"}, {"ibs.height", "count"}, {"ibs.nodes", "count"},
	{"core.match_ns", "ns"}, {"core.match_allocs", "count"},
	{"core.candidates_per_result", "ratio"}, {"core.clone_us", "us"},
	{"prefilter.skip_ratio", "ratio"},
	{"shard.match_ns", "ns"}, {"shard.match_allocs", "count"}, {"shard.matchbatch_ns_per_tuple", "ns"},
	{"shard.add_us", "us"}, {"shard.remove_us", "us"}, {"shard.swaps_per_op", "ratio"},
	{"pred.residual_ns", "ns"},
	{"wire.encode_req_ns", "ns"}, {"wire.decode_req_ns", "ns"},
	{"wire.encode_resp_ns", "ns"}, {"wire.decode_resp_ns", "ns"},
	{"wire.allocs_per_frame", "count"}, {"wire.bytes_per_frame", "B"},
	{"server.pipe_match_us", "us"}, {"server.pipe_insert_us", "us"}, {"server.pipe_addpred_us", "us"},
	{"server.notify_p50_us", "us"},
	{"server.notify_dropped", "count"}, {"server.notify_per_op", "count"}, // round
	{"client.tcp_match_us", "us"}, {"client.self_us", "us"},
	{"client.main_p99_us", "us"}, {"client.main_max_us", "us"}, // round
	{"parser.rule_us", "us"},
	{"storage.insert_ns", "ns"}, {"engine.insert_us", "us"},
	{"engine.firings_per_op", "count"}, {"engine.allocs_per_op", "count"},
	{"wal.append_us", "us"}, {"wal.commit_us", "us"}, {"wal.bytes_per_record", "B"},
	{"wal.recover_s", "s"}, {"wal.checkpoint_s", "s"},
	{"wal.bytes_per_op", "B"}, {"wal.fsyncs_per_op", "ratio"}, {"wal.group_batch", "ratio"}, // round
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.gc_cpu_frac", "ratio"}, // round
	{"harness.main_samples", "count"}, {"harness.side_samples", "count"}, // round
	{"harness.machine_speed", "ratio"}, // round
	{"harness.clock_ns", "ns"}, {"harness.trace_overhead_pct", "%"}, {"harness.input_digest", "id"},
}

// ladder replays generated ops one layer at a time, each rung on its
// own fresh instance of the same population, so op i meets the same
// state on every rung.
type ladder struct {
	e   *env
	tr  *tracing
	out map[string]float64

	codes     []uint32    // the match ops
	results   [][]pred.ID // the core rung's answers, as population IDs
	reqFrames [][]byte    // the match ops as the client frames them
	attempted int
	failed    int
}

// tracedRun is `-trace 1`: one untraced and one traced round of the
// workload, a third of the usual length each, then the ladder.
func tracedRun(e *env, def *workloadDef, ops int) (*result, error) {
	plain, err := def.round(e, ops/3, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced round: %w", err)
	}
	tr := newTracing()
	traced, err := def.round(e, ops/3, tr)
	if err != nil {
		return nil, fmt.Errorf("traced round: %w", err)
	}
	l := &ladder{e: e, tr: tr, out: map[string]float64{}}
	for k, v := range plain.layer {
		l.out[k] = v
	}
	for k, v := range traced.layer {
		if _, ok := plain.layer[k]; !ok {
			l.out[k] = v // counters only the instrumented program exposes
		}
	}
	l.out["harness.trace_overhead_pct"] = 100 * (plain.e2e["ops_per_s"] - traced.e2e["ops_per_s"]) / plain.e2e["ops_per_s"]
	l.attempted = plain.attempted + traced.attempted
	l.failed = plain.failed + traced.failed

	l.codes = e.in.opCodes(l.scaled(ladderReads))
	for _, rung := range []struct {
		name string
		run  func() error
	}{
		{"clock", l.clock}, {"stab", l.stab}, {"core", l.core}, {"shard", l.shard}, {"wire", l.wire},
		{"server over pipe", l.serverPipe}, {"client over tcp", l.clientTCP},
		{"shard writes", l.shardWrites}, {"addpred over pipe", l.pipeWrites}, {"tuple writes", l.tupleWrites},
	} {
		runtime.GC() // the previous rung's garbage is not this rung's work
		t0 := time.Now()
		if err := rung.run(); err != nil {
			return nil, fmt.Errorf("%s rung: %w", rung.name, err)
		}
		fmt.Fprintf(e.log, "rung %s: %.2fs\n", rung.name, time.Since(t0).Seconds())
	}
	l.out["client.self_us"] = l.out["client.tcp_match_us"] - l.out["server.pipe_match_us"] -
		(l.out["wire.encode_req_ns"]+l.out["wire.decode_resp_ns"])/1e3
	l.out["harness.input_digest"] = float64(e.in.digest())

	path, err := tr.write(e.cfg.outDir, e.cfg.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "%d spans written to %s; %d of %d checks failed\n", len(tr.spans), path, l.failed, l.attempted)
	res := &result{Attempted: l.attempted, Failed: l.failed, Correct: l.failed == 0, Metrics: map[string]metricOut{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricOut{l.out[m.name], m.unit}
		fmt.Fprintf(e.log, "%s: %s %.6g %s\n", e.cfg.workload, m.name, l.out[m.name], m.unit)
	}
	return res, nil
}

// scaled shrinks a full-scale op count with the population, for the
// smoke test.
func (l *ladder) scaled(n int) int {
	n = n * l.e.cfg.predsPerRel / 500
	if n < 128 {
		n = 128
	}
	return n
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (l *ladder) check(ok bool) {
	l.attempted++
	if !ok {
		l.failed++
	}
}

// clock measures the empty span.
func (l *ladder) clock() error {
	n := len(l.codes)
	l.tr.reserve(n)
	for i := 0; i < n; i++ {
		s := l.tr.begin()
		l.tr.end("harness.clock", s, i, "")
	}
	l.tr.clockNS = l.tr.medianNS("harness.clock")
	l.out["harness.clock_ns"] = l.tr.clockNS
	return nil
}

// stab: the attribute index alone. Per relation, every interval clause
// on its most-used attribute goes into one IBS-tree and one HINT index
// (the ROADMAP's reference structure); both answer the same stabs.
func (l *ladder) stab() error {
	in := l.e.in
	type attrIndex struct {
		pos  int
		tree *ibs.Tree[value.Value]
		flat *hint.Index[value.Value]
	}
	per := make([]attrIndex, len(in.rels))
	for r, rel := range in.pop.Rels {
		count := map[string]int{}
		for _, p := range in.pop.Preds {
			if p.Rel != rel.Name() {
				continue
			}
			for _, c := range p.Clauses {
				if c.Kind == pred.KindInterval {
					count[c.Attr]++
				}
			}
		}
		best := ""
		for a, n := range count {
			if n > count[best] || (n == count[best] && a < best) {
				best = a
			}
		}
		pos, ok := rel.AttrIndex(best)
		if !ok {
			return fmt.Errorf("stab rung: %s has no interval clause", rel.Name())
		}
		x := attrIndex{pos, ibs.New[value.Value](value.Compare), hint.New[value.Value](value.Compare)}
		id := ibs.ID(1)
		for _, p := range in.pop.Preds {
			if p.Rel != rel.Name() {
				continue
			}
			for _, c := range p.Clauses {
				if c.Kind != pred.KindInterval || c.Attr != best {
					continue
				}
				if err := x.tree.Insert(id, c.Iv); err != nil {
					return fmt.Errorf("stab rung: %w", err)
				}
				if err := x.flat.Insert(id, c.Iv); err != nil {
					return fmt.Errorf("stab rung: %w", err)
				}
				id++
			}
		}
		x.flat.StabAppend(value.Int(1), nil) // HINT builds its arrays on the first stab
		per[r] = x
	}
	dst := make([]ibs.ID, 0, 1024)
	l.tr.reserve(2 * len(l.codes))
	for i, c := range l.codes {
		rel, k := unpack(c)
		x, v := per[rel], in.pool[rel][k][per[rel].pos]
		s := l.tr.begin()
		dst = x.tree.StabAppend(v, dst[:0])
		l.tr.end("ibs.stab", s, i, "core.match")
		n := len(dst)
		s = l.tr.begin()
		dst = x.flat.StabAppend(v, dst[:0])
		l.tr.end("hint.stab", s, i, "core.match")
		l.check(len(dst) == n)
	}
	l.out["ibs.stab_ns"] = l.tr.medianNS("ibs.stab")
	l.out["hint.stab_ns"] = l.tr.medianNS("hint.stab")
	return nil
}

// core: the paper's whole scheme, one core.Index over the population.
func (l *ladder) core() error {
	in := l.e.in
	ix := core.New(in.pop.Catalog, in.pop.Funcs)
	one := core.New(in.pop.Catalog, in.pop.Funcs) // relation 0 alone, for Clone
	for _, p := range in.pop.Preds {
		if err := ix.Add(p); err != nil {
			return fmt.Errorf("core rung: %w", err)
		}
		if p.Rel == in.rels[0] {
			if err := one.Add(p); err != nil {
				return fmt.Errorf("core rung: %w", err)
			}
		}
	}
	n := len(l.codes)
	dst := make([]pred.ID, 0, 1024)
	l.tr.reserve(n)
	m0 := mallocs()
	for i, c := range l.codes {
		rel, k := unpack(c)
		s := l.tr.begin()
		dst, _ = ix.Match(in.rels[rel], in.pool[rel][k], dst[:0])
		l.tr.end("core.match", s, i, "shard.match")
	}
	l.out["core.match_allocs"] = float64(mallocs()-m0) / float64(n)
	l.out["core.match_ns"] = l.tr.medianNS("core.match")

	// Untimed pass: keep the answers for the wire rung, check them, and
	// count the partial matches each one completed.
	xlat := identityIDs(len(in.pop.Preds))
	l.results = make([][]pred.ID, n)
	cands, hits := 0, 0
	for i, c := range l.codes {
		rel, k := unpack(c)
		got, err := ix.Match(in.rels[rel], in.pool[rel][k], nil)
		l.check(err == nil && sameSet(got, in.want[rel][k], xlat, nil))
		l.results[i] = got
		cands += ix.Candidates(in.rels[rel], in.pool[rel][k])
		hits += len(got)
	}
	l.out["core.candidates_per_result"] = float64(cands) / float64(hits)
	trees := len(ix.Trees()) / len(in.rels)
	l.out["pred.residual_ns"] = l.out["core.match_ns"] - float64(trees)*l.out["ibs.stab_ns"]

	l.tr.reserve(cloneReps)
	for j := 0; j < cloneReps; j++ {
		s := l.tr.begin()
		c := one.Clone()
		l.tr.end("core.clone", s, j, "shard.add")
		l.check(c.Len() == one.Len())
	}
	l.out["core.clone_us"] = l.tr.medianNS("core.clone") / 1e3
	return nil
}

func (l *ladder) newShard() (*shard.ShardedMatcher, error) {
	in := l.e.in
	sm := shard.New(in.pop.Catalog, in.pop.Funcs)
	for _, p := range in.pop.Preds {
		if err := sm.Add(p); err != nil {
			return nil, fmt.Errorf("shard rung: %w", err)
		}
	}
	return sm, nil
}

// shard: the serving-layer matcher in process.
func (l *ladder) shard() error {
	in := l.e.in
	sm, err := l.newShard()
	if err != nil {
		return err
	}
	n := len(l.codes)
	dst := make([]pred.ID, 0, 1024)
	l.tr.reserve(n + n/batchSize)
	m0 := mallocs()
	for i, c := range l.codes {
		rel, k := unpack(c)
		s := l.tr.begin()
		dst, _ = sm.Match(in.rels[rel], in.pool[rel][k], dst[:0])
		l.tr.end("shard.match", s, i, "server.pipe_match")
		if i%oracleEvery == 0 {
			l.check(len(dst) == len(l.results[i]))
		}
	}
	l.out["shard.match_allocs"] = float64(mallocs()-m0) / float64(n)
	l.out["shard.match_ns"] = l.tr.medianNS("shard.match")
	if st, ok := sm.PrefilterStats(); ok && st.Admitted+st.Skipped > 0 {
		l.out["prefilter.skip_ratio"] = float64(st.Skipped) / float64(st.Admitted+st.Skipped)
	}

	batch := make([]tuple.Tuple, batchSize)
	for b := 0; b+batchSize <= n; b += batchSize {
		rel, k := unpack(l.codes[b])
		for j := range batch {
			batch[j] = in.pool[rel][(k+j)%poolPerRel]
		}
		s := l.tr.begin()
		got, err := sm.MatchBatch(in.rels[rel], batch)
		l.tr.end("shard.matchbatch", s, b, "server.pipe_match")
		l.check(err == nil && len(got) == batchSize && len(got[0]) == len(in.want[rel][k]))
	}
	l.out["shard.matchbatch_ns_per_tuple"] = l.tr.medianNS("shard.matchbatch") / batchSize

	var markers, intervals, nodes, height int
	for _, t := range sm.Trees() {
		markers, intervals, nodes = markers+t.Markers, intervals+t.Intervals, nodes+t.Nodes
		if t.Height > height {
			height = t.Height
		}
	}
	l.out["ibs.markers_per_pred"] = float64(markers) / float64(intervals)
	l.out["ibs.nodes"] = float64(nodes)
	l.out["ibs.height"] = float64(height)
	return nil
}

// wire: the JSON codec over the exact frames a match sends, each half
// the way the side that runs it does: the client encodes requests and
// decodes responses, the server the reverse.
func (l *ladder) wire() error {
	in := l.e.in
	n := len(l.codes)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	decode := func(line []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		return dec.Decode(v)
	}
	l.tr.reserve(4 * n)
	frameBytes := 0
	m0 := mallocs()
	for i, c := range l.codes {
		rel, k := unpack(c)
		req := wire.Request{ID: uint64(i + 1), Op: wire.OpMatch, Relation: in.rels[rel], Tuple: wire.FromTuple(in.pool[rel][k])}
		buf.Reset()
		s := l.tr.begin()
		err := enc.Encode(&req)
		l.tr.end("wire.encode_req", s, i, "client.tcp_match")
		var back wire.Request
		s = l.tr.begin()
		err2 := decode(buf.Bytes(), &back)
		l.tr.end("wire.decode_req", s, i, "server.pipe_match")
		frameBytes += buf.Len()

		resp := wire.Message{Type: wire.TypeResponse, ID: req.ID, OK: true, Matches: wire.FromIDs(l.results[i])}
		buf.Reset()
		s = l.tr.begin()
		err3 := enc.Encode(&resp)
		l.tr.end("wire.encode_resp", s, i, "server.pipe_match")
		var msg wire.Message
		s = l.tr.begin()
		err4 := decode(buf.Bytes(), &msg)
		l.tr.end("wire.decode_resp", s, i, "client.tcp_match")
		frameBytes += buf.Len()
		if i%oracleEvery == 0 {
			l.check(err == nil && err2 == nil && err3 == nil && err4 == nil &&
				back.Relation == req.Relation && len(back.Tuple) == len(req.Tuple) && len(msg.Matches) == len(l.results[i]))
		}
	}
	// Two frames per op, each encoded once and decoded once.
	l.out["wire.allocs_per_frame"] = float64(mallocs()-m0) / float64(2*n)
	l.out["wire.bytes_per_frame"] = float64(frameBytes) / float64(2*n)
	for _, h := range []string{"encode_req", "decode_req", "encode_resp", "decode_resp"} {
		l.out["wire."+h+"_ns"] = l.tr.medianNS("wire." + h)
	}

	// Untimed: the request frames the pipe rung replays.
	l.reqFrames = make([][]byte, n)
	for i, c := range l.codes {
		rel, k := unpack(c)
		f, err := json.Marshal(&wire.Request{ID: uint64(i + 1), Op: wire.OpMatch, Relation: in.rels[rel], Tuple: wire.FromTuple(in.pool[rel][k])})
		if err != nil {
			return fmt.Errorf("wire rung: %w", err)
		}
		l.reqFrames[i] = append(f, '\n')
	}
	return nil
}

// pipeListener hands Server.Serve in-memory connections: the server's
// decode, dispatch and encode with no kernel socket under them.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

func (p *pipeListener) Addr() net.Addr { return pipeAddr{} }

// pipeServer is a memory-only daemon behind a pipeListener.
type pipeServer struct {
	srv    *server.Server
	ln     *pipeListener
	served chan error
}

func startPipeServer() *pipeServer {
	p := &pipeServer{
		srv:    server.New(server.Config{}),
		ln:     &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})},
		served: make(chan error, 1),
	}
	go func() { p.served <- p.srv.Serve(p.ln) }()
	return p
}

func (p *pipeServer) stop() error { return stopServer(p.srv, p.served) }

// rawConn speaks newline-delimited frames with no client codec.
type rawConn struct {
	nc net.Conn
	r  *bufio.Reader
	id uint64
}

func (p *pipeServer) dial() *rawConn {
	c, s := net.Pipe()
	p.ln.conns <- s
	return &rawConn{nc: c, r: bufio.NewReaderSize(c, 1<<16)}
}

// roundTrip writes one pre-encoded frame and returns the response
// line, valid until the next read.
func (c *rawConn) roundTrip(frame []byte) ([]byte, error) {
	if _, err := c.nc.Write(frame); err != nil {
		return nil, err
	}
	return c.r.ReadSlice('\n')
}

// call is roundTrip for set-up and bookkeeping: it encodes req, decodes
// the response and turns a refusal into an error.
func (c *rawConn) call(req *wire.Request) (*wire.Message, error) {
	c.id++
	req.ID = c.id
	frame, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	line, err := c.roundTrip(append(frame, '\n'))
	if err != nil {
		return nil, err
	}
	var m wire.Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, err
	}
	if m.Error != "" {
		return nil, fmt.Errorf("%s: %s", req.Op, m.Error)
	}
	return &m, nil
}

func (c *rawConn) declare(in *inputs) error {
	for _, rel := range in.pop.Rels {
		if _, err := c.call(&wire.Request{Op: wire.OpDeclare, Relation: rel.Name(), Attrs: wireAttrs(rel)}); err != nil {
			return err
		}
	}
	return nil
}

func (c *rawConn) loadPreds(in *inputs) ([]pred.ID, error) {
	xlat := make([]pred.ID, len(in.pop.Preds))
	for i, p := range in.pop.Preds {
		m, err := c.call(&wire.Request{Op: wire.OpAddPred, Pred: wire.FromPredicate(p)})
		if err != nil {
			return nil, err
		}
		xlat[i] = pred.ID(m.PredID)
	}
	return xlat, nil
}

// serverPipe: the match frames against Server.Serve over a pipe.
func (l *ladder) serverPipe() error {
	in := l.e.in
	ps := startPipeServer()
	defer ps.stop()
	c := ps.dial()
	defer c.nc.Close()
	if err := c.declare(in); err != nil {
		return fmt.Errorf("pipe rung: %w", err)
	}
	xlat, err := c.loadPreds(in)
	if err != nil {
		return fmt.Errorf("pipe rung: %w", err)
	}
	l.tr.reserve(len(l.codes))
	for i, code := range l.codes {
		s := l.tr.begin()
		line, err := c.roundTrip(l.reqFrames[i])
		l.tr.end("server.pipe_match", s, i, "client.tcp_match")
		if err != nil {
			return fmt.Errorf("pipe rung: %w", err)
		}
		if i%oracleEvery == 0 {
			rel, k := unpack(code)
			var m wire.Message
			l.check(json.Unmarshal(line, &m) == nil && m.OK && sameSet(wire.ToIDs(m.Matches), in.want[rel][k], xlat, nil))
		}
	}
	l.out["server.pipe_match_us"] = l.tr.medianNS("server.pipe_match") / 1e3
	return nil
}

// clientTCP: the same ops through client.Match over loopback TCP, one
// connection and nothing beside it.
func (l *ladder) clientTCP() error {
	in := l.e.in
	dm, err := startDaemon(server.Config{})
	if err != nil {
		return err
	}
	defer dm.stop()
	c, err := client.Dial(dm.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := declare(c, in); err != nil {
		return err
	}
	xlat, err := loadPreds(c, in)
	if err != nil {
		return err
	}
	l.tr.reserve(len(l.codes))
	for i, code := range l.codes {
		rel, k := unpack(code)
		s := l.tr.begin()
		got, err := c.Match(in.rels[rel], in.pool[rel][k])
		l.tr.end("client.tcp_match", s, i, "")
		if i%oracleEvery == 0 {
			l.check(err == nil && sameSet(got, in.want[rel][k], xlat, nil))
		}
	}
	l.out["client.tcp_match_us"] = l.tr.medianNS("client.tcp_match") / 1e3
	return nil
}

// shardWrites: Add and Remove alternating over a FIFO of churned
// predicates, as the churn workload's writer does, in process.
func (l *ladder) shardWrites() error {
	in := l.e.in
	sm, err := l.newShard()
	if err != nil {
		return err
	}
	next := 0
	var fifo []pred.ID
	for ; next < churnFIFO; next++ {
		if err := sm.Add(in.churn[next]); err != nil {
			return fmt.Errorf("shard write rung: %w", err)
		}
		fifo = append(fifo, in.churn[next].ID)
	}
	versions := func() (v uint64) {
		for _, s := range sm.Stats() {
			v += s.Version
		}
		return v
	}
	n := l.scaled(ladderPredWrites)
	v0 := versions()
	l.tr.reserve(n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			p := in.churn[next%len(in.churn)]
			next++
			s := l.tr.begin()
			err = sm.Add(p)
			l.tr.end("shard.add", s, i, "server.pipe_addpred")
			fifo = append(fifo, p.ID)
		} else {
			s := l.tr.begin()
			err = sm.Remove(fifo[0])
			l.tr.end("shard.remove", s, i, "server.pipe_rmpred")
			fifo = fifo[1:]
		}
		l.check(err == nil)
	}
	l.out["shard.swaps_per_op"] = float64(versions()-v0) / float64(n)
	l.out["shard.add_us"] = l.tr.medianNS("shard.add") / 1e3
	l.out["shard.remove_us"] = l.tr.medianNS("shard.remove") / 1e3
	return nil
}

// pipeWrites: the same predicate writes as addpred/rmpred frames.
func (l *ladder) pipeWrites() error {
	in := l.e.in
	ps := startPipeServer()
	defer ps.stop()
	c := ps.dial()
	defer c.nc.Close()
	if err := c.declare(in); err != nil {
		return fmt.Errorf("pipe write rung: %w", err)
	}
	if _, err := c.loadPreds(in); err != nil {
		return fmt.Errorf("pipe write rung: %w", err)
	}
	next := 0
	var fifo []int64
	for ; next < churnFIFO; next++ {
		m, err := c.call(&wire.Request{Op: wire.OpAddPred, Pred: wire.FromPredicate(in.churn[next])})
		if err != nil {
			return fmt.Errorf("pipe write rung: %w", err)
		}
		fifo = append(fifo, m.PredID)
	}
	n := l.scaled(ladderPredWrites)
	l.tr.reserve(n)
	for i := 0; i < n; i++ {
		req := wire.Request{ID: uint64(1<<32 + i), Op: wire.OpRemovePred}
		name := "server.pipe_rmpred"
		if i%2 == 0 {
			req.Op, req.Pred, name = wire.OpAddPred, wire.FromPredicate(in.churn[next%len(in.churn)]), "server.pipe_addpred"
			next++
		} else {
			req.PredID, fifo = fifo[0], fifo[1:]
		}
		frame, err := json.Marshal(&req)
		if err != nil {
			return fmt.Errorf("pipe write rung: %w", err)
		}
		frame = append(frame, '\n')
		s := l.tr.begin()
		line, err := c.roundTrip(frame)
		l.tr.end(name, s, i, "")
		var m wire.Message
		l.check(err == nil && json.Unmarshal(line, &m) == nil && m.OK)
		if i%2 == 0 {
			fifo = append(fifo, m.PredID)
		}
	}
	l.out["server.pipe_addpred_us"] = l.tr.medianNS("server.pipe_addpred") / 1e3
	return nil
}

// tupleWrites: the same inserts against storage alone, storage with
// the rule engine attached, the log alone, and the whole server over a
// pipe with a subscriber on a second connection.
func (l *ladder) tupleWrites() error {
	in := l.e.in
	n := l.scaled(ladderInserts)
	codes := in.opCodes(n)
	tuples := make([]tuple.Tuple, n)
	for i, c := range codes {
		rel, k := unpack(c)
		tuples[i] = stamped(in.pool[rel][k], int64(i+1))
	}
	relOf := func(i int) int { r, _ := unpack(codes[i]); return r }

	// storage
	_, tabs, err := newTables(in)
	if err != nil {
		return err
	}
	l.tr.reserve(n)
	for i, t := range tuples {
		s := l.tr.begin()
		_, err := tabs[relOf(i)].Insert(t)
		l.tr.end("storage.insert", s, i, "engine.insert")
		l.check(err == nil)
	}
	l.out["storage.insert_ns"] = l.tr.medianNS("storage.insert")

	// parser, then engine
	l.tr.reserve(len(in.rules))
	for i, src := range in.rules {
		s := l.tr.begin()
		_, err := parser.ParseRule(src, in.pop.Catalog, in.pop.Funcs)
		l.tr.end("parser.rule", s, i, "server.pipe_rule")
		l.check(err == nil)
	}
	l.out["parser.rule_us"] = l.tr.medianNS("parser.rule") / 1e3
	edb, etabs, err := newTables(in)
	if err != nil {
		return err
	}
	eng := engine.New(edb, in.pop.Funcs, shard.New(edb.Catalog(), in.pop.Funcs))
	fired := 0
	eng.OnFire(func(engine.FiringEvent) { fired++ })
	for _, src := range in.rules {
		if _, err := eng.DefineRule(src); err != nil {
			return fmt.Errorf("engine rung: %w", err)
		}
	}
	l.tr.reserve(n)
	m0 := mallocs()
	for i, t := range tuples {
		before := fired
		s := l.tr.begin()
		_, err := etabs[relOf(i)].Insert(t)
		l.tr.end("engine.insert", s, i, "server.pipe_insert")
		_, k := unpack(codes[i])
		l.check(err == nil && fired-before == in.fires[relOf(i)][k])
	}
	l.out["engine.allocs_per_op"] = float64(mallocs()-m0) / float64(n)
	l.out["engine.insert_us"] = l.tr.medianNS("engine.insert") / 1e3
	l.out["engine.firings_per_op"] = float64(fired) / float64(n)

	if err := l.walRung(tuples, relOf, tabs); err != nil {
		return err
	}
	return l.pipeInserts(tuples, codes)
}

// newTables is an empty database holding the population's relations.
func newTables(in *inputs) (*storage.DB, []*storage.Table, error) {
	db := storage.NewDB()
	tabs := make([]*storage.Table, len(in.rels))
	for r, rel := range in.pop.Rels {
		t, err := db.CreateRelation(rel)
		if err != nil {
			return nil, nil, fmt.Errorf("create %s: %w", rel.Name(), err)
		}
		tabs[r] = t
	}
	return db, tabs, nil
}

// walRung: one writer appending and committing under the shipped
// default (fsync before every ack), then recovery and a checkpoint of
// the same rows.
func (l *ladder) walRung(tuples []tuple.Tuple, relOf func(int) int, tabs []*storage.Table) error {
	in := l.e.in
	n := len(tuples)
	if err := os.MkdirAll(l.e.cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(l.e.cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Recover(wal.Options{Dir: dir}, wal.Handler{})
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	l.tr.reserve(2*n + 2)
	for i, t := range tuples {
		rec := &wal.Record{Kind: wal.KindMutate, Events: []wal.Event{{
			Rel: in.rels[relOf(i)], Op: storage.OpInsert.String(), ID: int64(i + 1), Tuple: wire.FromTuple(t),
		}}}
		s := l.tr.begin()
		seq, err := log.Append(rec)
		l.tr.end("wal.append", s, i, "server.insert")
		s = l.tr.begin()
		err2 := log.Commit(seq)
		l.tr.end("wal.commit", s, i, "server.insert")
		l.check(err == nil && err2 == nil)
	}
	l.out["wal.append_us"] = l.tr.medianNS("wal.append") / 1e3
	l.out["wal.commit_us"] = l.tr.medianNS("wal.commit") / 1e3
	l.out["wal.bytes_per_record"] = float64(segmentBytes(dir)) / float64(n)
	if err := log.Close(); err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}

	replayed := 0
	s := l.tr.begin()
	log, _, err = wal.Recover(wal.Options{Dir: dir}, wal.Handler{Apply: func(*wal.Record) error { replayed++; return nil }})
	l.tr.end("wal.recover", s, 0, "server.open")
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	defer log.Close()
	l.check(replayed == n)
	l.out["wal.recover_s"] = l.tr.medianNS("wal.recover") / 1e9

	snap := &wal.Snapshot{Seq: log.LastSeq(), Rules: in.rules}
	for r, tab := range tabs {
		sr := wal.SnapRelation{Name: in.rels[r], Attrs: wireAttrs(tab.Relation()), NextID: int64(tab.NextID())}
		for _, row := range tab.SnapshotRows() {
			sr.Rows = append(sr.Rows, wal.SnapRow{ID: int64(row.ID), Tuple: wire.FromTuple(row.Tuple)})
		}
		snap.Relations = append(snap.Relations, sr)
	}
	s = l.tr.begin()
	_, _, err = log.WriteSnapshot(snap)
	l.tr.end("wal.checkpoint", s, 0, "server.shutdown")
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	l.out["wal.checkpoint_s"] = l.tr.medianNS("wal.checkpoint") / 1e9
	return nil
}

// pipeInserts: insert frames against a memory-only server holding the
// rules, a second pipe connection subscribed to every firing. The
// notify span runs from sending the insert to its first notification.
func (l *ladder) pipeInserts(tuples []tuple.Tuple, codes []uint32) error {
	in := l.e.in
	n := len(tuples)
	ps := startPipeServer()
	defer ps.stop()
	c, sub := ps.dial(), ps.dial()
	defer c.nc.Close()
	subDone := make(chan struct{})
	defer func() {
		sub.nc.Close() // ends the subscriber goroutine's read
		<-subDone
	}()
	if err := c.declare(in); err != nil {
		return fmt.Errorf("pipe insert rung: %w", err)
	}
	for _, src := range in.rules {
		if _, err := c.call(&wire.Request{Op: wire.OpRule, Source: src}); err != nil {
			return fmt.Errorf("pipe insert rung: %w", err)
		}
	}
	if _, err := sub.call(&wire.Request{Op: wire.OpSubscribe}); err != nil {
		return fmt.Errorf("pipe insert rung: %w", err)
	}
	// The subscriber finds each notification's serial without a JSON
	// decode, so it keeps up with the eight or so firings per insert,
	// and wakes the writer at the first one of each insert.
	firstAt := make([]int64, n+1) // guarded by the first channel's handoff
	first := make(chan int64, n)
	var received atomic.Int64
	go func() {
		defer close(subDone)
		for {
			line, err := sub.r.ReadSlice('\n')
			if err != nil {
				return
			}
			now := l.tr.begin()
			if s := notifySerial(line); s >= 1 && s <= int64(n) && firstAt[s] == 0 {
				firstAt[s] = now
				first <- s
			}
			received.Add(1)
		}
	}()

	frames := make([][]byte, n)
	for i, t := range tuples {
		rel, _ := unpack(codes[i])
		f, err := json.Marshal(&wire.Request{ID: uint64(1<<32 + i), Op: wire.OpInsert, Relation: in.rels[rel], Tuple: wire.FromTuple(t)})
		if err != nil {
			return fmt.Errorf("pipe insert rung: %w", err)
		}
		frames[i] = append(f, '\n')
	}
	l.tr.reserve(2 * n)
	firings := 0
	for i := range frames {
		s := l.tr.begin()
		line, err := c.roundTrip(frames[i])
		l.tr.end("server.pipe_insert", s, i, "")
		var m wire.Message
		rel, k := unpack(codes[i])
		l.check(err == nil && json.Unmarshal(line, &m) == nil && m.OK && m.Firings == in.fires[rel][k])
		firings += m.Firings
		if m.Firings > 0 {
			// Closed loop: the next insert waits for this one's first
			// notification, so the span is latency and not queueing.
			select {
			case got := <-first:
				l.check(got == int64(i+1))
				l.tr.spans = append(l.tr.spans, span{"server.notify", s, firstAt[got], i, "server.pipe_insert"})
			case <-time.After(10 * time.Second):
				return fmt.Errorf("pipe insert rung: no notification for insert %d", i)
			}
		}
	}
	for wait := time.Now(); received.Load() < int64(firings) && time.Since(wait) < 10*time.Second; {
		time.Sleep(time.Millisecond)
	}
	l.check(received.Load() == int64(firings))
	l.out["server.pipe_insert_us"] = l.tr.medianNS("server.pipe_insert") / 1e3
	l.out["server.notify_p50_us"] = l.tr.medianNS("server.notify") / 1e3
	return nil
}

// notifySerial extracts the serial from a notification frame: the last
// element of its "tuple" array. It returns 0 for any other frame.
func notifySerial(line []byte) int64 {
	i := bytes.Index(line, []byte(`"tuple":[`))
	if i < 0 {
		return 0
	}
	rest := line[i:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0
	}
	start := bytes.LastIndexByte(rest[:end], ',')
	var n int64
	for _, ch := range rest[start+1 : end] {
		if ch < '0' || ch > '9' {
			return 0
		}
		n = n*10 + int64(ch-'0')
	}
	return n
}
