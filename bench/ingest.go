package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

const (
	opInsert = 0
	opUpdate = 1
	opDelete = 2
)

// liveRow is a stored tuple a writer may later update or delete: its
// server-assigned ID and which pooled tuple is its current image.
type liveRow struct {
	id     tuple.ID
	rel, k int
}

// ingestWriter is one connection's deterministic mutation stream.
type ingestWriter struct {
	c     *client.Client
	codes []uint32 // new image per op
	kinds []uint8  // insert/update/delete, 70/20/10
	picks []uint32 // which live row an update or delete hits
	live  []liveRow

	firings          uint64 // sum of fired counts over every ack since subscribe
	inserts, deletes [4]int // acked, per relation
}

// ingestRound: durable daemon (fsync on every commit, the shipped
// default), 1,000 `do log` rules, insert/update/delete 70/20/10 from
// two writers, connection 0 subscribed to every firing.
func ingestRound(e *env, ops int, tr *tracing) (*round, error) {
	in := e.in
	n := ops / 2
	total := n + n/warmDiv
	// sendAt[serial] is when the mutation carrying that serial was sent;
	// the notification drain turns it into the side latency.
	sendAt := make([]atomic.Int64, 2*total+2)
	seen := make([]bool, 2*total+2)
	// Rows stored before the measured phase: 5,000 at full scale.
	preloadRows := 10 * e.cfg.predsPerRel
	var pre [2][]uint32
	var ws [2]*ingestWriter
	var ds []*driver
	t0 := time.Now()
	for d := 0; d < 2; d++ {
		d := d
		w := &ingestWriter{codes: in.opCodes(total), kinds: make([]uint8, total), picks: make([]uint32, total)}
		for i := range w.kinds {
			switch x := in.rng.Intn(10); {
			case x < 7:
				w.kinds[i] = opInsert
			case x < 9:
				w.kinds[i] = opUpdate
			default:
				w.kinds[i] = opDelete
			}
			w.picks[i] = in.rng.Uint32()
			in.hash.Write([]byte{w.kinds[i], byte(w.picks[i]), byte(w.picks[i] >> 8), byte(w.picks[i] >> 16), byte(w.picks[i] >> 24)})
		}
		w.live = make([]liveRow, 0, preloadRows/2+total)
		pre[d] = in.opCodes(preloadRows / 2)
		ws[d] = w
		drv := newDriver(n, 1, func(i int) int {
			serial := int64(2*i + d + 1)
			sendAt[serial].Store(int64(time.Since(t0)))
			return w.mutate(in, i, serial)
		})
		ds = append(ds, drv)
	}
	sideLat := make([]int64, 0, total)
	tr.attach(ds)

	if err := os.MkdirAll(e.cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.cfg.outDir, "ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := server.Config{DataDir: dir, Registry: tr.registry()}
	// walCount reads one of the measured life's predmatch_wal_* counters
	// (0 when untraced: the program is then uninstrumented).
	walCount := func(name string) float64 {
		if cfg.Registry == nil {
			return 0
		}
		return float64(cfg.Registry.Counter(name, "").Value())
	}

	clk := beginRound()
	// Set-up, first life: rules and preload, then a clean shutdown,
	// which checkpoints.
	dm, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	cs, err := dm.dial2()
	if err == nil {
		err = declare(cs[0], in)
	}
	for _, src := range in.rules {
		if err != nil {
			break
		}
		_, err = cs[0].DefineRule(src)
	}
	if err == nil {
		err = preload(in, cs, ws, pre)
	}
	closeAll(cs)
	if serr := dm.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("ingest set-up: %w", err)
	}
	// Second life: recovery from the checkpoint is part of set-up.
	cfg.Registry = tr.registry()
	if dm, err = startDaemon(cfg); err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			dm.stop()
		}
	}()
	if cs, err = dm.dial2(); err != nil {
		return nil, err
	}
	defer closeAll(cs)
	ws[0].c, ws[1].c = cs[0], cs[1]
	notes, err := cs[0].Subscribe(false)
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	clk.ready()
	wal0 := segmentBytes(dir)
	fsyncs0, records0 := walCount("predmatch_wal_fsyncs_total"), walCount("predmatch_wal_records_total")

	// The drain is the subscriber: it receives every firing of both
	// writers and times the first one of each of writer 0's mutations.
	var received atomic.Uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for nt := range notes {
			now := int64(time.Since(t0))
			if num, ok := nt.Tuple[serialAttr].(json.Number); ok {
				serial, err := num.Int64()
				if err == nil && serial > 0 && serial%2 == 1 && !seen[serial] {
					seen[serial] = true
					if int(serial-1)/2 >= n/warmDiv {
						sideLat = append(sideLat, now-sendAt[serial].Load())
					}
				}
			}
			received.Add(1) // last: whoever reads the count sees the sample too
		}
	}()

	p := measure(ds)
	heap := heapNow()
	walBytes := segmentBytes(dir) - wal0

	// Notification accounting: what the server generated for the
	// subscription must be what the acks said fired, and every one must
	// have been delivered or counted as dropped.
	generated, dropped, err := cs[0].Unsubscribe()
	if err != nil {
		return nil, fmt.Errorf("unsubscribe: %w", err)
	}
	for wait := time.Now(); received.Load() < generated-dropped && time.Since(wait) < 10*time.Second; {
		time.Sleep(time.Millisecond)
	}
	// The connection's end closes the channel, which ends the drain;
	// only then are its samples safe to read.
	closeAll(cs)
	<-drained
	r := clk.finish(p, heap, ds, [][]int64{sideLat})
	r.layer["wal.bytes_per_op"] = float64(walBytes) / float64(2*total)
	if fsyncs := walCount("predmatch_wal_fsyncs_total") - fsyncs0; fsyncs > 0 {
		r.layer["wal.fsyncs_per_op"] = fsyncs / float64(2*total)
		r.layer["wal.group_batch"] = (walCount("predmatch_wal_records_total") - records0) / fsyncs
	}
	tr.collect(ds, "client.mutate", "")
	fired := ws[0].firings + ws[1].firings
	r.attempted += int(generated)
	r.failed += int(dropped)
	if generated != fired || received.Load() != generated-dropped {
		fmt.Fprintf(e.log, "ingest: notifications: acks fired %d, server generated %d (dropped %d), received %d\n",
			fired, generated, dropped, received.Load())
		r.failed++
	}
	r.layer["server.notify_per_op"] = float64(generated) / float64(2*total)
	r.layer["server.notify_dropped"] = float64(dropped)

	// Restart once more: every acked write must have survived.
	stopped = true
	if err := dm.stop(); err != nil {
		return nil, fmt.Errorf("ingest shutdown: %w", err)
	}
	cfg.Registry = tr.registry()
	if dm, err = startDaemon(cfg); err != nil {
		return nil, err
	}
	defer dm.stop()
	c, err := client.Dial(dm.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("stats after restart: %w", err)
	}
	rows := map[string]int{}
	for _, rs := range st.Relations {
		rows[rs.Name] = rs.Rows
	}
	for rel, name := range in.rels {
		want := ws[0].inserts[rel] + ws[1].inserts[rel] - ws[0].deletes[rel] - ws[1].deletes[rel]
		r.attempted++
		if got, ok := rows[name]; !ok || got != want {
			fmt.Fprintf(e.log, "ingest: %s has %d rows after restart, acked writes say %d\n", name, got, want)
			r.failed++
		}
	}
	return r, nil
}

// mutate sends op i of the stream and books its ack; it returns 1 on
// an error or an ack whose fired count disagrees with the oracle.
func (w *ingestWriter) mutate(in *inputs, i int, serial int64) int {
	rel, k := unpack(w.codes[i])
	kind := w.kinds[i]
	if len(w.live) == 0 {
		kind = opInsert
	}
	var fired, want int
	var err error
	switch kind {
	case opInsert:
		var id tuple.ID
		id, fired, err = w.c.Insert(in.rels[rel], stamped(in.pool[rel][k], serial))
		if err == nil {
			w.live = append(w.live, liveRow{id, rel, k})
			w.inserts[rel]++
		}
		want = in.fires[rel][k]
	case opUpdate:
		row := &w.live[int(w.picks[i])%len(w.live)]
		// The new image must belong to the row's relation.
		rel = row.rel
		fired, err = w.c.Update(in.rels[rel], row.id, stamped(in.pool[rel][k], serial))
		if err == nil {
			row.k = k
		}
		want = in.fires[rel][k]
	case opDelete:
		j := int(w.picks[i]) % len(w.live)
		row := w.live[j]
		fired, err = w.c.Delete(in.rels[row.rel], row.id)
		if err == nil {
			w.live[j] = w.live[len(w.live)-1]
			w.live = w.live[:len(w.live)-1]
			w.deletes[row.rel]++
		}
		want = in.fires[row.rel][row.k]
	}
	w.firings += uint64(fired)
	if err != nil || (i%oracleEvery == 0 && fired != want) {
		return 1
	}
	return 0
}

// stamped copies a pooled tuple and writes the serial into the
// attribute no predicate reads.
func stamped(t tuple.Tuple, serial int64) tuple.Tuple {
	out := make(tuple.Tuple, len(t))
	copy(out, t)
	out[serialAttr] = value.Int(serial)
	return out
}

// preload stores the tuples named by codes, each writer's from its
// own connection and both at once, before any subscription exists.
func preload(in *inputs, cs [2]*client.Client, ws [2]*ingestWriter, codes [2][]uint32) error {
	errs := make(chan error, 2)
	for d := range cs {
		go func(d int) {
			for _, c := range codes[d] {
				rel, k := unpack(c)
				id, _, err := cs[d].Insert(in.rels[rel], in.pool[rel][k])
				if err != nil {
					errs <- fmt.Errorf("preload: %w", err)
					return
				}
				ws[d].live = append(ws[d].live, liveRow{id, rel, k})
				ws[d].inserts[rel]++
			}
			errs <- nil
		}(d)
	}
	err := <-errs
	if err2 := <-errs; err == nil {
		err = err2
	}
	return err
}

func closeAll(cs [2]*client.Client) {
	for _, c := range cs {
		if c != nil {
			c.Close()
		}
	}
}

// segmentBytes sums the WAL segment files of a data directory.
func segmentBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".seg") {
			if fi, err := os.Stat(filepath.Join(dir, ent.Name())); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}
