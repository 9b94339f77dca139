// The append side of the log: sequence assignment, segment rotation,
// and the group-commit fsync machinery behind the sync policies.

package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".ckpt"
)

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

// parseSeq extracts the sequence number from a segment or snapshot file
// name with the given prefix/suffix and the 20 digits segmentName and
// snapshotName write.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+20+len(suffix) || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return n, err == nil
}

// Log is the append side of a write-ahead log directory. Construct with
// Recover (which replays existing state first); append with Append and
// make records durable with Commit.
//
// Concurrency: Append and Commit are safe for concurrent use. The
// fsync of one committer covers every record appended before it ran —
// group commit — so N concurrent mutators share one disk flush.
type Log struct {
	opt Options
	met *logMetrics // nil when Options.Registry is nil

	// mu serializes appends and rotation. The fsync itself runs *off*
	// this lock (syncOnce sets flushing, releases mu, flushes, relocks):
	// appenders keep writing to the active segment while a flush is in
	// flight, and the next flush covers them all together — the
	// group-commit batch. Rotation and Close wait on flushCnd for an
	// in-flight flush before closing the file under it.
	mu       sync.Mutex
	flushCnd *sync.Cond // signals flushing -> false; condition on mu
	flushing bool       // guarded-by: mu — an fsync is in flight off-lock
	f        *os.File   // guarded-by: mu — active segment
	// buf is the frame scratch buffer; every Append encodes into it and
	// writes it out in one syscall.
	buf      []byte // guarded-by: mu
	seq      uint64 // guarded-by: mu — last sequence assigned and written to the OS
	segStart uint64 // guarded-by: mu — first sequence of the active segment
	segBytes int64  // guarded-by: mu — bytes written to the active segment
	segments int    // guarded-by: mu — segment files on disk
	closed   bool   // guarded-by: mu
	// seqWait is what WaitSeq parks on: made by the first waiter to
	// arrive, closed and dropped when the published sequence advances (or
	// the log closes), so an append nobody waits for allocates nothing. A
	// channel rather than a sync.Cond so waiters can select against a
	// stop channel.
	seqWait chan struct{} // guarded-by: mu

	// syncMu guards the durability frontier shared between committers
	// and the sync loop. Lock order: mu before syncMu, never the
	// reverse.
	syncMu  sync.Mutex
	syncCnd *sync.Cond
	durable uint64 // guarded-by: syncMu — last fsynced sequence
	failed  error  // guarded-by: syncMu — sticky first write/fsync error

	// lastSnap publishes the latest snapshot's (seq, unix nanos) for the
	// age gauge and the stats surface.
	lastSnapSeq  uint64 // guarded-by: syncMu
	lastSnapTime int64  // guarded-by: syncMu

	kick     chan struct{}
	done     chan struct{}
	loopDone chan struct{}
}

// openLog opens a fresh active segment starting at nextSeq and starts
// the sync loop for the configured policy. Recovery calls it after
// replay; the truncated tail segment is never reopened for appends — a
// new segment keeps the "first sequence in the name" invariant simple.
//
// The holds directive below reflects exclusive ownership: the log is
// under construction and unshared until this returns.
//
//predmatchvet:holds mu, syncMu
func openLog(opt Options, lastSeq uint64, segments int) (*Log, error) {
	l := &Log{
		opt:      opt,
		seq:      lastSeq,
		segments: segments,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	l.flushCnd = sync.NewCond(&l.mu)
	l.syncCnd = sync.NewCond(&l.syncMu)
	l.durable = lastSeq
	l.met = newLogMetrics(opt.Registry, l)
	if err := l.openSegment(lastSeq + 1); err != nil {
		return nil, err
	}
	go l.syncLoop()
	return l, nil
}

// openSegment creates the active segment for records starting at
// firstSeq. Callers hold mu or own the log exclusively.
//
//predmatchvet:holds mu
func (l *Log) openSegment(firstSeq uint64) error {
	path := filepath.Join(l.opt.Dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.f = f
	l.segStart = firstSeq
	l.segBytes = 0
	l.segments++
	if l.met != nil {
		l.met.rotations.Inc()
	}
	return nil
}

// Append assigns rec the next sequence number and writes it to the
// active segment (reaching the OS before return; durability is
// Commit's job). The returned sequence is what Commit waits on.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Seq = l.seq + 1
	buf, err := appendFrame(l.buf[:0], rec)
	if err != nil {
		return 0, err
	}
	l.buf = buf
	return l.write(rec.Seq, buf)
}

// AppendExact logs a leader's record payload unchanged under its own
// sequence seq — the replication apply path — so resume cursors and
// read-your-writes tokens mean the same thing on every replica. seq
// must be exactly the next sequence; anything else is a stream
// consistency bug and is refused without touching the log.
func (l *Log) AppendExact(seq uint64, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq != l.seq+1 {
		return 0, fmt.Errorf("wal: append exact: record seq %d, log expects %d", seq, l.seq+1)
	}
	hdr := frameHeader(payload)
	l.buf = append(append(l.buf[:0], hdr[:]...), payload...)
	return l.write(seq, l.buf)
}

// write puts buf, the frame of record seq, into the active segment,
// rotating first when the frame would overflow it.
//
//predmatchvet:holds mu
func (l *Log) write(seq uint64, buf []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.sticky(); err != nil {
		return 0, err
	}
	if l.segBytes > 0 && l.segBytes+int64(len(buf)) > l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			l.fail(err)
			return 0, err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		// A short write leaves a torn frame at the segment tail; recovery
		// truncates it, which is exactly why the sequence number is not
		// advanced here.
		err = fmt.Errorf("wal: append: %w", err)
		l.fail(err)
		return 0, err
	}
	l.seq = seq
	l.segBytes += int64(len(buf))
	l.bumpSeq()
	if l.met != nil {
		l.met.records.Inc()
		l.met.bytes.Add(uint64(len(buf)))
	}
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return l.seq, nil
}

// rotate makes the active segment durable, closes it, and opens the
// next one. Callers hold mu.
//
//predmatchvet:holds mu
func (l *Log) rotate() error {
	// An off-lock fsync may hold the file; closing it mid-flush would
	// hand Sync a stale fd. Wait releases mu, so the flusher can finish.
	for l.flushing {
		l.flushCnd.Wait()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	// Everything appended so far now lives in fsynced, closed segments.
	l.advanceDurable(l.seq)
	return l.openSegment(l.seq + 1)
}

// Commit blocks until rec's sequence is durable under the configured
// policy: under SyncAlways it waits for the covering group fsync; under
// SyncInterval and SyncOff it returns immediately (the record already
// reached the OS in Append).
func (l *Log) Commit(seq uint64) error {
	if l.opt.Sync != SyncAlways {
		l.syncMu.Lock()
		defer l.syncMu.Unlock()
		return l.failed
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for l.durable < seq && l.failed == nil {
		l.syncCnd.Wait()
	}
	if l.durable >= seq {
		return nil
	}
	return l.failed
}

// sticky returns the first write/fsync failure, after which the log
// refuses further work: a WAL that cannot persist must not keep acking.
func (l *Log) sticky() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.failed
}

// fail records the first terminal error and wakes every committer.
func (l *Log) fail(err error) {
	l.syncMu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.syncCnd.Broadcast()
	l.syncMu.Unlock()
}

// advanceDurable publishes a new durability frontier.
func (l *Log) advanceDurable(seq uint64) {
	l.syncMu.Lock()
	if seq > l.durable {
		l.durable = seq
	}
	l.syncCnd.Broadcast()
	l.syncMu.Unlock()
}

// syncLoop drives fsyncs: on every append kick under SyncAlways, on a
// timer under SyncInterval, never under SyncOff.
func (l *Log) syncLoop() {
	defer close(l.loopDone)
	switch l.opt.Sync {
	case SyncAlways:
		for {
			select {
			case <-l.kick:
				// The kick arrives after the *first* append of a cohort. Yield
				// before flushing so every already-runnable appender (typically
				// committers just woken by the previous flush) gets to append
				// first — an append costs ~1µs against an ~100µs fsync, so one
				// scheduling round turns N waiting writers into one batch
				// instead of N near-empty flushes.
				runtime.Gosched()
				l.syncOnce()
			case <-l.done:
				return
			}
		}
	case SyncInterval:
		t := time.NewTicker(l.opt.SyncEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				l.syncOnce()
			case <-l.done:
				return
			}
		}
	case SyncOff:
		<-l.done
	default:
		// Options.fill and ParseSyncPolicy admit only the three policies;
		// anything else is a construction bug, not a runtime state.
		<-l.done
	}
}

// syncOnce fsyncs the active segment, advancing the durability frontier
// to everything appended before the flush started. The fsync runs with
// mu *released* under the flushing flag: appenders arriving meanwhile
// write to the segment unimpeded and the next flush covers them all at
// once — the group-commit batch. Only rotate/Close wait for the flag,
// because they close the file the flush is using.
func (l *Log) syncOnce() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	target := l.seq
	f := l.f
	l.syncMu.Lock()
	cur, failed := l.durable, l.failed
	l.syncMu.Unlock()
	if failed != nil || target <= cur {
		l.mu.Unlock()
		return
	}
	l.flushing = true
	l.mu.Unlock()

	t0 := time.Now()
	err := f.Sync()
	if l.met != nil {
		l.met.fsyncs.Inc()
		l.met.fsyncSecs.ObserveSince(t0)
	}

	l.mu.Lock()
	l.flushing = false
	l.flushCnd.Broadcast()
	l.mu.Unlock()

	if err != nil {
		l.fail(fmt.Errorf("wal: fsync: %w", err))
		return
	}
	l.advanceDurable(target)
}

// bumpSeq wakes every WaitSeq waiter after the published sequence
// moved (or the log closed).
//
//predmatchvet:holds mu
func (l *Log) bumpSeq() {
	if l.seqWait != nil {
		close(l.seqWait)
		l.seqWait = nil
	}
}

// WaitSeq blocks until the log's published sequence exceeds after, the
// stop channel fires, or the log closes. It returns the current last
// sequence and true when the condition holds; (0, false) on stop or
// close. This is the leader-side pacing primitive for replication
// tails: a caught-up Tail parks here instead of polling.
func (l *Log) WaitSeq(after uint64, stop <-chan struct{}) (uint64, bool) {
	for {
		l.mu.Lock()
		if l.seq > after {
			seq := l.seq
			l.mu.Unlock()
			return seq, true
		}
		if l.closed {
			l.mu.Unlock()
			return 0, false
		}
		if l.seqWait == nil {
			l.seqWait = make(chan struct{})
		}
		ch := l.seqWait
		l.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return 0, false
		}
	}
}

// Advance repositions an empty log so appends resume at seq+1. This is
// the bootstrap step for a follower installing a leader snapshot into a
// fresh directory: the snapshot covers sequences 1..seq, so the local
// log must number its first record seq+1 to keep leader and follower
// sequence spaces identical. Only a log with no records is eligible —
// advancing over existing history would orphan it.
func (l *Log) Advance(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.sticky(); err != nil {
		return err
	}
	if l.seq != 0 || l.segBytes != 0 {
		return fmt.Errorf("wal: advance: log is not empty (seq %d)", l.seq)
	}
	if seq == 0 {
		return nil
	}
	for l.flushing {
		l.flushCnd.Wait()
	}
	old := filepath.Join(l.opt.Dir, segmentName(l.segStart))
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: advance: %w", err)
	}
	if err := os.Remove(old); err != nil {
		return fmt.Errorf("wal: advance: %w", err)
	}
	l.segments--
	if err := l.openSegment(seq + 1); err != nil {
		return err
	}
	if err := syncDir(l.opt.Dir); err != nil {
		return err
	}
	l.seq = seq
	l.bumpSeq()
	l.advanceDurable(seq)
	return nil
}

// NewestSnapshot returns the sequence and the validated payload of the
// newest readable snapshot in the log directory, or (0, nil) when none
// exists. The leader ships the payload to a follower whose resume
// cursor predates the pruned tail.
func (l *Log) NewestSnapshot() (uint64, []byte, error) {
	_, snaps, err := scanDir(l.opt.Dir)
	if err != nil {
		return 0, nil, err
	}
	snap, payload, _ := loadNewestSnapshot(l.opt, snaps)
	if snap == nil {
		return 0, nil, nil
	}
	return snap.Seq, payload, nil
}

// LastSeq returns the last assigned sequence number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// DurableSeq returns the last sequence known to be fsynced.
func (l *Log) DurableSeq() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.durable
}

// Segments returns the number of segment files on disk.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments
}

// SnapshotSeq returns the sequence of the latest snapshot written or
// recovered through this log (0 = none).
func (l *Log) SnapshotSeq() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.lastSnapSeq
}

// noteSnapshot publishes snapshot metadata for the stats/metrics
// surface.
func (l *Log) noteSnapshot(seq uint64, at time.Time) {
	l.syncMu.Lock()
	if seq >= l.lastSnapSeq {
		l.lastSnapSeq = seq
		l.lastSnapTime = at.UnixNano()
	}
	l.syncMu.Unlock()
}

// snapshotAge returns the seconds since the last snapshot, or 0 when
// none exists yet.
func (l *Log) snapshotAge() float64 {
	l.syncMu.Lock()
	t := l.lastSnapTime
	l.syncMu.Unlock()
	if t == 0 {
		return 0
	}
	return time.Since(time.Unix(0, t)).Seconds()
}

// Close stops the sync loop, makes every appended record durable, and
// closes the active segment. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	close(l.done)
	<-l.loopDone

	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.bumpSeq() // wake WaitSeq waiters so tails observe the close
	// The sync loop has exited, so no off-lock flush should be running;
	// the wait costs nothing then and protects any future direct caller
	// of syncOnce.
	for l.flushing {
		l.flushCnd.Wait()
	}
	if l.f == nil {
		return nil
	}
	var firstErr error
	if err := l.f.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr == nil {
		l.advanceDurable(l.seq)
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	l.f = nil
	return firstErr
}

// Prune deletes snapshot and segment files made obsolete by a durable
// snapshot at snapSeq: every older snapshot, and every segment whose
// records all have sequence <= snapSeq (determined from the next
// segment's first sequence). The active segment is never deleted.
func (l *Log) Prune(snapSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	firsts, snaps, err := scanDir(l.opt.Dir)
	if err != nil {
		return err
	}
	for _, seq := range snaps {
		if seq < snapSeq {
			if err := os.Remove(filepath.Join(l.opt.Dir, snapshotName(seq))); err != nil {
				return err
			}
		}
	}
	for i := 0; i+1 < len(firsts); i++ {
		// Segment i covers [firsts[i], firsts[i+1]-1]; deletable when the
		// snapshot covers that whole range. firsts[len-1] is the active
		// segment and always stays.
		if firsts[i+1] > snapSeq+1 {
			break
		}
		if err := os.Remove(filepath.Join(l.opt.Dir, segmentName(firsts[i]))); err != nil {
			return err
		}
		l.segments--
	}
	return syncDir(l.opt.Dir)
}

// syncDir fsyncs a directory so renames and removals within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
