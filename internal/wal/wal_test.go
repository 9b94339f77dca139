package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"predmatch/internal/obs"
	"predmatch/internal/value"
	"predmatch/internal/wire"
)

func testOptions(t *testing.T, sync SyncPolicy) Options {
	t.Helper()
	return Options{Dir: t.TempDir(), Sync: sync}
}

// openEmpty recovers an empty directory into a fresh log.
func openEmpty(t *testing.T, opt Options) *Log {
	t.Helper()
	l, info, err := Recover(opt, Handler{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.LastSeq != 0 || info.RecordsReplayed != 0 {
		t.Fatalf("fresh dir recovered state: %+v", info)
	}
	return l
}

func mutateRecord(rel string, id int64, vals ...any) *Record {
	return &Record{Kind: KindMutate, Events: []Event{{Rel: rel, Op: "insert", ID: id, Tuple: wireTuple(vals...)}}}
}

// wireTuple builds a wire tuple from Go literals.
func wireTuple(vals ...any) wire.Tuple {
	t := make(wire.Tuple, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case string:
			t[i] = value.String_(v)
		case int:
			t[i] = value.Int(int64(v))
		case int64:
			t[i] = value.Int(v)
		case float64:
			t[i] = value.Float(v)
		case bool:
			t[i] = value.Bool(v)
		default:
			panic(fmt.Sprintf("wireTuple: unsupported literal %T", v))
		}
	}
	return t
}

// replayAll recovers opt.Dir collecting every replayed record.
func replayAll(t *testing.T, opt Options) (*Log, RecoveryInfo, []*Record) {
	t.Helper()
	var recs []*Record
	l, info, err := Recover(opt, Handler{Apply: func(r *Record) error {
		cp := *r
		recs = append(recs, &cp)
		return nil
	}})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return l, info, recs
}

func TestAppendCommitReplay(t *testing.T) {
	opt := testOptions(t, SyncAlways)
	l := openEmpty(t, opt)
	for i := 1; i <= 20; i++ {
		seq, err := l.Append(mutateRecord("emp", int64(i), "e", i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d: seq %d", i, seq)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	if got := l.DurableSeq(); got != 20 {
		t.Fatalf("DurableSeq = %d, want 20", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Append(&Record{Kind: KindRule}); err != ErrClosed {
		t.Fatalf("Append after Close: err = %v, want ErrClosed", err)
	}

	l2, info, recs := replayAll(t, opt)
	defer l2.Close()
	if info.LastSeq != 20 || info.RecordsReplayed != 20 || info.TruncatedBytes != 0 {
		t.Fatalf("recovery info: %+v", info)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Kind != KindMutate {
			t.Fatalf("record %d: seq=%d kind=%q", i, rec.Seq, rec.Kind)
		}
		if rec.Events[0].ID != int64(i+1) {
			t.Fatalf("record %d: event id %d", i, rec.Events[0].ID)
		}
	}
	// Appends resume after the recovered tail.
	seq, err := l2.Append(&Record{Kind: KindRule, Source: "rule r ..."})
	if err != nil || seq != 21 {
		t.Fatalf("post-recovery Append: seq=%d err=%v", seq, err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			opt := testOptions(t, policy)
			l := openEmpty(t, opt)
			for i := 0; i < 5; i++ {
				seq, err := l.Append(mutateRecord("r", int64(i)))
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				if err := l.Commit(seq); err != nil {
					t.Fatalf("Commit: %v", err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2, info, _ := replayAll(t, opt)
			l2.Close()
			if info.LastSeq != 5 {
				t.Fatalf("%s: recovered LastSeq = %d, want 5", policy, info.LastSeq)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, ok := range []string{"always", "interval", "off"} {
		if _, err := ParseSyncPolicy(ok); err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	opt := testOptions(t, SyncAlways)
	opt.Registry = obs.NewRegistry()
	l := openEmpty(t, opt)
	defer l.Close()

	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := l.Append(mutateRecord("emp", int64(g*each+i)))
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	if got := l.LastSeq(); got != goroutines*each {
		t.Fatalf("LastSeq = %d, want %d", got, goroutines*each)
	}
	if got := l.DurableSeq(); got != goroutines*each {
		t.Fatalf("DurableSeq = %d, want %d", got, goroutines*each)
	}
}

func TestSegmentRotationAndRecovery(t *testing.T) {
	opt := testOptions(t, SyncOff)
	opt.SegmentBytes = 256 // force frequent rotation
	l := openEmpty(t, opt)
	const n = 50
	for i := 1; i <= n; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i), "padpadpadpad", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("Segments = %d, want several at 256-byte rotation", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	opt2 := opt
	l2, info, recs := replayAll(t, opt2)
	defer l2.Close()
	if info.LastSeq != n || len(recs) != n {
		t.Fatalf("recovered %d records, LastSeq %d; want %d", len(recs), info.LastSeq, n)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("replay out of order at %d: seq %d", i, rec.Seq)
		}
	}
}

// corruptTail flips a byte inside the last len-th record region of the
// last segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, err := scanDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("scanDir: %v (%d)", err, len(segs))
	}
	return filepath.Join(dir, segmentName(segs[len(segs)-1]))
}

func TestTornTailTruncated(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Chop the last record mid-payload: a torn tail.
	path := lastSegment(t, opt.Dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, info, recs := replayAll(t, opt)
	if info.LastSeq != 9 || len(recs) != 9 {
		t.Fatalf("after torn tail: LastSeq=%d replayed=%d, want 9", info.LastSeq, len(recs))
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes = 0, want the torn record's size")
	}
	// The log must keep working: append record 10 and recover again.
	if seq, err := l2.Append(mutateRecord("emp", 99)); err != nil || seq != 10 {
		t.Fatalf("Append after truncation: seq=%d err=%v", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, info3, _ := replayAll(t, opt)
	l3.Close()
	if info3.LastSeq != 10 || info3.TruncatedBytes != 0 {
		t.Fatalf("second recovery: %+v", info3)
	}
}

func TestBitFlipStopsReplayAtTail(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	path := lastSegment(t, opt.Dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the final record: its CRC fails, replay
	// stops before it, and the tail (header onward) is truncated.
	// Find the final record's start by walking frames.
	off := 0
	for {
		length := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		if off+headerBytes+length == len(raw) {
			break
		}
		off += headerBytes + length
	}
	raw[off+headerBytes] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, info, recs := replayAll(t, opt)
	defer l2.Close()
	if len(recs) != 4 || info.LastSeq != 4 {
		t.Fatalf("bit flip: replayed %d, LastSeq %d; want 4", len(recs), info.LastSeq)
	}
	if info.TruncatedBytes != int64(len(raw)-off) {
		t.Fatalf("TruncatedBytes = %d, want %d", info.TruncatedBytes, len(raw)-off)
	}
}

func TestInteriorCorruptionIsFatal(t *testing.T) {
	opt := testOptions(t, SyncOff)
	opt.SegmentBytes = 128
	l := openEmpty(t, opt)
	for i := 1; i <= 30; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i), "padding-padding")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, err := scanDir(opt.Dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(segs), err)
	}
	// Corrupt the first (interior) segment's first record payload.
	path := filepath.Join(opt.Dir, segmentName(segs[0]))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerBytes] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(opt, Handler{}); err == nil {
		t.Fatal("Recover tolerated interior corruption")
	}
}

func TestSequenceGapIsFatal(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Hand-append a frame with a gapped sequence number.
	path := lastSegment(t, opt.Dir)
	frame, err := appendFrame(nil, &Record{Seq: 9, Kind: KindRule})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame)
	f.Close()
	if _, _, err := Recover(opt, Handler{}); err == nil {
		t.Fatal("Recover tolerated a sequence gap")
	}
}

func TestEmptyTailSegmentRemoved(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	if _, err := l.Append(mutateRecord("emp", 1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Recover (which opens a fresh empty active segment) and close
	// without appending: the empty segment must not break the next
	// recovery or collide with its successor.
	for i := 0; i < 3; i++ {
		l2, info, _ := replayAll(t, opt)
		if info.LastSeq != 1 {
			t.Fatalf("pass %d: LastSeq = %d", i, info.LastSeq)
		}
		l2.Close()
	}
}

func TestStickyErrorPoisonsLog(t *testing.T) {
	opt := testOptions(t, SyncAlways)
	l := openEmpty(t, opt)
	defer l.Close()
	l.fail(fmt.Errorf("simulated disk failure"))
	if _, err := l.Append(mutateRecord("emp", 1)); err == nil {
		t.Fatal("Append succeeded on a failed log")
	}
	if err := l.Commit(1); err == nil {
		t.Fatal("Commit succeeded on a failed log")
	}
}

// TestFailedLogWritesNoCheckpoint: after a failed append or fsync the
// in-memory state may hold an effect whose client got an error, so no
// checkpoint may persist it — neither one the server captures
// (WriteSnapshot) nor a leader's bytes (WriteSnapshotPayload).
func TestFailedLogWritesNoCheckpoint(t *testing.T) {
	opt := testOptions(t, SyncAlways)
	l := openEmpty(t, opt)
	defer l.Close()
	failure := fmt.Errorf("simulated disk failure")
	l.fail(failure)
	if _, err := l.Append(mutateRecord("emp", 1)); err == nil {
		t.Fatal("Append succeeded on a failed log")
	}
	if _, _, err := l.WriteSnapshot(testSnapshot(1)); err != failure {
		t.Errorf("WriteSnapshot on a failed log: err = %v, want %v", err, failure)
	}
	if _, _, err := l.WriteSnapshotPayload(1, []byte(`{"version":1,"seq":1}`)); err != failure {
		t.Errorf("WriteSnapshotPayload on a failed log: err = %v, want %v", err, failure)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(opt.Dir, "snap-*")); len(ckpts) != 0 {
		t.Errorf("a failed log wrote checkpoint files %v", ckpts)
	}
	if l.SnapshotSeq() != 0 {
		t.Errorf("SnapshotSeq = %d after refused checkpoints", l.SnapshotSeq())
	}
}

func TestCRCDetectsFlip(t *testing.T) {
	frame, err := appendFrame(nil, mutateRecord("emp", 7, "x"))
	if err != nil {
		t.Fatal(err)
	}
	sum := binary.LittleEndian.Uint32(frame[4:8])
	if crc32.Checksum(frame[headerBytes:], castagnoli) != sum {
		t.Fatal("checksum does not round-trip")
	}
	frame[len(frame)-1] ^= 0x80
	if crc32.Checksum(frame[headerBytes:], castagnoli) == sum {
		t.Fatal("checksum missed a bit flip")
	}
}
