package wal

import (
	"errors"
	"testing"
	"time"
)

// nextRecord calls Next and decodes the payload it returns, failing
// the test when the payload's own sequence is not the one Next
// reported.
func nextRecord(t *testing.T, tl *Tail, stop <-chan struct{}) (*Record, error) {
	seq, payload, err := tl.Next(stop)
	if err != nil {
		return nil, err
	}
	rec, err := UnmarshalRecord(payload)
	if err != nil {
		return nil, err
	}
	if rec.Seq != seq {
		t.Errorf("Next reported seq %d for a payload of seq %d", seq, rec.Seq)
	}
	return rec, nil
}

// drainTail collects n records from the tail, failing the test on any
// error or a stall past the deadline.
func drainTail(t *testing.T, tl *Tail, n int) []*Record {
	t.Helper()
	type result struct {
		rec *Record
		err error
	}
	out := make([]*Record, 0, n)
	for len(out) < n {
		ch := make(chan result, 1)
		go func() {
			rec, err := nextRecord(t, tl, nil)
			ch <- result{rec, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("Next after %d records: %v", len(out), r.err)
			}
			out = append(out, r.rec)
		case <-time.After(5 * time.Second):
			t.Fatalf("Next stalled after %d records", len(out))
		}
	}
	return out
}

func TestTailStreamsExistingAndLive(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i), "e", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	tl, err := l.OpenTail(1)
	if err != nil {
		t.Fatalf("OpenTail: %v", err)
	}
	defer tl.Close()
	recs := drainTail(t, tl, 5)
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, rec.Seq)
		}
	}

	// The tail is caught up; a Next must block until a live append.
	got := make(chan *Record, 1)
	errc := make(chan error, 1)
	go func() {
		rec, err := nextRecord(t, tl, nil)
		if err != nil {
			errc <- err
			return
		}
		got <- rec
	}()
	select {
	case rec := <-got:
		t.Fatalf("Next returned %+v before any append", rec)
	case err := <-errc:
		t.Fatalf("Next: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := l.Append(mutateRecord("emp", 6, "e", 6)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	select {
	case rec := <-got:
		if rec.Seq != 6 {
			t.Fatalf("live record seq %d, want 6", rec.Seq)
		}
	case err := <-errc:
		t.Fatalf("Next: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not observe the live append")
	}
}

func TestTailResumeMidSegmentAndRotation(t *testing.T) {
	opt := testOptions(t, SyncOff)
	opt.SegmentBytes = 256 // force rotations every few records
	l := openEmpty(t, opt)
	defer l.Close()
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i), "employee-name-padding", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("want >= 3 segments, got %d", l.Segments())
	}

	// Resume from the middle: the tail must discard the prefix of its
	// starting segment and then cross every rotation boundary.
	tl, err := l.OpenTail(17)
	if err != nil {
		t.Fatalf("OpenTail(17): %v", err)
	}
	defer tl.Close()
	recs := drainTail(t, tl, 24)
	for i, rec := range recs {
		if want := uint64(17 + i); rec.Seq != want {
			t.Fatalf("record %d: seq %d, want %d", i, rec.Seq, want)
		}
	}
}

func TestTailStopAndClose(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	tl, err := l.OpenTail(1)
	if err != nil {
		t.Fatalf("OpenTail: %v", err)
	}
	defer tl.Close()

	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := tl.Next(stop)
		errc <- err
	}()
	close(stop)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Next after stop: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next ignored stop")
	}

	// A blocked Next must also observe the log closing.
	go func() {
		_, _, err := tl.Next(nil)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Next after log close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next ignored log close")
	}
}

func TestTailTruncatedByPrune(t *testing.T) {
	opt := testOptions(t, SyncOff)
	opt.SegmentBytes = 256
	l := openEmpty(t, opt)
	defer l.Close()
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(mutateRecord("emp", int64(i), "employee-name-padding", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if _, _, err := l.WriteSnapshot(&Snapshot{Seq: 30}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := l.Prune(30); err != nil {
		t.Fatalf("Prune: %v", err)
	}

	// Sequence 1 is gone; the tail must say so rather than stream a gap.
	if _, err := l.OpenTail(1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("OpenTail(1) after prune: %v, want ErrTruncated", err)
	}
	// But everything after the snapshot still streams.
	tl, err := l.OpenTail(31)
	if err != nil {
		t.Fatalf("OpenTail(31): %v", err)
	}
	defer tl.Close()
	recs := drainTail(t, tl, 10)
	if recs[0].Seq != 31 || recs[9].Seq != 40 {
		t.Fatalf("resumed range [%d, %d], want [31, 40]", recs[0].Seq, recs[9].Seq)
	}

	// Past-the-end resume is a split brain, not a resume.
	if _, err := l.OpenTail(42); err == nil {
		t.Fatal("OpenTail past the log end succeeded")
	}
}

func TestAppendExact(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	rec := mutateRecord("emp", 1, "e", 1)
	rec.Seq = 3
	if _, err := l.AppendExact(rec.Seq, recordPayload(t, rec)); err == nil {
		t.Fatal("AppendExact with a gap succeeded")
	}
	rec.Seq = 1
	seq, err := l.AppendExact(rec.Seq, recordPayload(t, rec))
	if err != nil || seq != 1 {
		t.Fatalf("AppendExact(1) = %d, %v", seq, err)
	}
	rec2 := mutateRecord("emp", 2, "e", 2)
	rec2.Seq = 2
	if _, err := l.AppendExact(rec2.Seq, recordPayload(t, rec2)); err != nil {
		t.Fatalf("AppendExact(2): %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, info, recs := replayAll(t, opt)
	defer l2.Close()
	if info.LastSeq != 2 || len(recs) != 2 {
		t.Fatalf("recovery after AppendExact: info=%+v records=%d", info, len(recs))
	}
}

// recordPayload is rec's payload as a log frame carries it.
func recordPayload(t *testing.T, rec *Record) []byte {
	t.Helper()
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame[headerBytes:]
}

func TestAdvanceEmptyLog(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	if err := l.Advance(100); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := l.LastSeq(); got != 100 {
		t.Fatalf("LastSeq after Advance = %d", got)
	}
	// Appends must resume in the leader's sequence space.
	seq, err := l.Append(mutateRecord("emp", 1, "e", 1))
	if err != nil || seq != 101 {
		t.Fatalf("Append after Advance = %d, %v", seq, err)
	}
	// A second Advance must refuse: the log has history now.
	if err := l.Advance(200); err == nil {
		t.Fatal("Advance over existing records succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recovery needs the snapshot that justifies the jump, exactly as a
	// follower bootstrap writes one before advancing.
	if _, _, err := Recover(opt, Handler{}); err == nil {
		t.Fatal("Recover with a gap and no snapshot succeeded")
	}
}

func TestAdvanceWithSnapshotRecovers(t *testing.T) {
	opt := testOptions(t, SyncOff)
	l := openEmpty(t, opt)
	if _, _, err := l.WriteSnapshot(&Snapshot{Seq: 50}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := l.Advance(50); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if _, err := l.Append(mutateRecord("emp", 1, "e", 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var snapSeq uint64
	l2, info, err := Recover(opt, Handler{
		LoadSnapshot: func(s *Snapshot) error {
			snapSeq = s.Seq
			return nil
		},
		Apply: func(*Record) error { return nil },
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer l2.Close()
	if snapSeq != 50 || info.LastSeq != 51 || info.RecordsReplayed != 1 {
		t.Fatalf("recovery: snap=%d info=%+v", snapSeq, info)
	}
}
