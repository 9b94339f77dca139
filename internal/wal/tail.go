// Live log tailing: the leader side of replication reads the segment
// files it is itself appending to and streams record payloads, as
// stored, to followers. A Tail never reads past the published sequence
// frontier (Log.WaitSeq), and a frame is fully written — one Write
// syscall in append — before the frontier advances, so a Tail only
// ever reads complete frames. It decodes no payload: a segment's
// records run consecutively from the sequence in its name, so a
// frame's position is its sequence.

package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// ErrTruncated reports that a Tail's requested sequence is no longer on
// disk: pruning removed the covering segment. The caller falls back to
// the newest snapshot and resumes the tail after it.
var ErrTruncated = errors.New("wal: tail: requested sequence no longer on disk")

// Tail is a sequential live reader of the log starting at a chosen
// sequence. Next blocks until the next record is published, following
// segment rotations transparently. A Tail holds its own file handle,
// so it keeps draining even while appends continue, and (on platforms
// with POSIX unlink semantics) survives its current segment being
// pruned mid-read — only opening the *next* segment can then fail with
// ErrTruncated.
//
// A Tail is not safe for concurrent use; each replication stream owns
// one.
type Tail struct {
	l    *Log
	next uint64 // next sequence Next will return: the next frame in f
	f    *os.File
	br   *bufio.Reader
}

// OpenTail positions a new Tail so that the first Next returns fromSeq
// (0 is treated as 1). It fails with ErrTruncated when fromSeq has been
// pruned, and rejects a fromSeq beyond the published end of the log —
// a follower claiming history the leader never wrote is a split brain,
// not a resume.
func (l *Log) OpenTail(fromSeq uint64) (*Tail, error) {
	if fromSeq == 0 {
		fromSeq = 1
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	last := l.seq
	l.mu.Unlock()
	if fromSeq > last+1 {
		return nil, fmt.Errorf("wal: tail from seq %d is past the log end %d", fromSeq, last)
	}
	t := &Tail{l: l, next: fromSeq}
	if err := t.open(fromSeq); err != nil {
		return nil, err
	}
	return t, nil
}

// open positions the tail at seq: it opens the segment whose range
// contains seq and reads past the frames before it, which are published
// and so complete. Rotation keeps the invariant that a segment's name
// is its first sequence, so the right file is the one with the greatest
// first sequence <= seq.
func (t *Tail) open(seq uint64) error {
	segs, _, err := scanDir(t.l.opt.Dir)
	if err != nil {
		return err
	}
	i, found := slices.BinarySearch(segs, seq)
	if !found {
		i-- // the greatest first sequence below seq
	}
	if i < 0 {
		return ErrTruncated
	}
	f, err := os.Open(filepath.Join(t.l.opt.Dir, segmentName(segs[i])))
	if err != nil {
		if os.IsNotExist(err) {
			// Pruned between the listing and the open.
			return ErrTruncated
		}
		return err
	}
	if t.f != nil {
		t.f.Close()
	}
	t.f = f
	t.br = bufio.NewReaderSize(f, 1<<16)
	for at := segs[i]; at < seq; at++ {
		if _, err := readFrame(t.br, maxRecordBytes); err != nil {
			return fmt.Errorf("wal: tail: corrupt frame at seq %d", at)
		}
	}
	return nil
}

// Next returns the sequence and the stored payload of the record at
// the tail's cursor, blocking until it is published. It returns
// ErrClosed when the log closes or stop fires, and ErrTruncated when
// pruning outran the cursor (resume from a snapshot instead).
func (t *Tail) Next(stop <-chan struct{}) (uint64, []byte, error) {
	for {
		// Never read ahead of the published frontier: the frame for
		// t.next is guaranteed complete on disk only once the frontier
		// covers it.
		if _, ok := t.l.WaitSeq(t.next-1, stop); !ok {
			return 0, nil, ErrClosed
		}
		payload, err := readFrame(t.br, maxRecordBytes)
		switch err {
		case nil:
			t.next++
			return t.next - 1, payload, nil
		case io.EOF:
			// Segment exhausted while t.next is published: the log rotated
			// and the record lives in a later segment.
			if err := t.open(t.next); err != nil {
				return 0, nil, err
			}
		default:
			// A torn frame below the published frontier cannot come from a
			// crash (we never read past what append completed); it is disk
			// corruption and the stream cannot continue.
			return 0, nil, fmt.Errorf("wal: tail: corrupt frame at seq %d", t.next)
		}
	}
}

// Close releases the tail's file handle.
func (t *Tail) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}
