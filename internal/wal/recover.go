// Crash recovery: load the newest readable snapshot, replay the log
// tail after it, truncate a torn final record, and hand back an open
// Log ready to append. This is the only constructor for a Log — a
// durable daemon always starts by recovering, even from an empty
// directory.

package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Handler receives the recovered state. Both callbacks are optional
// (predmatch restore inspects RecoveryInfo only).
type Handler struct {
	// LoadSnapshot installs the snapshot state; called at most once,
	// before any Apply.
	LoadSnapshot func(*Snapshot) error
	// Apply replays one log record, in sequence order, each exactly once.
	Apply func(*Record) error
}

// RecoveryInfo summarizes what Recover did.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence of the snapshot loaded (0 = none).
	SnapshotSeq uint64
	// SnapshotsSkipped counts unreadable (torn/corrupt) snapshots that
	// were passed over for an older one.
	SnapshotsSkipped int
	// RecordsReplayed counts records handed to Apply.
	RecordsReplayed uint64
	// TruncatedBytes is the size of the discarded torn tail, if any.
	TruncatedBytes int64
	// LastSeq is the log's last sequence after recovery; appends resume
	// at LastSeq+1.
	LastSeq uint64
}

// Recover replays the durable state in opt.Dir (created if missing)
// through h and returns the log opened for appending.
//
// Corruption policy: an unreadable snapshot falls back to the previous
// one; a torn or corrupt record at the tail of the *last* segment is
// truncated silently (a crash mid-append is normal operation, not
// damage); the same corruption in an interior segment is a hard error,
// because records after it exist and replaying around a hole would
// resurrect a state no client ever observed.
func Recover(opt Options, h Handler) (*Log, RecoveryInfo, error) {
	opt.fill()
	var info RecoveryInfo
	if opt.Dir == "" {
		return nil, info, fmt.Errorf("wal: no data directory")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, info, err
	}

	segs, snaps, err := scanDir(opt.Dir)
	if err != nil {
		return nil, info, err
	}
	snap, _, skipped := loadNewestSnapshot(opt, snaps)
	info.SnapshotsSkipped = skipped
	if snap != nil {
		info.SnapshotSeq = snap.Seq
		if h.LoadSnapshot != nil {
			if err := h.LoadSnapshot(snap); err != nil {
				return nil, info, fmt.Errorf("wal: load snapshot %d: %w", snap.Seq, err)
			}
		}
	}

	lastSeq := info.SnapshotSeq
	live := len(segs) // segment files left once empty ones are removed
	var next uint64   // expected next sequence; 0 until the first record
	for i, firstSeq := range segs {
		path := filepath.Join(opt.Dir, segmentName(firstSeq))
		f, err := os.Open(path)
		if err != nil {
			return nil, info, err
		}
		first := true
		valid, torn, err := scanRecords(f, func(rec *Record) error {
			if first {
				first = false
				if rec.Seq != firstSeq {
					return fmt.Errorf("wal: segment %s starts at seq %d", filepath.Base(path), rec.Seq)
				}
				if next == 0 && info.SnapshotSeq > 0 && rec.Seq > info.SnapshotSeq+1 {
					return fmt.Errorf("wal: gap between snapshot %d and first record %d", info.SnapshotSeq, rec.Seq)
				}
				if next == 0 && info.SnapshotSeq == 0 && rec.Seq != 1 {
					// No snapshot justifies a log that starts mid-history
					// (deleted snapshots, or a follower bootstrap that
					// advanced the log without persisting one).
					return fmt.Errorf("wal: log starts at seq %d with no snapshot", rec.Seq)
				}
			}
			if next != 0 && rec.Seq != next {
				return fmt.Errorf("wal: sequence gap: want %d, got %d", next, rec.Seq)
			}
			next = rec.Seq + 1
			if rec.Seq > lastSeq {
				lastSeq = rec.Seq
			}
			if rec.Seq <= info.SnapshotSeq || h.Apply == nil {
				return nil // already covered by the snapshot
			}
			info.RecordsReplayed++
			return h.Apply(rec)
		})
		f.Close()
		if err != nil {
			return nil, info, err
		}
		if torn {
			if i != len(segs)-1 {
				return nil, info, fmt.Errorf("wal: corrupt record inside interior segment %s", filepath.Base(path))
			}
			st, err := os.Stat(path)
			if err != nil {
				return nil, info, err
			}
			info.TruncatedBytes = st.Size() - valid
			if err := os.Truncate(path, valid); err != nil {
				return nil, info, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			opt.Logger.Info("wal torn tail truncated",
				"segment", filepath.Base(path), "bytes", info.TruncatedBytes)
		}
		// The file now holds exactly its valid prefix. An empty tail
		// segment (crash before its first append, or a fully-torn one
		// just truncated) is removed so the fresh active segment can
		// reuse its first-sequence name.
		if valid == 0 {
			if err := os.Remove(path); err != nil {
				return nil, info, err
			}
			live--
		}
	}
	info.LastSeq = lastSeq

	l, err := openLog(opt, lastSeq, live)
	if err != nil {
		return nil, info, err
	}
	if snap != nil && snap.TakenUnixNano > 0 {
		// Republish for the age gauge; the time is the snapshot's own.
		l.noteSnapshot(snap.Seq, time.Unix(0, snap.TakenUnixNano))
	}
	if l.met != nil {
		l.met.recoveries.Inc()
		l.met.recoveredRecords.Add(info.RecordsReplayed)
		l.met.truncatedBytes.Add(uint64(info.TruncatedBytes))
	}
	opt.Logger.Info("wal recovered",
		"snapshot_seq", info.SnapshotSeq,
		"records_replayed", info.RecordsReplayed,
		"truncated_bytes", info.TruncatedBytes,
		"last_seq", info.LastSeq)
	return l, info, nil
}

// loadNewestSnapshot returns the newest readable snapshot among seqs
// (newest first), with the payload it was decoded from and the number
// of newer ones skipped, each with a log line, for failing validation.
func loadNewestSnapshot(opt Options, seqs []uint64) (*Snapshot, []byte, int) {
	for i, seq := range seqs {
		snap, payload, err := readCheckpoint(filepath.Join(opt.Dir, snapshotName(seq)))
		if err != nil {
			opt.Logger.Warn("wal snapshot unreadable, falling back", "seq", seq, "err", err)
			continue
		}
		return snap, payload, i
	}
	return nil, nil, len(seqs)
}

// scanDir lists the log directory — its only listing: the first
// sequences of its segment files, ascending, and the sequences of its
// checkpoints, newest first. os.ReadDir sorts by name, and both kinds
// of name carry a fixed-width sequence, so name order is sequence
// order.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
		}
	}
	slices.Reverse(snaps)
	return segs, snaps, nil
}
