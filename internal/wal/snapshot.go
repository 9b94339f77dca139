// Checkpoint snapshots: the whole engine state as of one log sequence,
// serialized to snap-<seq>.ckpt as one frame of the codec log records
// use. A snapshot bounds recovery time and lets the covered
// segments be deleted.

package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"predmatch/internal/wire"
)

// snapshotVersion guards the on-disk schema; a reader refuses a version
// it does not know instead of misinterpreting the payload.
const snapshotVersion = 1

// SnapRow is one stored tuple: its ID and the wire form of its values.
type SnapRow struct {
	ID    int64      `json:"id"`
	Tuple wire.Tuple `json:"tuple"`
}

// SnapRelation is one relation's schema and contents. A checkpoint
// from an older daemon may also carry an "indexes" key, which decoding
// ignores.
type SnapRelation struct {
	Name   string      `json:"name"`
	Attrs  []wire.Attr `json:"attrs"`
	NextID int64       `json:"next_id"`
	Rows   []SnapRow   `json:"rows"`
}

// SnapPred is one direct predicate with its server-assigned ID.
type SnapPred struct {
	ID   int64          `json:"id"`
	Pred wire.Predicate `json:"pred"`
}

// Snapshot is the full durable state at log sequence Seq: everything
// recovery needs to rebuild the catalog, relations, rule network, and
// direct-predicate registry before replaying the log tail.
type Snapshot struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	// TakenUnixNano records when the snapshot was captured (0 if the
	// writer predates the field).
	TakenUnixNano int64          `json:"taken_unix_nano,omitempty"`
	Relations     []SnapRelation `json:"relations"`
	// Rules holds the rule source texts; the engine re-parses them on
	// load. Sorted by rule name, which is safe because rule semantics are
	// order-insensitive (priority lives in the source text).
	Rules []string `json:"rules,omitempty"`
	// Preds holds direct predicates (the wire addpred registry) with
	// their IDs, so subscriber predicate IDs stay stable across restart.
	Preds []SnapPred `json:"preds,omitempty"`
	// NextPredID is the server's direct-predicate ID allocator cursor.
	NextPredID int64 `json:"next_pred_id,omitempty"`
}

// WriteSnapshot persists snap as snap-<snap.Seq>.ckpt in the log
// directory (writeCheckpoint) and records it for the age gauge. The
// caller prunes separately (Prune) once the snapshot is durable.
func (l *Log) WriteSnapshot(snap *Snapshot) (string, int64, error) {
	t0 := time.Now()
	snap.Version = snapshotVersion
	if snap.TakenUnixNano == 0 {
		snap.TakenUnixNano = t0.UnixNano()
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return "", 0, fmt.Errorf("wal: encode snapshot: %w", err)
	}
	return l.writeSnapshot(snap.Seq, payload, t0)
}

// WriteSnapshotPayload persists payload, a snapshot's encoding exactly
// as another log's checkpoint holds it, as this log's checkpoint for
// seq: the follower bootstrap path, which keeps the leader's bytes.
func (l *Log) WriteSnapshotPayload(seq uint64, payload []byte) (string, int64, error) {
	return l.writeSnapshot(seq, payload, time.Now())
}

// writeSnapshot refuses once the log has failed: the in-memory state a
// checkpoint captures may then hold an effect whose append or fsync
// failed, and whose client got an error.
func (l *Log) writeSnapshot(seq uint64, payload []byte, t0 time.Time) (string, int64, error) {
	if err := l.Err(); err != nil {
		return "", 0, err
	}
	path, err := writeCheckpoint(l.opt.Dir, seq, payload)
	if err != nil {
		return "", 0, fmt.Errorf("wal: write snapshot: %w", err)
	}
	l.noteSnapshot(seq, t0)
	if l.met != nil {
		l.met.snapshots.Inc()
		l.met.snapshotSecs.ObserveSince(t0)
	}
	n := int64(len(payload) + headerBytes)
	l.opt.Logger.Info("wal snapshot written",
		"seq", seq, "bytes", n, "elapsed", time.Since(t0))
	return path, n, nil
}

// writeCheckpoint frames payload into dir's checkpoint file for seq so
// that a crash leaves either no file under its name or the complete
// one: written to a temp file, fsynced, renamed into place, and the
// directory fsynced. A checkpoint write, `predmatch restore` and
// follower bootstrap all install checkpoints through it.
func writeCheckpoint(dir string, seq uint64, payload []byte) (string, error) {
	path := filepath.Join(dir, snapshotName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	hdr := frameHeader(payload)
	if _, err = f.Write(hdr[:]); err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// ReadSnapshot loads and validates one checkpoint file. Any framing or
// checksum failure is an error; callers (recovery, predmatch restore)
// decide whether to fall back to an older snapshot.
func ReadSnapshot(path string) (*Snapshot, error) {
	snap, _, err := readCheckpoint(path)
	return snap, err
}

// readCheckpoint reads the checkpoint file at path once and returns it
// decoded together with the payload it validated.
func readCheckpoint(path string) (*Snapshot, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	payload, ok := framePayload(raw)
	if !ok {
		return nil, nil, fmt.Errorf("wal: snapshot %s: torn or corrupt frame", filepath.Base(path))
	}
	snap, err := UnmarshalSnapshot(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	return snap, payload, nil
}

// UnmarshalSnapshot decodes a snapshot payload — a checkpoint file's,
// or the snap field of a replication frame — and refuses a version it
// does not know.
func UnmarshalSnapshot(payload []byte) (*Snapshot, error) {
	snap := new(Snapshot)
	if err := unmarshal(payload, snap); err != nil {
		return nil, err
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", snap.Version)
	}
	return snap, nil
}

// InstallSnapshot seeds a fresh data directory from a checkpoint file
// (the `predmatch restore` operation): read and validate the snapshot,
// refuse a directory that already holds durable state (restoring over a
// live history would silently discard it), then write the payload it
// validated through writeCheckpoint. The source is read once, so a
// change to it after validation cannot reach the directory. A daemon
// recovering the directory afterwards starts from the snapshot with an
// empty log tail and appends resuming at Seq+1.
func InstallSnapshot(dir, srcPath string) (*Snapshot, error) {
	snap, payload, err := readCheckpoint(srcPath)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 || len(snaps) > 0 {
		return nil, fmt.Errorf("wal: %s already holds durable state (%d segments, %d snapshots); refusing to restore over it", dir, len(segs), len(snaps))
	}
	if _, err := writeCheckpoint(dir, snap.Seq, payload); err != nil {
		return nil, fmt.Errorf("wal: install snapshot: %w", err)
	}
	return snap, nil
}
