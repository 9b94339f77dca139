// Checkpoint snapshots: the whole engine state as of one log sequence,
// serialized to snap-<seq>.ckpt with the same length+CRC32C framing as
// log records. A snapshot bounds recovery time and lets the covered
// segments be deleted.

package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
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

// SnapRelation is one relation's schema, secondary indexes, and
// contents.
type SnapRelation struct {
	Name    string      `json:"name"`
	Attrs   []wire.Attr `json:"attrs"`
	Indexes []string    `json:"indexes,omitempty"`
	NextID  int64       `json:"next_id"`
	Rows    []SnapRow   `json:"rows"`
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
// directory: written to a temp file, fsynced, renamed into place, and
// the directory fsynced — so a crash leaves either the old snapshot set
// or the complete new one, never a half-written checkpoint under the
// real name. It then records the snapshot for the age gauge. The caller
// prunes separately (Prune) once the snapshot is durable.
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
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))

	final := filepath.Join(l.opt.Dir, snapshotName(snap.Seq))
	if err := writeDurable(final, hdr[:], payload); err != nil {
		return "", 0, fmt.Errorf("wal: write snapshot: %w", err)
	}
	l.noteSnapshot(snap.Seq, t0)
	if l.met != nil {
		l.met.snapshots.Inc()
		l.met.snapshotSecs.ObserveSince(t0)
	}
	l.opt.Logger.Info("wal snapshot written",
		"seq", snap.Seq, "bytes", len(payload)+headerBytes,
		"elapsed", time.Since(t0))
	return final, int64(len(payload) + headerBytes), nil
}

// writeDurable writes parts, concatenated, to path so that a crash
// leaves either no file under path or the complete one: written to a
// temp file, fsynced, renamed into place, and the directory fsynced.
func writeDurable(path string, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
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
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ReadSnapshot loads and validates one checkpoint file. Any framing or
// checksum failure is an error; callers (recovery, predmatch restore)
// decide whether to fall back to an older snapshot.
func ReadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(path, raw)
}

// decodeSnapshot validates and decodes raw, the bytes of the checkpoint
// file at path.
func decodeSnapshot(path string, raw []byte) (*Snapshot, error) {
	if len(raw) < headerBytes {
		return nil, fmt.Errorf("wal: snapshot %s: short header", filepath.Base(path))
	}
	length := binary.LittleEndian.Uint32(raw[0:4])
	sum := binary.LittleEndian.Uint32(raw[4:8])
	if int64(length) != int64(len(raw)-headerBytes) {
		return nil, fmt.Errorf("wal: snapshot %s: length %d does not match file", filepath.Base(path), length)
	}
	payload := raw[headerBytes:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("wal: snapshot %s: checksum mismatch", filepath.Base(path))
	}
	snap, err := UnmarshalSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("wal: snapshot %s: unsupported version %d", filepath.Base(path), snap.Version)
	}
	return snap, nil
}

// UnmarshalSnapshot decodes a snapshot payload — a checkpoint file's,
// or the snap field of a replication frame.
func UnmarshalSnapshot(payload []byte) (*Snapshot, error) {
	snap := new(Snapshot)
	if err := unmarshal(payload, snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// InstallSnapshot seeds a fresh data directory from a checkpoint file
// (the `predmatch restore` operation): read and validate the snapshot,
// refuse a directory that already holds durable state (restoring over a
// live history would silently discard it), then write the bytes it
// validated under the canonical name with full fsync discipline. The
// source is read once, so a change to it after validation cannot reach
// the directory. A daemon recovering the directory afterwards starts
// from the snapshot with an empty log tail and appends resuming at
// Seq+1.
func InstallSnapshot(dir, srcPath string) (*Snapshot, error) {
	raw, err := os.ReadFile(srcPath)
	if err != nil {
		return nil, err
	}
	snap, err := decodeSnapshot(srcPath, raw)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 || len(snaps) > 0 {
		return nil, fmt.Errorf("wal: %s already holds durable state (%d segments, %d snapshots); refusing to restore over it", dir, len(segs), len(snaps))
	}
	if err := writeDurable(filepath.Join(dir, snapshotName(snap.Seq)), raw); err != nil {
		return nil, fmt.Errorf("wal: install snapshot: %w", err)
	}
	return snap, nil
}

// listSnapshots returns the snapshot sequences present in dir, newest
// first.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}
