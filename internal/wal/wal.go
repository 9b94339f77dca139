// Package wal is predmatchd's durability subsystem: a segmented,
// checksummed write-ahead log of state-changing operations plus
// catalog/rule/relation snapshots, turning the in-memory rule service
// into something that survives a crash. The paper stores its predicates
// in a PREDICATES catalog relation precisely because a database rule
// system must outlive the process (Section 2); this package is that
// catalog's modern shape.
//
// # Log format
//
// A log is a directory of segment files named wal-<firstseq>.seg. Each
// segment is a sequence of records framed as
//
//	| length uint32 LE | crc32c(payload) uint32 LE | payload |
//
// where payload is the JSON encoding of a Record. Sequence numbers are
// assigned at append time, start at 1, and are contiguous across
// segments. A torn or bit-flipped record fails its CRC (or its length
// prefix runs past the file) and recovery treats it as the end of the
// log: everything before it is replayed, the invalid suffix is
// truncated, and the daemon resumes appending — the crash contract is
// "no acked record lost, no torn record applied", not "no byte lost".
//
// # Sync policies
//
// SyncAlways makes Commit block until an fsync covers the record; the
// fsync is shared by every record appended while the previous fsync was
// in flight (group commit), so concurrent mutators pay one disk flush
// between them. SyncInterval acks immediately and fsyncs on a timer;
// SyncOff never fsyncs (the OS still sees every write immediately, so a
// process kill loses nothing — only an OS crash can).
//
// # Snapshots
//
// A snapshot (snap-<seq>.ckpt) is one frame whose payload is the whole
// engine state — schemas, relation contents, rule sources, direct
// predicates — as of log sequence <seq>. A
// checkpoint written here, one restored from a backup and one a
// follower received are installed the same way. After a snapshot is
// durable, segments whose records it covers are deleted. Recovery loads
// the newest readable snapshot and replays the log tail after it; an
// unreadable (torn) snapshot falls back to the previous one.
//
// # Replication
//
// Payloads move as stored: a Tail and NewestSnapshot hand them out, and
// a follower logs them unchanged (AppendExact, WriteSnapshotPayload), so
// its records and checkpoint equal the leader's byte for byte.
package wal

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"predmatch/internal/obs"
)

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy string

const (
	// SyncAlways fsyncs before Commit returns, batching concurrent
	// committers into shared fsyncs (group commit). Survives power loss.
	SyncAlways SyncPolicy = "always"
	// SyncInterval acks immediately and fsyncs on a timer; a crash can
	// lose up to SyncEvery of acked records.
	SyncInterval SyncPolicy = "interval"
	// SyncOff never fsyncs. Writes still reach the OS on every append,
	// so only an OS/power failure loses data, not a process kill.
	SyncOff SyncPolicy = "off"
)

// ParseSyncPolicy validates a policy name from a flag.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch p := SyncPolicy(s); p {
	case SyncAlways, SyncInterval, SyncOff:
		return p, nil
	default:
		return "", fmt.Errorf("wal: unknown sync policy %q (want always, interval or off)", s)
	}
}

// Defaults for the zero Options values.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultSyncEvery    = 100 * time.Millisecond
)

// Options configures a Log. Zero values pick the documented defaults.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// SegmentBytes rotates the active segment when it would exceed this
	// size (default 64 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the fsync period under SyncInterval (default 100ms).
	SyncEvery time.Duration
	// Registry receives the WAL metric families (fsync latency,
	// record/byte counters, snapshot age); nil leaves the log
	// uninstrumented.
	Registry *obs.Registry
	// Logger receives recovery and snapshot lifecycle events (default:
	// discard).
	Logger *slog.Logger
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Sync == "" {
		o.Sync = SyncAlways
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard,
			&slog.HandlerOptions{Level: slog.Level(127)}))
	}
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")
