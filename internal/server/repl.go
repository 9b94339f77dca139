// Replication: the server side of internal/repl. A leader serves the
// `replicate` op by streaming its WAL — newest snapshot if the
// follower's resume cursor was pruned, then the live record tail — over
// the ordinary wire protocol, as the bytes its log stores. A follower
// (Config.FollowerOf set) applies that stream through applyRecord, the
// code path recovery uses, logs the same bytes, serves lock-free reads,
// and rejects mutations with a leader-redirect error until promoted.
//
// Sequence-space contract: a follower's local WAL preserves the
// leader's sequence numbers exactly (wal.AppendExact / wal.Advance), so
// one number means the same state prefix on every replica. That is what
// makes the seq token in mutation acks portable: a client can take the
// WalSeq from a leader ack to any follower as Request.MinSeq and the
// follower waits until its applied frontier covers it (or redirects
// after MinSeqWait).
//
// Promotion seals the stream: after Promote flips the role, the apply
// path refuses further replicated records (under s.mu, so an in-flight
// apply finishes first) and the ordinary mutation handlers take over
// appending to the same log, continuing the leader's sequence space.

package server

import (
	"errors"
	"fmt"
	"time"

	"predmatch/internal/trace"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// FollowerInfo is the server's read-only view of the attached
// replication controller (internal/repl.Follower satisfies it), used by
// the stats surface to report stream health.
type FollowerInfo interface {
	// LeaderSeq is the leader's last assigned sequence as of the most
	// recent stream frame (0 before the first frame).
	LeaderSeq() uint64
	// Reconnects counts stream re-establishments.
	Reconnects() uint64
}

// AttachFollower hands the server its replication controller: info
// feeds the stats surface, stop is invoked by Promote to terminate the
// stream. Called once by the daemon wiring before serving.
func (s *Server) AttachFollower(info FollowerInfo, stop func()) {
	s.replMu.Lock()
	s.follower = info
	s.stopFollow = stop
	s.replMu.Unlock()
}

// Leader returns the upstream address this server follows ("" on a
// leader). It keeps reporting the old leader after promotion, as a
// hint for where stale clients came from.
func (s *Server) Leader() string { return s.cfg.FollowerOf }

// notLeaderMsg is the mutation-rejection response on a follower: the
// error names the leader and the Leader field carries it structurally
// for clients that redirect automatically.
func (s *Server) notLeaderMsg(id uint64) wire.Message {
	m := errMsg(id, fmt.Errorf("not leader: this server follows %s; send mutations there", s.cfg.FollowerOf))
	m.Leader = s.cfg.FollowerOf
	return m
}

// appliedSeq is the server's read frontier: on a follower the last
// replicated sequence applied, on a leader the log end (a leader's
// state always covers its own log).
func (s *Server) appliedSeq() uint64 {
	if s.isFollower.Load() {
		return s.applied.Load()
	}
	if s.wal != nil {
		return s.wal.LastSeq()
	}
	return 0
}

// advanceApplied publishes a new applied frontier and wakes min_seq
// waiters.
func (s *Server) advanceApplied(seq uint64) {
	s.appliedMu.Lock()
	if seq > s.applied.Load() {
		s.applied.Store(seq)
		close(s.appliedWait)
		s.appliedWait = make(chan struct{})
	}
	s.appliedMu.Unlock()
}

// waitMinSeq implements the read-your-writes token: block until the
// applied frontier reaches min. On a leader the check is immediate (its
// frontier is the log end; a bigger token belongs to another server).
// On a follower it waits up to MinSeqWait for replication to catch up,
// then fails — the caller attaches the leader redirect.
func (s *Server) waitMinSeq(min uint64) error {
	if min == 0 {
		return nil
	}
	if s.wal == nil {
		return errors.New("min_seq requires a durable server")
	}
	if s.appliedSeq() >= min {
		return nil
	}
	if !s.isFollower.Load() {
		return fmt.Errorf("min_seq %d is beyond the log end %d (token from a different leader?)", min, s.appliedSeq())
	}
	deadline := time.Now().Add(s.cfg.MinSeqWait)
	for {
		s.appliedMu.Lock()
		if s.applied.Load() >= min {
			s.appliedMu.Unlock()
			return nil
		}
		ch := s.appliedWait
		s.appliedMu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("not caught up to min_seq %d (applied %d) after %v", min, s.applied.Load(), s.cfg.MinSeqWait)
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		case <-s.done:
			t.Stop()
			return errors.New("server shutting down")
		}
		// A promotion mid-wait flips the frontier source; re-check via
		// appliedSeq so we do not wait on a stream that will never resume.
		if !s.isFollower.Load() {
			if s.appliedSeq() >= min {
				return nil
			}
			return fmt.Errorf("min_seq %d is beyond the log end %d", min, s.appliedSeq())
		}
	}
}

// minSeqErr builds the failed-token response: the error, the current
// frontier, and the leader redirect.
func (s *Server) minSeqErr(id uint64, err error) wire.Message {
	m := errMsg(id, err)
	m.WalSeq = s.appliedSeq()
	if s.isFollower.Load() {
		m.Leader = s.cfg.FollowerOf
	}
	return m
}

// Promote seals the replication stream and turns the follower into a
// leader accepting writes, returning the sequence the log was sealed
// at. The role flip happens first, so the apply path refuses any
// record still in flight; the s.mu round trip is the barrier that
// waits out an apply already executing.
func (s *Server) Promote() (uint64, error) {
	if s.wal == nil {
		return 0, errors.New("promote requires a durable server")
	}
	if !s.isFollower.CompareAndSwap(true, false) {
		return 0, errors.New("already leader")
	}
	s.replMu.Lock()
	stop := s.stopFollow
	s.replMu.Unlock()
	if stop != nil {
		stop()
	}
	s.mu.Lock()
	seq := s.wal.LastSeq()
	s.mu.Unlock()
	s.advanceApplied(seq)
	s.cfg.Logger.Info("promoted to leader", "seq", seq, "was_following", s.cfg.FollowerOf)
	return seq, nil
}

func (s *Server) handlePromote(req *wire.Request) wire.Message {
	seq, err := s.Promote()
	if err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.WalSeq = seq
	return m
}

// ---- Follower apply path (driven by internal/repl.Follower) ----

// ReplAppliedSeq is the follower's resume cursor: the last sequence
// fully applied and logged locally.
func (s *Server) ReplAppliedSeq() uint64 { return s.applied.Load() }

// ReplSealed reports whether the server stopped being a follower; the
// replication controller checks it after an apply error to distinguish
// "promoted, stop for good" from a retryable stream failure.
func (s *Server) ReplSealed() bool { return !s.isFollower.Load() }

// ReplApplySnapshot bootstraps a fresh follower from payload, a leader
// checkpoint's bytes: install the state, persist the payload unchanged
// as the local checkpoint, and jump the empty local log into the
// leader's sequence space. A follower that already has history refuses
// — receiving a snapshot then means the leader pruned past our cursor
// while we were away, and recovering from that requires wiping the
// data directory (the failure matrix in docs/REPLICATION.md).
func (s *Server) ReplApplySnapshot(payload []byte) error {
	snap, err := wal.UnmarshalSnapshot(payload)
	if err != nil {
		return fmt.Errorf("server: replication snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.isFollower.Load() {
		return errors.New("server: replication sealed: promoted to leader")
	}
	if last := s.wal.LastSeq(); last != 0 {
		return fmt.Errorf("server: leader sent a snapshot (seq %d) but this follower already holds state through seq %d: its history fell behind the leader's pruning horizon; wipe the data directory and re-follow", snap.Seq, last)
	}
	if err := s.loadSnapshot(snap); err != nil {
		return fmt.Errorf("server: install replication snapshot %d: %w", snap.Seq, err)
	}
	if _, _, err := s.wal.WriteSnapshotPayload(snap.Seq, payload); err != nil {
		return err
	}
	if err := s.wal.Advance(snap.Seq); err != nil {
		return err
	}
	s.advanceApplied(snap.Seq)
	return nil
}

// ReplApplyRecord applies one replicated record, payload as the
// leader logged it: execute it through the recovery code path (rules
// do not re-fire; the record carries their effects), append the same
// bytes to the local log under the leader's sequence, and advance the
// read frontier once locally durable.
//
// A record carrying a trace context (the leader's request was traced)
// is recorded here as a follower.apply root span joined to the same
// trace id, so the leader's and follower's flight recorders correlate.
func (s *Server) ReplApplyRecord(payload []byte) error {
	rec, err := wal.UnmarshalRecord(payload)
	if err != nil {
		return fmt.Errorf("server: replicated record: %w", err)
	}
	var sp *trace.Span
	if tr := s.cfg.Tracer; tr != nil && rec.Trace != nil {
		if id, ok := trace.ParseID(rec.Trace.ID); ok {
			sp = tr.Join("follower.apply", id)
			sp.SetInt("seq", int64(rec.Seq))
			sp.SetStr("kind", rec.Kind)
		}
	}
	err = s.replApplyRecord(rec, payload, sp)
	if sp != nil {
		if err != nil {
			sp.SetStr("error", err.Error())
		}
		sp.End()
	}
	return err
}

// replApplyRecord skips a record the local log already holds and
// refuses a gap with nothing applied or appended.
func (s *Server) replApplyRecord(rec *wal.Record, payload []byte, sp *trace.Span) error {
	s.mu.Lock()
	if !s.isFollower.Load() {
		s.mu.Unlock()
		return errors.New("server: replication sealed: promoted to leader")
	}
	want := s.wal.LastSeq() + 1
	if rec.Seq < want {
		// Already applied (a resume overlap); skipping keeps the apply
		// idempotent.
		s.mu.Unlock()
		s.cfg.Logger.Debug("replication: skipping duplicate record", "seq", rec.Seq, "want", want)
		return nil
	}
	if rec.Seq > want {
		s.mu.Unlock()
		return fmt.Errorf("server: replication gap: want seq %d, got %d", want, rec.Seq)
	}
	if _, err := s.applyRecord(rec); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: apply replicated record %d: %w", rec.Seq, err)
	}
	asp := sp.Child("wal.append")
	_, err := s.wal.AppendExact(rec.Seq, payload)
	asp.End()
	s.mu.Unlock()
	if err := s.commit(rec.Seq, err, sp); err != nil {
		return err
	}
	s.advanceApplied(rec.Seq)
	s.replNotify(rec)
	return nil
}

// replNotify fans replicated mutations out to local subscribers that
// asked for direct-predicate matches. Rule-firing notifications exist
// only on the leader (the replay path applies rule effects without
// executing rules), and deletes carry no tuple image in the log, so a
// follower streams insert/update predicate matches only — documented
// in docs/REPLICATION.md.
func (s *Server) replNotify(rec *wal.Record) {
	if rec.Kind != wal.KindMutate {
		return
	}
	s.subMu.Lock()
	wanted := s.predsWanted()
	s.subMu.Unlock()
	if !wanted {
		return
	}
	for i := range rec.Events {
		if ev, err := s.decodeEvent(&rec.Events[i]); err == nil && ev.New != nil {
			s.onEventPreds(ev)
		}
	}
}

// ---- Leader streaming (the replicate op) ----

func (s *Server) handleReplicate(c *conn, req *wire.Request) wire.Message {
	if s.wal == nil {
		return errMsg(req.ID, errors.New("replication requires a data directory"))
	}
	if s.isFollower.Load() {
		m := errMsg(req.ID, fmt.Errorf("follower of %s cannot serve replication; chain from the leader", s.cfg.FollowerOf))
		m.Leader = s.cfg.FollowerOf
		return m
	}
	if last := s.wal.LastSeq(); req.FromSeq > last {
		// A follower claiming history past our log end diverged (it
		// followed a different leader, or we lost acked history); refusing
		// beats silently rewriting its log.
		return errMsg(req.ID, fmt.Errorf("resume seq %d is ahead of the log end %d: follower and leader histories diverged", req.FromSeq, last))
	}
	if !c.replica.CompareAndSwap(false, true) {
		return errMsg(req.ID, errors.New("connection is already replicating"))
	}
	c.replSeq.Store(req.FromSeq)
	s.wg.Add(1)
	go s.streamLog(c, req.FromSeq)
	s.cfg.Logger.Info("replication stream started",
		"remote", c.nc.RemoteAddr().String(), "from_seq", req.FromSeq)
	m := okMsg(req.ID)
	m.WalSeq = s.wal.LastSeq()
	return m
}

// streamLog is the per-follower streamer goroutine: it writes records
// from cursor+1 onward to the connection, as the log stores them, and
// the blocking write, bounded by the write timeout, is the stream's
// backpressure. When the cursor predates the pruning horizon it falls
// back to the newest snapshot and resumes the tail after it. It stops
// with the reader (quit), on a failed write, or when the log closes.
func (s *Server) streamLog(c *conn, cursor uint64) {
	defer s.wg.Done()
	remote := c.nc.RemoteAddr().String()
	var buf []byte
	// ship writes one repl frame, m carrying payload, the log's bytes for
	// seq, and advances the cursor past it.
	ship := func(m wire.Message, seq uint64, payload []byte) bool {
		m.Type, m.LeaderSeq = wire.TypeRepl, s.wal.LastSeq()
		var err error
		if buf, err = wire.AppendMessage(buf, &m); err == nil {
			err = c.write(&buf)
		}
		if err != nil {
			c.nc.Close() // wakes the reader, which ends the connection
			return false
		}
		cursor = seq
		c.replSeq.Store(seq)
		if s.met != nil {
			s.met.streamedBytes.Add(uint64(len(payload)))
		}
		return true
	}
	for {
		tail, err := s.wal.OpenTail(cursor + 1)
		if errors.Is(err, wal.ErrTruncated) {
			seq, payload, serr := s.wal.NewestSnapshot()
			if serr != nil || payload == nil || seq <= cursor {
				// Pruning outran the follower and no snapshot can bridge the
				// gap — should be impossible (pruning requires a covering
				// snapshot), so surface it rather than stream a hole.
				s.cfg.Logger.Warn("replication: no snapshot covers pruned tail",
					"remote", remote, "cursor", cursor, "err", serr)
				return
			}
			if !ship(wire.Message{Snap: payload}, seq, payload) {
				return
			}
			continue
		}
		for err == nil {
			var seq uint64
			var payload []byte
			if seq, payload, err = tail.Next(c.quit); err != nil {
				tail.Close()
			} else if !ship(wire.Message{Rec: payload}, seq, payload) {
				tail.Close()
				return
			} else if s.met != nil {
				s.met.streamedRecords.Inc()
			}
		}
		if !errors.Is(err, wal.ErrTruncated) {
			// ErrClosed on quit or shutdown is the normal exit.
			s.cfg.Logger.Debug("replication stream ended",
				"remote", remote, "cursor", cursor, "err", err)
			return
		}
		// The tail lost its next segment to pruning mid-stream; loop back
		// to the snapshot fallback.
	}
}

// replStat summarizes the replication role for the stats response (nil
// without a data directory).
func (s *Server) replStat() *wire.ReplStat {
	if s.wal == nil {
		return nil
	}
	if s.isFollower.Load() {
		rs := &wire.ReplStat{
			Role:       "follower",
			Leader:     s.cfg.FollowerOf,
			AppliedSeq: s.applied.Load(),
		}
		s.replMu.Lock()
		fi := s.follower
		s.replMu.Unlock()
		if fi != nil {
			rs.LeaderSeq = fi.LeaderSeq()
			rs.Reconnects = fi.Reconnects()
			if rs.LeaderSeq > rs.AppliedSeq {
				rs.Lag = rs.LeaderSeq - rs.AppliedSeq
			}
		}
		return rs
	}
	return &wire.ReplStat{Role: "leader", Followers: s.followers()}
}

// followers counts the replication streams the server is serving.
func (s *Server) followers() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	n := 0
	for c := range s.conns {
		if c.replica.Load() {
			n++
		}
	}
	return n
}
