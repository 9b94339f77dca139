// Fixture mirroring the real server's handler shapes: apply under mu,
// append under mu, commit off-mutex, then ack. DDL handlers build a
// record and pass it to command, which applies it through applyRecord.
// The seeded violations each break the log-before-ack contract a
// different way.
package server

import (
	"sync"

	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// Server is the fixture server.
type Server struct {
	mu  sync.Mutex
	wal *wal.Log
}

func errMsg(id uint64, err error) wire.Message {
	return wire.Message{ID: id, Error: err.Error()}
}

func okMsg(id uint64) wire.Message { return wire.Message{ID: id} }

//predmatchvet:holds mu
func (s *Server) declareRelation(name string) error {
	if name == "" {
		return errEmpty
	}
	return nil
}

var errEmpty = &fixtureError{"empty relation"}

type fixtureError struct{ msg string }

func (e *fixtureError) Error() string { return e.msg }

// applyRecord applies one record; the caller logs it.
//
//predmatchvet:holds mu
func (s *Server) applyRecord(rec *wal.Record) (string, error) {
	return "", s.declareRelation(rec.Relation)
}

//predmatchvet:holds mu
func (s *Server) logCommand(rec *wal.Record) (uint64, error) {
	return s.wal.Append(rec)
}

func (s *Server) commit(seq uint64, err error) error {
	if err != nil {
		return err
	}
	return s.wal.Commit(seq)
}

// handleDeclare is the canonical good handler: every path to the ack
// passes the append, errors return constructors directly.
func (s *Server) handleDeclare(req *wire.Request) wire.Message {
	s.mu.Lock()
	if err := s.declareRelation(req.Relation); err != nil {
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	seq, werr := s.logCommand(&wal.Record{Kind: "declare", Relation: req.Relation})
	s.mu.Unlock()
	if err := s.commit(seq, werr); err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.WalSeq = seq
	return m
}

// handleMatch is a read path: no apply/append/commit calls, so the
// contract does not cover it and the bare ack is fine.
func (s *Server) handleMatch(req *wire.Request) wire.Message {
	return okMsg(req.ID)
}

// command is the shared DDL shape: apply the record, append it, commit,
// then ack — clean.
func (s *Server) command(id uint64, rec *wal.Record) wire.Message {
	s.mu.Lock()
	if _, err := s.applyRecord(rec); err != nil {
		s.mu.Unlock()
		return errMsg(id, err)
	}
	seq, werr := s.logCommand(rec)
	s.mu.Unlock()
	if err := s.commit(seq, werr); err != nil {
		return errMsg(id, err)
	}
	m := okMsg(id)
	m.WalSeq = seq
	return m
}

// handleIndex delegates to command: it calls no helper itself, so the
// contract does not cover it, and command's checks stand for it.
func (s *Server) handleIndex(req *wire.Request) wire.Message {
	return s.command(req.ID, &wal.Record{Kind: "index", Relation: req.Relation})
}

// replApplyRecord is the replication shape: errors only, commit after
// append — clean.
func (s *Server) replApplyRecord(rec *wal.Record) error {
	if _, err := s.applyRecord(rec); err != nil {
		return err
	}
	if _, err := s.wal.AppendExact(rec); err != nil {
		return err
	}
	return s.wal.Commit(rec.Seq)
}

// applyWithoutLog applies a record and acks without logging it: the
// command shape with logCommand dropped.
func (s *Server) applyWithoutLog(id uint64, rec *wal.Record) wire.Message {
	s.mu.Lock()
	_, err := s.applyRecord(rec)
	s.mu.Unlock()
	if err != nil {
		return errMsg(id, err)
	}
	return okMsg(id) // want "success response on a path without a dominating WAL append"
}

// ackWithoutAppend applies a DDL change and acks without ever logging
// it: a crash right after the response erases an acked write.
func (s *Server) ackWithoutAppend(req *wire.Request) wire.Message {
	s.mu.Lock()
	err := s.declareRelation(req.Relation)
	s.mu.Unlock()
	if err != nil {
		return errMsg(req.ID, err)
	}
	return okMsg(req.ID) // want "success response on a path without a dominating WAL append"
}

// appendOnOneBranch logs only when auditing is on, but acks after the
// join — the append no longer dominates the ack.
func (s *Server) appendOnOneBranch(req *wire.Request, audit bool) wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.declareRelation(req.Relation); err != nil {
		return errMsg(req.ID, err)
	}
	if audit {
		if _, err := s.logCommand(&wal.Record{Kind: "declare"}); err != nil {
			return errMsg(req.ID, err)
		}
	}
	return okMsg(req.ID) // want "success response on a path without a dominating WAL append"
}

// commitBeforeAppend waits for durability before anything was written:
// the commit is hoisted above the append.
func (s *Server) commitBeforeAppend(req *wire.Request) wire.Message {
	s.mu.Lock()
	if err := s.commit(0, nil); err != nil { // want "commit without a dominating WAL append"
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	seq, werr := s.logCommand(&wal.Record{Kind: "declare"})
	s.mu.Unlock()
	if err := s.commit(seq, werr); err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.WalSeq = seq
	return m
}

// ackEachRecord appends in a loop that can run zero times; the
// zero-iteration path acks a batch that was never logged.
func (s *Server) ackEachRecord(req *wire.Request, recs []*wal.Record) wire.Message {
	s.mu.Lock()
	for _, rec := range recs {
		if _, err := s.logCommand(rec); err != nil {
			s.mu.Unlock()
			return errMsg(req.ID, err)
		}
	}
	s.mu.Unlock()
	return okMsg(req.ID) // want "success response on a path without a dominating WAL append"
}
