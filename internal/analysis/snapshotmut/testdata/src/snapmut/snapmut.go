// Package snapmut seeds copy-on-write discipline violations for the
// snapshotmut analyzer fixture test: mutation after an atomic publish,
// mutation of atomic Load results and of Snapshot accessor results —
// for a published Index and for a published View and the indexes
// reachable from it.
package snapmut

import (
	"sync/atomic"

	"predmatch/internal/core"
)

type shard struct {
	snap atomic.Pointer[core.Index]
}

// Snapshot returns the published frozen index.
func (s *shard) Snapshot() *core.Index { return s.snap.Load() }

// goodAdd is the legal clone-and-publish write path.
func (s *shard) goodAdd(id int) {
	var next *core.Index
	if cur := s.snap.Load(); cur != nil {
		next = cur.Clone()
	} else {
		next = core.New()
	}
	_ = next.Add(id)
	s.snap.Store(next)
}

// mutateAfterPublish mutates the fresh index after the atomic Store.
func (s *shard) mutateAfterPublish(id int) {
	next := core.New()
	s.snap.Store(next)
	_ = next.Add(id) // want `after it was published with an atomic Store`
}

// mutateLoadChain mutates the Load result directly.
func (s *shard) mutateLoadChain(id int) {
	_ = s.snap.Load().Add(id) // want `frozen snapshot returned by atomic Load`
}

// mutateLoadVar mutates through a variable assigned from Load.
func (s *shard) mutateLoadVar(id int) {
	snap := s.snap.Load()
	_ = snap.Remove(id) // want `frozen snapshot obtained from a published location`
}

// mutateSnapshotResult mutates a Snapshot accessor result; Match counts
// as a mutation because it reuses the index scratch buffer.
func (s *shard) mutateSnapshotResult() {
	ix := s.Snapshot()
	ix.Match("r") // want `frozen snapshot obtained from a published location`
}

// writeFrozenField writes a field of a frozen snapshot.
func (s *shard) writeFrozenField() {
	snap := s.snap.Load()
	snap.IDs = nil // want `write to field IDs`
}

// cloneResets shows Clone returning a frozen variable to mutable.
func (s *shard) cloneResets(id int) {
	snap := s.snap.Load()
	snap = snap.Clone()
	_ = snap.Add(id)
	s.snap.Store(snap)
}

// readOnly stabs are fine on frozen snapshots.
func (s *shard) readOnly() []int {
	return s.snap.Load().MatchSnapshot("r")
}

// suppressed exercises the inline suppression escape hatch: the
// violation below must NOT be reported.
func (s *shard) suppressed(id int) {
	next := core.New()
	s.snap.Store(next)
	_ = next.Add(id) //predmatchvet:ignore snapshotmut fixture exercises the suppression path
}

// viewShard publishes Views, as internal/shard does.
type viewShard struct {
	snap atomic.Pointer[core.View]
}

// Snapshot returns the published frozen view.
func (s *viewShard) Snapshot() *core.View { return s.snap.Load() }

// goodWrite is the legal write path: derive, merge, publish.
func (s *viewShard) goodWrite(id int) {
	cur := s.snap.Load()
	if cur == nil {
		cur = core.NewView()
	}
	next := cur.With(id).Merged()
	s.snap.Store(next)
}

// goodRead stabs a published view; View.Match writes nothing.
func (s *viewShard) goodRead() []int {
	return s.snap.Load().Match("r")
}

// mutateViewIndexChain mutates the delta of a published view.
func (s *viewShard) mutateViewIndexChain(id int) {
	_ = s.snap.Load().Delta.Add(id) // want `index reached through a View`
}

// mutateViewIndexVar does the same through variables.
func (s *viewShard) mutateViewIndexVar(id int) {
	v := s.Snapshot()
	base := v.Base
	_ = base.Remove(id) // want `frozen snapshot obtained from a published location`
}

// writeFrozenViewField rewrites a published view's tombstones.
func (s *viewShard) writeFrozenViewField() {
	v := s.snap.Load()
	v.Dead = nil // want `write to field Dead`
}

// writeViewAfterPublish writes a fresh view after the atomic Store.
func (s *viewShard) writeViewAfterPublish() {
	next := core.NewView()
	s.snap.Store(next)
	next.Dead = nil // want `after it was published with an atomic Store`
}

// cloneViewIndex shows Clone making a view's index mutable again.
func (s *viewShard) cloneViewIndex(id int) {
	d := s.snap.Load().Delta.Clone()
	_ = d.Add(id)
}
