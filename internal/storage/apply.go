// Replay and snapshot support for the durability layer: applying a
// logged change without re-notifying observers, and reading a table's
// contents in a deterministic order. During WAL recovery the rule
// engine must not re-fire — every cascaded change a rule produced was
// itself logged and replays as its own event — so Apply runs the bodies
// Insert/Update/Delete run, without the notify call, and restores exact
// tuple IDs rather than allocating fresh ones.

package storage

import (
	"fmt"
	"sort"

	"predmatch/internal/tuple"
)

// Apply installs one logged change. Unlike the mutating API it takes
// the tuple ID from the event (IDs must survive recovery: rules,
// subscribers and clients hold them) and does not notify observers.
func (db *DB) Apply(ev Event) error {
	t, ok := db.Table(ev.Rel)
	if !ok {
		return fmt.Errorf("storage: apply: unknown relation %s", ev.Rel)
	}
	var err error
	switch ev.Op {
	case OpInsert:
		if _, dup := t.rows[ev.ID]; dup {
			return fmt.Errorf("storage: apply: %s already has tuple %d", t.rel.Name(), ev.ID)
		}
		if _, err = t.insert(ev.ID, ev.New); err == nil {
			t.SetNextID(ev.ID + 1)
		}
	case OpUpdate:
		_, _, err = t.update(ev.ID, ev.New)
	case OpDelete:
		_, err = t.remove(ev.ID)
	default:
		err = fmt.Errorf("storage: apply: unknown op %d", ev.Op)
	}
	return err
}

// NextID returns the table's ID allocator cursor (the ID the next
// insert receives).
func (t *Table) NextID() tuple.ID { return t.nextID }

// SetNextID moves the allocator cursor forward (never backward: IDs
// must not be reused after recovery).
func (t *Table) SetNextID(id tuple.ID) {
	if id > t.nextID {
		t.nextID = id
	}
}

// SnapshotRow is one (ID, tuple) pair from SnapshotRows.
type SnapshotRow struct {
	ID    tuple.ID
	Tuple tuple.Tuple
}

// SnapshotRows returns the table's contents sorted by tuple ID. The
// tuples are the stored values (not copies); callers serialize them
// before releasing whatever lock keeps mutators out.
func (t *Table) SnapshotRows() []SnapshotRow {
	out := make([]SnapshotRow, 0, len(t.rows))
	for id, row := range t.rows {
		out = append(out, SnapshotRow{ID: id, Tuple: row})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Relations returns the names of all tables, sorted.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
