// Package storage is the main-memory relational store underneath the
// rule system: typed relations, secondary B+-tree indexes per attribute,
// and per-attribute statistics for the optimizer's selectivity estimates
// (the paper obtains clause selectivities "from the query optimizer").
//
// The secondary indexes serve the paper's Section 2.3 physical-locking
// baseline and the script language's queries (phylock, query, script,
// experiments); the paper's own scheme never reads them, and the daemon
// creates none.
//
// The statistics are the quantities of the System R tradition (Selinger
// et al. 1979, which the paper's physical-locking baseline builds on) —
// row count, minimum, maximum, distinct count and the fraction of values
// inside an interval — kept exactly, in an ordered multiset of the
// attribute's values, with no uniformity assumption. They are kept only
// for attributes somebody reads: an attribute's statistics materialize
// on the first Table.Stats call for it (one scan of the rows) and every
// write maintains them from then on, so a table nobody plans queries
// over pays a nil check per attribute per write.
package storage

import (
	"fmt"
	"sync"

	"predmatch/internal/btree"
	"predmatch/internal/interval"
	"predmatch/internal/schema"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// Op is the kind of a change event.
type Op uint8

const (
	// OpInsert is the insertion of a new tuple.
	OpInsert Op = iota
	// OpUpdate is the modification of an existing tuple.
	OpUpdate
	// OpDelete is the removal of a tuple.
	OpDelete
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return "?"
	}
}

// Event describes one tuple change; the rule engine subscribes to these.
type Event struct {
	Rel string
	Op  Op
	ID  tuple.ID
	Old tuple.Tuple // nil for inserts
	New tuple.Tuple // nil for deletes
}

// Observer receives change events after they are applied.
type Observer func(Event) error

// DB is a main-memory database instance.
type DB struct {
	mu        sync.RWMutex
	catalog   *schema.Catalog
	tables    map[string]*Table
	observers []Observer
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		catalog: schema.NewCatalog(),
		tables:  make(map[string]*Table),
	}
}

// Catalog returns the schema catalog.
func (db *DB) Catalog() *schema.Catalog { return db.catalog }

// Observe registers an observer called after every applied change. An
// observer error aborts the mutating call after the change is applied
// (rule actions may fail; the storage change itself is kept).
func (db *DB) Observe(obs Observer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.observers = append(db.observers, obs)
}

// CreateRelation registers a schema and creates its (empty) table.
func (db *DB) CreateRelation(rel *schema.Relation) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.catalog.Add(rel); err != nil {
		return nil, err
	}
	t := newTable(db, rel)
	db.tables[rel.Name()] = t
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// notify delivers an event to all observers.
func (db *DB) notify(ev Event) error {
	for _, obs := range db.observers {
		if err := obs(ev); err != nil {
			return err
		}
	}
	return nil
}

// idSet is the posting set of a secondary index entry.
type idSet map[tuple.ID]struct{}

// Index is a secondary index on one attribute: value -> set of tuple IDs.
type Index struct {
	Attr string
	pos  int
	tree *btree.Map[value.Value, idSet]
}

// Table holds the tuples of one relation plus indexes and statistics.
type Table struct {
	db      *DB
	rel     *schema.Relation
	rows    map[tuple.ID]tuple.Tuple
	nextID  tuple.ID
	indexes map[string]*Index
	// stats[i] is nil until Stats is first asked for attribute i.
	stats []*AttrStats
}

func newTable(db *DB, rel *schema.Relation) *Table {
	return &Table{
		db:      db,
		rel:     rel,
		rows:    make(map[tuple.ID]tuple.Tuple),
		nextID:  1,
		indexes: make(map[string]*Index),
		stats:   make([]*AttrStats, rel.Arity()),
	}
}

// Relation returns the table's schema.
func (t *Table) Relation() *schema.Relation { return t.rel }

// Len returns the number of stored tuples.
func (t *Table) Len() int { return len(t.rows) }

// CreateIndex builds a secondary index on attr, indexing existing rows.
func (t *Table) CreateIndex(attr string) error {
	pos, ok := t.rel.AttrIndex(attr)
	if !ok {
		return fmt.Errorf("storage: relation %s has no attribute %s", t.rel.Name(), attr)
	}
	if _, dup := t.indexes[attr]; dup {
		return fmt.Errorf("storage: index on %s.%s already exists", t.rel.Name(), attr)
	}
	idx := &Index{Attr: attr, pos: pos, tree: btree.New[value.Value, idSet](value.Compare)}
	for id, row := range t.rows {
		idx.add(row[pos], id)
	}
	t.indexes[attr] = idx
	return nil
}

// HasIndex reports whether attr has a secondary index.
func (t *Table) HasIndex(attr string) bool {
	_, ok := t.indexes[attr]
	return ok
}

func (idx *Index) add(v value.Value, id tuple.ID) {
	idx.tree.Update(v, func(set idSet, ok bool) (idSet, bool) {
		if !ok {
			set = make(idSet, 1)
		}
		set[id] = struct{}{}
		return set, true
	})
}

func (idx *Index) remove(v value.Value, id tuple.ID) {
	idx.tree.Update(v, func(set idSet, _ bool) (idSet, bool) {
		delete(set, id)
		return set, len(set) > 0
	})
}

// insert, update and remove are the one body of each operation: they
// keep rows, secondary indexes and materialized statistics in step.
// The mutating API adds ID allocation and the observers' notification
// around them; DB.Apply adds neither.

// insert stores a copy of row under id, which must be unused.
func (t *Table) insert(id tuple.ID, row tuple.Tuple) (tuple.Tuple, error) {
	if err := row.Conforms(t.rel); err != nil {
		return nil, err
	}
	row = row.Clone()
	t.rows[id] = row
	for _, idx := range t.indexes {
		idx.add(row[idx.pos], id)
	}
	for i, st := range t.stats {
		if st != nil {
			st.add(row[i])
		}
	}
	return row, nil
}

// update replaces the tuple stored under id with a copy of row.
func (t *Table) update(id tuple.ID, row tuple.Tuple) (old, stored tuple.Tuple, err error) {
	old, ok := t.rows[id]
	if !ok {
		return nil, nil, fmt.Errorf("storage: %s has no tuple %d", t.rel.Name(), id)
	}
	if err := row.Conforms(t.rel); err != nil {
		return nil, nil, err
	}
	row = row.Clone()
	t.rows[id] = row
	for _, idx := range t.indexes {
		if value.Compare(old[idx.pos], row[idx.pos]) != 0 {
			idx.remove(old[idx.pos], id)
			idx.add(row[idx.pos], id)
		}
	}
	for i, st := range t.stats {
		if st != nil && value.Compare(old[i], row[i]) != 0 {
			st.remove(old[i])
			st.add(row[i])
		}
	}
	return old, row, nil
}

// remove deletes the tuple stored under id.
func (t *Table) remove(id tuple.ID) (old tuple.Tuple, err error) {
	old, ok := t.rows[id]
	if !ok {
		return nil, fmt.Errorf("storage: %s has no tuple %d", t.rel.Name(), id)
	}
	delete(t.rows, id)
	for _, idx := range t.indexes {
		idx.remove(old[idx.pos], id)
	}
	for i, st := range t.stats {
		if st != nil {
			st.remove(old[i])
		}
	}
	return old, nil
}

// Insert appends a tuple, returning its assigned ID.
func (t *Table) Insert(row tuple.Tuple) (tuple.ID, error) {
	id := t.nextID
	row, err := t.insert(id, row)
	if err != nil {
		return 0, err
	}
	t.nextID++
	return id, t.db.notify(Event{Rel: t.rel.Name(), Op: OpInsert, ID: id, New: row})
}

// Update replaces the tuple stored under id.
func (t *Table) Update(id tuple.ID, row tuple.Tuple) error {
	old, row, err := t.update(id, row)
	if err != nil {
		return err
	}
	return t.db.notify(Event{Rel: t.rel.Name(), Op: OpUpdate, ID: id, Old: old, New: row})
}

// Delete removes the tuple stored under id.
func (t *Table) Delete(id tuple.ID) error {
	old, err := t.remove(id)
	if err != nil {
		return err
	}
	return t.db.notify(Event{Rel: t.rel.Name(), Op: OpDelete, ID: id, Old: old})
}

// Get returns the tuple stored under id.
func (t *Table) Get(id tuple.ID) (tuple.Tuple, bool) {
	row, ok := t.rows[id]
	return row, ok
}

// Scan calls fn for every (id, tuple) pair until fn returns false.
// Iteration order is unspecified.
func (t *Table) Scan(fn func(tuple.ID, tuple.Tuple) bool) {
	for id, row := range t.rows {
		if !fn(id, row) {
			return
		}
	}
}

// ScanIndex iterates, in attribute order, the tuples whose attr value
// lies within iv, using the secondary index. It returns false (without
// scanning) if attr has no index.
func (t *Table) ScanIndex(attr string, iv interval.Interval[value.Value], fn func(tuple.ID, tuple.Tuple) bool) bool {
	idx, ok := t.indexes[attr]
	if !ok {
		return false
	}
	idx.tree.AscendRange(iv, func(_ value.Value, set idSet) bool {
		for id := range set {
			if !fn(id, t.rows[id]) {
				return false
			}
		}
		return true
	})
	return true
}

// Stats returns the statistics for attr, or nil if the attribute does
// not exist. The first call for an attribute builds them by one scan of
// the rows; writes keep them exact from then on. Like the mutating API
// it is not safe for concurrent use.
func (t *Table) Stats(attr string) *AttrStats {
	pos, ok := t.rel.AttrIndex(attr)
	if !ok {
		return nil
	}
	if t.stats[pos] == nil {
		st := newAttrStats()
		for _, row := range t.rows {
			st.add(row[pos])
		}
		t.stats[pos] = st
	}
	return t.stats[pos]
}
