// Package storage implements the classical in-memory row store used both as
// the ground-truth database and as the baseline the LLM-storage engine is
// compared against. It provides a catalog of heap tables, insertion with type
// checking, full scans, and CSV export. Table.Replace swaps all of a table's
// rows in one step, so readers never see a table half rebuilt: materialized
// views publish each build that way.
package storage

import (
	"fmt"
	"strings"
	"sync"

	"llmsql/internal/rel"
)

// DB is a catalog of tables. It is safe for concurrent readers; writes take
// an exclusive lock.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable registers a new table with the given schema. Column table
// qualifiers are overwritten with the table name.
func (db *DB) CreateTable(name string, schema rel.Schema) (*Table, error) {
	name = strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := &Table{name: name, schema: schema.Rename(name)}
	db.tables[name] = t
	return t, nil
}

// DropTable removes a table; it is not an error if absent.
func (db *DB) DropTable(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, strings.ToLower(name))
}

// Table returns the named table or an error.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// HasTable reports whether the table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[strings.ToLower(name)]
	return ok
}

// Table is a heap of rows.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema rel.Schema
	rows   []rel.Row
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema (columns qualified with the table name).
func (t *Table) Schema() rel.Schema { return t.schema }

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a row after coercing each value to the column type.
// It returns an error when the arity mismatches or a value cannot be coerced.
func (t *Table) Insert(row rel.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: %s expects %d values, got %d", t.name, t.schema.Len(), len(row))
	}
	stored := make(rel.Row, len(row))
	for i, v := range row {
		cv, err := rel.Coerce(v, t.schema.Col(i).Type)
		if err != nil {
			return fmt.Errorf("storage: %s.%s: %w", t.name, t.schema.Col(i).Name, err)
		}
		stored[i] = cv
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = append(t.rows, stored)
	return nil
}

// InsertBatch appends many rows under a single lock acquisition: every row
// is coerced first, so a bad row fails the whole batch before any row is
// stored (all-or-nothing). Row numbers in errors count from 1. This is the
// bulk-ingestion path of INSERT statements and world loading.
func (t *Table) InsertBatch(rows []rel.Row) error {
	stored, err := t.coerceRows(rows)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = append(t.rows, stored...)
	return nil
}

// Replace swaps the table's rows for rows in one step and returns how many
// rows it held before. Every row is coerced first, as in InsertBatch, so a
// bad row fails the call and the old rows stay; otherwise the swap happens
// under a single lock acquisition, so a reader sees either the old rows or
// the new ones, never an empty table in between nor a mix. Scans started
// before the swap keep iterating the old rows. This is how a materialized
// view publishes a build.
func (t *Table) Replace(rows []rel.Row) (int, error) {
	stored, err := t.coerceRows(rows)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := len(t.rows)
	t.rows = stored
	return prev, nil
}

// coerceRows returns rows coerced to the column types, in fresh rows.
func (t *Table) coerceRows(rows []rel.Row) ([]rel.Row, error) {
	stored := make([]rel.Row, len(rows))
	for r, row := range rows {
		if len(row) != t.schema.Len() {
			return nil, fmt.Errorf("storage: %s expects %d values, got %d (row %d)", t.name, t.schema.Len(), len(row), r+1)
		}
		out := make(rel.Row, len(row))
		for i, v := range row {
			cv, err := rel.Coerce(v, t.schema.Col(i).Type)
			if err != nil {
				return nil, fmt.Errorf("storage: %s.%s (row %d): %w", t.name, t.schema.Col(i).Name, r+1, err)
			}
			out[i] = cv
		}
		stored[r] = out
	}
	return stored, nil
}

// Scan returns a snapshot iterator over all rows. Rows must not be mutated
// by callers.
func (t *Table) Scan() *Rows {
	t.mu.RLock()
	defer t.mu.RUnlock()
	snapshot := t.rows // rows are only appended past it or swapped out whole
	return &Rows{rows: snapshot}
}

// All returns a copy of the row slice header (rows shared, not copied).
func (t *Table) All() []rel.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
}

// Rows is a forward-only iterator over a row snapshot.
type Rows struct {
	rows []rel.Row
	pos  int
}

// Next returns the next row, or (nil, false) at the end.
func (r *Rows) Next() (rel.Row, bool) {
	if r.pos >= len(r.rows) {
		return nil, false
	}
	row := r.rows[r.pos]
	r.pos++
	return row, true
}

// Len returns the total number of rows in the snapshot.
func (r *Rows) Len() int { return len(r.rows) }
