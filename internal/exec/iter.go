// Package exec executes logical plans (internal/plan) against pluggable
// table sources. The same operators serve the classical row store and the
// LLM-storage engine; only the Source implementation differs.
package exec

import (
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// RowIter is a forward-only row stream.
type RowIter interface {
	// Next returns the next row. ok=false signals exhaustion; err aborts.
	Next() (row rel.Row, ok bool, err error)
	// Close releases resources. It is safe to call multiple times.
	Close() error
}

// ScanRequest describes a base-table access. The Filter and Needed fields
// are advisory pushdowns: a source may use them to reduce work (the LLM
// source rewrites them into the prompt) but the executor re-applies the
// filter on every returned row, treating sources as untrusted.
type ScanRequest struct {
	// Table is the catalog table name.
	Table string
	// Alias is the binding name in the query.
	Alias string
	// Schema is the expected output schema (alias-qualified).
	Schema rel.Schema
	// Needed marks consumed columns; nil means all. Sources may return
	// NULL for unneeded columns.
	Needed []bool
	// Filter is a predicate over Schema, or nil.
	Filter sql.Expr
	// Limit, when positive, is an advisory row cap: the plan consumes at
	// most this many rows that survive the (re-applied) Filter. Sources
	// may stop retrieving early because of it but must never return fewer
	// qualifying rows than they otherwise would; the executor's LimitNode
	// enforces the real limit regardless. 0 means no hint.
	Limit int64
	// UnderLimit reports that a LimitNode sits above the scan with only
	// streaming operators between, so its consumer may stop pulling before
	// the stream ends even when no hint could be pushed (a filter, DISTINCT
	// or a join's probe side lies in between). A source that works ahead of
	// demand should do so in small steps then; without it the scan will be
	// drained — as it is under a sort, an aggregate or a join side that is
	// materialized before the join emits.
	UnderLimit bool
	// Keys, when non-nil, binds the scan to the given entity-key values
	// (sideways information passing from a bind join: the distinct join
	// keys the outer side produced). A source may use it to retrieve only
	// those entities — the LLM source restricts its attribute fan-out to
	// the bound keys — but must return every row it would otherwise
	// return whose key is among them. Like every pushdown it is advisory:
	// the bind join drops any returned row whose key was never bound, so
	// a source that ignores or violates the hint cannot change results.
	// An empty non-nil slice means no key can match (the scan may return
	// nothing at all).
	Keys []string
	// Decision, when non-nil, is the planner's strategy decision for this
	// scan (plan.ScanNode.Decision): a source that prices decompositions
	// runs the one it names instead of deciding again. nil means unplanned.
	Decision *plan.ScanDecision
}

// Source provides table access for scans.
type Source interface {
	// Scan opens a row stream for the request.
	Scan(req ScanRequest) (RowIter, error)
}

// sliceIter iterates a materialized row slice.
type sliceIter struct {
	rows []rel.Row
	pos  int
}

func newSliceIter(rows []rel.Row) *sliceIter { return &sliceIter{rows: rows} }

func (s *sliceIter) Next() (rel.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *sliceIter) Close() error { return nil }

// Drain reads every row from it, closing it afterwards.
func Drain(it RowIter) ([]rel.Row, error) {
	defer it.Close()
	var out []rel.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// funcIter adapts a closure to RowIter.
type funcIter struct {
	next  func() (rel.Row, bool, error)
	close func() error
}

func (f *funcIter) Next() (rel.Row, bool, error) { return f.next() }

func (f *funcIter) Close() error {
	if f.close != nil {
		return f.close()
	}
	return nil
}
