package core

import (
	"slices"
	"strings"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// scanSpec is everything one virtual-table scan decides before its first
// prompt, resolved once by specLocked. Scan runs it, under the strategy of
// the plan's ScanDecision (priced by decideLocked).
type scanSpec struct {
	table    *VirtualTable
	cols     []int // needed schema positions, ascending, key column(s) included
	keyPos   int   // schema position of the entity key
	attrCols []int // cols but the entity key: the attribute phase's columns
	filter   sql.Expr
	limit    int64    // advisory row cap (0 = none)
	strategy Strategy // effective strategy: StrategyAuto is resolved
	auto     bool     // strategy was chosen by the cost model
	// bind reports that a bind join's keys may restrict this scan: binding
	// is on and the strategy is key-then-attr — any other decomposition
	// could not honour it without changing its prompts, and therefore its
	// rows, relative to the unbound scan.
	bind bool
}

// specLocked resolves a scan of t for the executor's needed mask, pushed
// filter and limit hint (see shapeLocked) and its strategy. d is the plan's
// decision for the scan, and the scan adopts its strategy and Auto flag
// rather than pricing again — a cached plan runs the strategy its EXPLAIN
// shows. Only an unplanned scan (d nil, a direct Scan caller) under
// StrategyAuto prices for itself. The strategy never depends on a binding,
// so a bound scan runs exactly the strategy the hash-join plan's scan would.
// Callers must hold s.mu.
func (s *LLMStore) specLocked(t *VirtualTable, needed []bool, filter sql.Expr, limit int64, d *plan.ScanDecision) scanSpec {
	sp := s.shapeLocked(t, needed, filter, limit)
	sp.strategy = s.cfg.Strategy
	if d == nil && sp.strategy == StrategyAuto {
		dec := s.decideLocked(&sp)
		d = &dec
	}
	if d != nil {
		sp.strategy, sp.auto = strategyByName(d.Chosen), d.Auto
	}
	sp.bind = s.cfg.BindJoin && sp.strategy == StrategyKeyThenAttr
	return sp
}

// shapeLocked resolves everything of a scan but its strategy under the
// store's configuration: the columns, the filter Pushdown lets through
// (stored with qualifiers stripped, as prompts name columns) and the limit
// LimitPushdown lets through. Callers must hold s.mu.
func (s *LLMStore) shapeLocked(t *VirtualTable, needed []bool, filter sql.Expr, limit int64) scanSpec {
	sp := scanSpec{table: t}
	sp.cols, sp.keyPos, sp.attrCols = neededColumns(t.Schema, needed)
	if s.cfg.Pushdown {
		sp.filter = stripQualifiers(filter)
	}
	if s.cfg.LimitPushdown && limit > 0 {
		sp.limit = limit
	}
	return sp
}

// decideLocked prices sp's decompositions, the one place a scan is priced:
// under StrategyAuto the cheapest becomes the decision; a forced strategy
// stays Chosen and the candidates are advisory. Callers must hold s.mu.
func (s *LLMStore) decideLocked(sp *scanSpec) plan.ScanDecision {
	d := s.scanCostModel(sp).Decide()
	if s.cfg.Strategy != StrategyAuto {
		d.Auto, d.Chosen = false, s.cfg.Strategy.String()
	}
	return d
}

// keyFilter is the conjunction of the pushed conjuncts that reference the
// entity key alone (nil when there are none): the KEYS prompt carries them
// and the key gate enforces them. Derived on demand, so the full-table path
// never splits its filter.
func (sp *scanSpec) keyFilter() sql.Expr {
	if sp.filter == nil {
		return nil
	}
	return sql.JoinConjuncts(keyOnlyConjuncts(sp.filter, sp.table.Schema.Col(sp.keyPos).Name))
}

// neededColumns converts the executor's needed mask into schema positions:
// cols holds every key column and each needed one, ascending; attrCols is
// cols but the entity key at keyPos, the first key column.
func neededColumns(schema rel.Schema, needed []bool) (cols []int, keyPos int, attrCols []int) {
	keyIdx := schema.KeyIndexes()
	keyPos = keyIdx[0]
	cols = make([]int, 0, schema.Len())
	attrCols = make([]int, 0, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		if needed == nil || needed[i] || slices.Contains(keyIdx, i) {
			cols = append(cols, i)
			if i != keyPos {
				attrCols = append(attrCols, i)
			}
		}
	}
	return cols, keyPos, attrCols
}

// keyOnlyConjuncts returns the pushed conjuncts that reference no column
// but the entity key. They are the only predicate parts decidable between
// the enumeration and attribute phases, so the gate enforces exactly this
// set and the cost model's selectivity estimate prices exactly this set
// (keySelectivity) — keep the two from drifting by sharing the predicate.
func keyOnlyConjuncts(filter sql.Expr, keyName string) []sql.Expr {
	var keep []sql.Expr
	for _, c := range sql.SplitConjuncts(filter) {
		if len(sql.ColumnRefs(c)) > 0 && filterUsesOnly(c, keyName) {
			keep = append(keep, c)
		}
	}
	return keep
}

// filterUsesOnly reports whether every column reference in e is the named
// column.
func filterUsesOnly(e sql.Expr, column string) bool {
	for _, ref := range sql.ColumnRefs(e) {
		if !strings.EqualFold(ref.Name, column) {
			return false
		}
	}
	return true
}
