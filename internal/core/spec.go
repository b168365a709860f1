package core

import (
	"slices"
	"strings"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// scanSpec is everything one virtual-table scan decides before its first
// prompt, resolved once by specLocked. Scan runs it; ScanDecision,
// BindScanCost and the cost model price it; the view manifest rebuilds its
// prompts from it.
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
// filter and limit hint under the store's configuration: Pushdown gates the
// filter (stored with qualifiers stripped, as prompts name columns),
// LimitPushdown the limit and BindJoin the key binding. With StrategyAuto
// the cost model prices the decompositions for exactly this column set,
// filter and limit and the cheapest becomes the effective strategy — the
// decision EXPLAIN annotates. The strategy never depends on a binding, so a
// bound scan runs exactly the strategy the hash-join plan's scan would. d,
// when non-nil, receives the pricing, done even for a forced strategy (its
// candidates are then advisory). Callers must hold s.mu.
func (s *LLMStore) specLocked(t *VirtualTable, needed []bool, filter sql.Expr, limit int64, d *plan.ScanDecision) scanSpec {
	sp := scanSpec{table: t, strategy: s.cfg.Strategy}
	sp.cols, sp.keyPos, sp.attrCols = neededColumns(t.Schema, needed)
	if s.cfg.Pushdown {
		sp.filter = stripQualifiers(filter)
	}
	if s.cfg.LimitPushdown && limit > 0 {
		sp.limit = limit
	}
	if sp.strategy == StrategyAuto || d != nil {
		dec := s.scanCostModel(&sp).Decide()
		if sp.strategy == StrategyAuto {
			sp.auto = true
			sp.strategy = strategyByName(dec.Chosen)
		} else {
			dec.Auto, dec.Chosen = false, sp.strategy.String()
		}
		if d != nil {
			*d = dec
		}
	}
	sp.bind = s.cfg.BindJoin && sp.strategy == StrategyKeyThenAttr
	return sp
}

// spec resolves a scan of the named table as Scan would (see specLocked),
// for callers that rebuild its prompts without running it.
func (s *LLMStore) spec(table string, needed []bool, filter sql.Expr, limit int64) (scanSpec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[strings.ToLower(table)]
	if !ok {
		return scanSpec{}, false
	}
	return s.specLocked(t, needed, filter, limit, nil), true
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
