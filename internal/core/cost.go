package core

import (
	"strings"

	"llmsql/internal/llm"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// This file bridges the engine to the planner's scan-cost estimator
// (internal/plan/cost.go): it measures prompt token counts on the real
// prompt templates, estimates completion token widths from column types,
// supplies a per-table cardinality estimate (registration metadata refined
// by prior-scan statistics), and maps the resulting decision back onto
// core.Strategy.

// defaultCardinality is the rows estimate for tables registered without
// metadata and never scanned. It matches DefaultConfig's page size: one
// page of unknown.
const defaultCardinality = 40

// Completion-token width estimates per column type. These feed the cost
// estimator only — accounting always charges exact measured tokens.
func estValueTokens(t rel.DataType) int {
	switch t {
	case rel.TypeBool:
		return 1
	case rel.TypeInt, rel.TypeFloat:
		return 3
	default: // TEXT: a short name or phrase
		return 4
	}
}

// estRowTokens estimates completion tokens for one full row over cols
// (fields plus separators).
func estRowTokens(schema rel.Schema, cols []int) int {
	tok := 0
	for _, c := range cols {
		tok += estValueTokens(schema.Col(c).Type) + 1 // " | " separator
	}
	return tok
}

// cardinalityEstimate returns the rows estimate for a table: prior-scan
// statistics win over registration metadata, which wins over the default.
// Callers must hold s.mu or own the table exclusively.
func (s *LLMStore) cardinalityEstimate(t *VirtualTable) int {
	if n, ok := s.estRows[t.Name]; ok && n > 0 {
		return n
	}
	if t.EstRows > 0 {
		return t.EstRows
	}
	return defaultCardinality
}

// keySelectivity crudely estimates the fraction of entities surviving the
// key-only conjuncts of a pushed filter — the conjuncts the scan's gate
// enforces locally, so they genuinely shrink the attribute fan-out.
// Equality and IN pin a handful of keys; any other key-only predicate is
// guessed at one third. Non-key conjuncts contribute nothing: the gate
// cannot decide them, so every enumerated key still reaches the attribute
// phase. The guess only feeds estimates (EXPLAIN labels them "est");
// accounting always charges what actually ran.
func keySelectivity(filter sql.Expr, keyName string, rows int) float64 {
	if filter == nil {
		return 1
	}
	if rows < 1 {
		rows = 1
	}
	sel := 1.0
	for _, c := range keyOnlyConjuncts(filter, keyName) {
		switch x := c.(type) {
		case *sql.BinaryExpr:
			if x.Op == sql.OpEq {
				sel *= 1 / float64(rows)
			} else {
				sel *= 1.0 / 3
			}
		case *sql.InExpr:
			if !x.Not && len(x.List) > 0 {
				sel *= float64(len(x.List)) / float64(rows)
			} else {
				sel *= 1.0 / 3
			}
		default:
			sel *= 1.0 / 3
		}
	}
	if sel < 1/float64(rows) {
		sel = 1 / float64(rows)
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// warmHitRate estimates the persistent prompt-cache hit rate this scan
// would see, by probing the cache's content-addressed index with the scan's
// deterministic round-0 enumeration fingerprints (LIST, paged page 0,
// KEYS) — cache metadata, not a model call. A content-addressed cache is
// all-or-nothing for a repeated workload, so a warm enumeration prompt
// means the scan replays warm (rate 1); all probes cold means rate 0.
// Callers must hold s.mu or own the table exclusively.
func (s *LLMStore) warmHitRate(t *VirtualTable, cols []int, filter sql.Expr) float64 {
	if s.disk == nil {
		return 0
	}
	keyName := t.Schema.Col(t.Schema.KeyIndexes()[0]).Name
	keyFilter := sql.JoinConjuncts(keyOnlyConjuncts(filter, keyName))
	probes := []string{
		buildListPrompt(t, cols, filter, nil, 0),
		buildListPrompt(t, cols, filter, nil, s.cfg.PageSize),
		buildKeysPrompt(t, keyFilter, nil, 0),
	}
	for _, prompt := range probes {
		if s.disk.Contains(s.cfg.request(prompt, 0)) {
			return 1
		}
	}
	return 0
}

// scanCostModel assembles the estimator inputs for scanning cols of t
// under the given pushed filter and advisory limit.
func (s *LLMStore) scanCostModel(t *VirtualTable, cols []int, filter sql.Expr, limit int64) plan.ScanCostModel {
	cfg := s.cfg
	keyPos := t.Schema.KeyIndexes()[0]
	attrCols := 0
	for _, c := range cols {
		if c != keyPos {
			attrCols++
		}
	}
	// Measure prompt boilerplate on the real templates. The ATTR prompt is
	// measured with the table name standing in for an entity key — keys
	// and table names have comparable token widths.
	sampleKey := t.Name
	attrCol := keyPos
	for _, c := range cols {
		if c != keyPos {
			attrCol = c
			break
		}
	}
	rounds := cfg.MaxRounds
	if cfg.Temperature <= 0 {
		rounds = 1
	}
	estRows := s.cardinalityEstimate(t)
	// Price expected fault recovery when a chaos profile is in force: the
	// injector publishes its per-attempt failure probability, the retry
	// policy the backoff the Retrier will charge. On a healthy backend both
	// are zero-cost no-ops.
	retry := cfg.Retry.Normalized()
	return plan.ScanCostModel{
		Cost:             s.costModel,
		Rows:             estRows,
		AttrCols:         attrCols,
		ListPromptTokens: llm.CountTokens(buildListPrompt(t, cols, nil, nil, 0)),
		KeysPromptTokens: llm.CountTokens(buildKeysPrompt(t, nil, nil, 0)),
		AttrPromptTokens: llm.CountTokens(buildAttrPrompt(t, sampleKey, attrCol)),
		RowTokens:        estRowTokens(t.Schema, cols),
		KeyTokens:        estValueTokens(t.Schema.Col(keyPos).Type),
		AttrTokens:       estValueTokens(t.Schema.Col(attrCol).Type) + 4, // answers arrive wrapped in short sentences
		Rounds:           rounds,
		MaxRounds:        cfg.MaxRounds,
		Votes:            cfg.Votes,
		PageSize:         cfg.PageSize,
		BatchSize:        cfg.BatchSize,
		Parallelism:      cfg.Parallelism,
		Limit:            limit,
		Selectivity:      keySelectivity(filter, t.Schema.Col(keyPos).Name, estRows),
		WarmHitRate:      s.warmHitRate(t, cols, filter),
		FaultRate:        cfg.Chaos.FailureRate(),
		RetryBackoff:     retry.BaseBackoff,
		MaxAttempts:      retry.MaxAttempts,
	}
}

// decide prices the scan of cols over t — under the pushed filter and
// advisory limit the scan will actually run with — and returns the
// decision. With StrategyAuto the cost model chooses; otherwise the
// configured strategy is reported as forced, with the candidate breakdown
// kept advisory. filter and limit must already respect the Pushdown /
// LimitPushdown configuration (callers pass nil / 0 when disabled).
func (s *LLMStore) decide(t *VirtualTable, cols []int, filter sql.Expr, limit int64) plan.ScanDecision {
	m := s.scanCostModel(t, cols, filter, limit)
	d := m.Decide()
	if s.cfg.Strategy != StrategyAuto {
		d.Auto = false
		d.Chosen = s.cfg.Strategy.String()
	}
	return d
}

// ScanDecision implements plan.ScanAdvisor: the planner calls it while
// annotating scans so EXPLAIN can show the strategy choice and its cost
// breakdown, including the limit hint and the expected attribute fan-out.
func (s *LLMStore) ScanDecision(table string, needed []bool, filter sql.Expr, limit int64) (plan.ScanDecision, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[strings.ToLower(table)]
	if !ok {
		return plan.ScanDecision{}, false
	}
	if !s.cfg.Pushdown {
		filter = nil
	} else {
		filter = stripQualifiers(filter)
	}
	if !s.cfg.LimitPushdown || limit < 0 {
		limit = 0
	}
	return s.decide(t, neededColumns(t.Schema, needed), filter, limit), true
}

// BindScanCost implements plan.BindAdvisor: it prices the bound
// key-then-attr scan a bind join would issue against this table, with the
// attribute fan-out restricted to boundKeys outer join-key values. Binding
// only applies when the scan's effective strategy is key-then-attr — with
// any other (forced or auto-chosen) decomposition the bound scan could not
// stay byte-identical to the unbound one — so ok is false otherwise, and
// the join planner falls back to hash.
func (s *LLMStore) BindScanCost(table string, needed []bool, filter sql.Expr, boundKeys int) (plan.StrategyCost, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[strings.ToLower(table)]
	if !ok || !s.cfg.BindJoin {
		return plan.StrategyCost{}, false
	}
	if !s.cfg.Pushdown {
		filter = nil
	} else {
		filter = stripQualifiers(filter)
	}
	cols := neededColumns(t.Schema, needed)
	if s.cfg.Strategy != StrategyKeyThenAttr &&
		(s.cfg.Strategy != StrategyAuto || s.decide(t, cols, filter, 0).Chosen != "key-then-attr") {
		return plan.StrategyCost{}, false
	}
	return s.scanCostModel(t, cols, filter, 0).BindScan(boundKeys), true
}

// EstimateRows implements plan.Cardinalities with the same estimate the
// scan planner prices from (registration metadata refined by prior scans).
func (s *LLMStore) EstimateRows(table string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[strings.ToLower(table)]
	if !ok {
		return 0, false
	}
	return s.cardinalityEstimate(t), true
}

// strategyByName maps a decision back to the executable strategy.
func strategyByName(name string) Strategy {
	switch name {
	case "key-then-attr":
		return StrategyKeyThenAttr
	case "paged":
		return StrategyPaged
	default:
		return StrategyFullTable
	}
}

// noteCardinality records an observed row count as the table's refined
// cardinality estimate for future decisions. Zero observations are ignored
// (an empty retrieval says more about the model than the table).
func (s *LLMStore) noteCardinality(table string, rows int) {
	if rows <= 0 {
		return
	}
	s.mu.Lock()
	s.estRows[table] = rows
	s.mu.Unlock()
}
