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
// prompt templates once per registered table, estimates completion token
// widths from column types, supplies a per-table cardinality estimate
// (registration metadata refined by prior-scan statistics), and maps the
// resulting decision back onto core.Strategy.

// defaultCardinality is the rows estimate for tables registered without
// metadata and never scanned: one page of unknown.
const defaultCardinality = pageSize

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

// promptTokens is a table's prompt boilerplate in tokens, measured on the
// real templates once, when the table is registered, so pricing a scan
// renders no prompt. The tokenizer starts afresh at every whitespace rune
// and whitespace surrounds each column segment of the LIST prompt's COLUMNS
// line, so the LIST count over any column set is exactly listBase, plus
// each segment's own count, plus one token per " | " separator
// (TestPromptTokensAdditive pins all three counts to the rendered
// templates).
type promptTokens struct {
	keys     int   // the unfiltered KEYS prompt
	attr     []int // per column, its ATTR prompt with the table name standing in for a key
	listBase int   // the unfiltered LIST prompt over no columns
	listCol  []int // per column, its COLUMNS-line segment (writeListColumn)
}

// measurePrompts renders t's unfiltered templates and counts their tokens.
// The ATTR prompts are measured with the table name standing in for an
// entity key — keys and table names have comparable token widths.
func measurePrompts(t *VirtualTable) promptTokens {
	n := t.Schema.Len()
	p := promptTokens{
		keys:     llm.CountTokens(buildKeysPrompt(t, nil, nil, 0)),
		attr:     make([]int, n),
		listBase: llm.CountTokens(buildListPrompt(t, nil, nil, nil, 0)),
		listCol:  make([]int, n),
	}
	var seg strings.Builder
	for c := 0; c < n; c++ {
		p.attr[c] = llm.CountTokens(buildAttrPrompt(t, t.Name, c))
		seg.Reset()
		writeListColumn(&seg, t.Schema.Col(c))
		p.listCol[c] = llm.CountTokens(seg.String())
	}
	return p
}

// list returns the tokens of the unfiltered LIST prompt over cols.
func (p *promptTokens) list(cols []int) int {
	n := p.listBase
	for i, c := range cols {
		if i > 0 {
			n++ // the "|" of " | "
		}
		n += p.listCol[c]
	}
	return n
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

// warmHitRate estimates the persistent prompt-cache hit rate a scan would
// see, by probing the cache's content-addressed index with its
// deterministic round-0 enumeration fingerprints — cache metadata, not a
// model call. A content-addressed cache is all-or-nothing for a repeated
// workload, so a warm enumeration prompt means the scan replays warm (rate
// 1); all probes cold means rate 0.
func (s *LLMStore) warmHitRate(sp *scanSpec) float64 {
	if s.disk == nil {
		return 0
	}
	for _, req := range s.roundZeroRequests(sp) {
		if s.disk.Contains(req) {
			return 1
		}
	}
	return 0
}

// scanCostModel assembles the estimator inputs for a scan. Callers must
// hold s.mu or own the table exclusively.
func (s *LLMStore) scanCostModel(sp *scanSpec) plan.ScanCostModel {
	cfg := s.cfg
	t := sp.table
	attrCol := sp.keyPos
	if len(sp.attrCols) > 0 {
		attrCol = sp.attrCols[0]
	}
	rounds := cfg.MaxRounds
	if cfg.Temperature <= 0 {
		rounds = 1
	}
	estRows := s.cardinalityEstimate(t)
	// Price expected fault recovery when a chaos profile is in force: the
	// injector publishes its per-attempt failure probability, the
	// Retrier's first backoff and attempt budget the recovery it will
	// charge. On a healthy backend both are zero-cost no-ops.
	return plan.ScanCostModel{
		Cost:             *s.costModel,
		Rows:             estRows,
		AttrCols:         len(sp.attrCols),
		ListPromptTokens: t.prompts.list(sp.cols),
		KeysPromptTokens: t.prompts.keys,
		AttrPromptTokens: t.prompts.attr[attrCol],
		RowTokens:        estRowTokens(t.Schema, sp.cols),
		KeyTokens:        estValueTokens(t.Schema.Col(sp.keyPos).Type),
		AttrTokens:       estValueTokens(t.Schema.Col(attrCol).Type) + 4, // answers arrive wrapped in short sentences
		Rounds:           rounds,
		MaxRounds:        cfg.MaxRounds,
		Votes:            cfg.Votes,
		PageSize:         pageSize,
		BatchSize:        cfg.BatchSize,
		Parallelism:      cfg.Parallelism,
		Limit:            sp.limit,
		Selectivity:      keySelectivity(sp.filter, t.Schema.Col(sp.keyPos).Name, estRows),
		WarmHitRate:      s.warmHitRate(sp),
		FaultRate:        cfg.Chaos.FailureRate(),
		RetryBackoff:     llm.BaseBackoff,
		MaxAttempts:      cfg.Retry.Normalized().MaxAttempts,
	}
}

// ScanDecision implements plan.ScanAdvisor: the planner calls it once per
// scan while annotating the plan, and the decision it returns — the
// strategy choice, its cost breakdown and the model they were priced from —
// is what EXPLAIN shows, what the join planner prices bind joins from and
// what Scan runs.
func (s *LLMStore) ScanDecision(table string, needed []bool, filter sql.Expr, limit int64) (plan.ScanDecision, bool) {
	t := s.tables.get(table)
	if t == nil {
		return plan.ScanDecision{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.shapeLocked(t, needed, filter, limit)
	return s.decideLocked(&sp), true
}

// EstimateRows implements plan.Cardinalities with the same estimate the
// scan planner prices from (registration metadata refined by prior scans).
func (s *LLMStore) EstimateRows(table string) (int, bool) {
	t := s.tables.get(table)
	if t == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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
