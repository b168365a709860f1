package plan

import (
	"fmt"
	"strings"
	"time"

	"llmsql/internal/llm"
	"llmsql/internal/sql"
)

// This file implements the cost side of scan planning: a token/latency/$
// estimator that prices each prompt-decomposition strategy for one
// virtual-table scan, so the engine can pick the cheapest per table
// ("auto" strategy) instead of forcing one global choice on the user.
//
// The estimator is deliberately closed-form: it uses the same llm.CostModel
// the accounting layer charges with, the catalog's column counts, and a
// per-table cardinality estimate (world metadata at registration, refined
// by prior-scan statistics), but it never calls the model. Estimates are
// therefore cheap, deterministic, and honest about being estimates — the
// EXPLAIN output labels them "est".

// StrategyCost prices one candidate decomposition of a virtual-table scan.
type StrategyCost struct {
	// Strategy is the candidate's display name ("full-table", "paged",
	// "key-then-attr").
	Strategy string
	// Prompts is the estimated number of model calls.
	Prompts int
	// PromptTokens and CompletionTokens are the estimated token totals.
	PromptTokens     int
	CompletionTokens int
	// Wall is the estimated critical-path latency under the configured
	// worker-pool width (list scheduling, same rule the engine accounts
	// with).
	Wall time.Duration
	// Dollars is the estimated spend under the cost model.
	Dollars float64
}

// Tokens returns prompt+completion tokens.
func (c StrategyCost) Tokens() int { return c.PromptTokens + c.CompletionTokens }

// ScanDecision records which decomposition a virtual-table scan will use
// and why: the full per-strategy cost breakdown behind the choice and the
// estimator inputs it was priced from. The planner attaches it to ScanNode
// (via ScanAdvisor) once per plan; EXPLAIN renders it, the join planner
// prices bind joins from its Model, and the executor hands it to the source,
// which runs Chosen without pricing the scan again.
type ScanDecision struct {
	// Auto reports that the strategy was chosen by the cost model; when
	// false the configuration forced Chosen and Candidates are advisory.
	Auto bool
	// Chosen is the strategy the scan will run.
	Chosen string
	// EstRows is the cardinality estimate the pricing used.
	EstRows int
	// Limit is the advisory row cap pushed onto the scan (0 = none).
	Limit int64
	// EstKeysAttributed is the expected number of keys the key-then-attr
	// strategy pays attribute prompts for:
	// min(cardinality*selectivity, limit+window). Equal to the filtered
	// cardinality when no limit is pushed.
	EstKeysAttributed int
	// WarmHitRate is the expected persistent prompt-cache hit rate the
	// pricing discounted estimated $ and wall by (0 = cold or no cache).
	WarmHitRate float64
	// FaultRate is the expected per-attempt failure probability the pricing
	// inflated estimated wall by (0 = healthy backend). Nonzero means every
	// candidate's Wall includes expected retry round trips and backoff.
	FaultRate float64
	// Candidates holds the cost breakdown per strategy, in a stable order.
	Candidates []StrategyCost
	// Model is the normalized estimator the candidates were priced with.
	Model ScanCostModel
}

// Candidate returns the cost entry for the named strategy (zero value when
// absent).
func (d ScanDecision) Candidate(name string) StrategyCost {
	for _, c := range d.Candidates {
		if c.Strategy == name {
			return c
		}
	}
	return StrategyCost{}
}

// String renders the decision compactly for EXPLAIN:
//
//	auto=key-then-attr est-rows=40 | full-table $0.0031/12s ...
func (d ScanDecision) String() string {
	var b strings.Builder
	if d.Auto {
		b.WriteString("auto=")
	} else {
		b.WriteString("strategy=")
	}
	b.WriteString(d.Chosen)
	fmt.Fprintf(&b, " est-rows=%d", d.EstRows)
	if d.Limit > 0 {
		fmt.Fprintf(&b, " limit=%d est-attr=%d", d.Limit, d.EstKeysAttributed)
	}
	if d.WarmHitRate > 0 {
		fmt.Fprintf(&b, " warm-hit=%.2f", d.WarmHitRate)
	}
	if d.FaultRate > 0 {
		fmt.Fprintf(&b, " fault-rate=%.2f", d.FaultRate)
	}
	for _, c := range d.Candidates {
		fmt.Fprintf(&b, " | %s: %d prompts, %d tok, $%.4f, %s",
			c.Strategy, c.Prompts, c.Tokens(), c.Dollars, c.Wall.Round(time.Millisecond))
	}
	return b.String()
}

// ScanAdvisor is an optional Catalog capability: catalogs that price scan
// decompositions per table (the LLM store) report the decision for a given
// needed-column mask so the planner can annotate ScanNode with it — the
// one decision EXPLAIN shows, bind joins are priced from and the scan
// runs. Catalogs without an opinion (row stores) simply do not implement
// it.
type ScanAdvisor interface {
	// ScanDecision prices the scan of table with the given needed mask
	// (nil = all columns), pushed-down filter (nil = none, used for a
	// selectivity estimate) and advisory row cap (0 = none). ok is false
	// when the table is not this catalog's or no pricing applies.
	ScanDecision(table string, needed []bool, filter sql.Expr, limit int64) (ScanDecision, bool)
}

// ScanDecision implements ScanAdvisor for MultiCatalog by consulting
// members in order.
func (m MultiCatalog) ScanDecision(table string, needed []bool, filter sql.Expr, limit int64) (ScanDecision, bool) {
	for _, c := range m {
		if adv, ok := c.(ScanAdvisor); ok {
			if d, ok := adv.ScanDecision(table, needed, filter, limit); ok {
				return d, true
			}
		}
	}
	return ScanDecision{}, false
}

// annotateScans walks an optimized plan and attaches a ScanDecision to
// every scan the catalog can price. It runs after column pruning and limit
// pushdown so the Needed masks and Limit hints the estimator sees are
// final, and before planJoins, which prices bind joins from the decisions.
func annotateScans(n Node, cat Catalog) {
	if n == nil {
		return
	}
	if s, ok := n.(*ScanNode); ok {
		if adv, ok := cat.(ScanAdvisor); ok {
			if d, ok := adv.ScanDecision(s.Table, s.Needed, s.Filter, s.Limit); ok {
				s.Decision = &d
			}
		}
		return
	}
	for _, c := range n.Children() {
		annotateScans(c, cat)
	}
}

// ScanCostModel holds the per-scan shape parameters the estimator prices
// from. The engine fills it from the catalog (column counts, prompt token
// counts measured on real prompt templates), the configuration (rounds,
// votes, page and batch sizes, parallelism) and its cardinality estimate.
type ScanCostModel struct {
	// Cost converts tokens into latency and dollars.
	Cost llm.CostModel
	// Rows is the estimated table cardinality.
	Rows int
	// AttrCols is the number of retrieved non-key columns.
	AttrCols int
	// ListPromptTokens / KeysPromptTokens / AttrPromptTokens are measured
	// token counts of one LIST / KEYS / single-key ATTR prompt.
	ListPromptTokens int
	KeysPromptTokens int
	AttrPromptTokens int
	// RowTokens / KeyTokens / AttrTokens estimate completion tokens per
	// full row, per bare key, and per single attribute answer.
	RowTokens  int
	KeyTokens  int
	AttrTokens int
	// Rounds is the expected number of constant-prompt enumeration
	// sampling rounds (1 at temperature zero — greedy decoding cannot
	// produce new rows).
	Rounds int
	// MaxRounds caps paged continuation. Pages vary the prompt, so paging
	// proceeds even at temperature zero and prices off this cap, not
	// Rounds.
	MaxRounds int
	// Votes is the self-consistency factor of attribute retrieval.
	Votes int
	// PageSize is MAXROWS per paged prompt.
	PageSize int
	// BatchSize is the keys-per-ATTR-prompt grouping factor (1 = one key
	// per prompt).
	BatchSize int
	// Parallelism is the scan worker-pool width.
	Parallelism int
	// Limit is the advisory row cap pushed onto the scan (0 = none): the
	// plan consumes at most this many rows, so the streaming key-then-attr
	// scan attributes at most Limit plus one prefetch window of keys.
	Limit int64
	// Selectivity estimates the fraction of entities surviving the
	// pushed-down predicate (1 = unfiltered; values <= 0 mean unknown and
	// are treated as 1). It scales enumeration completions for every
	// strategy and, because key-only conjuncts are enforced locally by the
	// scan's gate, the number of keys that reach the attribute phase.
	Selectivity float64
	// WarmHitRate is the expected persistent prompt-cache hit rate for this
	// scan's prompts (0 = cold or no cache; the engine probes the cache's
	// content-addressed index with the scan's deterministic round-0
	// enumeration fingerprints). Cached calls cost no dollars or latency,
	// so the $ and wall a decision reports, and BindScan's, are discounted
	// by the rate. Decide chooses before discounting, so the rate never
	// changes the strategy choice itself. Prompt and token counts stay
	// undiscounted: the calls are still issued, they are just free.
	WarmHitRate float64
	// FaultRate is the expected per-attempt probability that a model call
	// fails retryably (the engine derives it from the configured chaos
	// profile; 0 on a healthy backend). Nonzero rates price expected
	// recovery into every candidate's wall: each call is extended by the
	// expected number of retries times a failed round trip plus
	// RetryBackoff. Dollars are left alone — failed attempts return no
	// tokens, and that is what dollars charge for. Like the warm discount
	// this applies uniformly, so the strategy choice itself is unchanged;
	// EXPLAIN surfaces the rate so a degraded estimate is recognizable.
	FaultRate float64
	// RetryBackoff is the expected backoff wait per retry (the retry
	// policy's base backoff; exponential growth and jitter average out
	// around it at low fault rates).
	RetryBackoff time.Duration
	// MaxAttempts caps the expected retries per call at the retry budget.
	MaxAttempts int
}

func (m ScanCostModel) normalized() ScanCostModel {
	if m.Rows < 1 {
		m.Rows = 1
	}
	if m.Rounds < 1 {
		m.Rounds = 1
	}
	if m.MaxRounds < m.Rounds {
		m.MaxRounds = m.Rounds
	}
	if m.Votes < 1 {
		m.Votes = 1
	}
	if m.PageSize < 1 {
		m.PageSize = 1
	}
	if m.BatchSize < 1 {
		m.BatchSize = 1
	}
	if m.Parallelism < 1 {
		m.Parallelism = 1
	}
	if m.Limit < 0 {
		m.Limit = 0
	}
	if m.Selectivity <= 0 || m.Selectivity > 1 {
		m.Selectivity = 1
	}
	if m.WarmHitRate < 0 {
		m.WarmHitRate = 0
	}
	if m.WarmHitRate > 1 {
		m.WarmHitRate = 1
	}
	if m.FaultRate < 0 {
		m.FaultRate = 0
	}
	if m.FaultRate > 1 {
		m.FaultRate = 1
	}
	if m.RetryBackoff < 0 {
		m.RetryBackoff = 0
	}
	if m.MaxAttempts < 1 {
		m.MaxAttempts = 1
	}
	return m
}

// expectedRetries is the expected number of extra attempts one call spends
// recovering at the configured fault rate: the geometric mean p/(1-p),
// capped by the attempt budget (a run that exhausts the budget stops
// retrying whether or not the backend recovered).
func (m ScanCostModel) expectedRetries() float64 {
	p := m.FaultRate
	if p <= 0 {
		return 0
	}
	if p > 0.99 {
		p = 0.99
	}
	r := p / (1 - p)
	if lim := float64(m.MaxAttempts - 1); r > lim {
		r = lim
	}
	return r
}

// faultOverhead is the expected extra virtual time one call spends on
// recovery: each expected retry burns a failed round trip plus one backoff
// wait — exactly what the Retrier charges into FaultLatency, in
// expectation.
func (m ScanCostModel) faultOverhead() time.Duration {
	r := m.expectedRetries()
	if r <= 0 {
		return 0
	}
	return time.Duration(r * float64(m.Cost.PerCallLatency+m.RetryBackoff))
}

// effRows is the estimated number of entities the model returns for an
// enumeration prompt: the cardinality scaled by the pushed predicate's
// selectivity, at least one.
func (m ScanCostModel) effRows() int {
	rows := int(float64(m.Rows)*m.Selectivity + 0.5)
	if rows < 1 {
		rows = 1
	}
	return rows
}

// PrefetchWindow returns the number of keys the streaming key-then-attr
// scan attributes per demand-driven window: the smallest batch-aligned key
// count whose fan-out (attrCols x votes tasks per key) fills the worker
// pool, capped by the advisory limit (there is no point prefetching past
// what the plan will consume). Windows are always a multiple of batch so
// the batched prompt grouping — and therefore every completion — is
// byte-identical to the unwindowed scan. The same formula prices the
// expected over-fetch in ScanCostModel.KeyThenAttr.
func PrefetchWindow(parallelism, attrCols, votes, batch int, limit int64) int {
	if parallelism < 1 {
		parallelism = 1
	}
	if attrCols < 1 {
		attrCols = 1
	}
	if votes < 1 {
		votes = 1
	}
	if batch < 1 {
		batch = 1
	}
	tasksPerKey := attrCols * votes
	w := (parallelism + tasksPerKey - 1) / tasksPerKey
	if limit > 0 && int64(w) > limit {
		w = int(limit)
	}
	return (w + batch - 1) / batch * batch
}

// attrKeys is the expected number of keys the key-then-attr strategy pays
// attribute prompts for: all surviving keys without a limit, and at most
// limit plus one prefetch window with one (the demand-driven scan stops
// launching attribute work once downstream has consumed enough rows).
func (m ScanCostModel) attrKeys() int {
	keys := m.effRows()
	if m.Limit > 0 {
		w := PrefetchWindow(m.Parallelism, m.AttrCols, m.Votes, m.BatchSize, m.Limit)
		if bound := m.Limit + int64(w); int64(keys) > bound {
			keys = int(bound)
		}
	}
	return keys
}

// fanOutWall replays n calls of per-call duration d through the same greedy
// list scheduler the engine accounts with, returning the makespan under the
// configured lane count. Each call carries its expected fault-recovery
// overhead, occupying its lane the way the engine's accounting would.
func (m ScanCostModel) fanOutWall(n int, d time.Duration) time.Duration {
	d += m.faultOverhead()
	sched := llm.NewSched(m.Parallelism)
	for i := 0; i < n; i++ {
		sched.Add(d)
	}
	return sched.Makespan()
}

// price assembles a cold-cache StrategyCost from call shape totals and the
// scheduled wall latency.
func (m ScanCostModel) price(name string, prompts, promptTok, complTok int, wall time.Duration) StrategyCost {
	return StrategyCost{
		Strategy:         name,
		Prompts:          prompts,
		PromptTokens:     promptTok,
		CompletionTokens: complTok,
		Wall:             wall,
		Dollars:          m.Cost.Dollars(promptTok, complTok),
	}
}

// warm discounts a cold cost's $ and wall by the expected warm-cache hit
// rate — cached calls are free — while the prompt and token columns keep
// the full workload shape.
func (m ScanCostModel) warm(c StrategyCost) StrategyCost {
	cold := 1 - m.WarmHitRate
	c.Wall = time.Duration(float64(c.Wall) * cold)
	c.Dollars *= cold
	return c
}

// FullTable prices the full-table decomposition: Rounds LIST prompts, each
// answering the whole (estimated) table. Rounds are prefetched concurrently
// by the engine, so wall latency fans out.
func (m ScanCostModel) FullTable() StrategyCost {
	m = m.normalized()
	perPrompt := m.ListPromptTokens
	perCompl := m.effRows() * m.RowTokens
	perCall := m.Cost.Latency(perPrompt, perCompl)
	return m.price("full-table",
		m.Rounds, m.Rounds*perPrompt, m.Rounds*perCompl,
		m.fanOutWall(m.Rounds, perCall))
}

// Paged prices the paged decomposition: sequential LIST prompts of PageSize
// rows whose EXCLUDE list grows by one page of keys each step, plus one
// final empty page that triggers convergence. Pages form a dependency chain,
// so wall latency is the serial sum regardless of parallelism.
func (m ScanCostModel) Paged() StrategyCost {
	m = m.normalized()
	eff := m.effRows()
	pages := (eff+m.PageSize-1)/m.PageSize + 1
	if pages > m.MaxRounds {
		pages = m.MaxRounds
	}
	var promptTok, complTok int
	var wall time.Duration
	for p := 0; p < pages; p++ {
		// Page p's prompt carries the keys of all previous pages.
		excluded := p * m.PageSize
		if excluded > eff {
			excluded = eff
		}
		pt := m.ListPromptTokens + excluded*m.KeyTokens
		rows := eff - excluded
		if rows > m.PageSize {
			rows = m.PageSize
		}
		if rows < 0 {
			rows = 0
		}
		ct := rows * m.RowTokens
		promptTok += pt
		complTok += ct
		wall += m.Cost.Latency(pt, ct) + m.faultOverhead()
	}
	return m.price("paged", pages, promptTok, complTok, wall)
}

// KeyThenAttr prices the Galois-style decomposition: Rounds KEYS prompts
// (prefetched), then one ATTR prompt per batch of BatchSize keys per
// retrieved column per vote (fanned out across the pool). Batching folds
// the per-prompt boilerplate over BatchSize keys, which is where the
// savings come from.
func (m ScanCostModel) KeyThenAttr() StrategyCost {
	m = m.normalized()
	return m.keyThenAttrKeys("key-then-attr", m.attrKeys())
}

// BindScan prices the bound key-then-attr scan a bind join issues: the
// enumeration phase is unchanged (it stays the membership oracle that keeps
// bound results byte-identical to the full scan), but only enumerated keys
// among the boundKeys outer join-key values reach the attribute fan-out —
// the dominant cost term, attrCols x votes prompts per key. The bind gate
// keeps whole batch groups (batched prompts must stay identical to the
// unbound scan's), so worst-case scatter touches one full group per bound
// key: price min(boundKeys, groups) groups. The cost is warm-discounted,
// like the scan candidates of a decision it is compared against.
func (m ScanCostModel) BindScan(boundKeys int) StrategyCost {
	m = m.normalized()
	if boundKeys < 0 {
		boundKeys = 0
	}
	keys := m.attrKeys()
	groups := (keys + m.BatchSize - 1) / m.BatchSize
	if boundKeys < groups {
		groups = boundKeys
	}
	if bound := groups * m.BatchSize; bound < keys {
		keys = bound
	}
	return m.warm(m.keyThenAttrKeys("bind", keys))
}

// keyThenAttrKeys assembles the key-then-attr cost shape for an attribute
// phase over exactly attrKeys keys.
func (m ScanCostModel) keyThenAttrKeys(name string, attrKeys int) StrategyCost {
	keysPrompt := m.KeysPromptTokens
	keysCompl := m.effRows() * m.KeyTokens
	wall := m.fanOutWall(m.Rounds, m.Cost.Latency(keysPrompt, keysCompl))
	promptTok := m.Rounds * keysPrompt
	complTok := m.Rounds * keysCompl

	// Only keys the limit leaves in demand reach the attribute phase.
	batches := (attrKeys + m.BatchSize - 1) / m.BatchSize
	attrPrompts := batches * m.AttrCols * m.Votes
	// A batched prompt lists its keys; a batched answer echoes each key
	// next to its value. BatchSize 1 degrades to the single-key shape.
	perPrompt := m.AttrPromptTokens + (m.BatchSize-1)*m.KeyTokens
	perCompl := m.AttrTokens
	if m.BatchSize > 1 {
		perCompl = m.BatchSize * (m.KeyTokens + m.AttrTokens)
	}
	promptTok += attrPrompts * perPrompt
	complTok += attrPrompts * perCompl
	wall += m.fanOutWall(attrPrompts, m.Cost.Latency(perPrompt, perCompl))

	return m.price(name, m.Rounds+attrPrompts, promptTok, complTok, wall)
}

// Decide prices every strategy and picks the cheapest by estimated dollars,
// breaking ties toward lower wall latency and then candidate order. Dollar
// cost is the primary axis because it is the one the paper's trade-off is
// about (tokens are what you pay for); wall latency is the tiebreak because
// it is what the user waits for. The choice is made on cold-cache cost: a
// warm discount scales every candidate alike, and at rate 1 it would zero
// them all into a tie that falls to full-table whatever the cold costs say.
// The candidates the decision carries are the discounted figures.
func (m ScanCostModel) Decide() ScanDecision {
	m = m.normalized()
	cands := []StrategyCost{m.FullTable(), m.Paged(), m.KeyThenAttr()}
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Dollars < cands[best].Dollars ||
			(cands[i].Dollars == cands[best].Dollars && cands[i].Wall < cands[best].Wall) {
			best = i
		}
	}
	chosen := cands[best].Strategy
	for i := range cands {
		cands[i] = m.warm(cands[i])
	}
	return ScanDecision{
		Auto:              true,
		Chosen:            chosen,
		EstRows:           m.Rows,
		Limit:             m.Limit,
		EstKeysAttributed: m.attrKeys(),
		WarmHitRate:       m.WarmHitRate,
		FaultRate:         m.FaultRate,
		Candidates:        cands,
		Model:             m,
	}
}
