package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"llmsql/internal/exec"
	"llmsql/internal/expr"
	"llmsql/internal/llm"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// ScanStats reports what one LLM-backed scan did.
type ScanStats struct {
	// Table is the scanned virtual table.
	Table string
	// Strategy used. With Config.Strategy == StrategyAuto this is the
	// strategy the cost-based planner actually chose.
	Strategy Strategy
	// Auto reports that Strategy was chosen by the cost model.
	Auto bool
	// Prompts issued.
	Prompts int
	// BatchedPrompts counts ATTR prompts that asked for a batch of keys
	// (Config.BatchSize > 1, key-then-attr only).
	BatchedPrompts int
	// BatchFallbacks counts (key, column, vote) cells whose batched answer
	// failed to parse and were re-asked with a single-key prompt.
	BatchFallbacks int
	// Rounds of enumeration sampling actually run.
	Rounds int
	// Rows emitted to the executor. A scan abandoned early (a LIMIT
	// upstream stopped pulling) counts only the rows actually consumed.
	RowsEmitted int
	// KeysGated counts enumerated keys dropped by the local key gate of
	// the key-then-attr pipeline: a key-only pushed conjunct rejected them,
	// so they never generated attribute prompts (the executor's re-check
	// would have dropped their rows anyway).
	KeysGated int
	// KeysAttributed counts keys that actually entered the attribute
	// phase. With a pushed limit this stops at the last demand-driven
	// prefetch window; without one it equals the surviving key count.
	KeysAttributed int
	// KeysBound counts the distinct join-key values a bind join pushed
	// into this scan (0 when the scan was unbound). Enumerated keys
	// outside the bound set skip the attribute phase entirely.
	KeysBound int
	// Duplicates removed by entity-key dedup.
	Duplicates int
	// LowConfidenceDropped counts entities removed by the MinConfidence
	// filter (seen in too few sampling rounds).
	LowConfidenceDropped int
	// CacheHits and CacheMisses count completion-cache lookups among the
	// calls this scan consumed (zero when no cache is configured; discarded
	// speculative prefetch calls are excluded, mirroring Prompts — though
	// at Parallelism > 1 they may warm the cache for later scans).
	CacheHits   int
	CacheMisses int
	// DiskHits and DiskMisses count persistent prompt-cache lookups among
	// the calls this scan consumed, and DiskBytes the on-disk record bytes
	// those hits served (all zero without Config.CacheDir). An in-memory
	// cache hit performs no disk lookup and counts in neither.
	DiskHits   int
	DiskMisses int
	DiskBytes  int64
	// CoalescedHits counts calls this scan consumed that a serving-mode
	// Coalescer answered from another session's identical request instead of
	// a call of its own (zero outside serve mode). Coalesced responses keep
	// their original cache flags and billing, so every other counter —
	// Prompts, CacheHits/Misses, DiskHits/Misses, Usage — reads exactly as
	// it would in a solo run; this field is the only place the sharing
	// shows. See llm.Coalescer.
	CoalescedHits int
	// KeysFailed counts keys dropped under Config.PartialResults: an
	// attribute call of theirs still failed after the full retry budget (a
	// failed batched call drops its whole batch group). Zero on a healthy
	// backend, and zero whenever retries sufficed — nonzero KeysFailed is
	// exactly the strict-subset case of the row guarantee. Only keys that
	// would have been emitted count; bind-gate rider keys do not.
	KeysFailed int
	// RetriesSpent counts extra attempts beyond the first across the calls
	// this scan consumed — the llm.Retrier's recovery work, including the
	// attempts burned by calls that still failed and degraded.
	RetriesSpent int
	// HedgesLaunched and HedgesWon count hedge races among this scan's
	// calls and how many the duplicate request won (Retry.HedgeAfter).
	HedgesLaunched int
	HedgesWon      int
	// Parse aggregates the parser counters.
	Parse ParseStats
	// Materialized, when non-empty, names the materialized view whose row
	// store served this scan: no prompts, no model calls — only Table,
	// RowsEmitted and ViewAge are meaningful.
	Materialized string
	// ViewAge is the number of warm reads the view had served since its
	// last build or refresh when this scan ran (0 = first read).
	ViewAge int
}

// Label names the scan's strategy for display, marking cost-based choices
// ("auto:paged") and materialized-view substitutions ("materialized").
func (s ScanStats) Label() string {
	if s.Materialized != "" {
		return "materialized"
	}
	if s.Auto {
		return "auto:" + s.Strategy.String()
	}
	return s.Strategy.String()
}

// LLMStore exposes virtual tables as an exec.Source and plan.Catalog.
// It is safe for concurrent use.
type LLMStore struct {
	model llm.Model
	cache *llm.CacheModel // in-memory completion cache in the model chain, if any
	disk  *llm.DiskCache  // persistent prompt cache in the model chain, if any
	coal  *llm.Coalescer  // serving-mode request coalescer in the chain, if any
	cfg   Config
	// costModel prices candidate decompositions for the scan planner; it
	// mirrors the accounting CostModel (Engine.CostModel keeps them in
	// sync) so estimates and charges share constants.
	costModel llm.CostModel

	mu     sync.Mutex
	tables map[string]*VirtualTable
	stats  []ScanStats
	// estRows caches observed per-table cardinalities from prior scans,
	// refining the planner's estimates (see cost.go).
	estRows map[string]int
}

// NewLLMStore builds a store over the model with the given configuration.
func NewLLMStore(model llm.Model, cfg Config) *LLMStore {
	return &LLMStore{
		model:     model,
		cache:     llm.FindCache(model),
		disk:      llm.FindDiskCache(model),
		coal:      llm.FindCoalescer(model),
		cfg:       cfg.normalize(),
		costModel: llm.DefaultCostModel(),
		tables:    make(map[string]*VirtualTable),
		estRows:   make(map[string]int),
	}
}

// SetCostModel replaces the constants the scan planner prices with.
func (s *LLMStore) SetCostModel(c llm.CostModel) {
	s.mu.Lock()
	s.costModel = c
	s.mu.Unlock()
}

// Register declares a virtual table.
func (s *LLMStore) Register(t VirtualTable) {
	t.Name = strings.ToLower(t.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[t.Name] = &t
}

// TableSchema implements plan.Catalog.
func (s *LLMStore) TableSchema(name string) (rel.Schema, error) {
	s.mu.Lock()
	t, ok := s.tables[strings.ToLower(name)]
	s.mu.Unlock()
	if !ok {
		return rel.Schema{}, fmt.Errorf("core: unknown virtual table %q", name)
	}
	return t.Schema, nil
}

// Has reports whether a virtual table is registered.
func (s *LLMStore) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.tables[strings.ToLower(name)]
	return ok
}

// table returns the registered virtual table, for in-package callers that
// need more than the schema (prompt reconstruction).
func (s *LLMStore) table(name string) (*VirtualTable, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// noteViewScan publishes the synthesized statistics of a scan a
// materialized view absorbed, so QueryResult.Scans reports the substitution
// alongside real retrievals.
func (s *LLMStore) noteViewScan(st ScanStats) {
	s.mu.Lock()
	s.stats = append(s.stats, st)
	s.mu.Unlock()
}

// TakeStats returns and clears the accumulated scan statistics.
func (s *LLMStore) TakeStats() []ScanStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	s.stats = nil
	return out
}

// Config returns the store configuration.
func (s *LLMStore) Config() Config { return s.cfg }

// Scan implements exec.Source: it runs the configured prompt strategy and
// returns a row stream. The enumeration phase runs eagerly (its errors
// surface here); the key-then-attr attribute phase streams demand-driven,
// so a LIMIT upstream that stops pulling also stops the prompt spend. The
// scan's statistics and critical-path accounting are published when the
// stream is exhausted or closed.
func (s *LLMStore) Scan(req exec.ScanRequest) (exec.RowIter, error) {
	s.mu.Lock()
	t, ok := s.tables[strings.ToLower(req.Table)]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: unknown virtual table %q", req.Table)
	}
	cols := neededColumns(t.Schema, req.Needed)
	var filter sql.Expr
	if s.cfg.Pushdown {
		filter = stripQualifiers(req.Filter)
	}
	limit := req.Limit
	if limit < 0 || !s.cfg.LimitPushdown {
		limit = 0
	}
	// Resolve the effective strategy: with StrategyAuto the cost-based
	// planner prices the decompositions for this table, column set and
	// limit hint and the cheapest runs (the same decision EXPLAIN
	// annotates).
	strategy := s.cfg.Strategy
	auto := strategy == StrategyAuto
	if auto {
		strategy = strategyByName(s.decide(t, cols, filter, limit).Chosen)
	}
	// Bind-join key binding applies only to the key-then-attr pipeline —
	// any other decomposition could not honour it without changing its
	// prompts, and therefore its rows, relative to the unbound scan. The
	// strategy resolution above never sees the binding, so the bound scan
	// runs exactly the strategy the hash-join plan's scan would.
	var bound []string
	if req.Keys != nil && s.cfg.BindJoin && strategy == StrategyKeyThenAttr {
		bound = canonicalBoundKeys(req.Keys)
	}
	s.mu.Unlock()

	scan := &llmScan{
		store:    s,
		table:    t,
		keyPos:   t.Schema.KeyIndexes()[0],
		schema:   req.Schema,
		cols:     cols,
		strategy: strategy,
		filter:   filter,
		limit:    limit,
		bound:    bound,
		stats:    ScanStats{Table: t.Name, Strategy: strategy, Auto: auto},
	}
	if bound != nil {
		scan.stats.KeysBound = len(bound)
		// Bound to nothing: no key can match, so no prompt can pay off.
		if len(bound) == 0 {
			return &scanIter{scan: scan, next: func() (rel.Row, bool, error) {
				return nil, false, nil
			}}, nil
		}
	}

	var stream func() (rel.Row, bool, error)
	if strategy == StrategyKeyThenAttr {
		st, err := scan.startKeyThenAttr()
		if err != nil {
			return nil, err
		}
		stream = st
	} else {
		var rows []rel.Row
		var err error
		if strategy == StrategyPaged {
			rows, err = scan.runPaged()
		} else {
			rows, err = scan.runFullTable()
		}
		if err != nil {
			return nil, err
		}
		if s.cfg.Dedup {
			rows = scan.dedup(rows)
		}
		// Refine the planner's cardinality estimate — but only from
		// unfiltered scans: a pushed-down predicate makes the count a
		// selectivity artifact, not the table's size.
		if scan.filter == nil {
			s.noteCardinality(t.Name, len(rows))
		}
		pos := 0
		stream = func() (rel.Row, bool, error) {
			if pos >= len(rows) {
				return nil, false, nil
			}
			r := rows[pos]
			pos++
			return r, true, nil
		}
	}
	return &scanIter{scan: scan, next: stream}, nil
}

// neededColumns converts the executor's needed mask into schema positions,
// always including the key column(s) first.
func neededColumns(schema rel.Schema, needed []bool) []int {
	keyIdx := schema.KeyIndexes()
	inKey := map[int]bool{}
	cols := make([]int, 0, schema.Len())
	for _, k := range keyIdx {
		cols = append(cols, k)
		inKey[k] = true
	}
	for i := 0; i < schema.Len(); i++ {
		if inKey[i] {
			continue
		}
		if needed == nil || needed[i] {
			cols = append(cols, i)
		}
	}
	sort.Ints(cols)
	return cols
}

// llmScan is the per-scan state machine. Model calls may fan out across a
// worker pool (Config.Parallelism), but all scan state — stats, parser
// counters, the wall-clock accumulator — is only ever touched from the
// scan's own goroutine: concurrent tasks write into index-disjoint slots and
// results are merged in deterministic order afterwards.
type llmScan struct {
	store    *LLMStore
	table    *VirtualTable
	keyPos   int        // schema position of the entity key
	schema   rel.Schema // alias-renamed schema expected by the executor
	cols     []int
	strategy Strategy // effective strategy (auto already resolved)
	filter   sql.Expr
	limit    int64 // advisory row cap (0 = none; already gated on config)
	// bound, when non-nil, is the canonicalized distinct join-key set a
	// bind join passed in: only enumerated keys in this set reach the
	// attribute phase (key-then-attr only; already gated on config).
	bound []string
	stats ScanStats
	wall  time.Duration // simulated critical-path latency of this scan
}

func (sc *llmScan) cfg() Config { return sc.store.cfg }

// modelCall issues one raw model call. It does no accounting — callers own
// prompt counting and critical-path bookkeeping — and is safe to invoke from
// pool workers (Model implementations are concurrency-safe by contract).
func (sc *llmScan) modelCall(prompt string, seed int64) (llm.CompletionResponse, error) {
	return sc.store.model.Complete(sc.cfg().request(prompt, seed))
}

// addWall extends the scan's simulated critical path by d.
func (sc *llmScan) addWall(d time.Duration) { sc.wall += d }

// countCache attributes one consumed completion to the scan's cache and
// fault-recovery counters. Counting from the response's own flags is exact
// even when queries run concurrently (a global before/after counter diff is
// not), and discarded speculative calls are never attributed, mirroring
// Prompts. Fan-out phases keep responses in index-disjoint slots and
// attribute on the scan goroutine afterwards.
//
// Cache flags: the disk layer is consulted only when the in-memory layer
// missed, so an uncached response is a disk miss but a memory hit is neither
// — and a disk-cached response, which kept Cached set on its way out through
// the memory layer's miss path, is a memory miss, not a memory hit.
// Coalesced responses carry the flags of the original call, so the cache
// counters read as they would solo; CoalescedHits is counted on top, not
// instead. Retry/hedge markings survive only on live responses (cache hits
// strip them), so on a healthy backend the fault counters stay zero.
func (sc *llmScan) countCache(c callAccount) {
	if sc.store.cache != nil {
		if c.cached && !c.diskCached {
			sc.stats.CacheHits++
		} else {
			sc.stats.CacheMisses++
		}
	}
	if sc.store.disk != nil {
		if c.diskCached {
			sc.stats.DiskHits++
			sc.stats.DiskBytes += c.diskBytes
		} else if !c.cached {
			sc.stats.DiskMisses++
		}
	}
	if sc.store.coal != nil && c.coalesced {
		sc.stats.CoalescedHits++
	}
	if c.attempts > 1 {
		sc.stats.RetriesSpent += c.attempts - 1
	}
	if c.hedgeLaunched {
		sc.stats.HedgesLaunched++
	}
	if c.hedgeWon {
		sc.stats.HedgesWon++
	}
}

// callAccount is what a scan keeps of one model call once the completion
// text has been parsed: the virtual time the call occupied a lane for and the
// flags countCache attributes from. A fan-out holds one per task until the
// scan goroutine accounts for it, so it is a fraction of the response's size.
// For a call that failed and degraded, latency is the failure's virtual time
// and attempts the budget it burned; nothing else is set.
type callAccount struct {
	latency   time.Duration
	diskBytes int64
	attempts  int

	cached, diskCached, coalesced, hedgeLaunched, hedgeWon bool
}

func accountOf(resp llm.CompletionResponse) callAccount {
	return callAccount{
		latency:       resp.SimLatency,
		diskBytes:     resp.DiskBytes,
		attempts:      resp.Attempts,
		cached:        resp.Cached,
		diskCached:    resp.DiskCached,
		coalesced:     resp.Coalesced,
		hedgeLaunched: resp.HedgeLaunched,
		hedgeWon:      resp.HedgeWon,
	}
}

// degrade decides whether a failed model call degrades the scan instead of
// aborting the query — Config.PartialResults must be on and the error must
// be retryable-class (fatal errors always abort) — and extracts the
// accounting the failure carries: the attempts it burned and the virtual
// time it spent. A failed call has no response, so llm.RetryError is the
// only carrier; a degradable error that is not a RetryError (retries
// disabled outright) charges one attempt and no latency. Safe to call from
// pool workers; callers record the outcome in their index-disjoint slots.
func (sc *llmScan) degrade(err error) (failed callAccount, ok bool) {
	if !sc.cfg().PartialResults || !llm.Degradable(err) {
		return callAccount{}, false
	}
	var re *llm.RetryError
	if errors.As(err, &re) {
		return callAccount{attempts: re.Attempts, latency: re.FaultLatency}, true
	}
	return callAccount{attempts: 1}, true
}

// countFailed attributes a degraded call on the scan goroutine: the burned
// attempts extend RetriesSpent and the failure's virtual time occupies a
// lane of the fan-out's scheduler just as a successful call's latency would
// (nil sched charges the serial critical path directly). Cache counters are
// left alone — a call that never completed hit nothing.
func (sc *llmScan) countFailed(failed callAccount, sched *llm.Sched) {
	if failed.attempts > 1 {
		sc.stats.RetriesSpent += failed.attempts - 1
	}
	if sched != nil {
		sched.Add(failed.latency)
	} else {
		sc.addWall(failed.latency)
	}
}

// runRounds obtains one enumeration round per seed, accumulating rows keyed
// by entity, until MaxRounds or the convergence rule (StableRounds rounds
// without a new entity) stops it. At temperature zero a single round is
// issued — greedy decoding cannot produce new rows — unless promptVaries
// says each round changes the prompt (paged scans).
//
// issue performs the model call for one round; parse turns completion text
// into rows. parse always runs on the scan goroutine in round order, so
// parser statistics and caller state (paged exclude lists) need no locking.
// When the prompt is constant across rounds (promptVaries == false) and
// Parallelism allows, rounds are independent and are prefetched concurrently
// — speculatively, since convergence may stop before consuming them all.
// Consumed rounds are accounted exactly as in the serial path, so result
// rows and ScanStats are byte-identical at any parallelism; discarded
// speculative calls show up only in the model's Usage.
func (sc *llmScan) runRounds(promptVaries bool, issue func(seed int64) (llm.CompletionResponse, error), parse func(text string) []rel.Row) ([]rel.Row, error) {
	maxRounds := sc.cfg().MaxRounds
	if sc.cfg().Temperature <= 0 && !promptVaries {
		maxRounds = 1
	}

	// next yields round r's completion with critical-path accounting folded
	// in: serial rounds chain their latencies; prefetched rounds become
	// available at their virtual finish time under the lane scheduler.
	serialNext := func(round int) (llm.CompletionResponse, error) {
		resp, err := issue(int64(round))
		if err == nil {
			sc.addWall(resp.SimLatency)
		}
		return resp, err
	}
	next := serialNext
	par := sc.cfg().Parallelism
	if !promptVaries && par > 1 && maxRounds > 1 {
		// Prefetch a window of min(Parallelism, MaxRounds) rounds
		// concurrently. Speculation past the window would waste spend
		// without shortening the critical path (the lanes are already
		// full), so this caps discarded calls at Parallelism-1; rounds the
		// convergence rule wants beyond the window run serially.
		spec := par
		if spec > maxRounds {
			spec = maxRounds
		}
		resps := make([]llm.CompletionResponse, spec)
		errs := make([]error, spec)
		runTasks(par, spec, func(r int) error {
			resps[r], errs[r] = issue(int64(r))
			return nil // an error surfaces when (and if) its round is consumed
		})
		// The window never exceeds the lane count, so every round starts at
		// virtual time zero and finishes after exactly its own latency.
		finish := make([]time.Duration, spec)
		for r := range resps {
			finish[r] = resps[r].SimLatency
		}
		var consumedWall time.Duration
		next = func(round int) (llm.CompletionResponse, error) {
			if round >= spec {
				return serialNext(round)
			}
			if errs[round] != nil {
				return llm.CompletionResponse{}, errs[round]
			}
			if finish[round] > consumedWall {
				sc.addWall(finish[round] - consumedWall)
				consumedWall = finish[round]
			}
			return resps[round], nil
		}
	}

	seenKeys := map[string]bool{}
	appearances := map[string]int{} // rounds in which each entity appeared
	dedup := sc.cfg().Dedup
	var out []rel.Row
	stable := 0
	for round := 0; round < maxRounds; round++ {
		sc.stats.Rounds++
		resp, err := next(round)
		if err != nil {
			if failed, ok := sc.degrade(err); ok {
				// A failed enumeration round stops enumeration at the rows
				// already found. Earlier rounds consumed identical
				// completions to the fault-free run (faults are keyed per
				// request, not per call order), so the surviving rows are a
				// subset of what full enumeration would have produced.
				sc.countFailed(failed, nil)
				break
			}
			return nil, err
		}
		sc.stats.Prompts++
		sc.countCache(accountOf(resp))
		rows := parse(resp.Text)
		newThisRound := 0
		seenThisRound := map[string]bool{}
		for _, row := range rows {
			key := entityKey(row, sc.keyPos)
			if !seenThisRound[key] {
				seenThisRound[key] = true
				appearances[key]++
			}
			if seenKeys[key] {
				// Convergence always tracks entity novelty, but only the
				// dedup feature (ablated in Table 7) suppresses the
				// duplicate row itself.
				if dedup {
					sc.stats.Duplicates++
					continue
				}
				out = append(out, row)
				continue
			}
			seenKeys[key] = true
			out = append(out, row)
			newThisRound++
		}
		if newThisRound == 0 {
			stable++
			if stable >= sc.cfg().StableRounds {
				break
			}
		} else {
			stable = 0
		}
	}
	out = sc.filterByConfidence(out, appearances)
	return out, nil
}

// filterByConfidence drops entities whose appearance frequency across the
// sampling rounds falls below Config.MinConfidence. Hallucinated rows tend
// to be one-off samples while real entities recur, so the filter trades a
// little recall for precision (swept in Table 8).
func (sc *llmScan) filterByConfidence(rows []rel.Row, appearances map[string]int) []rel.Row {
	minConf := sc.cfg().MinConfidence
	rounds := sc.stats.Rounds
	if minConf <= 0 || rounds <= 1 {
		return rows
	}
	// Paged scans exclude previously seen keys, so every entity appears in
	// exactly one round by construction — frequency is meaningless there.
	if sc.strategy == StrategyPaged {
		return rows
	}
	keyPos := sc.keyPos
	kept := rows[:0]
	for _, row := range rows {
		conf := float64(appearances[entityKey(row, keyPos)]) / float64(rounds)
		if conf+1e-9 < minConf {
			sc.stats.LowConfidenceDropped++
			continue
		}
		kept = append(kept, row)
	}
	return kept
}

// entityKey is the dedup/convergence identity of a row: the parse-time
// normalized key (see normalizeKeyText), case-folded. The normalization
// here is defensive — rows from parseListCompletion already carry
// canonical keys.
func entityKey(row rel.Row, keyPos int) string {
	return strings.ToLower(normalizeKeyText(row[keyPos].AsText()))
}

// ---- strategies ----

func (sc *llmScan) runFullTable() ([]rel.Row, error) {
	prompt := buildListPrompt(sc.table, sc.cols, sc.filter, nil, 0)
	return sc.runRounds(false,
		func(seed int64) (llm.CompletionResponse, error) {
			return sc.modelCall(prompt, seed)
		},
		func(text string) []rel.Row {
			rows, stats := parseListCompletion(text, sc.table.Schema, sc.cols, sc.keyPos, sc.cfg().Tolerant)
			sc.stats.Parse.Add(stats)
			return rows
		})
}

func (sc *llmScan) runPaged() ([]rel.Row, error) {
	// Paged enumeration: each page excludes everything already seen; the
	// rounds machinery handles convergence across pages. Pages form a
	// dependency chain (each prompt needs the previous pages' keys), so
	// promptVaries keeps them strictly serial.
	var exclude []string
	excludeSet := map[string]bool{}
	return sc.runRounds(true,
		func(seed int64) (llm.CompletionResponse, error) {
			prompt := buildListPrompt(sc.table, sc.cols, sc.filter, exclude, sc.cfg().PageSize)
			return sc.modelCall(prompt, seed)
		},
		func(text string) []rel.Row {
			rows, stats := parseListCompletion(text, sc.table.Schema, sc.cols, sc.keyPos, sc.cfg().Tolerant)
			sc.stats.Parse.Add(stats)
			for _, row := range rows {
				key := entityKey(row, sc.keyPos)
				if !excludeSet[key] {
					excludeSet[key] = true
					exclude = append(exclude, row[sc.keyPos].AsText())
				}
			}
			return rows
		})
}

// attrVote is one self-consistency vote for one attribute cell.
type attrVote struct {
	val rel.Value
	ok  bool
	// failed marks a cell whose model call still failed after the full
	// retry budget (Config.PartialResults only): any failed cell drops its
	// key from the window's output.
	failed bool
	// call is the accounting of the model call behind the vote; zero for
	// scatter copies of a batched answer (the call is counted once, on its
	// task).
	call callAccount
}

// startKeyThenAttr runs the enumeration phase of the key-then-attr
// pipeline eagerly — KEYS prompts, then the local key gate — and returns a
// demand-driven stream over the attribute phase. Attribute prompts are
// issued in batch-aligned prefetch windows: a window's fan-out launches
// only when the consumer demands a row beyond what is buffered, so a LIMIT
// upstream that stops pulling stops the spend after at most one window of
// over-fetch. Rows stream in key order, so at any Parallelism/BatchSize the
// emitted prefix is byte-identical to the fully materialized scan.
func (sc *llmScan) startKeyThenAttr() (func() (rel.Row, bool, error), error) {
	// Phase 1: enumerate keys. The prompt carries the conjuncts the key
	// column alone can decide; the gate below enforces them locally.
	keyPos := sc.keyPos
	keyFilter := sc.keyOnlyFilter()
	keyPrompt := buildKeysPrompt(sc.table, keyFilter, nil, 0)
	keyRows, err := sc.runRounds(false,
		func(seed int64) (llm.CompletionResponse, error) {
			return sc.modelCall(keyPrompt, seed)
		},
		func(text string) []rel.Row {
			rows, stats := parseListCompletion(text, sc.table.Schema, []int{keyPos}, keyPos, sc.cfg().Tolerant)
			sc.stats.Parse.Add(stats)
			return rows
		})
	if err != nil {
		return nil, err
	}
	// The enumeration is complete regardless of how much of the stream the
	// consumer ends up pulling, so the cardinality estimate can be noted
	// now (unfiltered scans only, as ever).
	if sc.filter == nil {
		sc.store.noteCardinality(sc.table.Name, len(keyRows))
	}
	// The gate: keys a key-only pushed conjunct rejects would have their
	// rows dropped by the executor's re-check anyway — spending attribute
	// prompts on them buys nothing.
	keyRows = sc.gateKeys(keyRows, keyFilter)
	// The bind gate: a bind join bound this scan to the outer side's
	// distinct join keys, so entities outside that set could never survive
	// the join — their attribute fan-out is skipped. The enumeration above
	// ran with the prompt of an unbound scan (it is the membership oracle
	// that keeps bound results identical to the full scan), and the gate
	// drops whole batch groups so every surviving (batched) ATTR prompt
	// and vote seed is byte-identical to the unbound scan's; emit masks
	// the rider keys that were attributed only to preserve their group's
	// prompt.
	keyRows, emit := sc.bindGate(keyRows)

	attrCols := make([]int, 0, len(sc.cols))
	prompters := make([]attrPrompter, 0, len(sc.cols))
	for _, c := range sc.cols {
		if c != keyPos {
			attrCols = append(attrCols, c)
			prompters = append(prompters, newAttrPrompter(sc.table, c))
		}
	}
	keys := make([]string, len(keyRows))
	for i, row := range keyRows {
		keys[i] = row[keyPos].AsText()
	}
	votes := sc.cfg().Votes
	// Without limit pushdown every key is attributed in one window — the
	// fully materializing scan, bit-for-bit.
	window := len(keyRows)
	if sc.cfg().LimitPushdown {
		window = plan.PrefetchWindow(sc.cfg().Parallelism, len(attrCols), votes, sc.cfg().BatchSize, sc.limit)
	}
	if window < 1 {
		window = 1
	}
	st := &attrStream{
		sc:        sc,
		keyRows:   keyRows,
		keys:      keys,
		emit:      emit,
		attrCols:  attrCols,
		prompters: prompters,
		votes:     votes,
		window:    window,
		primary:   llm.NewSched(sc.cfg().Parallelism),
		fallback:  llm.NewSched(sc.cfg().Parallelism),
	}
	return st.nextRow, nil
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

// keyOnlyFilter returns the conjunction of the scan's key-only pushed
// conjuncts (nil when there are none).
func (sc *llmScan) keyOnlyFilter() sql.Expr {
	if sc.filter == nil {
		return nil
	}
	keyName := sc.table.Schema.Col(sc.keyPos).Name
	return sql.JoinConjuncts(keyOnlyConjuncts(sc.filter, keyName))
}

// gateKeys enforces the key-only pushed conjuncts locally on the
// enumerated key rows, before any attribute spend. Only rows the
// executor's re-applied filter would certainly drop are removed: a row
// whose predicate evaluation errors is kept so the error still surfaces
// where the unpushed plan would raise it.
func (sc *llmScan) gateKeys(keyRows []rel.Row, keyFilter sql.Expr) []rel.Row {
	if keyFilter == nil || len(keyRows) == 0 {
		return keyRows
	}
	pred, err := expr.CompileBool(keyFilter, sc.schema)
	if err != nil {
		// The hint is advisory; an uncompilable predicate (which the
		// executor will reject on its own) must not break the scan.
		return keyRows
	}
	kept := keyRows[:0]
	for _, row := range keyRows {
		ts, err := pred(row)
		if err == nil && ts != rel.True {
			sc.stats.KeysGated++
			continue
		}
		kept = append(kept, row)
	}
	return kept
}

// canonicalBoundKeys normalizes a bind join's key values through the same
// whitespace canonicalization the parser applies to enumerated keys (see
// normalizeKeyText) and removes case-insensitive duplicates, so the bind
// gate's membership test, entity dedup and the completion cache all agree
// on one spelling per entity. Always returns a non-nil slice.
func canonicalBoundKeys(keys []string) []string {
	out := make([]string, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		norm := normalizeKeyText(k)
		if norm == "" {
			continue
		}
		lower := strings.ToLower(norm)
		if seen[lower] {
			continue
		}
		seen[lower] = true
		out = append(out, norm)
	}
	return out
}

// bindGate keeps the enumerated keys a bind join asked for, at batch-group
// granularity: the unbound scan chunks its key list into BatchSize groups
// by position, and a batched ATTRS answer depends on the whole group's
// prompt, so dropping individual keys would regroup the survivors and
// change the prompts (and, on a real model, the answers) of keys the join
// keeps. Instead the gate keeps every group containing at least one bound
// key — whole, so concatenating the kept groups reproduces the original
// grouping exactly (all groups are full-size except possibly the last,
// which stays last) — and returns an emit mask marking the rider keys
// that were retained only to preserve their group's prompt; their rows
// are attributed but never emitted. At BatchSize 1 groups are single keys
// and the gate degenerates to exact membership. Matching is
// case-insensitive on canonicalized spellings (like entity dedup); a kept
// row whose exact spelling differs from the outer value is still dropped
// by the executor's equality check, so the gate can only waste — never
// corrupt — an attribute prompt.
func (sc *llmScan) bindGate(keyRows []rel.Row) ([]rel.Row, []bool) {
	if sc.bound == nil || len(keyRows) == 0 {
		return keyRows, nil
	}
	inBound := make(map[string]bool, len(sc.bound))
	for _, k := range sc.bound {
		inBound[strings.ToLower(k)] = true
	}
	keyPos := sc.keyPos
	batch := sc.cfg().BatchSize
	var kept []rel.Row
	var emit []bool
	for lo := 0; lo < len(keyRows); lo += batch {
		hi := lo + batch
		if hi > len(keyRows) {
			hi = len(keyRows)
		}
		group := keyRows[lo:hi]
		any := false
		for _, row := range group {
			if inBound[entityKey(row, keyPos)] {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		for _, row := range group {
			kept = append(kept, row)
			emit = append(emit, inBound[entityKey(row, keyPos)])
		}
	}
	return kept, emit
}

// attrStream is the demand-driven attribute phase of a key-then-attr scan.
// Keys are attributed window by window; within a window the (batched) ATTR
// prompts fan out across the worker pool exactly as in the materialized
// scan. Windows are batch-aligned, so prompt grouping, vote seeds and the
// merged values are independent of the window size — early termination
// changes how far the key list gets, never what any row contains.
type attrStream struct {
	sc      *llmScan
	keyRows []rel.Row
	keys    []string
	// emit, when non-nil, marks which keys produce output rows: bind-gate
	// rider keys are attributed (their group's prompt needs them) but
	// never emitted.
	emit      []bool
	attrCols  []int
	prompters []attrPrompter // parallel to attrCols
	votes     int
	window    int // keys attributed per fetch
	next      int // first key index not yet attributed
	buf       []rel.Row
	// primary and fallback accumulate the whole phase's fan-out latencies
	// across windows, so the critical-path account at full consumption is
	// identical to the single big fan-out of the materialized scan.
	primary  *llm.Sched
	fallback *llm.Sched
}

func (st *attrStream) nextRow() (rel.Row, bool, error) {
	for len(st.buf) == 0 {
		if st.next >= len(st.keyRows) {
			return nil, false, nil
		}
		if err := st.fetchWindow(); err != nil {
			return nil, false, err
		}
	}
	row := st.buf[0]
	st.buf = st.buf[1:]
	return row, true, nil
}

// fetchWindow attributes the next window of keys and buffers their rows.
func (st *attrStream) fetchWindow() error {
	sc := st.sc
	lo := st.next
	hi := lo + st.window
	if hi > len(st.keyRows) {
		hi = len(st.keyRows)
	}
	st.next = hi
	keys := st.keys[lo:hi]
	var results []attrVote
	var err error
	if sc.cfg().BatchSize > 1 && len(keys) > 0 && len(st.attrCols) > 0 {
		results, err = sc.attrBatched(keys, st.attrCols, st.prompters, st.votes, st.primary, st.fallback)
	} else {
		results, err = sc.attrSingle(keys, st.attrCols, st.prompters, st.votes, st.primary)
	}
	if err != nil {
		return err
	}
	sc.stats.KeysAttributed += len(keys)
	keyPos := sc.keyPos
	for ki := lo; ki < hi; ki++ {
		if st.emit != nil && !st.emit[ki] {
			continue
		}
		// Graceful degradation: a key with any failed cell is dropped whole
		// rather than emitted with a fabricated NULL — a partial result must
		// be a subset of the fault-free rows, never a variation of them.
		// Only cells of failed calls are marked; merely unparsable answers
		// keep flowing through mergeVotes as ever.
		cellLo := (ki - lo) * len(st.attrCols) * st.votes
		dropped := false
		for j := cellLo; j < cellLo+len(st.attrCols)*st.votes; j++ {
			if results[j].failed {
				sc.stats.KeysFailed++
				dropped = true
				break
			}
		}
		if dropped {
			continue
		}
		row := make(rel.Row, sc.table.Schema.Len())
		for i := range row {
			row[i] = rel.NullOf(sc.table.Schema.Col(i).Type)
		}
		row[keyPos] = st.keyRows[ki][keyPos]
		for ci, c := range st.attrCols {
			base := ((ki-lo)*len(st.attrCols) + ci) * st.votes
			row[c] = mergeVotes(results[base:base+st.votes], sc.table.Schema.Col(c).Type)
		}
		st.buf = append(st.buf, row)
	}
	return nil
}

// attrSingle is the unbatched attribute phase for one window of keys: one
// ATTR prompt per (key, column, vote), fanned out across the worker pool.
// The returned slice is indexed (key-major, then column, then vote). sched
// is shared across the scan's windows so the accumulated critical path
// matches one big fan-out.
func (sc *llmScan) attrSingle(keys []string, attrCols []int, prompters []attrPrompter, votes int, sched *llm.Sched) ([]attrVote, error) {
	// The votes of one (key, column) cell differ only in their seed, so the
	// cell's prompt is rendered once and shared.
	prompts := make([]string, len(keys)*len(attrCols))
	for cell := range prompts {
		prompts[cell] = prompters[cell%len(attrCols)].prompt(keys[cell/len(attrCols)])
	}
	n := len(prompts) * votes
	results := make([]attrVote, n)
	err := runTasks(sc.cfg().Parallelism, n, func(i int) error {
		cell := i / votes
		resp, err := sc.modelCall(prompts[cell], int64(1000+i%votes))
		if err != nil {
			if failed, ok := sc.degrade(err); ok {
				results[i] = attrVote{failed: true, call: failed}
				return nil
			}
			return err
		}
		c := attrCols[cell%len(attrCols)]
		val, ok := parseAttrCompletion(resp.Text, sc.table.Schema.Col(c).Type, sc.cfg().Tolerant)
		results[i] = attrVote{val: val, ok: ok, call: accountOf(resp)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc.stats.Prompts += n
	// Replay the fan-out's latencies through the lane scheduler (in task
	// order) to account the phase's simulated critical path; failed calls
	// occupied their lane for the fault's duration.
	before := sched.Makespan()
	for i := range results {
		if results[i].failed {
			sc.countFailed(results[i].call, sched)
			continue
		}
		sched.Add(results[i].call.latency)
		sc.countCache(results[i].call)
	}
	sc.addWall(sched.Makespan() - before)
	return results, nil
}

// attrBatched is the batched attribute phase for one window of keys: the
// window is chunked in order into groups of BatchSize (callers keep
// windows batch-aligned, so the groups are the same ones the materialized
// scan would form), and one ATTRS prompt asks for one column of a whole
// group per vote. Batched answers are parsed per key; cells whose line is
// missing or malformed fall back to single-key prompts in a second
// fan-out, so every (key, column, vote) cell ends with exactly one vote —
// the same accounting as the unbatched phase, at ~BatchSize fewer prompts.
// The returned slice is indexed exactly like attrSingle's. primary and
// fallback are the scan-wide schedulers for the two fan-outs.
func (sc *llmScan) attrBatched(keys []string, attrCols []int, prompters []attrPrompter, votes int, primary, fallback *llm.Sched) ([]attrVote, error) {
	batch := sc.cfg().BatchSize
	numBatches := (len(keys) + batch - 1) / batch

	// One task per (batch, column, vote), indexed batch-major.
	type batchAnswer struct {
		vals   []rel.Value
		ok     []bool
		found  []bool
		failed bool // degraded call: the whole group's cells fail
		call   callAccount
	}
	n := numBatches * len(attrCols) * votes
	tasks := make([]batchAnswer, n)
	err := runTasks(sc.cfg().Parallelism, n, func(i int) error {
		bi := i / (len(attrCols) * votes)
		c := attrCols[i/votes%len(attrCols)]
		v := i % votes
		lo, hi := bi*batch, (bi+1)*batch
		if hi > len(keys) {
			hi = len(keys)
		}
		group := keys[lo:hi]
		resp, err := sc.modelCall(buildAttrBatchPrompt(sc.table, group, c), int64(1000+v))
		if err != nil {
			if failed, ok := sc.degrade(err); ok {
				tasks[i] = batchAnswer{failed: true, call: failed}
				return nil
			}
			return err
		}
		vals, ok, found := parseAttrBatchCompletion(resp.Text, group, sc.table.Schema.Col(c).Type, sc.cfg().Tolerant)
		tasks[i] = batchAnswer{vals: vals, ok: ok, found: found, call: accountOf(resp)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc.stats.Prompts += n
	sc.stats.BatchedPrompts += n
	before := primary.Makespan()
	for i := range tasks {
		if tasks[i].failed {
			sc.countFailed(tasks[i].call, primary)
			continue
		}
		primary.Add(tasks[i].call.latency)
		sc.countCache(tasks[i].call)
	}
	sc.addWall(primary.Makespan() - before)

	// Scatter batched answers into the (key, column, vote) layout and
	// collect the cells that need a single-key fallback. A degraded batched
	// call fails its whole group's cells outright — no single-key repair:
	// its retry budget is already spent, and turning one failed prompt into
	// BatchSize fresh ones would amplify load exactly when the backend is
	// unhealthy. Dropping the group keeps the degraded run a strict subset.
	results := make([]attrVote, len(keys)*len(attrCols)*votes)
	var repair []int
	for i := range results {
		ki := i / (len(attrCols) * votes)
		ci := i / votes % len(attrCols)
		v := i % votes
		t := &tasks[(ki/batch*len(attrCols)+ci)*votes+v]
		if t.failed {
			results[i] = attrVote{failed: true}
			continue
		}
		off := ki % batch
		if off < len(t.found) && t.found[off] {
			results[i] = attrVote{val: t.vals[off], ok: t.ok[off]}
			continue
		}
		repair = append(repair, i)
	}
	if len(repair) == 0 {
		return results, nil
	}

	// Fallback fan-out: the single-key prompts use the same vote seeds as
	// the unbatched phase, so a repaired cell gets the answer attrSingle
	// would have retrieved for it.
	sc.stats.BatchFallbacks += len(repair)
	fb := make([]attrVote, len(repair))
	err = runTasks(sc.cfg().Parallelism, len(repair), func(j int) error {
		i := repair[j]
		ki := i / (len(attrCols) * votes)
		ci := i / votes % len(attrCols)
		v := i % votes
		resp, err := sc.modelCall(prompters[ci].prompt(keys[ki]), int64(1000+v))
		if err != nil {
			if failed, ok := sc.degrade(err); ok {
				fb[j] = attrVote{failed: true, call: failed}
				return nil
			}
			return err
		}
		val, ok := parseAttrCompletion(resp.Text, sc.table.Schema.Col(attrCols[ci]).Type, sc.cfg().Tolerant)
		fb[j] = attrVote{val: val, ok: ok, call: accountOf(resp)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc.stats.Prompts += len(repair)
	before = fallback.Makespan()
	for j := range fb {
		if fb[j].failed {
			sc.countFailed(fb[j].call, fallback)
			results[repair[j]] = attrVote{failed: true}
			continue
		}
		fallback.Add(fb[j].call.latency)
		sc.countCache(fb[j].call)
		results[repair[j]] = attrVote{val: fb[j].val, ok: fb[j].ok}
	}
	sc.addWall(fallback.Makespan() - before)
	return results, nil
}

// mergeVotes resolves one attribute cell from its self-consistency votes:
// the value observed most often wins; ties break toward the earliest vote
// seed; all-unparsable vote sets yield NULL. Votes group as sameVote says,
// each group standing for its first member.
func mergeVotes(votes []attrVote, t rel.DataType) rel.Value {
	best, bestN := -1, 0
group:
	for i := range votes {
		if !votes[i].ok {
			continue
		}
		for j := 0; j < i; j++ {
			if votes[j].ok && sameVote(votes[j].val, votes[i].val) {
				continue group // counted when its first member was
			}
		}
		n := 1
		for j := i + 1; j < len(votes); j++ {
			if votes[j].ok && sameVote(votes[i].val, votes[j].val) {
				n++
			}
		}
		if n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		return rel.NullOf(t)
	}
	return votes[best].val
}

// sameVote reports whether two vote values fall in one group: exactly when
// their canonical row keys (rel.Row.AllKey: numerics by value, text trimmed
// and case-folded) are equal. Agreeing votes are usually identical and
// disagreeing ones usually numeric, and neither case needs the key strings.
func sameVote(a, b rel.Value) bool {
	if !a.IsNull() && !b.IsNull() && a.Type().Numeric() && b.Type().Numeric() {
		// The key renders the float's shortest round-trip form: one string
		// per bit pattern (0 and -0 apart), except that every NaN reads "NaN".
		fa, fb := a.AsFloat(), b.AsFloat()
		return math.Float64bits(fa) == math.Float64bits(fb) || fa != fa && fb != fb
	}
	return a == b || rel.Row{a}.AllKey() == rel.Row{b}.AllKey()
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

// dedup keeps the first row per entity key.
func (sc *llmScan) dedup(rows []rel.Row) []rel.Row {
	seen := map[string]bool{}
	out := rows[:0]
	keyPos := sc.keyPos
	for _, row := range rows {
		key := entityKey(row, keyPos)
		if seen[key] {
			sc.stats.Duplicates++
			continue
		}
		seen[key] = true
		out = append(out, row)
	}
	return out
}

// scanIter adapts a strategy's row stream to exec.RowIter. It counts the
// rows actually emitted and publishes the scan's statistics and simulated
// critical path to the store exactly once — on exhaustion, error or Close,
// whichever comes first (early Close is how an upstream LIMIT abandons the
// stream).
type scanIter struct {
	scan    *llmScan
	next    func() (rel.Row, bool, error)
	flushed bool
}

// Next implements exec.RowIter.
func (it *scanIter) Next() (rel.Row, bool, error) {
	if it.flushed {
		return nil, false, nil
	}
	row, ok, err := it.next()
	if err != nil || !ok {
		it.flush()
		return nil, false, err
	}
	it.scan.stats.RowsEmitted++
	return row, true, nil
}

// Close implements exec.RowIter.
func (it *scanIter) Close() error {
	it.flush()
	return nil
}

// flush publishes the scan's accumulated statistics and critical-path
// latency. Idempotent: the executor may Close an already-exhausted stream.
func (it *scanIter) flush() {
	if it.flushed {
		return
	}
	it.flushed = true
	sc := it.scan
	s := sc.store
	// Report this scan's simulated critical path: its phases are a
	// dependency chain, so their makespans added up along the way.
	if wa, ok := s.model.(llm.WallAdder); ok {
		wa.AddWall(sc.wall)
	}
	s.mu.Lock()
	s.stats = append(s.stats, sc.stats)
	s.mu.Unlock()
}
