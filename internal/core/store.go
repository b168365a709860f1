package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/lru"
	"llmsql/internal/rel"
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
	memo  *parseMemo      // parsed LIST/KEYS completions (enumerate.go); non-nil iff cache is
	cfg   Config
	// costModel prices candidate decompositions for the scan planner; it
	// mirrors the accounting CostModel (Engine.CostModel keeps them in
	// sync) so estimates and charges share constants.
	costModel llm.CostModel

	mu     sync.Mutex
	tables map[string]*VirtualTable
	stats  []ScanStats
	// record, while a materialized view's build runs its defining query,
	// collects the calls that query's scans complete (see callRecord).
	record *callRecord
	// estRows caches observed per-table cardinalities from prior scans,
	// refining the planner's estimates (see cost.go).
	estRows map[string]int
}

// NewLLMStore builds a store over the model with the given configuration.
func NewLLMStore(model llm.Model, cfg Config) *LLMStore {
	s := &LLMStore{
		model:     model,
		cache:     llm.FindCache(model),
		disk:      llm.FindDiskCache(model),
		coal:      llm.FindCoalescer(model),
		cfg:       cfg.normalize(),
		costModel: llm.DefaultCostModel(),
		tables:    make(map[string]*VirtualTable),
		estRows:   make(map[string]int),
	}
	if s.cache != nil {
		s.memo = &parseMemo{entries: lru.New[parseKey, parsedCompletion](s.cache.CacheStats().Capacity)}
	}
	return s
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

// setRecord makes every scan started from now on add its completed calls to
// r (nil stops recording). Like TakeStats it runs on the engine's goroutine,
// between queries.
func (s *LLMStore) setRecord(r *callRecord) {
	s.mu.Lock()
	s.record = r
	s.mu.Unlock()
}

// Config returns the store configuration.
func (s *LLMStore) Config() Config { return s.cfg }

// Scan implements exec.Source: it runs the prompt strategy the plan's
// decision names (req.Decision; an unplanned scan runs the configured
// strategy, priced under auto) and returns a row stream. The enumeration
// phase runs eagerly (its errors surface here); the key-then-attr attribute
// phase streams demand-driven, so a LIMIT upstream that stops pulling also
// stops the prompt spend. The scan's statistics and critical-path
// accounting are published when the stream is exhausted or closed.
func (s *LLMStore) Scan(req exec.ScanRequest) (exec.RowIter, error) {
	s.mu.Lock()
	t, ok := s.tables[strings.ToLower(req.Table)]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: unknown virtual table %q", req.Table)
	}
	sp := s.specLocked(t, req.Needed, req.Filter, req.Limit, req.Decision)
	record := s.record
	s.mu.Unlock()

	scan := &llmScan{
		store:    s,
		record:   record,
		scanSpec: sp,
		schema:   req.Schema,
		stats:    ScanStats{Table: t.Name, Strategy: sp.strategy, Auto: sp.auto},
	}
	if req.Keys != nil && sp.bind {
		scan.bound = canonicalBoundKeys(req.Keys)
		scan.stats.KeysBound = len(scan.bound)
		// Bound to nothing: no key can match, so no prompt can pay off.
		if len(scan.bound) == 0 {
			return &scanIter{scan: scan, next: func() (rel.Row, bool, error) {
				return nil, false, nil
			}}, nil
		}
	}

	var stream func() (rel.Row, bool, error)
	if sp.strategy == StrategyKeyThenAttr {
		var err error
		if stream, err = scan.startKeyThenAttr(); err != nil {
			return nil, err
		}
	} else {
		var rows []rel.Row
		var err error
		if sp.strategy == StrategyPaged {
			rows, err = scan.runPaged()
		} else {
			rows, err = scan.runFullTable()
		}
		if err != nil {
			return nil, err
		}
		// Refine the planner's cardinality estimate — but only from
		// unfiltered scans: a pushed-down predicate makes the count a
		// selectivity artifact, not the table's size.
		if sp.filter == nil {
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

// llmScan is the per-scan state machine: enumeration (enumerate.go), then
// for key-then-attr the attribute phase (attribute.go). Model calls may fan
// out across a worker pool (Config.Parallelism), but all scan state —
// stats, parser counters, the wall-clock accumulator — is only ever touched
// from the scan's own goroutine: concurrent tasks write into index-disjoint
// slots and results are merged in deterministic order afterwards.
type llmScan struct {
	store  *LLMStore
	record *callRecord // non-nil while a materialized view is built
	scanSpec
	schema rel.Schema // alias-renamed schema expected by the executor
	// bound, when non-nil, is the canonicalized distinct join-key set a
	// bind join passed in: only enumerated keys in this set reach the
	// attribute phase.
	bound []string
	stats ScanStats
	wall  time.Duration // simulated critical path of this scan
}

func (sc *llmScan) cfg() Config { return sc.store.cfg }

// modelCall issues one raw model call. It does no accounting — callers own
// prompt counting and critical-path bookkeeping — and is safe to invoke from
// pool workers (Model implementations are concurrency-safe by contract). It
// is the one place a scan sends a call, so a view build's record is kept
// here: every completed call, speculative prefetches included.
func (sc *llmScan) modelCall(prompt string, seed int64) (llm.CompletionResponse, error) {
	req := sc.cfg().request(prompt, seed)
	resp, err := sc.store.model.Complete(req)
	if err == nil && sc.record != nil {
		sc.record.add(req, resp)
	}
	return resp, err
}

// callRecord collects the calls a materialized view's defining query
// completed: their distinct requests become the view's manifest and the
// live ones its live spend. Pool workers add to it concurrently.
type callRecord struct {
	mu         sync.Mutex
	reqs       []llm.CompletionRequest
	liveCalls  int
	liveTokens int
}

// add records one completed call. A call is live when it reached the
// provider on this engine's behalf: neither a cache hit nor a coalesced
// copy of another caller's call (which keeps that call's uncached flags).
func (r *callRecord) add(req llm.CompletionRequest, resp llm.CompletionResponse) {
	r.mu.Lock()
	r.reqs = append(r.reqs, req)
	if !resp.Cached && !resp.Coalesced {
		r.liveCalls++
		r.liveTokens += resp.PromptTokens + resp.CompletionTokens
	}
	r.mu.Unlock()
}

// manifest returns the distinct recorded requests ordered by prompt, then
// seed, so the order does not depend on which pool worker finished first.
func (r *callRecord) manifest() []llm.CompletionRequest {
	r.mu.Lock()
	out := slices.Clone(r.reqs)
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b llm.CompletionRequest) int {
		return cmp.Or(strings.Compare(a.Prompt, b.Prompt), cmp.Compare(a.Seed, b.Seed))
	})
	return slices.Compact(out)
}

// addWall extends the scan's simulated critical path by d.
func (sc *llmScan) addWall(d time.Duration) { sc.wall += d }

// callAccount is what a scan keeps of one model call once the completion
// text has been parsed: the virtual time the call occupied a lane for and the
// flags countCall attributes from. A fan-out holds one per task until the
// scan goroutine accounts for it, so it is a fraction of the response's size.
// For a call that failed and degraded, latency is the failure's virtual time
// and attempts the budget it burned; nothing else but failed is set.
type callAccount struct {
	latency   time.Duration
	diskBytes int64
	attempts  int

	failed, cached, diskCached, coalesced, hedgeLaunched, hedgeWon bool
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
// pool workers.
func (sc *llmScan) degrade(err error) (failed callAccount, ok bool) {
	if !sc.cfg().PartialResults || !llm.Degradable(err) {
		return callAccount{}, false
	}
	var re *llm.RetryError
	if errors.As(err, &re) {
		return callAccount{failed: true, attempts: re.Attempts, latency: re.FaultLatency}, true
	}
	return callAccount{failed: true, attempts: 1}, true
}

// countCall attributes one consumed model call to the scan's cache and
// fault-recovery counters; callers charge its latency to the critical path.
// Counting from the response's own flags is exact even when queries run
// concurrently (a global before/after counter diff is not), and discarded
// speculative calls are never attributed, mirroring Prompts. Fan-out phases
// keep accounts in index-disjoint slots and attribute on the scan goroutine
// afterwards.
//
// A degraded call only extends RetriesSpent: it never completed, so it hit
// nothing. Cache flags: the disk layer is consulted only when the in-memory
// layer missed, so an uncached response is a disk miss but a memory hit is
// neither — and a disk-cached response, which kept Cached set on its way out
// through the memory layer's miss path, is a memory miss, not a memory hit.
// Coalesced responses carry the flags of the original call, so the cache
// counters read as they would solo; CoalescedHits is counted on top, not
// instead. Retry/hedge markings survive only on live responses (cache hits
// strip them), so on a healthy backend the fault counters stay zero.
func (sc *llmScan) countCall(c callAccount) {
	if c.attempts > 1 {
		sc.stats.RetriesSpent += c.attempts - 1
	}
	if c.failed {
		return
	}
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
	if c.hedgeLaunched {
		sc.stats.HedgesLaunched++
	}
	if c.hedgeWon {
		sc.stats.HedgesWon++
	}
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
