package core

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
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
	// phase. Under a LIMIT this stops at the last demand-driven prefetch
	// window; a drained scan's equals the surviving key count.
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
	memo  *enumMemo       // finished LIST/KEYS enumerations (enumerate.go)
	cfg   Config

	mu sync.Mutex
	// costModel prices candidate decompositions for the scan planner and
	// bills the calls scans complete (CostModel.Bill), so estimates and
	// charges share constants. The value is never modified, only replaced,
	// so a scan keeps the pointer it started with.
	costModel *llm.CostModel
	// tables is the backend's table set under an engine (every session of
	// a group reads the same one), a set of the store's own under
	// NewLLMStore.
	tables *tableSet
	// estRows caches observed per-table cardinalities from prior scans,
	// refining the planner's estimates (see cost.go).
	estRows map[string]int
}

// NewLLMStore builds a store over the model with the given configuration.
func NewLLMStore(model llm.Model, cfg Config) *LLMStore {
	cost := llm.DefaultCostModel()
	s := &LLMStore{
		model:     model,
		cache:     llm.FindCache(model),
		disk:      llm.FindDiskCache(model),
		cfg:       cfg.normalize(),
		costModel: &cost,
		tables:    newTableSet(),
		estRows:   make(map[string]int),
	}
	if s.cache != nil {
		s.memo = newEnumMemo(s.cache.CacheStats().Capacity)
	}
	return s
}

// SetCostModel replaces the constants the scan planner prices with and
// scans bill by.
func (s *LLMStore) SetCostModel(c llm.CostModel) {
	s.mu.Lock()
	s.costModel = &c
	s.mu.Unlock()
}

// Register declares a virtual table.
func (s *LLMStore) Register(t VirtualTable) { s.tables.add(tableRecord(t)) }

// tableRecord returns t registered: its name lower-cased, its prompts
// measured. A record is never modified once made.
func tableRecord(t VirtualTable) *VirtualTable {
	t.Name = strings.ToLower(t.Name)
	t.prompts = measurePrompts(&t)
	return &t
}

// tableSet is a set of registered virtual tables, read on every plan and
// scan. Readers load an immutable map without taking a lock; add copies it
// (registration is rare).
type tableSet struct {
	mu sync.Mutex // serialises add
	m  atomic.Pointer[map[string]*VirtualTable]
}

func newTableSet() *tableSet {
	ts := &tableSet{}
	ts.m.Store(&map[string]*VirtualTable{})
	return ts
}

// get returns the named table's record, nil when none is registered.
func (ts *tableSet) get(name string) *VirtualTable {
	return (*ts.m.Load())[strings.ToLower(name)]
}

// add declares a table record, replacing one of the same name.
func (ts *tableSet) add(t *VirtualTable) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	m := maps.Clone(*ts.m.Load())
	m[t.Name] = t
	ts.m.Store(&m)
}

// TableSchema implements plan.Catalog.
func (s *LLMStore) TableSchema(name string) (rel.Schema, error) {
	t := s.tables.get(name)
	if t == nil {
		return rel.Schema{}, fmt.Errorf("core: unknown virtual table %q", name)
	}
	return t.Schema, nil
}

// Has reports whether a virtual table is registered.
func (s *LLMStore) Has(name string) bool { return s.tables.get(name) != nil }

// Config returns the store configuration.
func (s *LLMStore) Config() Config { return s.cfg }

// Scan implements exec.Source: it runs the prompt strategy the plan's
// decision names (req.Decision; an unplanned scan runs the configured
// strategy, priced under auto) and returns a row stream. The enumeration
// phase runs eagerly (its errors surface here); the key-then-attr attribute
// phase streams demand-driven, so a LIMIT upstream that stops pulling also
// stops the prompt spend. Scan bills no query: a query's scans run through
// its account (queryAccount.Scan).
func (s *LLMStore) Scan(req exec.ScanRequest) (exec.RowIter, error) { return s.scan(req, nil) }

// scan is Scan billing acct: every call the scan completes, and, once the
// stream is exhausted or closed, its statistics and critical path. A nil
// acct charges nothing.
func (s *LLMStore) scan(req exec.ScanRequest, acct *queryAccount) (exec.RowIter, error) {
	t := s.tables.get(req.Table)
	if t == nil {
		return nil, fmt.Errorf("core: unknown virtual table %q", req.Table)
	}
	s.mu.Lock()
	sp := s.specLocked(t, &req)
	cost := s.costModel
	s.mu.Unlock()

	scan := &llmScan{
		store:    s,
		acct:     acct,
		cost:     cost,
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
	store *LLMStore
	acct  *queryAccount  // the query the scan bills; nil bills nothing
	cost  *llm.CostModel // the store's when the scan started
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

// modelCall issues one raw model call and bills it to the scan's query. It
// does no other accounting — callers own prompt counting and critical-path
// bookkeeping — and is safe to invoke from pool workers (Model
// implementations are concurrency-safe by contract). It is the one place a
// scan sends a call, so every completed call is billed here, speculative
// prefetches included.
func (sc *llmScan) modelCall(prompt string, seed int64) (llm.CompletionResponse, error) {
	req := sc.cfg().request(prompt, seed)
	resp, err := sc.store.model.Complete(req)
	if err == nil {
		u, nano := sc.cost.Bill(&resp)
		sc.acct.bill(req, resp, u, nano)
	}
	return resp, err
}

// addWall extends the scan's simulated critical path by d.
func (sc *llmScan) addWall(d time.Duration) { sc.wall += d }

// callAccount is what a scan keeps of one model call once the completion
// text has been parsed: the virtual time the call occupied a lane for and the
// provenance countCall attributes from. A fan-out holds one per task until
// the scan goroutine accounts for it, so it is a fraction of the response's
// size (32 bytes on 64-bit platforms). For a call that failed and degraded,
// latency is the failure's virtual time and Attempts the budget it burned;
// nothing else but failed is set.
type callAccount struct {
	latency time.Duration
	failed  bool
	llm.Provenance
}

func accountOf(resp llm.CompletionResponse) callAccount {
	return callAccount{latency: resp.SimLatency, Provenance: resp.Provenance}
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
		attempts := llm.Provenance{Attempts: int32(re.Attempts)}
		return callAccount{latency: re.FaultLatency, failed: true, Provenance: attempts}, true
	}
	return callAccount{failed: true, Provenance: llm.Provenance{Attempts: 1}}, true
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
// nothing. Cache counters: the disk layer is consulted only when the
// in-memory layer missed, so a live response is a miss of both, a Memory
// response a hit of the one, and a Disk response a memory miss and a disk
// hit. Coalesced responses carry the provenance of the original call, so the
// cache counters read as they would solo; CoalescedHits is counted on top,
// not instead. Retry/hedge markings survive only on live responses (a cache
// hit replaces the whole record), so on a healthy backend the fault counters
// stay zero.
func (sc *llmScan) countCall(c callAccount) {
	if c.Attempts > 1 {
		sc.stats.RetriesSpent += int(c.Attempts) - 1
	}
	if c.failed {
		return
	}
	if sc.store.cache != nil {
		if c.From == llm.Memory {
			sc.stats.CacheHits++
		} else {
			sc.stats.CacheMisses++
		}
	}
	if sc.store.disk != nil {
		switch c.From {
		case llm.Disk:
			sc.stats.DiskHits++
			sc.stats.DiskBytes += c.DiskBytes
		case llm.Live:
			sc.stats.DiskMisses++
		}
	}
	if c.Coalesced {
		sc.stats.CoalescedHits++
	}
	if c.HedgeLaunched {
		sc.stats.HedgesLaunched++
	}
	if c.HedgeWon {
		sc.stats.HedgesWon++
	}
}

// scanIter adapts a scan's row stream — a strategy's, or a materialized
// view's stored rows (scanView) — to exec.RowIter. It counts the rows
// actually emitted and publishes the scan's statistics and simulated
// critical path to its query's account exactly once — on exhaustion, error or Close,
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
	// The scan's phases are a dependency chain, so its critical path is the
	// makespans added up along the way.
	it.scan.acct.addScan(it.scan.stats, it.scan.wall)
}
