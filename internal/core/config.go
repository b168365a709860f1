// Package core implements the paper's primary contribution: a SQL query
// engine whose storage layer is a large language model. Virtual tables are
// declared with schemas and natural-language descriptions; scans are
// answered by prompting the model for tuples, parsing completions back into
// typed rows, deduplicating, optionally voting for self-consistency, and
// re-checking every pushed-down predicate — the model is treated as an
// untrusted index. Joins, aggregation and ordering run on the shared
// executor (internal/exec).
package core

import (
	"math"

	"llmsql/internal/llm"
)

// Strategy selects how a table scan is decomposed into prompts.
type Strategy int

const (
	// StrategyFullTable issues one LIST prompt asking for every row with
	// all needed columns (repeated across sampling rounds at temperature
	// > 0, unioning results).
	StrategyFullTable Strategy = iota
	// StrategyKeyThenAttr first enumerates entity keys (KEYS prompts),
	// then issues one small ATTR prompt per key and needed column —
	// the Galois-style decomposition. Self-consistency voting applies to
	// the ATTR calls.
	StrategyKeyThenAttr
	// StrategyPaged issues LIST prompts with MAXROWS pages and EXCLUDE
	// continuation until the model reports no further rows.
	StrategyPaged
	// StrategyAuto defers the choice to the cost-based scan planner: each
	// virtual-table scan prices the three decompositions above under the
	// engine's cost model and cardinality estimate and runs the cheapest.
	// The decision and its cost breakdown appear in EXPLAIN and ScanStats.
	StrategyAuto
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case StrategyKeyThenAttr:
		return "key-then-attr"
	case StrategyPaged:
		return "paged"
	case StrategyAuto:
		return "auto"
	default:
		return "full-table"
	}
}

// Config tunes the engine. The zero value is NOT usable; call
// DefaultConfig.
type Config struct {
	// Strategy picks the prompt decomposition.
	Strategy Strategy
	// Temperature for sampling; 0 is deterministic (a single round).
	Temperature float64
	// MaxRounds bounds repeated sampling of enumeration prompts.
	MaxRounds int
	// StableRounds stops sampling after this many consecutive rounds
	// that contribute no new entity (the convergence rule).
	StableRounds int
	// Votes is the self-consistency factor for attribute retrieval
	// (KeyThenAttr): each attribute is asked Votes times and the majority
	// value wins. 1 disables voting.
	Votes int
	// BatchSize groups up to this many entity keys into one ATTR prompt on
	// the key-then-attr path (one prompt asks for one column of N
	// entities), amortizing the per-prompt boilerplate. Values <= 1 keep
	// the one-key-per-prompt decomposition. Batched answers are parsed
	// tolerantly per key; keys whose batched line is missing or malformed
	// fall back to a single-key prompt, so the retrieved key set and row
	// order are identical to the unbatched path at any batch size.
	BatchSize int
	// Pushdown verbalises pushed filters into prompts when true; the
	// executor re-checks them either way. It also arms the key gate of the
	// key-then-attr pipeline: enumerated keys that a key-only pushed
	// conjunct rejects are dropped locally before any attribute prompt is
	// spent (they could never survive the executor's re-check).
	Pushdown bool
	// LimitPushdown lets `SELECT ... LIMIT k` terminate scans early: the
	// planner pushes an advisory row cap through prefix-safe operators
	// onto the scan, and the key-then-attr pipeline issues its attribute
	// prompts in demand-driven prefetch windows, launching no new window
	// once downstream has consumed enough rows. Results are byte-identical
	// to the unpushed plan at any Parallelism/BatchSize — the scan may
	// over-fetch at most one prefetch window, never under-fetch. Disabling
	// it restores the fully materializing scan (ablation/debugging).
	LimitPushdown bool
	// BindJoin lets joins pass sideways information into scans: the join
	// planner drains the cheaper join side first and pushes its distinct
	// join-key values into the other side's key-then-attr scan, which then
	// restricts the attribute fan-out (the dominant cost, attrCols x votes
	// prompts per key) to the batch groups containing bound keys. Key
	// enumeration still runs with the identical prompt — it is the
	// membership oracle that keeps bound results byte-identical to the
	// full scan, and it costs only O(rounds) calls — and the bind gate
	// drops whole batch groups (attributing up to BatchSize-1 rider keys
	// per kept group, masked from emission) so every issued prompt is one
	// the unbound scan would issue. Result rows are therefore
	// byte-identical to the hash-join plan at any Parallelism/BatchSize.
	// Applies when the bound scan's effective strategy is key-then-attr;
	// disabling restores the full build-side scan (ablation/debugging).
	BindJoin bool
	// Tolerant enables the completion parser's repairs — bullets, the
	// "Row: …." wrapper, comma fallback, NULL padding, numeric rescue; when
	// false a line or value that needs one is dropped (ablation). Both modes
	// read every answer phrasing (DESIGN.md "Completion parsing").
	Tolerant bool
	// Dedup removes duplicate entities from scan output (ablation).
	Dedup bool
	// MinConfidence drops entities that appear in fewer than this fraction
	// of sampling rounds (hallucinations tend to be one-off while real
	// entities recur). 0 disables the filter; it only applies when more
	// than one round actually ran. Extension feature, swept in Table 8.
	MinConfidence float64
	// Parallelism bounds the number of model calls a scan may have in
	// flight at once: ATTR prompts and self-consistency votes of the
	// key-then-attr strategy fan out across a worker pool, and independent
	// sampling rounds of constant-prompt enumerations are prefetched
	// concurrently. 1 (the default) is the exact serial pipeline. Result
	// rows are byte-identical at every value — responses are merged in
	// deterministic key/column/round order, never completion order — and so
	// are ScanStats, except that with a cache configured the cache counters
	// of later scans can shift (speculative prefetch may warm the cache).
	// Usage may charge more at higher values: speculative round prefetch
	// issues up to Parallelism-1 calls the convergence rule then discards,
	// and those cost real tokens/latency/dollars exactly as they would
	// against a live API (wasted spend traded for wall-clock latency).
	Parallelism int
	// CacheCapacity, when non-zero, puts a bounded LRU completion cache of
	// that many entries in front of the model (negative values select the
	// default capacity). Cache hits cost no simulated latency or dollars.
	CacheCapacity int
	// CacheDir, when non-empty, layers a persistent on-disk prompt cache
	// (llm.DiskCache) under the in-memory one: completions are
	// content-addressed by a versioned fingerprint of model id + prompt +
	// decode parameters and survive across queries, engines and processes.
	// Hits cost no simulated latency or dollars, are attributed per scan in
	// ScanStats.DiskHits/DiskMisses/DiskBytes, and warm the scan planner's
	// estimates (a probed-warm scan's estimated $ and wall are discounted,
	// visible in EXPLAIN as warm-hit). Engines with a CacheDir should be
	// Closed to release the cache's segment file.
	CacheDir string
	// CacheMaxBytes bounds the persistent cache's live set (LRU by bytes);
	// values < 1 select llm.DefaultDiskCacheBytes. Meaningful only with
	// CacheDir.
	CacheMaxBytes int64
	// PlanCacheCapacity bounds the engine's prepared-plan cache, an LRU of
	// planned statements keyed on normalized SQL text: repeated queries (and
	// prepared statements) skip re-parsing and re-planning. 0 selects
	// DefaultPlanCacheCapacity; negative values disable the cache. The cache
	// affects neither results nor model traffic — only front-end CPU work —
	// and is invalidated whenever the catalog or cost model changes.
	PlanCacheCapacity int
	// RecordTrace, when non-nil, wraps the base model so every completion
	// that actually reaches it (cache hits never do) is captured into the
	// trace, keyed by the same versioned fingerprint the caches use. Saved
	// traces are the replay fixtures behind deterministic CI.
	RecordTrace *llm.Trace
	// ReplayTrace, when non-nil, replaces the base model entirely: every
	// completion is answered from the trace by fingerprint (the model
	// argument of New/Open contributes only its name), and a request the
	// trace does not contain is an error. Replayed token counts reproduce
	// Usage — calls, tokens, SimWall, dollars — byte-identically on any
	// machine. ReplayTrace wins when both are set.
	ReplayTrace *llm.Trace
	// Chaos, when any rate is positive, inserts a deterministic fault
	// injector (llm.Chaos) directly above the base model: transient errors,
	// rate-limit rejections, malformed completions and latency spikes are
	// drawn from a stream keyed on (Chaos.Seed, request fingerprint,
	// attempt number) — no wall clock, no global rand — so a chaos run, its
	// retries included, is exactly replayable at any Parallelism. The zero value injects
	// nothing. Chaos sits above RecordTrace/ReplayTrace, so recorded traces
	// stay clean and replayed suites can be stressed with faults.
	Chaos llm.ChaosProfile
	// Retry tunes the fault-tolerance layer (llm.Retrier) that sits below
	// the caches: typed error classification, capped exponential backoff
	// with deterministic jitter within an attempt budget
	// (Retry.MaxAttempts) and optional hedged requests (Retry.HedgeAfter).
	// All waiting is virtual time — backoff and failed attempts are charged
	// into SimLatency/SimWall and surfaced in ScanStats.RetriesSpent. A
	// call's retries depend only on its request and the fault stream, never
	// on other calls, so faulty runs keep Chaos's replayability at any
	// Parallelism. The zero value selects 4 attempts and no hedging, under
	// which the layer is a transparent no-op until something actually
	// fails.
	Retry llm.RetryPolicy
	// ViewTTLReads is the freshness budget of materialized views: a view
	// that has served this many warm reads since its last build or refresh
	// goes stale — later statements re-plan onto live retrieval until
	// REFRESH MATERIALIZED VIEW rebuilds it. Views age by use, never by
	// wall clock, so replayed runs expire views at identical points. 0 (the
	// default) means views never expire on their own.
	ViewTTLReads int
	// PartialResults lets scans survive exhausted retries instead of
	// failing the query: a key whose attribute call still fails after the
	// full retry budget is dropped from the result (counted in
	// ScanStats.KeysFailed), a failed batched call drops its whole batch
	// group, and a failed enumeration round stops enumeration at the keys
	// already found — unless MinConfidence is set, since fewer rounds would
	// let keys pass the confidence filter that the fault-free run drops; the
	// query then fails. Row guarantee under any fault seed: emitted rows are
	// byte-identical to the fault-free run whenever retries sufficed, and a
	// strict subset (in the same order) otherwise. Only retryable failures
	// degrade; fatal errors still abort the query.
	PartialResults bool
}

// DefaultConfig returns the configuration used by the paper-style runs:
// full-table strategy, temperature 0.7, up to 8 rounds with a 2-round
// convergence rule, no voting, pushdown and all robustness features on.
func DefaultConfig() Config {
	return Config{
		Strategy:      StrategyFullTable,
		Temperature:   0.7,
		MaxRounds:     8,
		StableRounds:  2,
		Votes:         1,
		BatchSize:     1,
		Pushdown:      true,
		LimitPushdown: true,
		BindJoin:      true,
		Tolerant:      true,
		Dedup:         true,
		Parallelism:   1,
		CacheCapacity: 0,
	}
}

// request is the completion request every scan prompt goes out as; the cache
// probes build theirs here too, so their fingerprints match. MaxTokens stays
// 0, the model default.
func (c Config) request(prompt string, seed int64) llm.CompletionRequest {
	return llm.CompletionRequest{Prompt: prompt, Temperature: c.Temperature, Seed: seed}
}

// normalize clamps nonsense values so a partially filled Config behaves.
func (c Config) normalize() Config {
	if c.MaxRounds < 1 {
		c.MaxRounds = 1
	}
	if c.StableRounds < 1 {
		c.StableRounds = 1
	}
	if c.Votes < 1 {
		c.Votes = 1
	}
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	// NaN fails every comparison, so it needs naming: as a request field it
	// would be a temperature no two lookups agree on.
	if c.Temperature < 0 || math.IsNaN(c.Temperature) || math.IsInf(c.Temperature, 0) {
		c.Temperature = 0
	}
	if c.MinConfidence < 0 {
		c.MinConfidence = 0
	}
	if c.MinConfidence > 1 {
		c.MinConfidence = 1
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.ViewTTLReads < 0 {
		c.ViewTTLReads = 0
	}
	return c
}
