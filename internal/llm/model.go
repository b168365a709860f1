package llm

import (
	"math"
	"sync"
	"time"
)

// CompletionRequest asks a model to continue a prompt.
type CompletionRequest struct {
	// Prompt is the full input text.
	Prompt string
	// MaxTokens bounds the completion length; 0 means the model default.
	MaxTokens int
	// Temperature in [0,2]: 0 is deterministic greedy decoding; higher
	// values diversify sampling (and, for SynthLM, raise hallucination).
	Temperature float64
	// Seed varies sampling between otherwise identical requests (the
	// engine passes the sampling round number). Ignored at temperature 0.
	Seed int64
}

// CompletionResponse is the model's answer plus usage accounting.
type CompletionResponse struct {
	// Text is the completion.
	Text string
	// PromptTokens and CompletionTokens are exact token counts.
	PromptTokens     int
	CompletionTokens int
	// Truncated reports that MaxTokens cut the completion.
	Truncated bool
	// Provenance and Recovery are the response's record of which layer
	// answered and what it cost; the layers stamp them, and billing, a
	// view's live-call count and ScanStats all read them.
	Provenance
	Recovery
	// SimLatency is the simulated wall-clock time of this one call under the
	// accounting CostModel (zero for cached responses; stamped by CostModel.Bill).
	// Schedulers use it to compute critical-path latency of concurrent scans.
	// It includes FaultLatency.
	SimLatency time.Duration
}

// Source names the layer that answered a completion.
type Source uint8

const (
	Live   Source = iota // below every cache: the provider, through the Retrier
	Memory               // an engine's in-memory CacheModel
	Disk                 // the persistent DiskCache
)

// Provenance is where a response came from, in 16 bytes so a scan can keep
// one per fan-out task. A cache hit replaces it (and zeroes Recovery)
// whole: the stored call's retries and hedges were billed when it was made.
type Provenance struct {
	// From is the layer that answered; only a Live response is billed.
	From Source
	// Coalesced reports a Coalescer served the response from another
	// caller's identical request (joined in flight or replayed from its
	// memo). The rest of the record is the leader's, so every caller is
	// billed as if it had made the call itself; the saving shows only in
	// CoalescerStats, the consumption in ScanStats.CoalescedHits.
	Coalesced bool
	// HedgeLaunched / HedgeWon report that the Retrier raced a duplicate
	// request against a slow primary, and whether the duplicate won.
	HedgeLaunched bool
	HedgeWon      bool
	// Attempts is how many completions the Retrier issued to produce this
	// response (0 or 1 = first try; hedges count too). Attempts-1 retries
	// are billed to Usage.Retries.
	Attempts int32
	// DiskBytes is the on-disk record size a Disk response was served from.
	DiskBytes int64
}

// Cached reports the response was served from a completion cache and
// therefore cost no latency or dollars.
func (p Provenance) Cached() bool { return p.From != Live }

// Recovery is what fault tolerance spent on a live response beyond its own
// tokens; above the stack, only billing reads it.
type Recovery struct {
	// FaultLatency is extra virtual time: failed attempts, backoff waits
	// and the losing half of a hedge race (Retrier), plus injected latency
	// spikes (Chaos). CostModel.Bill folds it into SimLatency.
	FaultLatency time.Duration
	// WastedPromptTokens / WastedCompletionTokens are tokens of attempts
	// whose answer was discarded (the losing half of a hedge race).
	// CostModel.Bill prices them apart from the useful tokens.
	WastedPromptTokens     int
	WastedCompletionTokens int
}

// Model is anything that completes prompts. Implementations must be safe
// for concurrent use.
type Model interface {
	// Complete runs one completion.
	Complete(req CompletionRequest) (CompletionResponse, error)
	// Name identifies the model in reports.
	Name() string
}

// CostModel converts token usage into simulated latency and dollar cost,
// with defaults loosely shaped like a 2023 hosted API (the absolute
// constants are configuration, not claims).
type CostModel struct {
	// PerCallLatency is the fixed round-trip overhead.
	PerCallLatency time.Duration
	// PerPromptToken and PerCompletionToken add linear latency.
	PerPromptToken     time.Duration
	PerCompletionToken time.Duration
	// PromptUSDPerMTok / CompletionUSDPerMTok price a million tokens.
	PromptUSDPerMTok     float64
	CompletionUSDPerMTok float64
}

// DefaultCostModel returns the constants used by the benchmark harness.
func DefaultCostModel() CostModel {
	return CostModel{
		PerCallLatency:       250 * time.Millisecond,
		PerPromptToken:       100 * time.Microsecond,
		PerCompletionToken:   20 * time.Millisecond,
		PromptUSDPerMTok:     1.0,
		CompletionUSDPerMTok: 3.0,
	}
}

// Latency returns the simulated wall-clock time of one call.
func (c CostModel) Latency(promptTokens, completionTokens int) time.Duration {
	return c.PerCallLatency +
		time.Duration(promptTokens)*c.PerPromptToken +
		time.Duration(completionTokens)*c.PerCompletionToken
}

// Dollars returns the simulated price of one call.
func (c CostModel) Dollars(promptTokens, completionTokens int) float64 {
	return float64(promptTokens)/1e6*c.PromptUSDPerMTok +
		float64(completionTokens)/1e6*c.CompletionUSDPerMTok
}

// Usage accumulates model consumption across calls.
type Usage struct {
	Calls            int
	PromptTokens     int
	CompletionTokens int
	// CachedCalls counts calls answered by a completion cache (no latency
	// or dollar cost).
	CachedCalls int
	// SimLatency is the total accumulated simulated latency under a
	// CostModel: the sum over all calls, as if every call ran serially.
	SimLatency time.Duration
	// SimWall is the simulated critical-path (wall-clock) latency: the time
	// the work actually takes when independent calls overlap under a bounded
	// worker pool. Serial pipelines have SimWall == SimLatency; concurrent
	// ones have SimWall < SimLatency. Each scan adds its own makespan to its
	// query's account.
	SimWall time.Duration
	// SimDollars is the total simulated spend (wasted tokens included).
	SimDollars float64
	// Retries counts attempts beyond the first across all calls (failed
	// attempts the Retrier re-issued, plus hedge duplicates).
	Retries int
	// HedgesLaunched / HedgesWon count hedge races and how many the
	// duplicate request won.
	HedgesLaunched int
	HedgesWon      int
	// WastedPromptTokens / WastedCompletionTokens are tokens bought but
	// discarded (losing hedge attempts). Billed into SimDollars; kept out
	// of PromptTokens/CompletionTokens so those still mean useful spend.
	WastedPromptTokens     int
	WastedCompletionTokens int
}

// TotalTokens returns prompt+completion tokens.
func (u Usage) TotalTokens() int { return u.PromptTokens + u.CompletionTokens }

// Derived ratios (concurrency speedup, cache hit rate) live on
// metrics.Efficiency — this package only keeps the raw counters.

// Add merges another usage into u.
func (u *Usage) Add(o Usage) {
	u.Calls += o.Calls
	u.PromptTokens += o.PromptTokens
	u.CompletionTokens += o.CompletionTokens
	u.CachedCalls += o.CachedCalls
	u.SimLatency += o.SimLatency
	u.SimWall += o.SimWall
	u.SimDollars += o.SimDollars
	u.Retries += o.Retries
	u.HedgesLaunched += o.HedgesLaunched
	u.HedgesWon += o.HedgesWon
	u.WastedPromptTokens += o.WastedPromptTokens
	u.WastedCompletionTokens += o.WastedCompletionTokens
}

// Sub returns u minus o field-wise (for before/after snapshots around one
// query).
func (u Usage) Sub(o Usage) Usage {
	return Usage{
		Calls:            u.Calls - o.Calls,
		PromptTokens:     u.PromptTokens - o.PromptTokens,
		CompletionTokens: u.CompletionTokens - o.CompletionTokens,
		CachedCalls:      u.CachedCalls - o.CachedCalls,
		SimLatency:       u.SimLatency - o.SimLatency,
		SimWall:          u.SimWall - o.SimWall,
		SimDollars:       u.SimDollars - o.SimDollars,
		Retries:          u.Retries - o.Retries,
		HedgesLaunched:   u.HedgesLaunched - o.HedgesLaunched,
		HedgesWon:        u.HedgesWon - o.HedgesWon,

		WastedPromptTokens:     u.WastedPromptTokens - o.WastedPromptTokens,
		WastedCompletionTokens: u.WastedCompletionTokens - o.WastedCompletionTokens,
	}
}

// Unwrapper exposes the next model in a wrapper chain (CountingModel,
// CacheModel), so callers can locate a wrapper regardless of stacking order.
type Unwrapper interface {
	Unwrap() Model
}

// findLayer walks a wrapper chain and returns its first layer of type T, or
// T's zero value (nil for the pointer types the Find functions ask for).
func findLayer[T Model](m Model) (none T) {
	for m != nil {
		if t, ok := m.(T); ok {
			return t
		}
		uw, ok := m.(Unwrapper)
		if !ok {
			break
		}
		m = uw.Unwrap()
	}
	return none
}

// FindCache walks a wrapper chain and returns the first CacheModel, or nil.
func FindCache(m Model) *CacheModel { return findLayer[*CacheModel](m) }

// Bill prices one completed call under c, the one billing rule every
// counter applies: it stamps resp.SimLatency and returns the call as Usage
// plus its price in whole nano-dollars, rounded per call (integer sums
// commute where float64 sums do not, so calls completing in any order total
// to the same bits). A cached response counts as a call that cost no
// tokens, latency or dollars. FaultLatency charged by the Retrier/Chaos
// layers below is folded into SimLatency, and wasted tokens (losing hedge
// attempts) are billed into the price, so a faulty run prices its recovery
// honestly.
func (c CostModel) Bill(resp *CompletionResponse) (u Usage, nanoUSD int64) {
	u.Calls = 1
	if resp.Cached() {
		resp.SimLatency = 0
		u.CachedCalls = 1
		return u, 0
	}
	resp.SimLatency = c.Latency(resp.PromptTokens, resp.CompletionTokens) + resp.FaultLatency
	u.SimLatency = resp.SimLatency
	u.PromptTokens, u.CompletionTokens = resp.PromptTokens, resp.CompletionTokens
	if resp.Attempts > 1 {
		u.Retries = int(resp.Attempts) - 1
	}
	if resp.HedgeLaunched {
		u.HedgesLaunched = 1
	}
	if resp.HedgeWon {
		u.HedgesWon = 1
	}
	u.WastedPromptTokens, u.WastedCompletionTokens = resp.WastedPromptTokens, resp.WastedCompletionTokens
	usd := c.Dollars(resp.PromptTokens, resp.CompletionTokens) +
		c.Dollars(resp.WastedPromptTokens, resp.WastedCompletionTokens)
	return u, int64(math.Round(usd * 1e9))
}

// CountingModel wraps a Model, accumulating the Usage of the calls that
// cross it under a CostModel. An EngineGroup keeps one below its Retrier
// for the live, operator-side bill; engines bill per query (core's
// queryAccount) with the same rule, CostModel.Bill.
type CountingModel struct {
	Inner Model
	Cost  CostModel

	mu      sync.Mutex
	usage   Usage // SimDollars is kept in nanoUSD and filled in by Usage()
	nanoUSD int64
}

// NewCounting wraps m with the default cost model.
func NewCounting(m Model) *CountingModel {
	return &CountingModel{Inner: m, Cost: DefaultCostModel()}
}

// Name implements Model.
func (c *CountingModel) Name() string { return c.Inner.Name() }

// Unwrap implements Unwrapper.
func (c *CountingModel) Unwrap() Model { return c.Inner }

// Complete implements Model: every response leaves billed (Bill) with
// SimLatency stamped, so schedulers can reason about it.
func (c *CountingModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	resp, err := c.Inner.Complete(req)
	if err != nil {
		return resp, err
	}
	u, nano := c.Cost.Bill(&resp)
	c.mu.Lock()
	c.usage.Add(u)
	c.nanoUSD += nano
	c.mu.Unlock()
	return resp, nil
}

// Usage returns a snapshot of the accumulated usage.
func (c *CountingModel) Usage() Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.usage
	u.SimDollars = float64(c.nanoUSD) / 1e9
	return u
}
