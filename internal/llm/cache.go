package llm

import (
	"sync"

	"llmsql/internal/lru"
)

// DefaultCacheCapacity bounds NewCache's memo table. 4096 entries covers the
// working set of the benchmark suite's largest scan several times over while
// keeping worst-case memory for real prompt sizes in the tens of megabytes.
const DefaultCacheCapacity = 4096

// CacheModel memoises completions keyed by (prompt, max tokens, temperature,
// seed) with a bounded LRU eviction policy. It models a prompt cache in
// front of the API: repeated identical requests cost nothing extra. Cached
// responses come back from Memory, so billing (CostModel.Bill) charges
// them zero latency and dollars.
type CacheModel struct {
	Inner Model

	mu      sync.Mutex
	entries *lru.Cache[requestKey, CompletionResponse]
	stats   CacheStats
}

// CacheStats reports cache effectiveness and occupancy as raw counters
// (the hit-rate ratio lives on metrics.Efficiency).
type CacheStats struct {
	Hits      int
	Misses    int
	Evictions int
	Size      int
	Capacity  int
}

// NewCache wraps m with a memo table of DefaultCacheCapacity entries.
func NewCache(m Model) *CacheModel { return NewCacheSized(m, DefaultCacheCapacity) }

// NewCacheSized wraps m with a memo table bounded to capacity entries
// (values < 1 fall back to DefaultCacheCapacity). Least-recently-used
// entries are evicted when the bound is hit.
func NewCacheSized(m Model, capacity int) *CacheModel {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	return &CacheModel{Inner: m, entries: lru.New[requestKey, CompletionResponse](capacity)}
}

// Name implements Model.
func (c *CacheModel) Name() string { return c.Inner.Name() }

// Unwrap implements Unwrapper.
func (c *CacheModel) Unwrap() Model { return c.Inner }

// Complete implements Model. The lock is released around the inner call so
// misses for distinct prompts proceed concurrently; two simultaneous misses
// for the same key both call the model (deterministic models return the same
// response, so last-writer-wins insertion is harmless).
func (c *CacheModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	key := keyOf(req)
	c.mu.Lock()
	if resp, ok := c.entries.Get(key); ok {
		c.stats.Hits++
		c.mu.Unlock()
		// Served from memory, wherever the stored copy originally came from.
		resp.Provenance, resp.Recovery = Provenance{From: Memory}, Recovery{}
		return resp, nil
	}
	c.stats.Misses++
	c.mu.Unlock()
	resp, err := c.Inner.Complete(req)
	if err != nil {
		return resp, err
	}
	c.mu.Lock()
	// A concurrent miss for the same key may have beaten us; put then
	// refreshes its entry in place.
	if c.entries.Put(key, resp) {
		c.stats.Evictions++
	}
	c.mu.Unlock()
	return resp, nil
}

// CacheStats returns a snapshot of the full counters.
func (c *CacheModel) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.entries.Len()
	s.Capacity = c.entries.Cap()
	return s
}
