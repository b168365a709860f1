package llm

import (
	"fmt"
	"math"
	"testing"
	"time"

	"llmsql/internal/lru"
)

// chainLen counts the entries an oldest-first walk of the recency ring
// visits. The ring and the map behind Len are maintained separately, so the
// layer tests compare the two after concurrent or evicting traffic.
func chainLen[K comparable, V any](l *lru.Cache[K, V]) int {
	n := 0
	l.OldestFirst(func(K, V) bool { n++; return true })
	return n
}

func TestCacheLRUEviction(t *testing.T) {
	inner := &echoModel{}
	cache := NewCacheSized(inner, 2)
	get := func(p string) {
		t.Helper()
		if _, err := cache.Complete(CompletionRequest{Prompt: p}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now LRU
	get("c") // evicts b
	s := cache.CacheStats()
	if s.Evictions != 1 || s.Size != 2 || s.Capacity != 2 {
		t.Fatalf("stats: %+v", s)
	}
	get("a") // still cached
	get("b") // evicted above -> miss, evicts c
	s = cache.CacheStats()
	if s.Hits != 2 || s.Misses != 4 || s.Evictions != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if inner.calls != 4 {
		t.Fatalf("inner calls: %d", inner.calls)
	}
}

func TestCacheBoundHolds(t *testing.T) {
	cache := NewCacheSized(&echoModel{}, 8)
	for i := 0; i < 100; i++ {
		if _, err := cache.Complete(CompletionRequest{Prompt: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := cache.CacheStats()
	if s.Size != 8 {
		t.Fatalf("size must stay bounded: %+v", s)
	}
	if s.Evictions != 92 {
		t.Fatalf("evictions: %+v", s)
	}
	if got := chainLen(cache.entries); got != cache.entries.Len() {
		t.Fatalf("map/list out of sync: %d vs %d", cache.entries.Len(), got)
	}
}

func TestNewCacheDefaultCapacity(t *testing.T) {
	cache := NewCache(&echoModel{})
	if got := cache.CacheStats().Capacity; got != DefaultCacheCapacity {
		t.Fatalf("default capacity: %d", got)
	}
	// Nonsense capacities fall back to the default too.
	if got := NewCacheSized(&echoModel{}, 0).CacheStats().Capacity; got != DefaultCacheCapacity {
		t.Fatalf("zero capacity: %d", got)
	}
}

// TestCacheMarksCachedResponses: a memory hit replaces the stored
// response's whole record, whatever layers stamped it on the way up — the
// disk origin, a coalesced copy, retries, hedges and their recovery spend
// were all the stored call's, and the copy costs nothing.
func TestCacheMarksCachedResponses(t *testing.T) {
	cache := NewCache(&echoModel{})
	req := CompletionRequest{Prompt: "p"}
	r1, err := cache.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached() {
		t.Fatal("first response must not be marked cached")
	}
	r2, err := cache.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached() {
		t.Fatal("second response must be marked cached")
	}
	if r2.Text != r1.Text {
		t.Fatal("cache changed the completion")
	}

	stamped := CompletionResponse{
		Text: "stamped",
		Provenance: Provenance{
			From: Disk, Coalesced: true, HedgeLaunched: true, HedgeWon: true,
			Attempts: 3, DiskBytes: 77,
		},
		Recovery: Recovery{FaultLatency: time.Second, WastedPromptTokens: 5, WastedCompletionTokens: 6},
	}
	cache = NewCache(fixedModel{stamped})
	if r, err := cache.Complete(req); err != nil || r.Provenance != stamped.Provenance || r.Recovery != stamped.Recovery {
		t.Fatalf("a miss must pass the record through: %+v err=%v", r, err)
	}
	hit, err := cache.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Provenance != (Provenance{From: Memory}) || hit.Recovery != (Recovery{}) {
		t.Fatalf("a hit must carry exactly Provenance{From: Memory} and no recovery: %+v %+v", hit.Provenance, hit.Recovery)
	}
	if hit.Text != stamped.Text {
		t.Fatal("cache changed the completion")
	}
}

func TestCountingChargesNothingForCachedCalls(t *testing.T) {
	cm := NewCounting(NewCache(&echoModel{}))
	req := CompletionRequest{Prompt: "hello world"}
	if _, err := cm.Complete(req); err != nil {
		t.Fatal(err)
	}
	cold := cm.Usage()
	if cold.SimLatency <= 0 || cold.TotalTokens() <= 0 {
		t.Fatalf("cold call must be charged: %+v", cold)
	}
	if _, err := cm.Complete(req); err != nil {
		t.Fatal(err)
	}
	warm := cm.Usage()
	if warm.Calls != 2 || warm.CachedCalls != 1 {
		t.Fatalf("call counting: %+v", warm)
	}
	if warm.SimLatency != cold.SimLatency || warm.SimDollars != cold.SimDollars ||
		warm.TotalTokens() != cold.TotalTokens() {
		t.Fatalf("cached call must be free: cold %+v warm %+v", cold, warm)
	}
}

func TestFindCache(t *testing.T) {
	inner := &echoModel{}
	cache := NewCache(inner)
	if FindCache(NewCounting(cache)) != cache {
		t.Fatal("cache inside counting not found")
	}
	if FindCache(NewCounting(inner)) != nil {
		t.Fatal("found a cache where there is none")
	}
	if FindCache(cache) != cache {
		t.Fatal("bare cache not found")
	}
}

// TestNaNTemperatureDoesNotLeak: were the in-memory layers keyed on the raw
// float64, a NaN temperature would make every key unequal to itself, so each
// call would insert an entry that no lookup — and no eviction's delete —
// could ever find again, and the maps would grow without bound behind a
// full-looking LRU.
func TestNaNTemperatureDoesNotLeak(t *testing.T) {
	const capacity = 8
	inner := &echoModel{}
	cache := NewCacheSized(inner, capacity)
	coal := NewCoalescerSized(inner, capacity)
	for i := 0; i < 3*capacity; i++ {
		req := CompletionRequest{Prompt: fmt.Sprintf("p%d", i), Temperature: math.NaN()}
		if _, err := cache.Complete(req); err != nil {
			t.Fatal(err)
		}
		if _, err := coal.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.entries.Len(); n > capacity || chainLen(cache.entries) != n {
		t.Fatalf("cache holds %d entries (list %d), capacity %d", n, chainLen(cache.entries), capacity)
	}
	checkIdle(t, coal)
	if s := coal.Stats(); s.Size != capacity {
		t.Fatalf("coalescer memo holds %d entries, capacity %d", s.Size, capacity)
	}
	// And a NaN request is found again like any other.
	last := CompletionRequest{Prompt: fmt.Sprintf("p%d", 3*capacity-1), Temperature: math.NaN()}
	if resp, err := cache.Complete(last); err != nil || !resp.Cached() {
		t.Fatalf("repeated NaN request must hit the cache: %+v err=%v", resp, err)
	}
	if resp, err := coal.Complete(last); err != nil || !resp.Coalesced {
		t.Fatalf("repeated NaN request must hit the memo: %+v err=%v", resp, err)
	}
}
