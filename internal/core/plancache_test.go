package core

import (
	"strconv"
	"testing"
)

var planCacheSink *preparedQuery

// BenchmarkPlanCacheHit is the repeated-statement path: every prepare finds
// its plan and refreshes its recency.
func BenchmarkPlanCacheHit(b *testing.B) {
	c := newPlanCache(DefaultPlanCacheCapacity)
	keys := make([]string, DefaultPlanCacheCapacity)
	for i := range keys {
		keys[i] = "select name from country where population > " + strconv.Itoa(i)
		c.put(keys[i], &preparedQuery{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planCacheSink = c.get(keys[i%len(keys)], 0)
	}
	if s := c.stats(); s.Hits != int64(b.N) {
		b.Fatalf("%d of %d lookups hit", s.Hits, b.N)
	}
}

// BenchmarkPlanCacheMissEvict is the ad-hoc path: four times more distinct
// statements than the cache holds, cycled, so every prepare misses and its
// put evicts the oldest plan.
func BenchmarkPlanCacheMissEvict(b *testing.B) {
	c := newPlanCache(DefaultPlanCacheCapacity)
	keys := make([]string, 4*DefaultPlanCacheCapacity)
	pq := &preparedQuery{}
	for i := range keys {
		keys[i] = "select name from country where population > " + strconv.Itoa(i)
		c.put(keys[i], pq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if c.get(k, 0) == nil {
			c.put(k, pq)
		}
	}
	if s := c.stats(); s.Hits != 0 || s.Entries != DefaultPlanCacheCapacity {
		b.Fatalf("expected an all-miss run at capacity: %+v", s)
	}
}
