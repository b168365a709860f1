package core

import (
	"fmt"
	"strconv"
	"strings"
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
		planCacheSink = c.get(keys[i%len(keys)], catalogGen{})
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
		if c.get(k, catalogGen{}) == nil {
			c.put(k, pq)
		}
	}
	if s := c.stats(); s.Hits != 0 || s.Entries != DefaultPlanCacheCapacity {
		b.Fatalf("expected an all-miss run at capacity: %+v", s)
	}
}

// BenchmarkPrepareMissAuto times the plan-miss path of the real-clock
// benchmark's adhoc_plan workload: its four statement shapes — two keyed
// lookups and two joins — under StrategyAuto at temperature 0 with the plan
// cache off, so every query parses, plans and prices its scans, over a warm
// completion cache, so the execution behind each plan costs no model time.
func BenchmarkPrepareMissAuto(b *testing.B) {
	w := parWorld()
	cfg := DefaultConfig()
	cfg.Strategy = StrategyAuto
	cfg.Temperature = 0
	cfg.CacheCapacity = -1
	cfg.PlanCacheCapacity = -1
	e := worldEngine(w, cfg)
	quoted := func(domain string, n int) []string {
		keys := w.Domain(domain).TopKeys(n)
		for i, k := range keys {
			keys[i] = "'" + strings.ReplaceAll(k, "'", "''") + "'"
		}
		return keys
	}
	c, m, l := quoted("country", 1)[0], quoted("movie", 3), quoted("laureate", 1)[0]
	queries := []string{
		fmt.Sprintf("SELECT a.name, a.capital, a.population FROM country AS a WHERE a.name = %s", c),
		fmt.Sprintf("SELECT b.title, b.director, b.year FROM movie AS b WHERE b.title = %s", m[0]),
		fmt.Sprintf("SELECT l.name, l.field, c.capital FROM laureate AS l JOIN country AS c ON l.country = c.name WHERE l.name = %s", l),
		fmt.Sprintf("SELECT c.continent, COUNT(*) AS n FROM movie AS m JOIN country AS c ON m.country = c.name WHERE m.title IN (%s) GROUP BY c.continent ORDER BY c.continent", strings.Join(m, ", ")),
	}
	for _, q := range queries { // warm the completion cache
		if _, err := e.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
