package core

import (
	"sync"

	"llmsql/internal/lru"
	"llmsql/internal/plan"
	"llmsql/internal/sql"
)

// DefaultPlanCacheCapacity bounds the engine's prepared-plan cache when
// Config.PlanCacheCapacity selects the default.
const DefaultPlanCacheCapacity = 256

// stmtKind classifies what a prepared statement does when run. All entry
// points (Query, Explain, prepared statements) share this one
// classification, so EXPLAIN and EXPLAIN ANALYZE behave identically
// everywhere.
type stmtKind int

const (
	kindSelect stmtKind = iota
	kindExplain
	kindExplainAnalyze
)

// preparedQuery owns the parsed AST and planned tree of one SELECT (or
// EXPLAIN [ANALYZE] SELECT). The plan is immutable after planning: execution
// binds parameters by copying expr-bearing nodes (plan.Bind), never by
// mutation, so one preparedQuery may serve concurrent executions and stay
// cached across queries.
type preparedQuery struct {
	kind stmtKind
	sel  *sql.SelectStmt
	node plan.Node
	// named is true when the statement uses :name parameters.
	named  bool
	params []*sql.Param
	// gen is the engine's and its backend's generation at planning time;
	// a bump of either (a table registered, a local write, the cost model
	// replaced, a view changed) invalidates the plan.
	gen catalogGen
}

// PlanCacheStats reports the prepared-plan cache's effectiveness.
type PlanCacheStats struct {
	// Hits counts lookups answered with a cached plan (no re-parse/re-plan).
	Hits int64
	// Misses counts lookups that had to parse and plan.
	Misses int64
	// Entries is the current number of cached plans. A plan made stale by a
	// generation bump stays in it until its key is looked up again or the
	// LRU bound evicts it.
	Entries int
	// Evictions counts plans dropped by the LRU bound, and stale plans
	// dropped when looked up.
	Evictions int64
}

// planCache is a bounded LRU of prepared plans keyed on normalized SQL text
// (sql.Normalize), so spelling differences — case, whitespace, comments,
// ?-vs-$n — share one entry.
type planCache struct {
	mu        sync.Mutex
	entries   *lru.Cache[string, *preparedQuery]
	hits      int64
	misses    int64
	evictions int64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{entries: lru.New[string, *preparedQuery](capacity)}
}

// get returns the cached plan for key when present and planned at the
// current generation; stale entries are dropped.
func (c *planCache) get(key string, gen catalogGen) *preparedQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	pq, ok := c.entries.Get(key)
	if ok && pq.gen != gen {
		c.entries.Remove(key)
		c.evictions++
		ok = false
	}
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	return pq
}

// put stores a plan, evicting the least recently used entry past capacity.
func (c *planCache) put(key string, pq *preparedQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries.Put(key, pq) {
		c.evictions++
	}
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Entries:   c.entries.Len(),
		Evictions: c.evictions,
	}
}
