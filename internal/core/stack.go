package core

import (
	"fmt"
	"sync/atomic"

	"llmsql/internal/llm"
	"llmsql/internal/storage"
)

// backend is the model stack below an engine's own layers, assembled by
// newBackend — the one place the stack is built. The order is the list in
// package llm's comment (llm/backend.go), which TestStackOrder compares with
// the chains built here; the reasons for it:
//
// Chaos sits above the trace layer, so recorded traces hold only clean
// completions and a replayed suite can still be stressed with injected
// faults; a replay trace substitutes the base model entirely (only its name
// is used). The Retrier sits below the caches — a cache hit can never fault,
// a retried answer is cached once — and above the injector, so retries see
// fresh fault draws. In a group the live counter sits below the Retrier and
// the DiskCache: it sees exactly the successful traffic the operator pays
// for (disk hits never reach it; both halves of a hedge race do). The one
// Retrier below the Coalescer runs a coalesced leader's retries and hedges
// once, and every follower receives the same recovered, identically billed
// response. Above the whole stack each query bills the calls its scans
// complete into its own account (queryAccount), so cache hits count as calls
// charged zero latency and dollars.
//
// The solo/group split is where the stack forks: Open puts one engine on a
// backend of its own, EngineGroup.Session puts one more engine on the
// group's. The backend also holds the catalog its engines share: the
// virtual tables, the local row store, and the generation a cached plan
// checks them by (see Engine.generation).
type backend struct {
	top     llm.Model          // what each engine stacks its own layers on
	chaos   *llm.Chaos         // nil unless Config.Chaos is enabled
	live    *llm.CountingModel // nil on a solo engine
	retrier *llm.Retrier
	disk    *llm.DiskCache // nil without Config.CacheDir
	coal    *llm.Coalescer // nil on a solo engine; sessions never close or re-price a group's
	memo    *enumMemo      // every session's; nil on a solo engine

	tables *tableSet
	local  atomic.Pointer[storage.DB]
	// gen is bumped after every change to tables or the local store: a
	// table registered, a store attached, a table created in it or rows
	// inserted (they can change the statistics a join order relied on).
	gen atomic.Uint64
}

// newBackend assembles the stack up to the fork. shared adds the two
// group-only layers and the group's enumeration memo, whose rounds the
// coalescer's memo answers.
func newBackend(model llm.Model, cfg Config, shared bool) (*backend, error) {
	b := &backend{tables: newTableSet()}
	b.local.Store(storage.NewDB())
	switch {
	case cfg.ReplayTrace != nil:
		b.top = cfg.ReplayTrace.Replay(model.Name())
	case cfg.RecordTrace != nil:
		b.top = cfg.RecordTrace.Record(model)
	default:
		b.top = model
	}
	if cfg.Chaos.Enabled() {
		b.chaos = llm.NewChaos(b.top, cfg.Chaos)
		b.top = b.chaos
	}
	if shared {
		b.live = llm.NewCounting(b.top)
		b.top = b.live
	}
	b.retrier = llm.NewRetrier(b.top, cfg.Retry)
	b.top = b.retrier
	if cfg.CacheDir != "" {
		disk, err := llm.NewDiskCache(b.top, cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("core: open cache dir %q: %w", cfg.CacheDir, err)
		}
		b.disk, b.top = disk, disk
	}
	if shared {
		b.coal = llm.NewCoalescer(b.top)
		b.top = b.coal
		b.memo = newEnumMemo(llm.DefaultCoalescerMemo)
	}
	return b, nil
}

// newEngine stacks one engine's own layers — the in-memory completion
// cache, the store, the view store and the plan cache — on the backend.
func (b *backend) newEngine(cfg Config) *Engine {
	e := &Engine{backend: b, viewDB: storage.NewDB(), views: make(map[string]*matView)}
	top := b.top
	if cfg.CacheCapacity != 0 {
		e.cache = llm.NewCacheSized(top, cfg.CacheCapacity)
		top = e.cache
	}
	e.store = NewLLMStore(top, cfg)
	e.store.tables = b.tables
	if b.memo != nil {
		e.store.memo = b.memo
	}
	switch {
	case cfg.PlanCacheCapacity > 0:
		e.plans = newPlanCache(cfg.PlanCacheCapacity)
	case cfg.PlanCacheCapacity == 0:
		e.plans = newPlanCache(DefaultPlanCacheCapacity)
	}
	return e
}

// register declares a virtual table for every engine on the backend.
func (b *backend) register(t VirtualTable) {
	b.tables.add(tableRecord(t))
	b.gen.Add(1)
}

// attachLocal replaces the local row store every engine on the backend
// reads and writes.
func (b *backend) attachLocal(db *storage.DB) {
	b.local.Store(db)
	b.gen.Add(1)
}

// diskStats reports the persistent cache's counters, zero without one.
func (b *backend) diskStats() llm.DiskCacheStats {
	if b.disk == nil {
		return llm.DiskCacheStats{}
	}
	return b.disk.Stats()
}

// chaosStats reports the fault injector's counters, zero without one.
func (b *backend) chaosStats() llm.ChaosStats {
	if b.chaos == nil {
		return llm.ChaosStats{}
	}
	return b.chaos.Stats()
}

// close releases the persistent cache's segment file.
func (b *backend) close() error {
	if b.disk == nil {
		return nil
	}
	return b.disk.Close()
}
