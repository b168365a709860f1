package core

import (
	"sync"

	"llmsql/internal/llm"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

// EngineGroup is the multi-session form of the engine, built for serving:
// one shared backend stack (see stack.go), Coalescer outermost, sits below
// every session, while each Session() engine bills its own queries and keeps
// its own optional in-memory CacheModel and plan cache on top. The
// coalescer merges identical requests across sessions — concurrent or, via
// its memo, consecutive — so N sessions scanning the same virtual table cost
// one live fan-out; because coalesced responses preserve the
// original cache flags and billing, every session's rows, ScanStats (modulo
// CoalescedHits) and Usage are bit-identical to what a solo engine would
// report, and the saving appears only in the group's operator-side stats.
//
// The group also acts as the session registry. Its sessions share the
// backend's catalog — the virtual tables and one local row store — and one
// enumeration memo. A table registered or a local write through the
// group or any session is seen by every session, live or later, and makes
// every session's plans planned before it stale; a session's views, cost
// model, scan statistics and plan cache stay its own. All methods are safe
// for concurrent use.
type EngineGroup struct {
	backend *backend // the stack below the sessions and their catalog
	cfg     Config

	mu       sync.Mutex
	sessions map[*Engine]struct{}
	total    int       // sessions ever created
	closed   llm.Usage // billed usage of sessions already closed
	// closedViews accumulates the materialized-view counters of sessions
	// already closed (views are session-local, like prepared statements).
	closedViews ViewStats
}

// NewEngineGroup assembles the shared serving stack over the model. The
// configuration is the one every session engine will run with; its CacheDir,
// CacheMaxBytes, RecordTrace, ReplayTrace, Chaos and Retry configure the
// shared layers, while CacheCapacity and PlanCacheCapacity stay per-session.
func NewEngineGroup(model llm.Model, cfg Config) (*EngineGroup, error) {
	b, err := newBackend(model, cfg, true)
	if err != nil {
		return nil, err
	}
	return &EngineGroup{
		backend:  b,
		cfg:      cfg,
		sessions: make(map[*Engine]struct{}),
	}, nil
}

// Session returns a fresh engine over the shared stack and catalog: its own
// billing, in-memory cache and plan cache over the group's tables and local
// row store. Release it with CloseSession when the session ends.
func (g *EngineGroup) Session() *Engine {
	e := g.backend.newEngine(g.cfg)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sessions[e] = struct{}{}
	g.total++
	return e
}

// CloseSession retires a session engine: its billed usage is folded into the
// group totals and it leaves the registry. The engine must not be used
// afterwards.
func (g *EngineGroup) CloseSession(e *Engine) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.sessions[e]; !ok {
		return
	}
	delete(g.sessions, e)
	g.closed.Add(e.TotalUsage())
	g.closedViews.Add(e.ViewStats())
}

// RegisterTable declares a virtual table for every session, live or later,
// all of which share its one record.
func (g *EngineGroup) RegisterTable(t VirtualTable) { g.backend.register(t) }

// RegisterWorldDomain declares a virtual table mirroring a synthetic-world
// domain, like Engine.RegisterWorldDomain.
func (g *EngineGroup) RegisterWorldDomain(d *world.Domain) { g.RegisterTable(worldTable(d)) }

// AttachLocal replaces the local row store every session, live or later,
// shares (normally done before serving starts).
func (g *EngineGroup) AttachLocal(db *storage.DB) { g.backend.attachLocal(db) }

// Close releases the shared stack (the persistent cache's segment file).
// Sessions must be closed first; the group must not be used after Close.
func (g *EngineGroup) Close() error { return g.backend.close() }

// GroupStats is the operator-side view of a serving group: how many
// sessions, what they were billed, and what the backend actually cost after
// coalescing and caching.
type GroupStats struct {
	// Sessions is the live session count; TotalSessions counts every
	// session ever created.
	Sessions      int
	TotalSessions int
	// Billed is the sum of every session's TotalUsage (live and closed):
	// what the sessions' finished queries collectively experienced,
	// identical to what the same queries would have cost run solo. A query
	// still running is not in it.
	Billed llm.Usage
	// Live is the consumption that actually reached the base backend, below
	// the coalescer and the persistent cache — what the operator pays. The
	// gap between Billed and Live is the serving layer's saving.
	Live llm.Usage
	// Coalescer reports the request-coalescing counters.
	Coalescer llm.CoalescerStats
	// DiskCache reports the shared persistent cache (zero without one).
	DiskCache llm.DiskCacheStats
	// Retrier reports the shared fault-tolerance layer's recovery work
	// (all zero on a healthy backend).
	Retrier llm.RetrierStats
	// Chaos reports the fault injector's counters (zero when Config.Chaos
	// is disabled).
	Chaos llm.ChaosStats
	// Views aggregates materialized-view activity across every session,
	// live and closed: how many views were built, how many scans the row
	// stores absorbed, and what refreshes actually cost live.
	Views ViewStats
}

// Stats returns a snapshot of the group's operator-side counters.
func (g *EngineGroup) Stats() GroupStats {
	g.mu.Lock()
	s := GroupStats{
		Sessions:      len(g.sessions),
		TotalSessions: g.total,
		Billed:        g.closed,
		Views:         g.closedViews,
	}
	for e := range g.sessions {
		s.Billed.Add(e.TotalUsage())
		s.Views.Add(e.ViewStats())
	}
	g.mu.Unlock()
	b := g.backend
	s.Live = b.live.Usage()
	s.Coalescer = b.coal.Stats()
	s.DiskCache = b.diskStats()
	s.Retrier = b.retrier.Stats()
	s.Chaos = b.chaosStats()
	return s
}
