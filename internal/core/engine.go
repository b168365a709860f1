package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llmsql/internal/exec"
	"llmsql/internal/expr"
	"llmsql/internal/llm"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

// Engine is the user-facing facade: SQL in, typed rows plus a cost report
// out. Virtual (LLM-backed) tables and local row-store tables can be mixed
// freely in one query (hybrid execution).
type Engine struct {
	// backend is the stack below this engine's own layers and the catalog
	// of virtual and local tables: the engine's own under Open, the group's
	// (shared with every other session) under EngineGroup.Session. See
	// stack.go.
	backend *backend
	store   *LLMStore
	cache   *llm.CacheModel // optional, per Config.CacheCapacity
	plans   *planCache      // optional, per Config.PlanCacheCapacity
	// gen is the engine's own generation: bumped whenever a change to what
	// only this engine plans with could make a cached plan wrong: the cost
	// model replaced, or a materialized view created, dropped, gone stale,
	// or refreshed from stale or to another row count (buildView).
	// The backend's generation covers the shared catalog; see generation.
	gen atomic.Uint64

	// viewMu guards the materialized-view registry and counters below.
	// viewDB holds the materialized rows, one table per view, separate from
	// the user's local store so DROP MATERIALIZED VIEW can never collide
	// with user tables.
	viewMu     sync.Mutex
	viewDB     *storage.DB
	views      map[string]*matView
	viewTotals ViewStats

	// billed sums the accounts of finished queries (TotalUsage), dollars
	// in whole nano-dollars as each account keeps them.
	billMu     sync.Mutex
	billed     llm.Usage
	billedNano int64
}

// New builds an engine over the model with the given configuration. It is
// Open without the error path: a persistent cache directory that cannot be
// opened panics here, so callers configuring Config.CacheDir at runtime
// should prefer Open.
func New(model llm.Model, cfg Config) *Engine {
	e, err := Open(model, cfg)
	if err != nil {
		panic("core: " + err.Error())
	}
	return e
}

// Open builds an engine over the model: a backend stack of its own (see
// stack.go for the layers and their order) with the engine's in-memory
// completion cache and plan cache on top.
func Open(model llm.Model, cfg Config) (*Engine, error) {
	b, err := newBackend(model, cfg, false)
	if err != nil {
		return nil, err
	}
	return b.newEngine(cfg), nil
}

// Close releases resources held by the backend stack (the persistent
// cache's segment file). The engine must not be used after Close; engines
// without a Config.CacheDir need not be closed. Closing a session engine
// releases nothing: the stack belongs to its EngineGroup and keeps serving
// the other sessions until EngineGroup.Close.
func (e *Engine) Close() error {
	if e.backend.coal != nil {
		return nil
	}
	return e.backend.close()
}

// CostModel replaces the simulated cost constants, for both billing and
// the scan planner's strategy pricing (the store keeps the one copy both
// read). Cached plans are invalidated: their scan-strategy decisions were
// priced under the old constants. On a session engine only the session's own
// billing and planner are re-priced: the group's Retrier keeps its
// constants, because one tenant must not change what failed attempts cost
// every other session.
func (e *Engine) CostModel(c llm.CostModel) {
	e.store.SetCostModel(c)
	if e.backend.coal == nil {
		// The Retrier prices failed attempts, backoff and hedge races in
		// virtual time under the same constants.
		e.backend.retrier.SetCost(c)
	}
	e.invalidatePlans()
}

// catalogGen is what a plan was planned against: the engine's own
// generation and its backend's.
type catalogGen struct{ engine, backend uint64 }

// generation returns the current generations. A plan is valid only while
// both are unchanged: the plan cache drops a plan stamped otherwise when it
// is looked up, and Stmt handles re-prepare on next use. A change bumps its
// generation after it is made, so a plan stamped with the new generation
// saw the change.
func (e *Engine) generation() catalogGen {
	return catalogGen{e.gen.Load(), e.backend.gen.Load()}
}

// invalidatePlans bumps the engine's own generation, invalidating every plan
// it planned before.
func (e *Engine) invalidatePlans() { e.gen.Add(1) }

// PlanCacheStats reports the prepared-plan cache's counters (the zero value
// when the cache is disabled via Config.PlanCacheCapacity < 0).
func (e *Engine) PlanCacheStats() PlanCacheStats {
	if e.plans == nil {
		return PlanCacheStats{}
	}
	return e.plans.stats()
}

// CacheStats reports the completion cache's counters (the zero value when
// no cache is configured).
func (e *Engine) CacheStats() llm.CacheStats {
	if e.cache == nil {
		return llm.CacheStats{}
	}
	return e.cache.CacheStats()
}

// DiskCacheStats reports the persistent prompt cache's counters and
// occupancy (the zero value when no Config.CacheDir is configured). On a
// session engine this, RetrierStats and ChaosStats report the group's shared
// layers, every session's traffic included.
func (e *Engine) DiskCacheStats() llm.DiskCacheStats { return e.backend.diskStats() }

// RetrierStats reports the fault-tolerance layer's recovery counters
// (all zero on a healthy stack).
func (e *Engine) RetrierStats() llm.RetrierStats { return e.backend.retrier.Stats() }

// ChaosStats reports the fault injector's counters (the zero value when
// Config.Chaos is disabled).
func (e *Engine) ChaosStats() llm.ChaosStats { return e.backend.chaosStats() }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.store.Config() }

// RegisterTable declares a virtual LLM-backed table. On a session engine it
// declares the table for the whole group, like EngineGroup.RegisterTable.
func (e *Engine) RegisterTable(t VirtualTable) { e.backend.register(t) }

// RegisterWorldDomain declares a virtual table mirroring a synthetic-world
// domain (see worldTable); the usual setup for experiments.
func (e *Engine) RegisterWorldDomain(d *world.Domain) { e.RegisterTable(worldTable(d)) }

// worldTable mirrors a synthetic-world domain's schema and descriptions. The
// domain size seeds the scan planner's cardinality estimate.
func worldTable(d *world.Domain) VirtualTable {
	return VirtualTable{
		Name:        d.Name,
		Description: d.Description,
		Schema:      d.Schema,
		EstRows:     len(d.Entities),
	}
}

// AttachLocal replaces the local row store, whose tables can be joined with
// virtual tables; virtual tables shadow local ones of the same name. An
// engine starts with an empty one. On a session engine it replaces the
// store of the whole group, like EngineGroup.AttachLocal.
func (e *Engine) AttachLocal(db *storage.DB) { e.backend.attachLocal(db) }

// QueryResult bundles the rows with the execution report.
type QueryResult struct {
	// Result holds the output schema and rows.
	Result *exec.Result
	// Usage is the model consumption attributable to this query.
	Usage llm.Usage
	// Scans reports per-virtual-table retrieval statistics.
	Scans []ScanStats
}

// Query plans and executes a SELECT (or EXPLAIN [ANALYZE] SELECT)
// statement. Parameter placeholders ($1/?/:name) are bound from args:
// positionally, or via one NamedArgs map for :name style. Plans are served
// from the engine's prepared-plan cache when the normalized statement text
// has been planned before.
//
// EXPLAIN returns the rendered plan as the result rows without executing;
// EXPLAIN ANALYZE executes and returns the plan annotated with observed
// per-operator row counts.
func (e *Engine) Query(query string, args ...any) (*QueryResult, error) {
	pq, err := e.prepare(query)
	if err != nil {
		return nil, err
	}
	return e.run(pq, args, nil)
}

// Exec runs a DDL/DML statement: CREATE TABLE and INSERT against the local
// row store (on a session engine the group's, so every session sees the
// write), and the materialized-view lifecycle — CREATE MATERIALIZED VIEW
// ... AS SELECT, REFRESH MATERIALIZED VIEW, DROP MATERIALIZED VIEW. Virtual
// tables cannot be created or written this way — the model is read-only
// storage.
func (e *Engine) Exec(statement string) error {
	stmt, err := sql.Parse(statement)
	if err != nil {
		return err
	}
	switch st := stmt.(type) {
	case *sql.CreateTableStmt:
		if e.store.Has(st.Name) {
			return fmt.Errorf("core: %q is a virtual table; local CREATE would be shadowed", st.Name)
		}
		cols := make([]rel.Column, len(st.Columns))
		for i, c := range st.Columns {
			cols[i] = rel.Column{Name: c.Name, Type: c.Type, Key: c.PrimaryKey}
		}
		if _, err := e.backend.local.Load().CreateTable(st.Name, rel.NewSchema(cols...)); err != nil {
			return err
		}
		e.backend.gen.Add(1)
		return nil

	case *sql.InsertStmt:
		if e.store.Has(st.Table) {
			return fmt.Errorf("core: cannot INSERT into virtual table %q (the model is read-only)", st.Table)
		}
		tbl, err := e.backend.local.Load().Table(st.Table)
		if err != nil {
			return err
		}
		if err := insertRows(tbl, st); err != nil {
			return err
		}
		e.backend.gen.Add(1)
		return nil

	case *sql.CreateViewStmt:
		return e.createView(st)

	case *sql.RefreshViewStmt:
		return e.refreshView(st.Name)

	case *sql.DropViewStmt:
		return e.dropView(st.Name)

	case *sql.SelectStmt:
		return fmt.Errorf("core: use Query for SELECT statements")
	default:
		return fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

// insertRows evaluates the literal rows of an INSERT and stores them,
// honouring an optional column list (missing columns become NULL). The
// statement is all-or-nothing: every row is evaluated first and the batch
// is stored with one InsertBatch, so a bad row leaves the table unchanged.
func insertRows(tbl *storage.Table, st *sql.InsertStmt) error {
	schema := tbl.Schema()
	// Map insert position -> schema position.
	target := make([]int, 0, schema.Len())
	if len(st.Columns) == 0 {
		for i := 0; i < schema.Len(); i++ {
			target = append(target, i)
		}
	} else {
		for _, name := range st.Columns {
			idx := schema.IndexOf(name)
			if idx < 0 {
				return fmt.Errorf("core: table %s has no column %q", tbl.Name(), name)
			}
			target = append(target, idx)
		}
	}
	rows := make([]rel.Row, len(st.Rows))
	for rowIdx, exprs := range st.Rows {
		if len(exprs) != len(target) {
			return fmt.Errorf("core: row %d has %d values, want %d", rowIdx+1, len(exprs), len(target))
		}
		row := make(rel.Row, schema.Len())
		for i := range row {
			row[i] = rel.NullOf(schema.Col(i).Type)
		}
		for i, ex := range exprs {
			c, err := expr.Compile(ex, rel.Schema{})
			if err != nil {
				return fmt.Errorf("core: row %d value %d: %w", rowIdx+1, i+1, err)
			}
			v, err := c.Eval(nil)
			if err != nil {
				return fmt.Errorf("core: row %d value %d: %w", rowIdx+1, i+1, err)
			}
			row[target[i]] = v
		}
		rows[rowIdx] = row
	}
	if err := tbl.InsertBatch(rows); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Explain plans the query and renders the plan without executing it.
// Parameters appear as placeholders; an EXPLAIN [ANALYZE] prefix in the
// statement is accepted and ignored.
func (e *Engine) Explain(query string) (string, error) {
	pq, err := e.prepare(query)
	if err != nil {
		return "", err
	}
	return plan.Explain(pq.node), nil
}

// TotalUsage returns the model consumption of the engine's finished queries
// (view builds and refreshes included, failed queries too): the sum of
// their accounts. A query still running is not in it.
func (e *Engine) TotalUsage() llm.Usage {
	e.billMu.Lock()
	defer e.billMu.Unlock()
	u := e.billed
	u.SimDollars = float64(e.billedNano) / 1e9
	return u
}

// planOptions maps the engine configuration onto optimizer rule options:
// the advisory LIMIT hint on scans and the bind-join strategy.
func (e *Engine) planOptions() plan.Options {
	opts := plan.DefaultOptions()
	opts.LimitPushdown = e.store.Config().LimitPushdown
	opts.BindJoin = e.store.Config().BindJoin
	return opts
}

// catalog resolves virtual tables first, then materialized views, then
// local ones. Stale views never reach the catalog by name — planQuery
// expands them into their defining queries first — so a view table here is
// always servable. views is hasViews' answer: an engine without views plans
// without consulting the view store.
func (e *Engine) catalog(views bool) plan.Catalog {
	local := &exec.StorageCatalog{DB: e.backend.local.Load()}
	if views {
		return plan.MultiCatalog{e.store, &exec.StorageCatalog{DB: e.viewDB}, local}
	}
	return plan.MultiCatalog{e.store, local}
}

// queryAccount is one query's bill, and the exec.Source its plan scans
// through. Every scan the query starts bills each call it completes
// (llmScan.modelCall) and publishes its ScanStats and critical path (flush)
// here and nowhere else, so queries running at once on one engine never see
// each other's spend. It embeds the QueryResult run returns, so a query
// allocates no account of its own.
type queryAccount struct {
	QueryResult
	engine *Engine
	// view, while a materialized view's build or refresh runs its defining
	// query, records the calls the query completes.
	view *viewRecord

	mu      sync.Mutex // pool workers bill concurrently
	nanoUSD int64      // Usage.SimDollars in whole nano-dollars
}

// Scan implements exec.Source: it routes a scan to the LLM store, a
// materialized view or the local row store. A plan scans a view by name
// only if the view was fresh when it was planned; should the view have gone
// stale since, the scan still serves its rows.
func (a *queryAccount) Scan(req exec.ScanRequest) (exec.RowIter, error) {
	e := a.engine
	if e.store.Has(req.Table) {
		return e.store.scan(req, a)
	}
	if v, _ := e.view(req.Table); v != nil {
		return e.scanView(v, req, a)
	}
	if local := e.backend.local.Load(); local.HasTable(req.Table) {
		src := &exec.StorageSource{DB: local}
		return src.Scan(req)
	}
	return nil, fmt.Errorf("core: no source for table %q", req.Table)
}

// bill charges one completed call, priced by CostModel.Bill. Safe from pool
// workers; a nil account (a direct LLMStore.Scan) charges nothing.
func (a *queryAccount) bill(req llm.CompletionRequest, resp llm.CompletionResponse, u llm.Usage, nanoUSD int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.Usage.Add(u)
	a.nanoUSD += nanoUSD
	if a.view != nil {
		a.view.add(req, resp)
	}
	a.mu.Unlock()
}

// addScan publishes one finished scan's statistics and critical path.
func (a *queryAccount) addScan(st ScanStats, wall time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.Scans = append(a.Scans, st)
	a.Usage.SimWall += wall
	a.mu.Unlock()
}

// FormatResult renders a result as an aligned text table (for CLIs and
// examples).
func FormatResult(res *exec.Result) string {
	names := res.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(fields []string) {
		for i, f := range fields {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(f)
			for p := len(f); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	sep := make([]string, len(names))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(res.Rows))
	return b.String()
}
