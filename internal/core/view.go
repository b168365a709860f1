package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
	"llmsql/internal/storage"
)

// matView is one materialized view: the defining query's text, its persisted
// rows (a table of the same name in the engine's view store), and the
// freshness state the TTL policy and REFRESH maintain. Views age by use —
// reads counts warm reads served since the last build or refresh — never by
// wall clock, so a replayed run ages its views identically on any machine.
type matView struct {
	name  string
	query string // deparsed defining SELECT, re-parsed for refresh/expansion
	stale bool
	reads int // warm reads served since the last build/refresh
	// manifest holds the distinct requests the last build or refresh
	// completed (viewRecord.manifest): what the next REFRESH probes.
	manifest []llm.CompletionRequest
	// refresh bookkeeping, surfaced in ViewInfo.
	refreshes      int
	lastLiveCalls  int
	lastLiveTokens int
	lastWarm       int // fingerprints found warm by the last refresh probe
	lastCold       int // fingerprints the last refresh probe found cold
}

// ViewInfo is the inspectable state of one materialized view.
type ViewInfo struct {
	// Name is the view name; Query the defining SELECT.
	Name  string
	Query string
	// Rows is the materialized row count.
	Rows int
	// Stale reports that the TTL policy expired the view: scans fall back
	// to live retrieval until REFRESH MATERIALIZED VIEW rebuilds it.
	Stale bool
	// Reads counts warm reads served since the last build or refresh — the
	// view's age as EXPLAIN reports it.
	Reads int
	// Refreshes counts completed REFRESH MATERIALIZED VIEW runs.
	Refreshes int
	// LastLiveCalls and LastLiveTokens are the live model spend of the last
	// build or refresh: the calls that were neither a cache hit nor, in an
	// EngineGroup, a coalesced copy of another call, and their tokens. 0
	// calls means the whole defining query replayed without reaching the
	// provider. On a solo engine they equal the query's Usage.Calls -
	// Usage.CachedCalls and Usage.TotalTokens().
	LastLiveCalls  int
	LastLiveTokens int
	// LastWarmFingerprints and LastColdFingerprints report the persistent
	// prompt-cache probe the last refresh ran, before re-running the query,
	// over the manifest of the run before it (both zero without
	// Config.CacheDir and on the initial build). The probe prices what the
	// previous run asked: a plan that changed since, such as auto picking
	// another strategy, can ask more than LastColdFingerprints cold.
	LastWarmFingerprints int
	LastColdFingerprints int
}

// ViewStats aggregates materialized-view activity for operator dashboards
// (per engine, summed across sessions in GroupStats).
type ViewStats struct {
	// Created and Dropped count CREATE/DROP MATERIALIZED VIEW statements.
	Created int
	Dropped int
	// WarmReads counts scans served from materialized rows at row-store
	// cost instead of live LLM retrieval.
	WarmReads int
	// Refreshes counts REFRESH runs; RefreshLiveCalls and RefreshLiveTokens
	// the live model spend they incurred, counted as ViewInfo.LastLiveCalls
	// is (warm fingerprints refresh free).
	Refreshes         int
	RefreshLiveCalls  int
	RefreshLiveTokens int
}

// Add folds b into s.
func (s *ViewStats) Add(b ViewStats) {
	s.Created += b.Created
	s.Dropped += b.Dropped
	s.WarmReads += b.WarmReads
	s.Refreshes += b.Refreshes
	s.RefreshLiveCalls += b.RefreshLiveCalls
	s.RefreshLiveTokens += b.RefreshLiveTokens
}

// Views returns the engine's materialized views, sorted by name.
func (e *Engine) Views() []ViewInfo {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	out := make([]ViewInfo, 0, len(e.views))
	for _, v := range e.views {
		out = append(out, e.viewInfoLocked(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// View returns one materialized view's state by name.
func (e *Engine) View(name string) (ViewInfo, bool) {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	v, ok := e.views[strings.ToLower(name)]
	if !ok {
		return ViewInfo{}, false
	}
	return e.viewInfoLocked(v), true
}

func (e *Engine) viewInfoLocked(v *matView) ViewInfo {
	rows := 0
	if t, err := e.viewDB.Table(v.name); err == nil {
		rows = t.RowCount()
	}
	return ViewInfo{
		Name:                 v.name,
		Query:                v.query,
		Rows:                 rows,
		Stale:                v.stale,
		Reads:                v.reads,
		Refreshes:            v.refreshes,
		LastLiveCalls:        v.lastLiveCalls,
		LastLiveTokens:       v.lastLiveTokens,
		LastWarmFingerprints: v.lastWarm,
		LastColdFingerprints: v.lastCold,
	}
}

// ViewStats returns the engine's accumulated materialized-view counters.
func (e *Engine) ViewStats() ViewStats {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	return e.viewTotals
}

// createView builds a new view: it runs the defining query once and
// registers the view with its rows, so matching scans route to the row
// store. The defining query must be parameter-free (there is nothing to
// bind a placeholder to at refresh time).
func (e *Engine) createView(st *sql.CreateViewStmt) error {
	if e.store.Has(st.Name) {
		return fmt.Errorf("core: %q is a virtual table; a materialized view would be shadowed", st.Name)
	}
	if e.backend.local.Load().HasTable(st.Name) {
		return fmt.Errorf("core: %q is a local table; pick another view name", st.Name)
	}
	if len(sql.CollectParams(st.Select)) > 0 {
		return fmt.Errorf("core: a materialized view's defining query cannot use parameters")
	}
	if v, _ := e.view(st.Name); v != nil {
		return fmt.Errorf("core: materialized view %q already exists", st.Name)
	}
	return e.buildView(&matView{name: st.Name, query: sql.DeparseStmt(st.Select)}, true)
}

// refreshView rebuilds a view from its defining query. The persistent
// prompt cache makes the maintenance incremental without any diffing
// machinery: every fingerprint of the defining query's prompts that is
// still warm answers as a disk hit — zero live calls, zero tokens — so only
// prompts whose cache entries went cold (evicted, invalidated, or a config
// change that moved their fingerprints) reach the live model.
func (e *Engine) refreshView(name string) error {
	v, _ := e.view(name)
	if v == nil {
		return fmt.Errorf("core: unknown materialized view %q", name)
	}
	return e.buildView(v, false)
}

// buildView is CREATE's and REFRESH's one build: it runs v's defining query
// and publishes the result in one step under viewMu — the rows with one
// storage call (Table.Replace), then the view's bookkeeping — so a reader
// sees exactly one build's rows and concurrent builds never mix theirs.
// A build re-arms freshness: the view is fresh again and its read count
// restarts.
//
// It bumps the engine's generation only when a plan cached before the build
// could differ from one planned after it. Planning reads three things from
// a view: whether it exists, whether it is fresh (a stale one expands into
// its defining query) and its row count (join order and build side). So
// CREATE always bumps, and REFRESH bumps when the view was stale or its row
// count changed. Routing needs no bump: a scan of the view reads whatever
// rows the view holds when the scan starts.
func (e *Engine) buildView(v *matView, create bool) error {
	// Probe the prompt cache for the requests the previous run completed:
	// the warm/cold split is the refresh's expected cost, surfaced in
	// ViewInfo. A new view has no manifest, so CREATE probes nothing.
	e.viewMu.Lock()
	manifest := v.manifest
	e.viewMu.Unlock()
	warm, cold := 0, 0
	if disk := e.backend.disk; disk != nil {
		for _, req := range manifest {
			if disk.Contains(req) {
				warm++
			} else {
				cold++
			}
		}
	}
	res, rec, err := e.recordedQuery(v.query)
	if err != nil {
		return fmt.Errorf("core: build materialized view %q: %w", v.name, err)
	}

	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	var tbl *storage.Table
	switch {
	case create && e.views[v.name] != nil:
		return fmt.Errorf("core: materialized view %q already exists", v.name)
	case create:
		tbl, err = e.viewDB.CreateTable(v.name, res.Result.Schema)
	case e.views[v.name] != v:
		return fmt.Errorf("core: materialized view %q was dropped during its refresh", v.name)
	default:
		tbl, err = e.viewDB.Table(v.name)
	}
	if err != nil {
		return err
	}
	prev, err := tbl.Replace(res.Result.Rows)
	if err != nil {
		if create {
			e.viewDB.DropTable(v.name)
		}
		return fmt.Errorf("core: build materialized view %q: %w", v.name, err)
	}
	bump := create || v.stale || prev != len(res.Result.Rows)
	v.stale, v.reads = false, 0
	v.manifest = rec.manifest()
	v.lastLiveCalls, v.lastLiveTokens = rec.liveCalls, rec.liveTokens
	v.lastWarm, v.lastCold = warm, cold
	if create {
		e.views[v.name] = v
		e.viewTotals.Created++
	} else {
		v.refreshes++
		e.viewTotals.Refreshes++
		e.viewTotals.RefreshLiveCalls += rec.liveCalls
		e.viewTotals.RefreshLiveTokens += rec.liveTokens
	}
	if bump {
		e.invalidatePlans()
	}
	return nil
}

// recordedQuery runs a view's defining query with its account recording the
// calls it completes. Only this query's calls are recorded, whatever else
// runs on the engine meanwhile.
func (e *Engine) recordedQuery(query string) (*QueryResult, *viewRecord, error) {
	pq, err := e.prepare(query)
	if err != nil {
		return nil, nil, err
	}
	rec := &viewRecord{}
	res, err := e.run(pq, nil, rec)
	return res, rec, err
}

// viewRecord collects the calls a materialized view's defining query
// completed: their distinct requests become the view's manifest and the
// live ones its live spend. The query's account adds to it under the
// account's mutex; it is read once the query has finished.
type viewRecord struct {
	reqs       []llm.CompletionRequest
	liveCalls  int
	liveTokens int
}

// add records one completed call. A call is live when it reached the
// provider on this engine's behalf: neither a cache hit nor a coalesced
// copy of another caller's call (which keeps that call's provenance).
func (r *viewRecord) add(req llm.CompletionRequest, resp llm.CompletionResponse) {
	r.reqs = append(r.reqs, req)
	if !resp.Cached() && !resp.Coalesced {
		r.liveCalls++
		r.liveTokens += resp.PromptTokens + resp.CompletionTokens
	}
}

// manifest returns the distinct recorded requests ordered by prompt, then
// seed, so the order does not depend on which pool worker finished first.
func (r *viewRecord) manifest() []llm.CompletionRequest {
	out := slices.Clone(r.reqs)
	slices.SortFunc(out, func(a, b llm.CompletionRequest) int {
		return cmp.Or(strings.Compare(a.Prompt, b.Prompt), cmp.Compare(a.Seed, b.Seed))
	})
	return slices.Compact(out)
}

// dropView removes the view and its rows. The generation bump guarantees no
// cached plan keeps serving the dropped view's row store.
func (e *Engine) dropView(name string) error {
	e.viewMu.Lock()
	_, ok := e.views[name]
	if ok {
		delete(e.views, name)
		e.viewTotals.Dropped++
	}
	e.viewMu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown materialized view %q", name)
	}
	e.viewDB.DropTable(name)
	e.invalidatePlans()
	return nil
}

// view returns the named view (nil when there is none) and whether it is
// fresh, that is servable from its rows.
func (e *Engine) view(name string) (*matView, bool) {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	v := e.views[strings.ToLower(name)]
	return v, v != nil && !v.stale
}

// noteViewRead counts one warm read against the view's TTL and returns the
// view's age (reads served before this one). Crossing Config.ViewTTLReads
// marks the view stale and bumps the plan-cache generation, so the next
// statement re-plans onto the live fallback; the in-flight scan still
// serves the materialized rows its plan was routed to.
func (e *Engine) noteViewRead(v *matView) int {
	ttl := e.Config().ViewTTLReads
	e.viewMu.Lock()
	age := v.reads
	v.reads++
	e.viewTotals.WarmReads++
	expired := ttl > 0 && v.reads >= ttl && !v.stale
	if expired {
		v.stale = true
	}
	e.viewMu.Unlock()
	if expired {
		e.invalidatePlans()
	}
	return age
}

// scanView serves one scan from the view's materialized rows. It publishes
// the ScanStats entry that marks the substitution (Label "materialized",
// zero prompts) in the query's account.
func (e *Engine) scanView(v *matView, req exec.ScanRequest, acct *queryAccount) (exec.RowIter, error) {
	age := e.noteViewRead(v)
	it, err := (&exec.StorageSource{DB: e.viewDB}).Scan(req)
	if err != nil {
		return nil, err
	}
	return &viewScan{
		scanTally: scanTally{acct: acct, stats: ScanStats{Table: req.Table, Materialized: v.name, ViewAge: age}},
		rows:      it,
	}, nil
}

// viewScan is a view scan's row stream: the row store's, tallied. The
// row-store iterator holds nothing to close.
type viewScan struct {
	scanTally
	rows exec.RowIter
}

// Next implements exec.RowIter.
func (v *viewScan) Next() (rel.Row, bool, error) {
	if v.flushed {
		return nil, false, nil
	}
	return v.emit(v.rows.Next())
}

// hasViews reports whether any materialized view exists, so the planner's
// view passes can be skipped entirely on the common view-free path.
func (e *Engine) hasViews() bool {
	e.viewMu.Lock()
	n := len(e.views)
	e.viewMu.Unlock()
	return n > 0
}

// expandStaleViews rewrites every reference to a stale materialized view
// into a derived table over its defining query, recursively, so the query
// falls back to live retrieval until the view is refreshed. Fresh views are
// left alone — the catalog and routing source serve them from the row
// store. visited guards against reference cycles built by DROP/CREATE.
func (e *Engine) expandStaleViews(s *sql.SelectStmt, visited map[string]bool) {
	if s == nil {
		return
	}
	if s.From != nil {
		s.From = e.expandTableExpr(s.From, visited)
	}
	expandIn := func(x sql.Expr) {
		sql.WalkExpr(x, func(n sql.Expr) bool {
			if in, ok := n.(*sql.InExpr); ok && in.Subquery != nil {
				e.expandStaleViews(in.Subquery, visited)
			}
			return true
		})
	}
	for _, it := range s.Items {
		expandIn(it.Expr)
	}
	expandIn(s.Where)
	for _, g := range s.GroupBy {
		expandIn(g)
	}
	expandIn(s.Having)
	for _, o := range s.OrderBy {
		expandIn(o.Expr)
	}
}

func (e *Engine) expandTableExpr(t sql.TableExpr, visited map[string]bool) sql.TableExpr {
	switch tt := t.(type) {
	case *sql.TableRef:
		v, fresh := e.view(tt.Name)
		if v == nil || fresh || visited[tt.Name] {
			return tt
		}
		def, err := sql.ParseSelect(v.query)
		if err != nil {
			return tt // defensive: the stored text was deparsed from a valid AST
		}
		visited[tt.Name] = true
		e.expandStaleViews(def, visited)
		delete(visited, tt.Name)
		return &sql.SubqueryRef{Select: def, Alias: tt.Binding()}
	case *sql.JoinExpr:
		tt.Left = e.expandTableExpr(tt.Left, visited)
		tt.Right = e.expandTableExpr(tt.Right, visited)
		return tt
	case *sql.SubqueryRef:
		e.expandStaleViews(tt.Select, visited)
		return tt
	}
	return t
}

// annotateViewScans marks every plan scan that a fresh materialized view
// will serve, so EXPLAIN shows the substitution and its age.
func (e *Engine) annotateViewScans(n plan.Node) {
	if n == nil {
		return
	}
	if sn, ok := n.(*plan.ScanNode); ok {
		if v, fresh := e.view(sn.Table); fresh {
			e.viewMu.Lock()
			sn.Materialized, sn.MaterializedAge = v.name, v.reads
			e.viewMu.Unlock()
		}
		return
	}
	for _, c := range n.Children() {
		e.annotateViewScans(c)
	}
}

// ViewRequests returns a copy of the named view's fingerprint manifest: the
// distinct completion requests its last build or refresh completed, ordered
// by prompt, then seed. Failed calls are absent; speculative prefetches are
// listed (they warmed the cache), so above temperature 0 a build at
// Parallelism > 1 may list enumeration rounds a serial one never asked.
// Tests and staleness drills invalidate subsets of it to force selective
// re-asks.
func (e *Engine) ViewRequests(name string) ([]llm.CompletionRequest, error) {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	v, ok := e.views[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: unknown materialized view %q", name)
	}
	return slices.Clone(v.manifest), nil
}

// InvalidateCachedCompletions drops the requests' entries from the
// persistent prompt cache (durably: tombstones survive reopen), returning
// how many were live. The next query — or REFRESH — must re-ask exactly
// these prompts at the live model. On a session the cache is the group's,
// so the entries are gone for every session, and the same keys leave the
// group's coalescer memo above it. An in-memory completion cache
// (Config.CacheCapacity) may still serve them within the same process.
//
// Known drift, not fixed: memo copies keep the leader's llm.Provenance (the
// contract that keeps session billing solo-identical), so a session's Usage
// bills a REFRESH whose prompts the memo answers with copies of the build's
// live calls as live, though none reached the provider (the view's
// LastLiveCalls does not count them). In the memo case of
// TestGroupSessionSeesSharedDiskCache, an all-warm REFRESH
// right after CREATE bills 5 calls and 585 tokens, and llmsql-serve
// -cache-dir charges the tenant for a refresh that cost nothing. Billing a
// memo copy as free would not fix it alone: a follower that joins the
// leader's call in flight and one that arrives just after it lands in the
// memo differ only in timing, so any rule that bills the two differently
// makes a bill depend on scheduling. The fix is a billing policy for every
// coalesced copy.
func (e *Engine) InvalidateCachedCompletions(reqs ...llm.CompletionRequest) int {
	disk := e.backend.disk
	if disk == nil {
		return 0
	}
	n := 0
	for _, req := range reqs {
		if disk.Invalidate(req) {
			n++
		}
		if e.backend.coal != nil {
			e.backend.coal.Forget(req)
		}
	}
	return n
}
