package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/world"
)

// viewTestConfig is the key-then-attr configuration the view tests stress:
// voting and batching on, so the defining scan exercises the interesting
// prompt paths.
func viewTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0.7
	cfg.MaxRounds = 3
	cfg.Votes = 3
	return cfg
}

// TestViewReadsByteIdenticalToLiveScan checks the determinism contract at
// every Parallelism x BatchSize corner: the rows a warm materialized view
// serves are byte-identical to the live defining scan that built it, and
// the warm read costs zero model calls.
func TestViewReadsByteIdenticalToLiveScan(t *testing.T) {
	w := testWorld()
	const defQ = "SELECT name, capital, population FROM country"
	for _, par := range []int{1, 4} {
		for _, batch := range []int{1, 3} {
			t.Run(fmt.Sprintf("par=%d batch=%d", par, batch), func(t *testing.T) {
				cfg := viewTestConfig()
				cfg.Parallelism = par
				cfg.BatchSize = batch
				e := newTestEngine(t, w, llm.ProfileMedium, cfg)
				live, err := e.Query(defQ)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Exec("CREATE MATERIALIZED VIEW v AS " + defQ); err != nil {
					t.Fatal(err)
				}
				warm, err := e.Query("SELECT name, capital, population FROM v")
				if err != nil {
					t.Fatal(err)
				}
				if got, want := FormatResult(warm.Result), FormatResult(live.Result); got != want {
					t.Fatalf("view rows differ from live scan:\nlive:\n%s\nview:\n%s", want, got)
				}
				if warm.Usage.Calls != 0 {
					t.Fatalf("warm view read cost %d model calls, want 0", warm.Usage.Calls)
				}
				if len(warm.Scans) != 1 || warm.Scans[0].Materialized != "v" {
					t.Fatalf("scan stats not marked materialized: %+v", warm.Scans)
				}
				if warm.Scans[0].Label() != "materialized" {
					t.Fatalf("label = %q, want materialized", warm.Scans[0].Label())
				}
				if warm.Scans[0].RowsEmitted != len(warm.Result.Rows) {
					t.Fatalf("emitted %d != rows %d", warm.Scans[0].RowsEmitted, len(warm.Result.Rows))
				}
			})
		}
	}
}

// TestViewRefreshReasksOnlyColdFingerprints is the incremental-maintenance
// property: REFRESH issues live calls for exactly the fingerprints that
// were invalidated, and a fully-warm refresh issues none.
func TestViewRefreshReasksOnlyColdFingerprints(t *testing.T) {
	w := testWorld()
	cfg := viewTestConfig()
	cfg.Temperature = 0 // single deterministic enumeration round
	cfg.Votes = 1
	cfg.CacheDir = t.TempDir()
	e := newTestEngine(t, w, llm.ProfileMedium, cfg)
	defer e.Close()

	if err := e.Exec("CREATE MATERIALIZED VIEW v AS SELECT name, capital FROM country"); err != nil {
		t.Fatal(err)
	}
	info, ok := e.View("v")
	if !ok || info.Rows == 0 || info.LastLiveCalls == 0 {
		t.Fatalf("build info: %+v", info)
	}

	// Fully warm refresh: every fingerprint of the defining query is still
	// in the prompt cache, so nothing reaches the live model.
	before := e.TotalUsage()
	if err := e.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	diff := e.TotalUsage().Sub(before)
	if live := diff.Calls - diff.CachedCalls; live != 0 {
		t.Fatalf("all-warm refresh made %d live calls, want 0", live)
	}
	info, _ = e.View("v")
	if info.Refreshes != 1 || info.LastLiveCalls != 0 {
		t.Fatalf("refresh info: %+v", info)
	}
	if info.LastWarmFingerprints == 0 {
		t.Fatalf("refresh probe found no warm fingerprints: %+v", info)
	}

	// Invalidate a handful of cached completions; the next refresh must
	// re-ask exactly those prompts live.
	reqs, err := e.ViewRequests("v")
	if err != nil {
		t.Fatal(err)
	}
	invalidated := 0
	for _, req := range reqs {
		if invalidated == 5 {
			break
		}
		invalidated += e.InvalidateCachedCompletions(req)
	}
	if invalidated != 5 {
		t.Fatalf("invalidated %d cached completions, want 5 (manifest %d)", invalidated, len(reqs))
	}
	before = e.TotalUsage()
	if err := e.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	diff = e.TotalUsage().Sub(before)
	if live := diff.Calls - diff.CachedCalls; live != invalidated {
		t.Fatalf("partial refresh made %d live calls, want %d", live, invalidated)
	}
	info, _ = e.View("v")
	if info.Refreshes != 2 || info.LastLiveCalls != invalidated {
		t.Fatalf("partial refresh info: %+v", info)
	}
	if info.LastColdFingerprints != invalidated {
		t.Fatalf("probe reported %d cold, want %d", info.LastColdFingerprints, invalidated)
	}
}

// TestViewManifestIsWhatTheBuildAsked: a view's manifest is the set of
// requests its last build or refresh completed, so it lists exactly what a
// REFRESH consumes, an all-warm refresh probes nothing cold, and the manifest
// does not depend on Parallelism. The defining query's filter drops keys the
// scan attributed, which a manifest rebuilt from the materialized rows would
// miss.
func TestViewManifestIsWhatTheBuildAsked(t *testing.T) {
	w := testWorld()
	const defQ = "SELECT name, capital FROM country WHERE population > 50"
	for _, tc := range []struct {
		batch, calls int
	}{
		{batch: 1, calls: 21},
		{batch: 2, calls: 11},
	} {
		t.Run(fmt.Sprintf("batch=%d", tc.batch), func(t *testing.T) {
			var manifests [][]llm.CompletionRequest
			for _, par := range []int{1, 4} {
				cfg := DefaultConfig()
				cfg.Strategy = StrategyKeyThenAttr
				cfg.Temperature = 0
				cfg.Votes = 1
				cfg.BatchSize = tc.batch
				cfg.Parallelism = par
				cfg.CacheDir = t.TempDir()
				e := newTestEngine(t, w, llm.ProfileMedium, cfg)
				defer e.Close()
				if err := e.Exec("CREATE MATERIALIZED VIEW v AS " + defQ); err != nil {
					t.Fatal(err)
				}
				reqs, err := e.ViewRequests("v")
				if err != nil {
					t.Fatal(err)
				}
				if len(reqs) != tc.calls {
					t.Fatalf("par=%d: manifest lists %d requests, want %d", par, len(reqs), tc.calls)
				}
				before := e.TotalUsage()
				if err := e.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
					t.Fatal(err)
				}
				diff := e.TotalUsage().Sub(before)
				info, _ := e.View("v")
				if diff.Calls != len(reqs) || diff.CachedCalls != diff.Calls {
					t.Fatalf("par=%d: all-warm refresh consumed %+v, want %d cached calls", par, diff, len(reqs))
				}
				if info.LastWarmFingerprints != len(reqs) || info.LastColdFingerprints != 0 ||
					info.LastLiveCalls != 0 || info.LastLiveTokens != 0 {
					t.Fatalf("par=%d: all-warm refresh info: %+v", par, info)
				}
				manifests = append(manifests, reqs)
			}
			if !reflect.DeepEqual(manifests[0], manifests[1]) {
				t.Fatalf("manifest differs between Parallelism 1 and 4:\n%v\n%v", manifests[0], manifests[1])
			}
		})
	}
}

// TestViewDropAndRefreshEvictCachedPlans checks the generation contract:
// cached plans (including prepared statements) never serve a dropped view,
// and a REFRESH that changes nothing a plan read keeps them.
func TestViewDropAndRefreshEvictCachedPlans(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileMedium, viewTestConfig())
	if err := e.Exec("CREATE MATERIALIZED VIEW v AS SELECT name, capital FROM country"); err != nil {
		t.Fatal(err)
	}
	stmt, err := e.Prepare("SELECT name FROM v")
	if err != nil {
		t.Fatal(err)
	}
	first, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Scans) != 1 || first.Scans[0].Materialized != "v" {
		t.Fatalf("prepared read not served by view: %+v", first.Scans)
	}

	// A REFRESH of a fresh view over an unchanged world leaves its row
	// count alone and bumps nothing: the handle keeps its plan and serves
	// the rebuilt rows.
	gen := e.generation()
	if err := e.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	if e.generation() != gen {
		t.Fatal("a REFRESH that changed no row count invalidated the plans")
	}
	again, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if FormatResult(again.Result) != FormatResult(first.Result) {
		t.Fatalf("rows changed across refresh of an unchanged world")
	}

	// DROP bumps it again: the cached plan must not survive.
	if err := e.Exec("DROP MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); err == nil {
		t.Fatalf("prepared statement still served a dropped view")
	}
	if _, err := e.Query("SELECT name FROM v"); err == nil {
		t.Fatalf("ad-hoc query still served a dropped view")
	}
}

// TestConcurrentViewCreates: two materialized views built at once on a
// fresh engine, beside a CREATE TABLE, both land in the view store; run
// under -race, none of the three statements may race another.
func TestConcurrentViewCreates(t *testing.T) {
	w := testWorld()
	stmts := []string{
		"CREATE MATERIALIZED VIEW a AS SELECT name, capital FROM country",
		"CREATE MATERIALIZED VIEW b AS SELECT title FROM movie",
		"CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)",
	}
	for trial := 0; trial < 30; trial++ {
		e := newTestEngine(t, w, llm.ProfileMedium, DefaultConfig())
		errs := make([]error, len(stmts))
		concurrently(len(stmts), func(i int) { errs[i] = e.Exec(stmts[i]) })
		for i, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, stmts[i], err)
			}
		}
		views := e.Views()
		if len(views) != 2 || views[0].Rows == 0 || views[1].Rows == 0 {
			t.Fatalf("trial %d: views %+v", trial, views)
		}
	}
}

// TestConcurrentRefreshesPublishOneBuild: two REFRESHes of one view run
// beside a reader, trial after trial. A build publishes its rows in one
// step, so every read sees exactly one build's rows — never an empty view,
// never two builds' rows — and the view ends each trial with one build's
// rows. Emptying the table and refilling it in two steps failed both ways.
func TestConcurrentRefreshesPublishOneBuild(t *testing.T) {
	const trials = 100
	e := newTestEngine(t, testWorld(), llm.ProfileMedium, DefaultConfig())
	if err := e.Exec("CREATE MATERIALIZED VIEW v AS SELECT name, capital FROM country"); err != nil {
		t.Fatal(err)
	}
	info, _ := e.View("v")
	want := info.Rows
	if want == 0 {
		t.Fatal("the build stored no rows")
	}
	for trial := 0; trial < trials; trial++ {
		var refreshed atomic.Int32
		errs := make([]error, 3)
		concurrently(3, func(i int) {
			if i < 2 {
				errs[i] = e.Exec("REFRESH MATERIALIZED VIEW v")
				refreshed.Add(1)
				return
			}
			for errs[i] == nil && refreshed.Load() < 2 {
				res, err := e.Query("SELECT name FROM v")
				if err == nil && len(res.Result.Rows) != want {
					err = fmt.Errorf("a read returned %d rows, want %d", len(res.Result.Rows), want)
				}
				errs[i] = err
			}
		})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if info, _ := e.View("v"); info.Rows != want {
			t.Fatalf("trial %d: the view holds %d rows after two refreshes, want %d", trial, info.Rows, want)
		}
	}
}

// TestViewMixedReusesPlansAcrossRefreshes runs the view_mixed benchmark
// workload's cycle (benchmark/workloads.go) on a solo engine: its two
// views, its four read shapes 95 times each and 20 REFRESHes of
// v_laureate, shuffled. Over an unchanged world a REFRESH changes no view's
// row count, so it invalidates no plan, and after a warm-up cycle nearly
// every statement is a plan-cache hit. Invalidating every plan on each
// REFRESH read 0.782.
func TestViewMixedReusesPlansAcrossRefreshes(t *testing.T) {
	w := world.Generate(world.Config{Seed: 2024, Countries: 40, Movies: 30, Laureates: 20, Companies: 20})
	cfg := DefaultConfig()
	cfg.CacheCapacity = -1
	e := newTestEngine(t, w, llm.ProfileMedium, cfg)
	for _, def := range []string{
		"CREATE MATERIALIZED VIEW v_country AS SELECT name, capital, continent, population, gdp FROM country",
		"CREATE MATERIALIZED VIEW v_laureate AS SELECT name, field, year, country FROM laureate",
	} {
		if err := e.Exec(def); err != nil {
			t.Fatal(err)
		}
	}
	type op struct {
		sql string
		arg int
	}
	var cycle []op
	for i := 0; i < 95; i++ {
		cycle = append(cycle,
			op{"SELECT continent, COUNT(*) AS n, SUM(population) AS pop FROM v_country GROUP BY continent ORDER BY continent", -1},
			op{"SELECT name, population FROM v_country WHERE population > $1 ORDER BY population DESC, name LIMIT 10", 2 + i%16*3},
			op{"SELECT l.name, l.field, c.capital FROM v_laureate AS l JOIN v_country AS c ON l.country = c.name WHERE l.year > $1 ORDER BY l.name LIMIT 20", 1905 + i%16*7},
			op{"SELECT name, field, year, country FROM v_laureate", -1},
		)
	}
	for i := 0; i < 20; i++ {
		cycle = append(cycle, op{"REFRESH MATERIALIZED VIEW v_laureate", -1})
	}
	rand.New(rand.NewSource(1)).Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	run := func() {
		for _, o := range cycle {
			var err error
			switch {
			case strings.HasPrefix(o.sql, "REFRESH"):
				err = e.Exec(o.sql)
			case o.arg >= 0:
				_, err = e.Query(o.sql, o.arg)
			default:
				_, err = e.Query(o.sql)
			}
			if err != nil {
				t.Fatalf("%s: %v", o.sql, err)
			}
		}
	}
	run() // warm-up
	before := e.PlanCacheStats()
	run()
	after := e.PlanCacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if ratio := float64(hits) / float64(hits+misses); ratio < 0.95 {
		t.Fatalf("plan-cache hit ratio %.3f (%d hits, %d misses) over a cycle, want at least 0.95", ratio, hits, misses)
	}
}

// TestViewTTLExpiryFallsBackToLiveScans checks the freshness policy: after
// Config.ViewTTLReads warm reads the view goes stale, later statements plan
// live retrieval again, and REFRESH re-arms the view.
func TestViewTTLExpiryFallsBackToLiveScans(t *testing.T) {
	w := testWorld()
	cfg := viewTestConfig()
	cfg.ViewTTLReads = 2
	e := newTestEngine(t, w, llm.ProfileMedium, cfg)
	if err := e.Exec("CREATE MATERIALIZED VIEW v AS SELECT name, capital FROM country"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT name, capital FROM v"
	var rendered []string
	for i := 0; i < 2; i++ {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Usage.Calls != 0 {
			t.Fatalf("read %d: %d model calls on a fresh view", i, res.Usage.Calls)
		}
		rendered = append(rendered, FormatResult(res.Result))
	}
	info, _ := e.View("v")
	if !info.Stale || info.Reads != 2 {
		t.Fatalf("after TTL reads: %+v", info)
	}
	// The third read plans against the live fallback.
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Usage.Calls == 0 {
		t.Fatalf("stale view served without live calls")
	}
	if len(res.Scans) != 1 || res.Scans[0].Materialized != "" {
		t.Fatalf("stale read still marked materialized: %+v", res.Scans)
	}
	// Fallback rows equal the view rows (unchanged world, deterministic
	// model): the freshness transition is invisible in the data.
	if FormatResult(res.Result) != rendered[0] {
		t.Fatalf("live fallback rows differ from view rows")
	}
	// REFRESH re-arms freshness.
	if err := e.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Usage.Calls != 0 || len(res.Scans) != 1 || res.Scans[0].Materialized != "v" {
		t.Fatalf("refresh did not re-arm the view: calls=%d scans=%+v", res.Usage.Calls, res.Scans)
	}
	info, _ = e.View("v")
	if info.Stale || info.Reads != 1 {
		t.Fatalf("after refresh: %+v", info)
	}
}

// TestViewExplainShowsSubstitution checks the EXPLAIN surface.
func TestViewExplainShowsSubstitution(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileMedium, viewTestConfig())
	if err := e.Exec("CREATE MATERIALIZED VIEW v AS SELECT name, capital FROM country"); err != nil {
		t.Fatal(err)
	}
	text, err := e.Explain("SELECT name FROM v")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "materialized=v age=0") {
		t.Fatalf("EXPLAIN missing view annotation:\n%s", text)
	}
	if _, err := e.Query("SELECT name FROM v"); err != nil {
		t.Fatal(err)
	}
	text, err = e.Explain("SELECT capital FROM v")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "materialized=v age=1") {
		t.Fatalf("EXPLAIN age not counting warm reads:\n%s", text)
	}
}

// TestViewStatementRoutingAndErrors checks the statement surface: DDL is
// Exec-only, Query rejects it, and lifecycle errors are reported.
func TestViewStatementRoutingAndErrors(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileMedium, viewTestConfig())
	if _, err := e.Query("CREATE MATERIALIZED VIEW v AS SELECT name FROM country"); err == nil {
		t.Fatalf("Query accepted view DDL")
	}
	if err := e.Exec("REFRESH MATERIALIZED VIEW nope"); err == nil {
		t.Fatalf("refresh of unknown view succeeded")
	}
	if err := e.Exec("DROP MATERIALIZED VIEW nope"); err == nil {
		t.Fatalf("drop of unknown view succeeded")
	}
	if err := e.Exec("CREATE MATERIALIZED VIEW country AS SELECT name FROM country"); err == nil {
		t.Fatalf("view shadowing a virtual table succeeded")
	}
	if err := e.Exec("CREATE MATERIALIZED VIEW v AS SELECT name FROM country WHERE name = $1"); err == nil {
		t.Fatalf("parameterized defining query succeeded")
	}
	if err := e.Exec("CREATE MATERIALIZED VIEW v AS SELECT name FROM country"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("CREATE MATERIALIZED VIEW v AS SELECT name FROM country"); err == nil {
		t.Fatalf("duplicate view succeeded")
	}
	views := e.Views()
	if len(views) != 1 || views[0].Name != "v" {
		t.Fatalf("views: %+v", views)
	}
	st := e.ViewStats()
	if st.Created != 1 {
		t.Fatalf("view stats: %+v", st)
	}
}

// TestGroupViewStatsAggregation checks that session-local view activity is
// folded into the group's operator stats, across live and closed sessions.
func TestGroupViewStatsAggregation(t *testing.T) {
	w := testWorld()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), viewTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range w.DomainNames() {
		g.RegisterWorldDomain(w.Domain(name))
	}
	s1 := g.Session()
	if err := s1.Exec("CREATE MATERIALIZED VIEW v AS SELECT name FROM country"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Query("SELECT name FROM v"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	st := g.Stats().Views
	if st.Created != 1 || st.WarmReads != 1 || st.Refreshes != 1 {
		t.Fatalf("live session stats: %+v", st)
	}
	g.CloseSession(s1)
	st = g.Stats().Views
	if st.Created != 1 || st.WarmReads != 1 || st.Refreshes != 1 {
		t.Fatalf("closed session stats lost: %+v", st)
	}
}
