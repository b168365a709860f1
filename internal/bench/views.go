package bench

import (
	"fmt"
	"os"
	"strings"

	"llmsql/internal/llm"
)

// Table16MaterializedViews measures the materialized-view lifecycle on the
// key-then-attr hot path: a cold CREATE MATERIALIZED VIEW pays the full
// defining scan once, warm reads then serve from the row store at zero
// model calls and zero simulated wall, and REFRESH after a partial prompt-
// cache invalidation re-asks live exactly the fingerprints that went cold
// (an all-warm refresh re-asks none). The identity row checks that the warm
// view read is byte-identical to a live run of the defining query.
func Table16MaterializedViews(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()

	dir, err := os.MkdirTemp("", "llmsql-views-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)

	// Deterministic single-round enumeration, no voting, unbatched ATTRs.
	// The manifest is the requests the build completed, so "live calls ==
	// invalidated fingerprints" is exact.
	cfg := keyThenAttrConfig()
	cfg.Votes = 1
	cfg.Temperature = 0
	cfg.MaxRounds = 1
	cfg.Parallelism = 4
	cfg.CacheDir = dir
	e := o.newEngine(w, llm.ProfileMedium, cfg, o.Seed+21)
	defer e.Close()

	// Live reference for the identity check: the defining query on a
	// second engine over the same model seed but its own empty prompt
	// cache, so nothing is shared with the view engine.
	refDir, err := os.MkdirTemp("", "llmsql-views-ref-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(refDir)
	refCfg := cfg
	refCfg.CacheDir = refDir
	ref := o.newEngine(w, llm.ProfileMedium, refCfg, o.Seed+21)
	defer ref.Close()
	liveRes, err := ref.Query(concurrencyQuery)
	if err != nil {
		return Report{}, err
	}
	liveRows := renderRows(liveRes.Result.Rows)

	t := NewTable("run", "calls", "live calls", "tokens", "rows", "wall", "$", "cold-only refresh")
	record := func(name string, u llm.Usage, rows int, coldOnly string) {
		t.AddRow(name, d(u.Calls), d(u.Calls-u.CachedCalls), d(u.TotalTokens()),
			d(rows), u.SimWall.Round(1e6).String(), fmt.Sprintf("%.4f", u.SimDollars), coldOnly)
	}
	usageAround := func(f func() error) (llm.Usage, error) {
		before := e.TotalUsage()
		if err := f(); err != nil {
			return llm.Usage{}, err
		}
		return e.TotalUsage().Sub(before), nil
	}

	// Cold build: the defining query runs live once and its rows are bulk-
	// loaded into the view's row store.
	buildUsage, err := usageAround(func() error {
		return e.Exec("CREATE MATERIALIZED VIEW country_summary AS " + concurrencyQuery)
	})
	if err != nil {
		return Report{}, err
	}
	info, _ := e.View("country_summary")
	record("cold build", buildUsage, info.Rows, "-")
	coldWall := buildUsage.SimWall

	// Warm read: served from the materialized rows, zero model traffic.
	readQuery := "SELECT name, capital, population FROM country_summary"
	warm, err := e.Query(readQuery)
	if err != nil {
		return Report{}, err
	}
	record("warm read", warm.Usage, len(warm.Result.Rows), "-")
	identical := renderRows(warm.Result.Rows) == liveRows
	explain, err := e.Explain(readQuery)
	if err != nil {
		return Report{}, err
	}

	// Partial refresh: invalidate ~a quarter of the view's fingerprint
	// manifest, then REFRESH — live calls must equal the invalidated count
	// (every other prompt answers warm from the persistent cache).
	reqs, err := e.ViewRequests("country_summary")
	if err != nil {
		return Report{}, err
	}
	target := len(reqs) / 4
	if target < 1 {
		target = 1
	}
	invalidated := 0
	for _, req := range reqs {
		if invalidated == target {
			break
		}
		invalidated += e.InvalidateCachedCompletions(req)
	}
	refreshUsage, err := usageAround(func() error {
		return e.Exec("REFRESH MATERIALIZED VIEW country_summary")
	})
	if err != nil {
		return Report{}, err
	}
	info, _ = e.View("country_summary")
	coldOnly := fmt.Sprintf("%v (%d cold)", refreshUsage.Calls-refreshUsage.CachedCalls == invalidated, invalidated)
	record("partial refresh", refreshUsage, info.Rows, coldOnly)

	// All-warm refresh: nothing was invalidated, nothing goes live.
	warmRefresh, err := usageAround(func() error {
		return e.Exec("REFRESH MATERIALIZED VIEW country_summary")
	})
	if err != nil {
		return Report{}, err
	}
	info, _ = e.View("country_summary")
	record("all-warm refresh", warmRefresh,
		info.Rows, fmt.Sprintf("%v (0 cold)", warmRefresh.Calls-warmRefresh.CachedCalls == 0))

	speedup := "inf"
	if warm.Usage.SimWall > 0 {
		speedup = fmt.Sprintf("%.0fx", float64(coldWall)/float64(warm.Usage.SimWall))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nwarm read byte-identical to live defining scan: %v\n", identical)
	fmt.Fprintf(&b, "warm-read wall speedup vs cold build: %s\n", speedup)
	fmt.Fprintf(&b, "fingerprint manifest: %d requests, %d invalidated before refresh\n", len(reqs), invalidated)
	b.WriteString("EXPLAIN of the warm read:\n")
	b.WriteString(explain)
	return Report{
		ID: "Table 16",
		Title: "Materialized views: cold build, warm reads, fingerprint-keyed refresh " +
			"(key-then-attr, medium model; live calls = calls minus cache hits)",
		Body: b.String(),
		CSV:  t.CSV(),
	}, nil
}
