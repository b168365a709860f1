package core

import (
	"strings"
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/world"
)

func autoTestEngine(t *testing.T, mut func(*Config)) (*Engine, *world.World) {
	t.Helper()
	w := world.Generate(world.Config{Seed: 11, Countries: 40, Movies: 20, Laureates: 10, Companies: 10})
	cfg := DefaultConfig()
	cfg.Strategy = StrategyAuto
	if mut != nil {
		mut(&cfg)
	}
	e := New(llm.NewSynthLM(w, llm.ProfileMedium, 11), cfg)
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}
	return e, w
}

// TestExplainAutoDecision: EXPLAIN of an auto-strategy engine surfaces the
// chosen decomposition and the full per-strategy cost breakdown.
func TestExplainAutoDecision(t *testing.T) {
	e, _ := autoTestEngine(t, nil)
	out, err := e.Explain("SELECT name, capital FROM country WHERE population > 50")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"auto=", "est-rows=40", "full-table:", "paged:", "key-then-attr:", "$"} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
}

// TestExplainForcedStrategyDecision: with a fixed strategy the decision is
// reported as forced, candidates stay advisory.
func TestExplainForcedStrategyDecision(t *testing.T) {
	e, _ := autoTestEngine(t, func(c *Config) { c.Strategy = StrategyKeyThenAttr })
	out, err := e.Explain("SELECT name FROM country")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy=key-then-attr") {
		t.Fatalf("EXPLAIN should report the forced strategy:\n%s", out)
	}
	if strings.Contains(out, "auto=") {
		t.Fatalf("forced strategy must not be labelled auto:\n%s", out)
	}
}

// TestAutoQueryRunsChosenStrategy: executing under auto resolves to a
// concrete strategy, reports it in ScanStats with the Auto flag, and the
// chosen strategy matches the executed plan's annotation.
func TestAutoQueryRunsChosenStrategy(t *testing.T) {
	e, _ := autoTestEngine(t, nil)
	res, err := e.Query("EXPLAIN ANALYZE SELECT name, capital FROM country")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scans) != 1 {
		t.Fatalf("want 1 scan, got %d", len(res.Scans))
	}
	s := res.Scans[0]
	if !s.Auto {
		t.Fatal("ScanStats.Auto not set under StrategyAuto")
	}
	if s.Strategy == StrategyAuto {
		t.Fatal("ScanStats.Strategy must be the resolved strategy, not auto")
	}
	if plan := renderRowsTest(res); !strings.Contains(plan, "auto="+s.Strategy.String()) {
		t.Fatalf("plan annotation (%s) disagrees with executed strategy %s", plan, s.Strategy)
	}
	if s.RowsEmitted == 0 {
		t.Fatal("auto scan returned no rows")
	}
}

// TestAutoCardinalityRefinement: prior-scan statistics replace the
// registration estimate in later decisions.
func TestAutoCardinalityRefinement(t *testing.T) {
	e, _ := autoTestEngine(t, nil)
	d, ok := e.store.ScanDecision("country", nil, nil, 0)
	if !ok {
		t.Fatal("no decision for registered table")
	}
	if d.EstRows != 40 {
		t.Fatalf("initial estimate should come from world metadata (40), got %d", d.EstRows)
	}
	res, err := e.Query("SELECT name FROM country")
	if err != nil {
		t.Fatal(err)
	}
	got := len(res.Result.Rows)
	d, _ = e.store.ScanDecision("country", nil, nil, 0)
	if d.EstRows != got {
		t.Fatalf("estimate after scan should equal observed rows %d, got %d", got, d.EstRows)
	}
}

// TestFilteredScanDoesNotPolluteCardinality: a pushed-down predicate makes
// the emitted row count a selectivity artifact; it must not overwrite the
// table's cardinality estimate.
func TestFilteredScanDoesNotPolluteCardinality(t *testing.T) {
	e, _ := autoTestEngine(t, nil)
	if _, err := e.Query("SELECT name FROM country WHERE population > 5000"); err != nil {
		t.Fatal(err)
	}
	d, _ := e.store.ScanDecision("country", nil, nil, 0)
	if d.EstRows != 40 {
		t.Fatalf("filtered scan changed the cardinality estimate: %d", d.EstRows)
	}
	// An unfiltered scan still refines it.
	res, err := e.Query("SELECT name FROM country")
	if err != nil {
		t.Fatal(err)
	}
	d, _ = e.store.ScanDecision("country", nil, nil, 0)
	if d.EstRows != len(res.Result.Rows) {
		t.Fatalf("unfiltered scan should refine the estimate to %d, got %d", len(res.Result.Rows), d.EstRows)
	}
}

// TestAutoDeterministic: two identical engines make identical decisions and
// return byte-identical rows under auto.
func TestAutoDeterministic(t *testing.T) {
	run := func() (string, string) {
		e, _ := autoTestEngine(t, nil)
		out, err := e.Explain("SELECT name, capital FROM country")
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("SELECT name, capital FROM country")
		if err != nil {
			t.Fatal(err)
		}
		return out, renderRowsTest(res)
	}
	p1, r1 := run()
	p2, r2 := run()
	if p1 != p2 {
		t.Fatalf("plans differ:\n%s\nvs\n%s", p1, p2)
	}
	if r1 != r2 {
		t.Fatal("rows differ between identical auto engines")
	}
}

// TestCachedPlanRunsItsDecision: a cached plan runs the strategy its EXPLAIN
// shows on every execution, and returns the same rows each time — although
// its first run teaches the store a cardinality under which a fresh plan
// prices a different strategy. The scan runs the plan's decision; it never
// re-prices it.
func TestCachedPlanRunsItsDecision(t *testing.T) {
	e, w := autoTestEngine(t, func(c *Config) { c.Temperature = 0 })
	d := w.Domain("country")
	e.RegisterTable(VirtualTable{Name: d.Name, Description: d.Description, Schema: d.Schema, EstRows: 1000})
	const query = "SELECT name FROM country"
	explain, err := e.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	var rows [2]string
	for run := range rows {
		res, err := e.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Scans[0]
		if !strings.Contains(explain, "auto="+s.Strategy.String()+" ") {
			t.Fatalf("run %d ran %s, the cached plan says:\n%s", run+1, s.Strategy, explain)
		}
		rows[run] = renderRowsTest(res)
	}
	if rows[0] != rows[1] {
		t.Fatalf("the same cached plan returned different rows:\n%s\nvs\n%s", rows[0], rows[1])
	}
	if e.PlanCacheStats().Hits < 2 {
		t.Fatalf("the runs did not reuse the cached plan: %+v", e.PlanCacheStats())
	}
	// The case is only worth pinning while re-planning would decide otherwise.
	e.invalidatePlans()
	replanned, err := e.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if strategyOf(replanned) == strategyOf(explain) {
		t.Fatalf("re-planning kept %s; the learned cardinality no longer moves the decision", strategyOf(explain))
	}
}

// TestWarmCacheKeepsColdStrategy: a warm persistent cache discounts every
// candidate's $ and wall to zero, and auto still chooses on cold cost, so a
// second engine over the warm directory runs the strategy the cold engine
// ran and makes no live model call.
func TestWarmCacheKeepsColdStrategy(t *testing.T) {
	for _, tc := range []struct {
		temp  float64
		query string
	}{
		{0, "SELECT name FROM country"},
		{0.7, "SELECT name, capital FROM country"},
	} {
		dir := t.TempDir()
		run := func() *QueryResult {
			e, _ := autoTestEngine(t, func(c *Config) { c.Temperature = tc.temp; c.CacheDir = dir })
			defer e.Close()
			res, err := e.Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		cold, warm := run(), run()
		if got, want := warm.Scans[0].Strategy, cold.Scans[0].Strategy; got != want {
			t.Fatalf("temp %v %q: warm run chose %s, cold run %s", tc.temp, tc.query, got, want)
		}
		if live := warm.Usage.Calls - warm.Usage.CachedCalls; live != 0 {
			t.Fatalf("temp %v %q: warm run made %d live calls", tc.temp, tc.query, live)
		}
	}
}

// strategyOf extracts the auto= strategy of a single-scan EXPLAIN.
func strategyOf(explain string) string {
	_, after, _ := strings.Cut(explain, "auto=")
	name, _, _ := strings.Cut(after, " ")
	return name
}

func renderRowsTest(res *QueryResult) string {
	var b strings.Builder
	for _, row := range res.Result.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestScanDecisionAllocs guards pricing an unfiltered scan: the prompt
// boilerplate was counted at Register, so deciding renders no prompt (56
// allocations per call when it did) — what is left is the scan's column
// lists and the decision's candidates.
func TestScanDecisionAllocs(t *testing.T) {
	const maxAllocs = 7
	e, _ := autoTestEngine(t, nil)
	n := testing.AllocsPerRun(100, func() {
		if _, ok := e.store.ScanDecision("country", nil, nil, 0); !ok {
			t.Fatal("country is not registered")
		}
	})
	if n > maxAllocs {
		t.Fatalf("ScanDecision: %v allocs per call, want at most %d", n, maxAllocs)
	}
}
