package core

import (
	"strings"
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

// testWorld is shared by engine tests: small enough to be fast, large
// enough for meaningful retrieval statistics.
func testWorld() *world.World {
	return world.Generate(world.Config{Seed: 101, Countries: 50, Movies: 60, Laureates: 30, Companies: 30})
}

func newTestEngine(t *testing.T, w *world.World, profile llm.NoiseProfile, cfg Config) *Engine {
	t.Helper()
	model := llm.NewSynthLM(w, profile, 500)
	e := New(model, cfg)
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}
	return e
}

func TestEngineSelectStar(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	res, err := e.Query("SELECT * FROM country")
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Result.Rows)
	total := len(w.Domain("country").Entities)
	if n < total/2 {
		t.Fatalf("retrieved only %d of %d countries", n, total)
	}
	if res.Usage.Calls == 0 || res.Usage.TotalTokens() == 0 {
		t.Fatalf("usage not accounted: %+v", res.Usage)
	}
	if len(res.Scans) != 1 || res.Scans[0].Table != "country" {
		t.Fatalf("scan stats: %+v", res.Scans)
	}
	if res.Scans[0].RowsEmitted != n {
		t.Fatalf("emitted %d != result %d", res.Scans[0].RowsEmitted, n)
	}
}

func TestEngineRetrievalMostlyCorrect(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	res, err := e.Query("SELECT name, capital FROM country")
	if err != nil {
		t.Fatal(err)
	}
	d := w.Domain("country")
	correct, wrong, fake := 0, 0, 0
	for _, row := range res.Result.Rows {
		ent := d.Entity(row[0].AsText())
		if ent == nil {
			fake++
			continue
		}
		if !row[1].IsNull() && row[1].AsText() == ent.Row[1].AsText() {
			correct++
		} else {
			wrong++
		}
	}
	if correct <= wrong+fake {
		t.Fatalf("retrieval quality too low: correct=%d wrong=%d fake=%d", correct, wrong, fake)
	}
}

func TestEngineFilterPushdownReducesRows(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	res, err := e.Query("SELECT name, population FROM country WHERE population > 100")
	if err != nil {
		t.Fatal(err)
	}
	// The executor re-checks the predicate: every returned row satisfies it
	// regardless of model behaviour.
	for _, row := range res.Result.Rows {
		if row[1].IsNull() || row[1].AsInt() <= 100 {
			t.Fatalf("filter violated: %v", row)
		}
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	w := testWorld()
	q := "SELECT name FROM country ORDER BY name LIMIT 10"
	e1 := newTestEngine(t, w, llm.ProfileMedium, DefaultConfig())
	e2 := newTestEngine(t, w, llm.ProfileMedium, DefaultConfig())
	r1, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Result.Rows) != len(r2.Result.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Result.Rows), len(r2.Result.Rows))
	}
	for i := range r1.Result.Rows {
		if r1.Result.Rows[i].AllKey() != r2.Result.Rows[i].AllKey() {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestEngineAggregate(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	res, err := e.Query("SELECT continent, COUNT(*) AS n FROM country GROUP BY continent ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) == 0 {
		t.Fatal("no groups")
	}
	for _, row := range res.Result.Rows {
		if row[1].AsInt() < 1 {
			t.Fatalf("empty group: %v", row)
		}
	}
}

func TestEngineJoinVirtualTables(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	res, err := e.Query(`
		SELECT m.title, c.continent
		FROM movie m JOIN country c ON m.country = c.name
		LIMIT 500`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) == 0 {
		t.Fatal("join produced nothing")
	}
	if len(res.Scans) != 2 {
		t.Fatalf("expected two scans: %+v", res.Scans)
	}
}

func TestEngineHybridJoin(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	// Local table joined against the virtual country table.
	local := storage.NewDB()
	tbl, err := local.CreateTable("watchlist", rel.NewSchema(
		rel.Column{Name: "country_name", Type: rel.TypeText, Key: true},
		rel.Column{Name: "priority", Type: rel.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	top := w.Domain("country").TopKeys(3)
	for i, k := range top {
		if err := tbl.Insert(rel.Row{rel.Text(k), rel.Int(int64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	e.AttachLocal(local)
	res, err := e.Query(`
		SELECT wl.country_name, wl.priority, c.capital
		FROM watchlist wl JOIN country c ON c.name = wl.country_name
		ORDER BY wl.priority`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) == 0 {
		t.Fatal("hybrid join empty")
	}
	if len(res.Result.Rows) > 3 {
		t.Fatalf("too many rows: %d", len(res.Result.Rows))
	}
	// Only the country scan consumed tokens.
	if len(res.Scans) != 1 {
		t.Fatalf("scan stats: %+v", res.Scans)
	}
}

func TestEngineStrategies(t *testing.T) {
	w := testWorld()
	for _, strat := range []Strategy{StrategyFullTable, StrategyKeyThenAttr, StrategyPaged} {
		cfg := DefaultConfig()
		cfg.Strategy = strat
		cfg.MaxRounds = 4
		e := newTestEngine(t, w, llm.ProfileLarge, cfg)
		res, err := e.Query("SELECT name, capital FROM country LIMIT 500")
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(res.Result.Rows) < 10 {
			t.Fatalf("%v: only %d rows", strat, len(res.Result.Rows))
		}
		if res.Scans[0].Strategy != strat {
			t.Fatalf("strategy not recorded: %+v", res.Scans[0])
		}
	}
}

func TestEngineKeyThenAttrUsesMorePrompts(t *testing.T) {
	w := testWorld()
	cfgFull := DefaultConfig()
	cfgFull.Temperature = 0
	eFull := newTestEngine(t, w, llm.ProfileLarge, cfgFull)
	cfgKTA := cfgFull
	cfgKTA.Strategy = StrategyKeyThenAttr
	eKTA := newTestEngine(t, w, llm.ProfileLarge, cfgKTA)

	rFull, err := eFull.Query("SELECT name, capital, population FROM country")
	if err != nil {
		t.Fatal(err)
	}
	rKTA, err := eKTA.Query("SELECT name, capital, population FROM country")
	if err != nil {
		t.Fatal(err)
	}
	if rKTA.Usage.Calls <= rFull.Usage.Calls {
		t.Fatalf("key-then-attr must use more calls: %d vs %d", rKTA.Usage.Calls, rFull.Usage.Calls)
	}
}

func TestEngineVotingImprovesAttributeAccuracy(t *testing.T) {
	w := testWorld()
	d := w.Domain("country")
	accuracy := func(votes int) float64 {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = votes
		cfg.Temperature = 0.8
		cfg.MaxRounds = 3
		e := newTestEngine(t, w, llm.ProfileSmall, cfg)
		res, err := e.Query("SELECT name, capital FROM country")
		if err != nil {
			t.Fatal(err)
		}
		correct, total := 0, 0
		for _, row := range res.Result.Rows {
			ent := d.Entity(row[0].AsText())
			if ent == nil {
				continue
			}
			total++
			if !row[1].IsNull() && row[1].AsText() == ent.Row[1].AsText() {
				correct++
			}
		}
		if total == 0 {
			t.Fatal("no real entities retrieved")
		}
		return float64(correct) / float64(total)
	}
	a1 := accuracy(1)
	a5 := accuracy(5)
	if a5 < a1 {
		t.Fatalf("voting reduced accuracy: k=1 %.3f vs k=5 %.3f", a1, a5)
	}
}

func TestEngineSamplingRecallGrowsWithRounds(t *testing.T) {
	w := testWorld()
	recallWithRounds := func(rounds int) int {
		cfg := DefaultConfig()
		cfg.MaxRounds = rounds
		cfg.StableRounds = rounds // disable early stop
		cfg.Temperature = 0.8
		e := newTestEngine(t, w, llm.ProfileMedium, cfg)
		res, err := e.Query("SELECT name FROM country")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Result.Rows)
	}
	r1 := recallWithRounds(1)
	r8 := recallWithRounds(8)
	if r8 <= r1 {
		t.Fatalf("recall must grow with rounds: %d -> %d", r1, r8)
	}
}

func TestEngineConvergenceStopsEarly(t *testing.T) {
	w := testWorld()
	cfg := DefaultConfig()
	cfg.Temperature = 0.8
	cfg.MaxRounds = 50
	cfg.StableRounds = 2
	e := newTestEngine(t, w, llm.ProfileLarge, cfg)
	res, err := e.Query("SELECT name FROM country")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scans[0].Rounds >= 50 {
		t.Fatalf("convergence rule did not stop sampling: %d rounds", res.Scans[0].Rounds)
	}
}

func TestEngineExplain(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	out, err := e.Explain("SELECT name FROM country WHERE population > 100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Scan country") {
		t.Fatalf("explain: %s", out)
	}
	// Explain must not call the model.
	if e.TotalUsage().Calls != 0 {
		t.Fatal("explain consumed tokens")
	}
}

func TestEngineErrors(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	for _, q := range []string{
		"SELECT * FROM nosuch",
		"not sql at all",
		"SELECT nosuchcol FROM country",
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("%q: expected error", q)
		}
	}
}

func TestEngineUsageAccumulates(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	r1, err := e.Query("SELECT name FROM country LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Query("SELECT title FROM movie LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	total := e.TotalUsage()
	if total.Calls != r1.Usage.Calls+r2.Usage.Calls {
		t.Fatalf("usage accounting: %d != %d + %d", total.Calls, r1.Usage.Calls, r2.Usage.Calls)
	}
}

func TestFormatResult(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	res, err := e.Query("SELECT name, population FROM country ORDER BY name LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(res.Result)
	if !strings.Contains(out, "name") || !strings.Contains(out, "(3 rows)") {
		t.Fatalf("format:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+2+1 {
		t.Fatalf("line count: %d\n%s", len(lines), out)
	}
}

func TestEngineStrictParserDropsMore(t *testing.T) {
	w := testWorld()
	cfgTol := DefaultConfig()
	cfgTol.Temperature = 0
	eTol := newTestEngine(t, w, llm.ProfileSmall, cfgTol)
	cfgStrict := cfgTol
	cfgStrict.Tolerant = false
	eStrict := newTestEngine(t, w, llm.ProfileSmall, cfgStrict)

	rTol, err := eTol.Query("SELECT name, capital, population FROM country")
	if err != nil {
		t.Fatal(err)
	}
	rStrict, err := eStrict.Query("SELECT name, capital, population FROM country")
	if err != nil {
		t.Fatal(err)
	}
	if len(rStrict.Result.Rows) > len(rTol.Result.Rows) {
		t.Fatalf("strict parser returned more rows: %d vs %d", len(rStrict.Result.Rows), len(rTol.Result.Rows))
	}
	if rTol.Scans[0].Parse.Repairs == 0 {
		t.Fatal("tolerant parser reported no repairs against the small profile")
	}
}

func TestEngineExecLocalDDL(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	if err := e.Exec("CREATE TABLE notes (country_name TEXT PRIMARY KEY, stars INT)"); err != nil {
		t.Fatal(err)
	}
	top := w.Domain("country").TopKeys(2)
	insert := "INSERT INTO notes (country_name, stars) VALUES ('" + top[0] + "', 5), ('" + top[1] + "', 3)"
	if err := e.Exec(insert); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`SELECT n.country_name, n.stars, c.capital
		FROM notes n JOIN country c ON c.name = n.country_name
		ORDER BY n.stars DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) == 0 {
		t.Fatal("exec-built hybrid join empty")
	}
	if res.Result.Rows[0][1].AsInt() != 5 {
		t.Fatalf("order: %v", res.Result.Rows)
	}
}

// TestCreateTableBesideQuery: the first CREATE TABLE on a fresh engine
// writes the local row store while a query beside it plans and scans
// against it; run under -race, the two must not race.
func TestCreateTableBesideQuery(t *testing.T) {
	w := testWorld()
	for trial := 0; trial < 20; trial++ {
		e := newTestEngine(t, w, llm.ProfileMedium, DefaultConfig())
		var created error
		var res *QueryResult
		var queried error
		concurrently(2, func(i int) {
			if i == 0 {
				created = e.Exec("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
				return
			}
			res, queried = e.Query("SELECT name FROM country LIMIT 3")
		})
		if created != nil || queried != nil {
			t.Fatalf("trial %d: create %v, query %v", trial, created, queried)
		}
		if len(res.Result.Rows) != 3 {
			t.Fatalf("trial %d: %d rows, want 3", trial, len(res.Result.Rows))
		}
		if _, err := e.Query("SELECT body FROM notes"); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestEngineExecPositionalInsertAndDefaults(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	if err := e.Exec("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("INSERT INTO kv VALUES ('a', 1), ('b', 2)"); err != nil {
		t.Fatal(err)
	}
	// Partial column list: missing column becomes NULL.
	if err := e.Exec("INSERT INTO kv (k) VALUES ('c')"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT COUNT(*), COUNT(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Rows[0][0].AsInt() != 3 || res.Result.Rows[0][1].AsInt() != 2 {
		t.Fatalf("counts: %v", res.Result.Rows[0])
	}
}

func TestEngineExecErrors(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	if err := e.Exec("CREATE TABLE country (x INT)"); err == nil {
		t.Fatal("shadowing a virtual table must fail")
	}
	if err := e.Exec("INSERT INTO country VALUES ('x')"); err == nil {
		t.Fatal("insert into virtual table must fail")
	}
	if err := e.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Fatal("insert into unknown table must fail")
	}
	if err := e.Exec("SELECT 1"); err == nil {
		t.Fatal("SELECT through Exec must fail")
	}
	if err := e.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("INSERT INTO t (nope) VALUES (1)"); err == nil {
		t.Fatal("unknown column must fail")
	}
	if err := e.Exec("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

// TestEngineInsertAllOrNothing: a multi-row INSERT whose later row is bad
// (uncoercible value or wrong arity) stores no row at all; a valid
// multi-row INSERT stores every row.
func TestEngineInsertAllOrNothing(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	if err := e.Exec("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	count := func() int64 {
		t.Helper()
		res, err := e.Query("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return res.Result.Rows[0][0].AsInt()
	}
	for _, bad := range []string{
		"INSERT INTO t VALUES (1, 'a'), ('x', 'b')",
		"INSERT INTO t VALUES (1, 'a'), (2)",
	} {
		if err := e.Exec(bad); err == nil {
			t.Fatalf("%s: want an error", bad)
		}
		if n := count(); n != 0 {
			t.Fatalf("%s: failed INSERT left %d rows, want 0", bad, n)
		}
	}
	if err := e.Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 3 {
		t.Fatalf("valid INSERT stored %d rows, want 3", n)
	}
}

// TestEngineQueryAnalyze: the EXPLAIN ANALYZE statement executes the query
// and returns only the plan, annotated with each operator's observed rows.
func TestEngineQueryAnalyze(t *testing.T) {
	w := testWorld()
	e := newTestEngine(t, w, llm.ProfileLarge, DefaultConfig())
	res, err := e.Query("EXPLAIN ANALYZE SELECT name FROM country WHERE population > 10 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Scans[0].RowsEmitted; n == 0 {
		t.Fatalf("analyzed scan emitted %d rows", n)
	}
	analyzed := renderRowsTest(res)
	if !strings.Contains(analyzed, "[rows=5]") {
		t.Fatalf("analyze output missing the LIMIT's count:\n%s", analyzed)
	}
	if !strings.Contains(analyzed, "Scan country") {
		t.Fatalf("analyze output missing scan:\n%s", analyzed)
	}
}
