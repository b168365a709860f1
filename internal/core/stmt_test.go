package core

import (
	"fmt"
	"strings"
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/world"
)

func stmtTestEngine(t *testing.T, mut func(*Config)) *Engine {
	t.Helper()
	w := world.Generate(world.Config{Seed: 31, Countries: 60, Movies: 20, Laureates: 10, Companies: 10})
	cfg := DefaultConfig()
	cfg.MaxRounds = 3
	if mut != nil {
		mut(&cfg)
	}
	e := New(llm.NewSynthLM(w, llm.ProfileMedium, 31), cfg)
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}
	return e
}

// TestPreparedMatchesUnprepared: a prepared statement with bound values
// must return rows byte-identical to the same statement with the values
// inlined as literals, across the execution-shape knobs (the bound plan is
// the planned parameterized plan with literals substituted, so every
// downstream pipeline sees identical inputs).
func TestPreparedMatchesUnprepared(t *testing.T) {
	for _, shape := range []struct{ parallelism, batch int }{
		{1, 1}, {4, 1}, {1, 4}, {8, 4},
	} {
		mut := func(c *Config) {
			c.Strategy = StrategyKeyThenAttr
			c.Parallelism = shape.parallelism
			c.BatchSize = shape.batch
		}
		for _, threshold := range []int64{10, 55} {
			prep := stmtTestEngine(t, mut)
			stmt, err := prep.Prepare("SELECT name, capital FROM country WHERE population > $1")
			if err != nil {
				t.Fatal(err)
			}
			bound, err := stmt.Query(threshold)
			if err != nil {
				t.Fatal(err)
			}
			plain := stmtTestEngine(t, mut)
			inlined, err := plain.Query(fmt.Sprintf(
				"SELECT name, capital FROM country WHERE population > %d", threshold))
			if err != nil {
				t.Fatal(err)
			}
			if renderRowsTest(bound) != renderRowsTest(inlined) {
				t.Fatalf("parallelism=%d batch=%d threshold=%d: prepared rows differ from inlined literals",
					shape.parallelism, shape.batch, threshold)
			}
		}
	}
}

// TestPlanCacheHits: repeated Query of the same normalized text must plan
// once; different spellings of the same statement share the entry.
func TestPlanCacheHits(t *testing.T) {
	e := stmtTestEngine(t, nil)
	for i, q := range []string{
		"SELECT name FROM country WHERE population > $1",
		"select name from country where population > ?;",
		"SELECT name -- c\n FROM country WHERE population > $1",
	} {
		if _, err := e.Query(q, int64(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	s := e.PlanCacheStats()
	if s.Misses != 1 || s.Hits != 2 || s.Entries != 1 {
		t.Fatalf("spellings did not share one plan: %+v", s)
	}
}

// TestPlanCacheInvalidation: catalog and cost-model changes must discard
// cached plans, and outstanding Stmt handles must re-prepare.
func TestPlanCacheInvalidation(t *testing.T) {
	e := stmtTestEngine(t, nil)
	q := "SELECT name FROM country WHERE population > 40"
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	cached := e.PlanCacheStats()
	if cached.Entries != 1 {
		t.Fatalf("expected one cached plan: %+v", cached)
	}
	e.CostModel(llm.DefaultCostModel())
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Misses != cached.Misses+1 || s.Hits != cached.Hits {
		t.Fatalf("cost-model change kept the cached plan: %+v, was %+v", s, cached)
	}
	// A Stmt prepared before the invalidation transparently re-prepares.
	stmt, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterTable(VirtualTable{
		Name:        "scratch",
		Description: "a scratch table",
		Schema:      rel.NewSchema(rel.Column{Name: "k", Type: rel.TypeText, Key: true}),
		EstRows:     1,
	})
	after, err := stmt.Query()
	if err != nil {
		t.Fatalf("stmt did not survive invalidation: %v", err)
	}
	if renderRowsTest(before) != renderRowsTest(after) {
		t.Fatal("re-prepared stmt changed rows")
	}
}

// TestPlanCacheDisabled: PlanCacheCapacity < 0 turns the cache off without
// changing results.
func TestPlanCacheDisabled(t *testing.T) {
	e := stmtTestEngine(t, func(c *Config) { c.PlanCacheCapacity = -1 })
	q := "SELECT name FROM country WHERE population > 40"
	a, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderRowsTest(a) != renderRowsTest(b) {
		t.Fatal("rows differ across repeated queries")
	}
	if s := e.PlanCacheStats(); s != (PlanCacheStats{}) {
		t.Fatalf("disabled cache reported stats: %+v", s)
	}
}

// TestNamedParams: :name parameters bind via one NamedArgs map, with exact
// validation of the name set.
func TestNamedParams(t *testing.T) {
	e := stmtTestEngine(t, nil)
	q := "SELECT name FROM country WHERE population > :min AND population < :max"
	res, err := e.Query(q, NamedArgs{"min": 10, "max": 90})
	if err != nil {
		t.Fatal(err)
	}
	inlined, err := e.Query("SELECT name FROM country WHERE population > 10 AND population < 90")
	if err != nil {
		t.Fatal(err)
	}
	if renderRowsTest(res) != renderRowsTest(inlined) {
		t.Fatal("named binding rows differ from inlined literals")
	}
	if _, err := e.Query(q, NamedArgs{"min": 10}); err == nil {
		t.Error("missing :max not reported")
	}
	if _, err := e.Query(q, NamedArgs{"min": 10, "max": 90, "x": 1}); err == nil {
		t.Error("extra name not reported")
	}
	if _, err := e.Query(q, 10, 90); err == nil {
		t.Error("positional args accepted for named statement")
	}
}

// TestBindingErrors: unbound, extra and ill-typed arguments produce clear
// errors instead of executing.
func TestBindingErrors(t *testing.T) {
	e := stmtTestEngine(t, nil)
	q := "SELECT name FROM country WHERE population > $1"
	if _, err := e.Query(q); err == nil || !strings.Contains(err.Error(), "unbound parameter $1") {
		t.Errorf("unbound param: %v", err)
	}
	if _, err := e.Query(q, 1, 2); err == nil {
		t.Errorf("extra arg accepted")
	}
	if _, err := e.Query(q, struct{}{}); err == nil || !strings.Contains(err.Error(), "unsupported argument type") {
		t.Errorf("unsupported type: %v", err)
	}
	if _, err := e.Query("SELECT name FROM country", 1); err == nil {
		t.Errorf("arg accepted for parameterless statement")
	}
}

// TestExplainStatements: EXPLAIN returns the plan as rows without
// executing; EXPLAIN ANALYZE executes and returns the annotated plan. The
// same classification applies to prepared statements.
func TestExplainStatements(t *testing.T) {
	e := stmtTestEngine(t, nil)
	q := "SELECT name FROM country WHERE population > 40"

	res, err := e.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Usage.Calls != 0 {
		t.Fatalf("EXPLAIN executed the query: %d calls", res.Usage.Calls)
	}
	if len(res.Result.Rows) == 0 || res.Result.Schema.Names()[0] != "plan" {
		t.Fatalf("EXPLAIN did not return plan rows: %+v", res.Result.Schema.Names())
	}
	planText, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	var joined strings.Builder
	for _, row := range res.Result.Rows {
		joined.WriteString(row[0].AsText())
		joined.WriteByte('\n')
	}
	if joined.String() != planText {
		t.Fatalf("EXPLAIN rows differ from Explain():\n%s\nvs\n%s", joined.String(), planText)
	}

	ares, err := e.Query("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	if ares.Usage.Calls == 0 {
		t.Fatal("EXPLAIN ANALYZE did not execute")
	}
	found := false
	for _, row := range ares.Result.Rows {
		if strings.Contains(row[0].AsText(), "rows=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN ANALYZE rows carry no row counts")
	}

	// Prepared EXPLAIN with a parameter renders the placeholder unbound and
	// binds when a value is supplied.
	stmt, err := e.Prepare("EXPLAIN SELECT name FROM country WHERE population > $1")
	if err != nil {
		t.Fatal(err)
	}
	unbound, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(renderRowsTest(unbound), "$1") {
		t.Fatal("unbound EXPLAIN lost the placeholder")
	}
	boundPlan, err := stmt.Query(40)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(renderRowsTest(boundPlan), "$1") {
		t.Fatal("bound EXPLAIN kept the placeholder")
	}
}
