package exec

import (
	"fmt"
	"strings"
	"testing"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
	"llmsql/internal/storage"
)

// testDB builds the fixture database used by all executor tests.
func testDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()

	country, err := db.CreateTable("country", rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true},
		rel.Column{Name: "capital", Type: rel.TypeText},
		rel.Column{Name: "continent", Type: rel.TypeText},
		rel.Column{Name: "population", Type: rel.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := []rel.Row{
		{rel.Text("France"), rel.Text("Paris"), rel.Text("Europe"), rel.Int(68)},
		{rel.Text("Germany"), rel.Text("Berlin"), rel.Text("Europe"), rel.Int(84)},
		{rel.Text("Italy"), rel.Text("Rome"), rel.Text("Europe"), rel.Int(59)},
		{rel.Text("Japan"), rel.Text("Tokyo"), rel.Text("Asia"), rel.Int(125)},
		{rel.Text("India"), rel.Text("New Delhi"), rel.Text("Asia"), rel.Int(1408)},
		{rel.Text("Brazil"), rel.Text("Brasilia"), rel.Text("South America"), rel.Int(214)},
		{rel.Text("Mystery"), rel.Null(), rel.Text("Atlantis"), rel.Null()},
	}
	if err := country.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}

	movie, err := db.CreateTable("movie", rel.NewSchema(
		rel.Column{Name: "title", Type: rel.TypeText, Key: true},
		rel.Column{Name: "director", Type: rel.TypeText},
		rel.Column{Name: "year", Type: rel.TypeInt},
		rel.Column{Name: "country", Type: rel.TypeText},
	))
	if err != nil {
		t.Fatal(err)
	}
	mrows := []rel.Row{
		{rel.Text("Amelie"), rel.Text("Jeunet"), rel.Int(2001), rel.Text("France")},
		{rel.Text("Seven Samurai"), rel.Text("Kurosawa"), rel.Int(1954), rel.Text("Japan")},
		{rel.Text("Ran"), rel.Text("Kurosawa"), rel.Int(1985), rel.Text("Japan")},
		{rel.Text("City of God"), rel.Text("Meirelles"), rel.Int(2002), rel.Text("Brazil")},
		{rel.Text("Metropolis"), rel.Text("Lang"), rel.Int(1927), rel.Text("Germany")},
		{rel.Text("Orphan Film"), rel.Text("Unknown"), rel.Int(1990), rel.Null()},
	}
	if err := movie.InsertBatch(mrows); err != nil {
		t.Fatal(err)
	}
	return db
}

// run executes a SQL query over the fixture DB.
func run(t *testing.T, db *storage.DB, query string) *Result {
	t.Helper()
	res, err := tryRun(db, query)
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	return res
}

func tryRun(db *storage.DB, query string) (*Result, error) {
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	node, err := plan.Plan(sel, &StorageCatalog{DB: db})
	if err != nil {
		return nil, err
	}
	return Execute(node, &StorageSource{DB: db})
}

// texts extracts column col of every row as strings (NULL -> "NULL").
func texts(res *Result, col int) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[col].String()
	}
	return out
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT * FROM country")
	if len(res.Rows) != 7 || res.Schema.Len() != 4 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), res.Schema.Len())
	}
}

func TestFilterAndProject(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT name FROM country WHERE population > 100")
	got := texts(res, 0)
	want := map[string]bool{"Japan": true, "India": true, "Brazil": true}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected %q", g)
		}
	}
}

func TestNullsNeverPassFilters(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT name FROM country WHERE population > 0")
	for _, r := range res.Rows {
		if r[0].AsText() == "Mystery" {
			t.Fatal("NULL population row passed filter")
		}
	}
	res = run(t, db, "SELECT name FROM country WHERE population IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "Mystery" {
		t.Fatalf("IS NULL: %v", texts(res, 0))
	}
}

func TestExpressionsInProjection(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT name, population * 2 AS dbl FROM country WHERE name = 'France'")
	if res.Rows[0][1].AsInt() != 136 {
		t.Fatalf("expr: %v", res.Rows[0])
	}
	if res.Schema.Col(1).Name != "dbl" {
		t.Fatalf("alias: %v", res.Schema)
	}
}

func TestInnerJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT m.title, c.capital
		FROM movie m JOIN country c ON m.country = c.name
		ORDER BY m.title`)
	if len(res.Rows) != 5 {
		t.Fatalf("join rows: %v", texts(res, 0))
	}
	if res.Rows[0][0].AsText() != "Amelie" || res.Rows[0][1].AsText() != "Paris" {
		t.Fatalf("first join row: %v", res.Rows[0])
	}
}

func TestLeftJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT m.title, c.name
		FROM movie m LEFT JOIN country c ON m.country = c.name
		ORDER BY m.title`)
	if len(res.Rows) != 6 {
		t.Fatalf("left join rows: %d", len(res.Rows))
	}
	// The orphan film has no matching country.
	foundOrphan := false
	for _, r := range res.Rows {
		if r[0].AsText() == "Orphan Film" {
			foundOrphan = true
			if !r[1].IsNull() {
				t.Fatalf("orphan row not null-padded: %v", r)
			}
		}
	}
	if !foundOrphan {
		t.Fatal("orphan row missing")
	}
}

func TestCrossJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT c.name, m.title FROM country c CROSS JOIN movie m")
	if len(res.Rows) != 7*6 {
		t.Fatalf("cross join: %d", len(res.Rows))
	}
}

func TestCommaJoinWithWhere(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT m.title FROM movie m, country c
		WHERE m.country = c.name AND c.continent = 'Asia'
		ORDER BY m.title`)
	got := texts(res, 0)
	if len(got) != 2 || got[0] != "Ran" || got[1] != "Seven Samurai" {
		t.Fatalf("comma join: %v", got)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT m1.title, m2.title
		FROM movie m1
		JOIN movie m2 ON m1.director = m2.director AND m1.title <> m2.title
		JOIN country c ON m1.country = c.name
		ORDER BY m1.title`)
	// Kurosawa directed two movies -> two ordered pairs.
	if len(res.Rows) != 2 {
		t.Fatalf("three-way join: %v", res.Rows)
	}
}

func TestAggregatesGlobal(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT COUNT(*), COUNT(population), SUM(population), AVG(population), MIN(population), MAX(population) FROM country")
	r := res.Rows[0]
	if r[0].AsInt() != 7 {
		t.Fatalf("count(*): %v", r[0])
	}
	if r[1].AsInt() != 6 {
		t.Fatalf("count(pop) must skip NULL: %v", r[1])
	}
	if r[2].AsInt() != 68+84+59+125+1408+214 {
		t.Fatalf("sum: %v", r[2])
	}
	wantAvg := float64(68+84+59+125+1408+214) / 6
	if r[3].AsFloat() != wantAvg {
		t.Fatalf("avg: %v want %v", r[3], wantAvg)
	}
	if r[4].AsInt() != 59 || r[5].AsInt() != 1408 {
		t.Fatalf("min/max: %v %v", r[4], r[5])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT COUNT(*), SUM(population) FROM country WHERE name = 'Narnia'")
	if len(res.Rows) != 1 {
		t.Fatalf("global agg over empty input must emit one row: %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("defaults: %v", res.Rows[0])
	}
	// Grouped aggregate over empty input emits nothing.
	res = run(t, db, "SELECT continent, COUNT(*) FROM country WHERE name = 'Narnia' GROUP BY continent")
	if len(res.Rows) != 0 {
		t.Fatalf("grouped agg over empty input: %v", res.Rows)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT continent, COUNT(*) AS n, SUM(population) AS pop
		FROM country
		GROUP BY continent
		HAVING COUNT(*) >= 2
		ORDER BY n DESC, continent`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", res.Rows)
	}
	if res.Rows[0][0].AsText() != "Europe" || res.Rows[0][1].AsInt() != 3 {
		t.Fatalf("europe group: %v", res.Rows[0])
	}
	if res.Rows[1][0].AsText() != "Asia" || res.Rows[1][2].AsInt() != 1533 {
		t.Fatalf("asia group: %v", res.Rows[1])
	}
}

func TestCountDistinct(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT COUNT(DISTINCT director) FROM movie")
	if res.Rows[0][0].AsInt() != 5 {
		t.Fatalf("count distinct: %v", res.Rows[0])
	}
	res = run(t, db, "SELECT SUM(DISTINCT year) FROM movie WHERE director = 'Kurosawa'")
	if res.Rows[0][0].AsInt() != 1954+1985 {
		t.Fatalf("sum distinct: %v", res.Rows[0])
	}
}

func TestGroupByExpression(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT year / 10 AS decade, COUNT(*) AS n
		FROM movie GROUP BY year / 10 ORDER BY decade`)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Ensure group expression equality matched between SELECT and GROUP BY.
	if res.Schema.Col(0).Name != "decade" {
		t.Fatalf("schema: %v", res.Schema)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT name, population FROM country ORDER BY population DESC LIMIT 2")
	got := texts(res, 0)
	if len(got) != 2 || got[0] != "India" || got[1] != "Brazil" {
		t.Fatalf("top2: %v", got)
	}
	// NULLs last ascending.
	res = run(t, db, "SELECT name FROM country ORDER BY population")
	got = texts(res, 0)
	if got[len(got)-1] != "Mystery" {
		t.Fatalf("nulls must sort last asc: %v", got)
	}
	// Offset.
	res = run(t, db, "SELECT name FROM country ORDER BY population DESC LIMIT 2 OFFSET 1")
	got = texts(res, 0)
	if got[0] != "Brazil" {
		t.Fatalf("offset: %v", got)
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT name FROM country WHERE population IS NOT NULL ORDER BY population DESC")
	if res.Schema.Len() != 1 {
		t.Fatalf("hidden col leaked: %v", res.Schema)
	}
	got := texts(res, 0)
	if got[0] != "India" || got[len(got)-1] != "Italy" {
		t.Fatalf("hidden order: %v", got)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT DISTINCT continent FROM country ORDER BY continent")
	got := texts(res, 0)
	if len(got) != 4 {
		t.Fatalf("distinct: %v", got)
	}
	res = run(t, db, "SELECT DISTINCT director FROM movie")
	if len(res.Rows) != 5 {
		t.Fatalf("distinct directors: %v", texts(res, 0))
	}
}

func TestInSubquerySemiJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT title FROM movie
		WHERE country IN (SELECT name FROM country WHERE continent = 'Europe')
		ORDER BY title`)
	got := texts(res, 0)
	if len(got) != 2 || got[0] != "Amelie" || got[1] != "Metropolis" {
		t.Fatalf("semi join: %v", got)
	}
}

func TestNotInAntiJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT title FROM movie
		WHERE country NOT IN (SELECT name FROM country WHERE continent = 'Europe')
		ORDER BY title`)
	got := texts(res, 0)
	// Orphan Film has NULL country -> suppressed by NOT IN semantics.
	if len(got) != 3 {
		t.Fatalf("anti join: %v", got)
	}
	for _, g := range got {
		if g == "Orphan Film" || g == "Amelie" || g == "Metropolis" {
			t.Fatalf("anti join leaked %q", g)
		}
	}
	// NOT IN over a set containing NULL suppresses everything.
	res = run(t, db, `
		SELECT title FROM movie
		WHERE title NOT IN (SELECT capital FROM country)`)
	if len(res.Rows) != 0 {
		t.Fatalf("NOT IN with NULL in set must be empty: %v", texts(res, 0))
	}
}

func TestDerivedTable(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT s.continent, s.n
		FROM (SELECT continent, COUNT(*) AS n FROM country GROUP BY continent) AS s
		WHERE s.n > 1
		ORDER BY s.n DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("derived: %v", res.Rows)
	}
	if res.Rows[0][0].AsText() != "Europe" {
		t.Fatalf("derived first: %v", res.Rows[0])
	}
}

func TestScalarFunctionsEndToEnd(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT UPPER(name) FROM country WHERE LENGTH(name) = 5 ORDER BY 1")
	got := texts(res, 0)
	if len(got) != 3 || got[0] != "INDIA" || got[1] != "ITALY" || got[2] != "JAPAN" {
		t.Fatalf("funcs: %v", got)
	}
}

func TestCaseEndToEnd(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT name,
		       CASE WHEN population > 500 THEN 'huge'
		            WHEN population > 100 THEN 'large'
		            ELSE 'normal' END AS size
		FROM country WHERE population IS NOT NULL ORDER BY name`)
	byName := map[string]string{}
	for _, r := range res.Rows {
		byName[r[0].AsText()] = r[1].AsText()
	}
	if byName["India"] != "huge" || byName["Japan"] != "large" || byName["France"] != "normal" {
		t.Fatalf("case: %v", byName)
	}
}

func TestLikeEndToEnd(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT name FROM country WHERE capital LIKE 'B%' ORDER BY name")
	got := texts(res, 0)
	if len(got) != 2 || got[0] != "Brazil" || got[1] != "Germany" {
		t.Fatalf("like: %v", got)
	}
}

func TestConstantQuery(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT 40 + 2 AS answer")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 42 {
		t.Fatalf("constant: %v", res.Rows)
	}
}

func TestBetweenEndToEnd(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT title FROM movie WHERE year BETWEEN 1980 AND 2001 ORDER BY year")
	got := texts(res, 0)
	if len(got) != 3 || got[0] != "Ran" {
		t.Fatalf("between: %v", got)
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	db := testDB(t)
	// Equality key plus non-equi residual.
	res := run(t, db, `
		SELECT m.title FROM movie m JOIN country c
		ON m.country = c.name AND m.year > 1950 AND c.population < 100
		ORDER BY m.title`)
	got := texts(res, 0)
	if len(got) != 1 || got[0] != "Amelie" {
		t.Fatalf("residual: %v", got)
	}
}

func TestNonEquiJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, `
		SELECT c1.name, c2.name
		FROM country c1 JOIN country c2 ON c1.population < c2.population
		WHERE c1.name = 'Japan'
		ORDER BY c2.name`)
	got := texts(res, 1)
	if len(got) != 2 || got[0] != "Brazil" || got[1] != "India" {
		t.Fatalf("non-equi: %v", got)
	}
}

func TestErrorPropagation(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT * FROM nosuch",
		"SELECT nosuch FROM country",
		"SELECT name FROM country ORDER BY 9",
	}
	for _, q := range bad {
		if _, err := tryRun(db, q); err == nil {
			t.Errorf("%q: expected error", q)
		}
	}
}

func TestConcatProjection(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT name || ' -> ' || capital FROM country WHERE name = 'Japan'")
	if res.Rows[0][0].AsText() != "Japan -> Tokyo" {
		t.Fatalf("concat: %v", res.Rows[0])
	}
}

func TestExplainContainsStrategyDetails(t *testing.T) {
	db := testDB(t)
	sel, err := sql.ParseSelect("SELECT m.title FROM movie m JOIN country c ON m.country = c.name WHERE c.population > 100")
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Plan(sel, &StorageCatalog{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain(node)
	if !strings.Contains(out, "hash:") {
		t.Fatalf("expected hash join in explain:\n%s", out)
	}
	if !strings.Contains(out, "filter: c.population > 100") {
		t.Fatalf("expected pushed filter in explain:\n%s", out)
	}
}

func TestExecuteAnalyzedRowCounts(t *testing.T) {
	db := testDB(t)
	sel, err := sql.ParseSelect("SELECT name FROM country WHERE population > 100 ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Plan(sel, &StorageCatalog{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	res, prof, err := ExecuteAnalyzed(node, &StorageSource{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// The root must report exactly the result cardinality.
	if prof.Rows[node] != 3 {
		t.Fatalf("root count: %d", prof.Rows[node])
	}
	// Every operator in the tree must have a recorded count.
	var check func(n plan.Node)
	check = func(n plan.Node) {
		if _, ok := prof.Rows[n]; !ok {
			t.Fatalf("no count for %T", n)
		}
		for _, c := range n.Children() {
			check(c)
		}
	}
	check(node)
	out := plan.ExplainWithRows(node, prof.Rows)
	if !strings.Contains(out, "[rows=3]") {
		t.Fatalf("explain analyze output:\n%s", out)
	}
	if !strings.Contains(out, "Scan country") {
		t.Fatalf("missing scan:\n%s", out)
	}
}

// TestExecuteAnalyzedBoundedSort: under ORDER BY … LIMIT the Sort sits
// below the projection and keeps only LIMIT+OFFSET rows, so EXPLAIN ANALYZE
// counts every qualifying row at the scan but only those at the Sort and
// the Project.
func TestExecuteAnalyzedBoundedSort(t *testing.T) {
	db := testDB(t)
	sel, err := sql.ParseSelect("SELECT name, population FROM country WHERE population > 60 ORDER BY population DESC LIMIT 2 OFFSET 1")
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Plan(sel, &StorageCatalog{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	res, prof, err := ExecuteAnalyzed(node, &StorageSource{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[(Brazil, 214) (Japan, 125)]" {
		t.Fatalf("rows %s, want [(Brazil, 214) (Japan, 125)]", got)
	}
	want := []string{
		"Limit 2 offset 1  [rows=2]",
		"  Project name AS name, population AS population  [rows=3]",
		"    Sort #3 desc top 3  [rows=3]",
		"      Scan country [filter: population > 60] [cols: name,population]  [rows=5]",
	}
	if got := plan.ExplainWithRows(node, prof.Rows); got != strings.Join(want, "\n")+"\n" {
		t.Fatalf("EXPLAIN ANALYZE:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestBoundedSortSurfacesProjectionErrors: a projection that computes can
// fail, so it stays above the Sort and is evaluated on every row — an error
// on a row the LIMIT drops still fails the query. (SQL arithmetic, CAST and
// the scalar functions return NULL rather than fail; a row shorter than its
// schema is what makes evaluation fail here.)
func TestBoundedSortSurfacesProjectionErrors(t *testing.T) {
	in := rel.NewSchema(rel.Column{Name: "a", Type: rel.TypeInt}, rel.Column{Name: "b", Type: rel.TypeInt})
	rows := []rel.Row{{rel.Int(1), rel.Int(10)}, {rel.Int(2)}}
	proj := &plan.ProjectNode{
		Child: &plan.ValuesNode{Rows: rows, Out: in},
		Exprs: []sql.Expr{&sql.ColumnRef{Name: "a"}, &sql.BinaryExpr{Op: sql.OpAdd, Left: &sql.ColumnRef{Name: "b"}, Right: &sql.Literal{Value: rel.Int(1)}}},
		Out:   rel.NewSchema(rel.Column{Name: "a", Type: rel.TypeInt}, rel.Column{Name: "b1", Type: rel.TypeInt}),
	}
	node := plan.OptimizeOpts(&plan.LimitNode{Child: &plan.SortNode{Child: proj, Keys: []plan.SortKey{{Col: 0}}}, Limit: 1}, plan.DefaultOptions())
	if _, err := Execute(node, nil); err == nil || !strings.Contains(err.Error(), "row too short") {
		t.Fatalf("err = %v, want the second row's evaluation error\n%s", err, plan.Explain(node))
	}
}

func TestExecuteAnalyzedMatchesExecute(t *testing.T) {
	db := testDB(t)
	queries := []string{
		"SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY 2 DESC",
		"SELECT m.title FROM movie m JOIN country c ON m.country = c.name ORDER BY m.title",
	}
	for _, q := range queries {
		sel, _ := sql.ParseSelect(q)
		cat := &StorageCatalog{DB: db}
		n1, err := plan.Plan(sel, cat)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := Execute(n1, &StorageSource{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		sel2, _ := sql.ParseSelect(q)
		n2, err := plan.Plan(sel2, cat)
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := ExecuteAnalyzed(n2, &StorageSource{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Rows) != len(r2.Rows) {
			t.Fatalf("%q: %d vs %d rows", q, len(r1.Rows), len(r2.Rows))
		}
		for i := range r1.Rows {
			if r1.Rows[i].AllKey() != r2.Rows[i].AllKey() {
				t.Fatalf("%q row %d differs", q, i)
			}
		}
	}
}
