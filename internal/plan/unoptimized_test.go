package plan_test

import (
	"testing"

	"llmsql/internal/exec"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
	"llmsql/internal/storage"
)

// fixtureDB holds a country and a movie table, NULLs and a dangling foreign
// key included.
func fixtureDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	load := func(name string, schema rel.Schema, rows []rel.Row) {
		tbl, err := db.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	load("country", rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true},
		rel.Column{Name: "capital", Type: rel.TypeText},
		rel.Column{Name: "continent", Type: rel.TypeText},
		rel.Column{Name: "population", Type: rel.TypeInt},
	), []rel.Row{
		{rel.Text("France"), rel.Text("Paris"), rel.Text("Europe"), rel.Int(68)},
		{rel.Text("Germany"), rel.Text("Berlin"), rel.Text("Europe"), rel.Int(84)},
		{rel.Text("Italy"), rel.Text("Rome"), rel.Text("Europe"), rel.Int(59)},
		{rel.Text("Japan"), rel.Text("Tokyo"), rel.Text("Asia"), rel.Int(125)},
		{rel.Text("India"), rel.Text("New Delhi"), rel.Text("Asia"), rel.Int(1408)},
		{rel.Text("Brazil"), rel.Text("Brasilia"), rel.Text("South America"), rel.Int(214)},
		{rel.Text("Mystery"), rel.Null(), rel.Text("Atlantis"), rel.Null()},
	})
	load("movie", rel.NewSchema(
		rel.Column{Name: "title", Type: rel.TypeText, Key: true},
		rel.Column{Name: "director", Type: rel.TypeText},
		rel.Column{Name: "year", Type: rel.TypeInt},
		rel.Column{Name: "country", Type: rel.TypeText},
	), []rel.Row{
		{rel.Text("Amelie"), rel.Text("Jeunet"), rel.Int(2001), rel.Text("France")},
		{rel.Text("Seven Samurai"), rel.Text("Kurosawa"), rel.Int(1954), rel.Text("Japan")},
		{rel.Text("Ran"), rel.Text("Kurosawa"), rel.Int(1985), rel.Text("Japan")},
		{rel.Text("City of God"), rel.Text("Meirelles"), rel.Int(2002), rel.Text("Brazil")},
		{rel.Text("Metropolis"), rel.Text("Lang"), rel.Int(1927), rel.Text("Germany")},
		{rel.Text("Orphan Film"), rel.Text("Unknown"), rel.Int(1990), rel.Null()},
	})
	return db
}

// TestUnoptimizedMatchesOptimized executes each query's plan with and
// without the optimizer rules and wants the same rows in the same order.
func TestUnoptimizedMatchesOptimized(t *testing.T) {
	db := fixtureDB(t)
	queries := []string{
		"SELECT name FROM country WHERE population > 100 ORDER BY name",
		"SELECT m.title, c.capital FROM movie m JOIN country c ON m.country = c.name WHERE c.continent = 'Asia' ORDER BY m.title",
		"SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY 2 DESC, 1",
		"SELECT title FROM movie WHERE country IN (SELECT name FROM country WHERE population > 100) ORDER BY title",
		"SELECT name FROM country ORDER BY population DESC LIMIT 3 OFFSET 2",
		"SELECT name, 1 AS one FROM country WHERE continent <> 'Asia' ORDER BY one, capital DESC",
		"SELECT m.title FROM movie m JOIN country c ON m.country = c.name ORDER BY c.population DESC, m.year LIMIT 4",
		"SELECT name FROM country ORDER BY population * 2, name",
	}
	for _, q := range queries {
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		cat := &exec.StorageCatalog{DB: db}
		opt, err := plan.Plan(sel, cat)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		sel2, _ := sql.ParseSelect(q)
		unopt, err := plan.PlanUnoptimized(sel2, cat)
		if err != nil {
			t.Fatalf("%q unopt: %v", q, err)
		}
		r1, err := exec.Execute(opt, &exec.StorageSource{DB: db})
		if err != nil {
			t.Fatalf("%q opt exec: %v", q, err)
		}
		r2, err := exec.Execute(unopt, &exec.StorageSource{DB: db})
		if err != nil {
			t.Fatalf("%q unopt exec: %v", q, err)
		}
		if len(r1.Rows) != len(r2.Rows) {
			t.Fatalf("%q: optimized %d rows vs unoptimized %d", q, len(r1.Rows), len(r2.Rows))
		}
		for i := range r1.Rows {
			if r1.Rows[i].AllKey() != r2.Rows[i].AllKey() {
				t.Fatalf("%q row %d: %v vs %v", q, i, r1.Rows[i], r2.Rows[i])
			}
		}
	}
}
