package core

import (
	"strings"
	"testing"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

// bindJoinQueries covers every join shape the bind planner handles: the
// bound side is the country scan (its entity key is the join key), the
// outer side carries duplicate join keys (many movies per country).
func bindJoinQueries() []string {
	return []string{
		"SELECT m.title, c.capital FROM movie m JOIN country c ON m.country = c.name",
		"SELECT m.title, c.capital FROM movie m LEFT JOIN country c ON m.country = c.name",
		"SELECT title FROM movie WHERE country IN (SELECT name FROM country)",
		"SELECT title FROM movie WHERE country NOT IN (SELECT name FROM country)",
	}
}

// TestBindJoinPropertyByteIdentical is the determinism contract of the
// bind join: for every Parallelism x BatchSize x join-shape combination,
// the bind plan returns byte-identical rows to the hash plan (bind off) —
// which fully scans the build side — while never spending more calls.
func TestBindJoinPropertyByteIdentical(t *testing.T) {
	w := parWorld()
	run := func(query string, parallelism, batch int, bind bool) *QueryResult {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = 2
		cfg.MaxRounds = 3
		cfg.Temperature = 0.7
		cfg.Parallelism = parallelism
		cfg.BatchSize = batch
		cfg.BindJoin = bind
		res, err := worldEngine(w, cfg).Query(query)
		if err != nil {
			t.Fatalf("P=%d B=%d bind=%v %q: %v", parallelism, batch, bind, query, err)
		}
		return res
	}
	for qi, query := range bindJoinQueries() {
		for _, b := range []int{1, 3} {
			// Reference: serial hash plan at this batch size (batching
			// changes which prompts are issued, so references are per B).
			reference := run(query, 1, b, false)
			if qi == 0 && len(reference.Result.Rows) == 0 {
				t.Fatalf("vacuous workload: the inner join produced no rows")
			}
			want := renderRows(reference.Result.Rows)
			for _, p := range []int{1, 4, 8} {
				hash := run(query, p, b, false)
				bind := run(query, p, b, true)
				if got := renderRows(hash.Result.Rows); got != want {
					t.Fatalf("P=%d B=%d %q: hash rows diverged from reference", p, b, query)
				}
				if got := renderRows(bind.Result.Rows); got != want {
					t.Fatalf("P=%d B=%d %q: bind rows diverged:\n%s\nvs\n%s", p, b, query, got, want)
				}
				if bind.Usage.Calls > hash.Usage.Calls {
					t.Fatalf("P=%d B=%d %q: bind spent more calls (%d) than hash (%d)",
						p, b, query, bind.Usage.Calls, hash.Usage.Calls)
				}
			}
		}
	}
}

// TestBindJoinBatchGroupingByteIdentical is the regression test for the
// bind gate's batch alignment: batched ATTRS answers depend on the whole
// group's prompt, so the gate must keep whole groups (riders included) or
// the bound scan's prompts — and, on a prompt-sensitive model at
// temperature > 0, its values — diverge from the unbound scan's. Swept
// over world seeds and batch sizes; before group alignment, seed 1 with
// batch 4 returned a different capital for the same movie under bind.
func TestBindJoinBatchGroupingByteIdentical(t *testing.T) {
	query := "SELECT m.title, c.capital FROM movie m JOIN country c ON m.country = c.name"
	for _, seed := range []int64{1, 2, 3} {
		w := world.Generate(world.Config{Seed: seed, Countries: 30, Movies: 15, Laureates: 10, Companies: 10})
		for _, batch := range []int{2, 4, 5} {
			run := func(bind bool) *QueryResult {
				cfg := DefaultConfig()
				cfg.Strategy = StrategyKeyThenAttr
				cfg.Votes = 1
				cfg.MaxRounds = 3
				cfg.Temperature = 0.9
				cfg.BatchSize = batch
				cfg.BindJoin = bind
				e := New(llm.NewSynthLM(w, llm.ProfileMedium, seed), cfg)
				for _, name := range w.DomainNames() {
					e.RegisterWorldDomain(w.Domain(name))
				}
				res, err := e.Query(query)
				if err != nil {
					t.Fatalf("seed=%d batch=%d bind=%v: %v", seed, batch, bind, err)
				}
				return res
			}
			bound, hash := run(true), run(false)
			if b, h := renderRows(bound.Result.Rows), renderRows(hash.Result.Rows); b != h {
				t.Fatalf("seed=%d batch=%d: bind rows diverged:\n%s\nvs\n%s", seed, batch, b, h)
			}
			if bound.Usage.Calls > hash.Usage.Calls {
				t.Fatalf("seed=%d batch=%d: bind spent more calls (%d) than hash (%d)",
					seed, batch, bound.Usage.Calls, hash.Usage.Calls)
			}
		}
	}
}

// TestBindJoinHybridNullAndDuplicateKeys drives the bind join from a local
// row-store outer side containing NULL join keys, duplicate keys, and keys
// the LLM table will never enumerate — for every join shape, bind must
// match the hash plan exactly (including the anti join's NULL fallback).
func TestBindJoinHybridNullAndDuplicateKeys(t *testing.T) {
	w := parWorld()
	countries := w.Domain("country")
	mkLocal := func() *storage.DB {
		db := storage.NewDB()
		tbl, err := db.CreateTable("film", rel.NewSchema(
			rel.Column{Name: "id", Type: rel.TypeInt, Key: true},
			rel.Column{Name: "land", Type: rel.TypeText},
		))
		if err != nil {
			t.Fatal(err)
		}
		rows := []rel.Row{
			{rel.Int(1), countries.Entities[0].Row[0]},
			{rel.Int(2), countries.Entities[0].Row[0]}, // duplicate key
			{rel.Int(3), countries.Entities[1].Row[0]},
			{rel.Int(4), rel.Null()},           // NULL join key
			{rel.Int(5), rel.Text("Atlantis")}, // never enumerated
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		return db
	}
	queries := []string{
		"SELECT f.id, c.capital FROM film f JOIN country c ON f.land = c.name",
		"SELECT f.id, c.capital FROM film f LEFT JOIN country c ON f.land = c.name",
		"SELECT id FROM film WHERE land IN (SELECT name FROM country)",
		"SELECT id FROM film WHERE land NOT IN (SELECT name FROM country)",
	}
	run := func(query string, bind bool) *QueryResult {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Temperature = 0
		cfg.BindJoin = bind
		e := worldEngine(w, cfg)
		e.AttachLocal(mkLocal())
		res, err := e.Query(query)
		if err != nil {
			t.Fatalf("bind=%v %q: %v", bind, query, err)
		}
		return res
	}
	for _, query := range queries {
		hash := run(query, false)
		bind := run(query, true)
		if h, b := renderRows(hash.Result.Rows), renderRows(bind.Result.Rows); h != b {
			t.Fatalf("%q: bind rows diverged:\n%s\nvs\n%s", query, b, h)
		}
		if bind.Usage.Calls > hash.Usage.Calls {
			t.Fatalf("%q: bind spent more calls (%d) than hash (%d)",
				query, bind.Usage.Calls, hash.Usage.Calls)
		}
	}
}

// TestBindGateBlocksAttrSpend: a bound scan canonicalizes bound keys
// (whitespace, case-insensitive dedup), intersects them with the
// enumeration, and pays attribute prompts only for the intersection — keys
// the model enumerates but the join never asked for get no ATTR calls, and
// bound keys the model does not know get none either.
func TestBindGateBlocksAttrSpend(t *testing.T) {
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if strings.Contains(req.Prompt, "TASK: KEYS") {
			return "France\nJapan\nGermany"
		}
		if strings.Contains(req.Prompt, "COLUMN: capital") {
			return "City-" + entityLine(req.Prompt)
		}
		return "42"
	}}
	e := ktaEngine(model, nil)
	it, a := accountedScan(t, e.store, exec.ScanRequest{
		Table:  "country",
		Schema: storeTable().Schema,
		// "  france " canonicalizes into a duplicate of "France";
		// "Atlantis" is never enumerated.
		Keys: []string{"France", "  france ", "Atlantis", "Germany"},
	})
	rows, err := exec.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].AsText() != "France" || rows[1][0].AsText() != "Germany" {
		t.Fatalf("rows: %v", rows)
	}
	stats := a.Scans
	if len(stats) != 1 {
		t.Fatalf("stats: %v", stats)
	}
	if s := stats[0]; s.KeysBound != 3 || s.KeysAttributed != 2 {
		t.Fatalf("bind stats: %+v", s)
	}
	if n := attrCallsFor(model, "Japan"); n != 0 {
		t.Fatalf("unbound key Japan got %d attribute prompts", n)
	}
	if n := attrCallsFor(model, "Atlantis"); n != 0 {
		t.Fatalf("unknown bound key Atlantis got %d attribute prompts", n)
	}
}

// TestBindIgnoredOutsideKeyThenAttr: bound keys must not change what a
// full-table scan retrieves — any other decomposition could not honour the
// binding without changing its prompts, and therefore its rows, relative
// to the unbound scan the hash plan runs.
func TestBindIgnoredOutsideKeyThenAttr(t *testing.T) {
	w := parWorld()
	cfg := DefaultConfig()
	cfg.Strategy = StrategyFullTable
	cfg.Temperature = 0
	e := worldEngine(w, cfg)
	var stats []ScanStats
	scan := func(keys []string) []rel.Row {
		it, a := accountedScan(t, e.store, exec.ScanRequest{
			Table:  "country",
			Schema: e.store.tables.get("country").Schema,
			Keys:   keys,
		})
		rows, err := exec.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, a.Scans...)
		return rows
	}
	unbound := scan(nil)
	bound := scan([]string{"Nowhere"})
	if renderRows(unbound) != renderRows(bound) {
		t.Fatalf("full-table scan changed under binding: %d vs %d rows", len(unbound), len(bound))
	}
	for _, s := range stats {
		if s.KeysBound != 0 {
			t.Fatalf("binding recorded on a non-key-then-attr scan: %+v", s)
		}
	}
}

// TestBoundEmptyKeySet: a scan bound to zero keys issues zero prompts and
// still publishes its statistics.
func TestBoundEmptyKeySet(t *testing.T) {
	model := &scriptModel{respond: countryScript(10)}
	e := ktaEngine(model, nil)
	it, a := accountedScan(t, e.store, exec.ScanRequest{
		Table:  "country",
		Schema: storeTable().Schema,
		Keys:   []string{},
	})
	rows, err := exec.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows: %v", rows)
	}
	if n := model.callCount(); n != 0 {
		t.Fatalf("empty binding still issued %d calls", n)
	}
	stats := a.Scans
	if len(stats) != 1 || stats[0].Prompts != 0 || stats[0].KeysBound != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestExplainShowsBindJoin: the plan surfaces the bind decision — chosen
// strategy, bound table, and the per-strategy cost breakdown — and the
// ablation flag removes it.
func TestExplainShowsBindJoin(t *testing.T) {
	w := parWorld()
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	query := "SELECT m.title, c.capital FROM movie m JOIN country c ON m.country = c.name"

	out, err := worldEngine(w, cfg).Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[bind:", "→ country", "join=bind", "hash:", "bind:", "nested-loop:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, out)
		}
	}

	cfg.BindJoin = false
	out, err = worldEngine(w, cfg).Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "join=bind") {
		t.Fatalf("bind join chosen with BindJoin disabled:\n%s", out)
	}
	if !strings.Contains(out, "join=hash") {
		t.Fatalf("EXPLAIN missing hash decision with bind disabled:\n%s", out)
	}
}

// TestBindJoinSavesCallsProportionally pins the headline win: with a
// selective outer side, the bound country scan attributes only the outer
// side's few distinct keys instead of the whole table.
func TestBindJoinSavesCallsProportionally(t *testing.T) {
	const tableRows = 40
	model := &scriptModel{respond: countryScript(tableRows)}
	e := ktaEngine(model, func(c *Config) { c.Votes = 1 })
	db := storage.NewDB()
	tbl, err := db.CreateTable("want", rel.NewSchema(
		rel.Column{Name: "who", Type: rel.TypeText, Key: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"Country03", "Country07"} {
		if err := tbl.Insert(rel.Row{rel.Text(k)}); err != nil {
			t.Fatal(err)
		}
	}
	e.AttachLocal(db)
	res, err := e.Query("SELECT w.who, c.capital FROM want w JOIN country c ON w.who = c.name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) != 2 {
		t.Fatalf("rows: %v", res.Result.Rows)
	}
	var s ScanStats
	for _, sc := range res.Scans {
		if sc.Table == "country" {
			s = sc
		}
	}
	if s.KeysBound != 2 || s.KeysAttributed != 2 {
		t.Fatalf("bind stats: %+v", s)
	}
	// 1 KEYS round + 2 keys x 1 needed attr column (capital) x 1 vote,
	// instead of the whole 40-key table.
	attrCols := 1
	if want := 1 + 2*attrCols; res.Usage.Calls != want {
		t.Fatalf("calls: %d, want %d", res.Usage.Calls, want)
	}
}
