package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
)

// ktaEngine wires an engine over a scriptModel with the key-then-attr
// strategy at the given parallelism/batch/limit-pushdown settings.
func ktaEngine(model llm.Model, mut func(*Config)) *Engine {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0
	if mut != nil {
		mut(&cfg)
	}
	e := New(model, cfg)
	e.RegisterTable(storeTable())
	return e
}

// countryScript answers KEYS with n countries and every ATTR/ATTRS prompt
// deterministically from the entity name, so any subset of the fan-out
// yields the same cell values.
func countryScript(n int) func(req llm.CompletionRequest) string {
	return func(req llm.CompletionRequest) string {
		switch {
		case strings.Contains(req.Prompt, "TASK: KEYS"):
			var b strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "Country%02d\n", i)
			}
			return b.String()
		case strings.Contains(req.Prompt, "TASK: ATTRS"):
			// Batched: echo "<entity> | <value>" per requested entity.
			line := entityLine(req.Prompt)
			var b strings.Builder
			for _, k := range strings.Split(line, " | ") {
				if strings.Contains(req.Prompt, "COLUMN: capital") {
					fmt.Fprintf(&b, "%s | City-%s\n", k, k)
				} else {
					fmt.Fprintf(&b, "%s | %d\n", k, 10+len(k))
				}
			}
			return b.String()
		case strings.Contains(req.Prompt, "COLUMN: capital"):
			return "City-" + entityLine(req.Prompt)
		default:
			return "42"
		}
	}
}

// entityLine extracts the ENTITY/ENTITIES payload of an ATTR prompt.
func entityLine(prompt string) string {
	for _, line := range strings.Split(prompt, "\n") {
		if rest, ok := strings.CutPrefix(line, "ENTITY: "); ok {
			return rest
		}
		if rest, ok := strings.CutPrefix(line, "ENTITIES: "); ok {
			return rest
		}
	}
	return ""
}

// attrCallsFor counts model calls whose prompt attributes the given entity.
func attrCallsFor(m *scriptModel, entity string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, req := range m.calls {
		if strings.Contains(req.Prompt, "ENTITY: "+entity) ||
			(strings.Contains(req.Prompt, "ENTITIES: ") && strings.Contains(req.Prompt, entity)) {
			n++
		}
	}
	return n
}

// TestLimitPushdownPropertyByteIdentical is the determinism contract of the
// streaming scan: for every Parallelism x BatchSize x LIMIT combination the
// pushed plan returns byte-identical rows to the unpushed plan (which
// materializes the whole table), never spending more calls. A drained scan
// (no LIMIT, or one beyond the table) is the unpushed scan outright: its
// Usage, SimWall included, and its ScanStats are equal too.
func TestLimitPushdownPropertyByteIdentical(t *testing.T) {
	w := parWorld()
	query := func(k int) string {
		if k < 0 {
			return "SELECT name, capital, population FROM country"
		}
		return fmt.Sprintf("SELECT name, capital, population FROM country LIMIT %d", k)
	}
	run := func(parallelism, batch, k int, push bool) *QueryResult {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = 2
		cfg.MaxRounds = 2
		cfg.Temperature = 0.7
		cfg.Parallelism = parallelism
		cfg.BatchSize = batch
		cfg.LimitPushdown = push
		res, err := worldEngine(w, cfg).Query(query(k))
		if err != nil {
			t.Fatalf("P=%d B=%d k=%d push=%v: %v", parallelism, batch, k, push, err)
		}
		return res
	}
	for _, k := range []int{1, 3, 7, 1000, -1} {
		for _, b := range []int{1, 3, 4, 8} {
			// The reference for this batch size: serial and fully
			// materializing. (Batching itself changes which prompts are
			// issued, so references are per batch size; see Table 10 for
			// the batching contract.)
			want := renderRows(run(1, b, k, false).Result.Rows)
			for _, p := range []int{1, 4, 8} {
				unpushed := run(p, b, k, false)
				pushed := run(p, b, k, true)
				if got := renderRows(unpushed.Result.Rows); got != want {
					t.Fatalf("P=%d B=%d k=%d unpushed rows diverged from reference", p, b, k)
				}
				if got := renderRows(pushed.Result.Rows); got != want {
					t.Fatalf("P=%d B=%d k=%d pushed rows diverged:\n%s\nvs\n%s", p, b, k, got, want)
				}
				if k < 0 || k >= 1000 {
					if pushed.Usage != unpushed.Usage {
						t.Fatalf("P=%d B=%d k=%d drained scan usage diverged:\n%+v\nvs\n%+v", p, b, k, pushed.Usage, unpushed.Usage)
					}
					if !scanStatsEqual(pushed.Scans, unpushed.Scans) {
						t.Fatalf("P=%d B=%d k=%d drained scan stats diverged:\n%+v\nvs\n%+v", p, b, k, pushed.Scans, unpushed.Scans)
					}
				}
				if pushed.Usage.Calls > unpushed.Usage.Calls {
					t.Fatalf("P=%d B=%d k=%d pushed spent more calls (%d) than unpushed (%d)",
						p, b, k, pushed.Usage.Calls, unpushed.Usage.Calls)
				}
				if k == 1 && pushed.Usage.Calls >= unpushed.Usage.Calls {
					t.Fatalf("P=%d B=%d LIMIT 1 did not save calls: %d vs %d",
						p, b, pushed.Usage.Calls, unpushed.Usage.Calls)
				}
			}
		}
	}
}

// TestLimitBoundsAttrCalls pins the acceptance bound: LIMIT k attributes at
// most k plus one prefetch window of keys, each costing attrCols x votes
// prompts, instead of the whole table.
func TestLimitBoundsAttrCalls(t *testing.T) {
	const tableRows = 40
	model := &scriptModel{respond: countryScript(tableRows)}
	votes := 3
	parallelism := 8
	e := ktaEngine(model, func(c *Config) {
		c.Votes = votes
		c.Parallelism = parallelism
	})
	res, err := e.Query("SELECT name, capital, population FROM country LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) != 4 {
		t.Fatalf("rows: %d", len(res.Result.Rows))
	}
	attrCols := 2
	window := 2 // PrefetchWindow(8, 2 cols, 3 votes, batch 1, limit 4)
	maxAttr := (4 + window) * attrCols * votes
	attr := model.callCount() - 1 // one KEYS round at temperature 0
	if attr > maxAttr {
		t.Fatalf("LIMIT 4 issued %d ATTR calls, want <= %d", attr, maxAttr)
	}
	if full := tableRows * attrCols * votes; attr >= full {
		t.Fatalf("limit did not reduce the fan-out: %d vs full %d", attr, full)
	}
	if s := res.Scans[0]; s.KeysAttributed >= tableRows || s.KeysAttributed < 4 {
		t.Fatalf("keys attributed: %+v", s)
	}
}

// TestLimitAboveUnpushableOperatorStreams: a LIMIT the planner cannot push
// as a hint — above a hash join or a DISTINCT — still stops pulling early,
// so the streamed key-then-attr scan below it must attribute in prefetch
// windows (at most limit plus one window of keys), not in one fan-out over
// the whole table.
func TestLimitAboveUnpushableOperatorStreams(t *testing.T) {
	const tableRows, limit = 40, 3
	// One attribute column at 3 votes: 3 tasks per key, so
	// PrefetchWindow(8, 1, 3, 1, 0) is 3 keys.
	const window = 3
	for _, tc := range []struct{ name, query string }{
		// Without binding the build side (b, key only) is drained and the
		// probe side (a) streams through the join.
		{"hash join", "SELECT a.name, a.capital FROM country a JOIN country b ON a.name = b.name LIMIT 3"},
		{"distinct", "SELECT DISTINCT name, capital FROM country LIMIT 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := &scriptModel{respond: countryScript(tableRows)}
			e := ktaEngine(model, func(c *Config) {
				c.Votes = 3
				c.Parallelism = 8
				c.BindJoin = false
			})
			res, err := e.Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Result.Rows) != limit {
				t.Fatalf("rows: %d", len(res.Result.Rows))
			}
			streamed := 0
			for _, s := range res.Scans {
				if s.Prompts == s.Rounds {
					continue // the key-only build side: no attribute prompts
				}
				streamed++
				if s.KeysAttributed > limit+window {
					t.Fatalf("the scan under LIMIT %d attributed %d of %d keys, want at most %d: %+v",
						limit, s.KeysAttributed, tableRows, limit+window, s)
				}
			}
			if streamed != 1 {
				t.Fatalf("want one scan with attribute prompts: %+v", res.Scans)
			}
		})
	}
}

// TestKeyGateBlocksAttrSpend is the satellite bugfix: keys that a key-only
// pushed conjunct rejects must never generate attribute prompts, and must
// be counted in KeysGated.
func TestKeyGateBlocksAttrSpend(t *testing.T) {
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if strings.Contains(req.Prompt, "TASK: KEYS") {
			// The model ignores the pushed filter: an untrusted source.
			return "France\nJapan\nGermany"
		}
		if strings.Contains(req.Prompt, "COLUMN: capital") {
			return "City-" + entityLine(req.Prompt)
		}
		return "42"
	}}
	e := ktaEngine(model, nil)
	res, err := e.Query("SELECT name, capital FROM country WHERE name = 'France'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) != 1 || res.Result.Rows[0][0].AsText() != "France" {
		t.Fatalf("rows: %v", res.Result.Rows)
	}
	if s := res.Scans[0]; s.KeysGated != 2 || s.KeysAttributed != 1 {
		t.Fatalf("gate stats: %+v", s)
	}
	for _, rejected := range []string{"Japan", "Germany"} {
		if n := attrCallsFor(model, rejected); n != 0 {
			t.Fatalf("gated key %s still got %d attribute prompts", rejected, n)
		}
	}
	if n := attrCallsFor(model, "France"); n != 1 { // one needed column
		t.Fatalf("France attribute prompts: %d", n)
	}
}

// TestUntrustedSourceViolations drives the scan with completions that
// violate the pushdown and limit hints in every direction; the executor's
// re-filter and the limit node must still produce exactly the unpushed
// plan's rows.
func TestUntrustedSourceViolations(t *testing.T) {
	t.Run("filtered-out keys returned", func(t *testing.T) {
		model := &scriptModel{respond: func(req llm.CompletionRequest) string {
			if strings.Contains(req.Prompt, "TASK: KEYS") {
				return "Nope\nFrance\nAlsoNope"
			}
			return "7"
		}}
		e := ktaEngine(model, nil)
		res, err := e.Query("SELECT name, population FROM country WHERE name = 'France' LIMIT 5")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Result.Rows) != 1 || res.Result.Rows[0][0].AsText() != "France" {
			t.Fatalf("rows: %v", res.Result.Rows)
		}
	})

	t.Run("extra rows beyond the limit", func(t *testing.T) {
		// The scan over-fetches (window rounding) and the source returns
		// plenty; the executor's LimitNode truncates to exactly k.
		model := &scriptModel{respond: countryScript(30)}
		e := ktaEngine(model, func(c *Config) { c.Parallelism = 16 })
		res, err := e.Query("SELECT name, capital FROM country LIMIT 3")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Result.Rows) != 3 {
			t.Fatalf("rows: %d", len(res.Result.Rows))
		}
	})

	t.Run("short response under-fills the limit", func(t *testing.T) {
		// Fewer keys than LIMIT k: the scan must emit everything it has —
		// under-fetch is never allowed — and the query returns them all.
		model := &scriptModel{respond: countryScript(2)}
		e := ktaEngine(model, nil)
		res, err := e.Query("SELECT name, capital FROM country LIMIT 10")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Result.Rows) != 2 {
			t.Fatalf("rows: %d", len(res.Result.Rows))
		}
	})

	t.Run("filter violations plus limit", func(t *testing.T) {
		// Keys 0..29, but only every third key has population > 20 per the
		// attribute answers; the pushed limit must not cause under-fetch
		// when the re-filter rejects most rows.
		model := &scriptModel{respond: func(req llm.CompletionRequest) string {
			switch {
			case strings.Contains(req.Prompt, "TASK: KEYS"):
				var b strings.Builder
				for i := 0; i < 30; i++ {
					fmt.Fprintf(&b, "K%02d\n", i)
				}
				return b.String()
			case strings.Contains(req.Prompt, "COLUMN: capital"):
				return "City-" + entityLine(req.Prompt)
			default:
				// population: 30 for K00, K03, K06...; 5 otherwise.
				key := entityLine(req.Prompt)
				var idx int
				fmt.Sscanf(key, "K%d", &idx)
				if idx%3 == 0 {
					return "30"
				}
				return "5"
			}
		}}
		run := func(push bool) *QueryResult {
			model.mu.Lock()
			model.calls = nil
			model.mu.Unlock()
			e := ktaEngine(model, func(c *Config) { c.LimitPushdown = push })
			res, err := e.Query("SELECT name, population FROM country WHERE population > 20 LIMIT 4")
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		pushed, unpushed := run(true), run(false)
		if renderRows(pushed.Result.Rows) != renderRows(unpushed.Result.Rows) {
			t.Fatalf("pushed rows diverged:\n%s\nvs\n%s",
				renderRows(pushed.Result.Rows), renderRows(unpushed.Result.Rows))
		}
		if len(pushed.Result.Rows) != 4 {
			t.Fatalf("rows: %d", len(pushed.Result.Rows))
		}
	})
}

// TestScanAbandonedEarlyFlushesStats: a stream closed before exhaustion
// (how a LIMIT abandons a scan) must still publish its statistics, counting
// only the consumed rows.
func TestScanAbandonedEarlyFlushesStats(t *testing.T) {
	model := &scriptModel{respond: countryScript(10)}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	it, a := accountedScan(t, s, exec.ScanRequest{Table: "country", Schema: storeTable().Schema, Limit: 1})
	if _, ok, err := it.Next(); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	stats := a.Scans
	if len(stats) != 1 {
		t.Fatalf("stats not flushed on early close: %d entries", len(stats))
	}
	if stats[0].RowsEmitted != 1 {
		t.Fatalf("rows emitted: %+v", stats[0])
	}
	if stats[0].KeysAttributed >= 10 {
		t.Fatalf("early close still attributed everything: %+v", stats[0])
	}
	// Closing again is a no-op; no duplicate stats entry.
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(a.Scans) != 1 {
		t.Fatalf("double close duplicated stats: %d entries", len(a.Scans))
	}
}

// keysScript answers KEYS prompts with a fixed list of keys and every
// attribute prompt with one fixed value, allocating nothing itself: an
// allocation count over it sees only the scan.
type keysScript struct{ keys string }

func (keysScript) Name() string { return "keys" }

func (m keysScript) Complete(req llm.CompletionRequest) (llm.CompletionResponse, error) {
	if strings.Contains(req.Prompt, "TASK: KEYS") {
		return llm.CompletionResponse{Text: m.keys}, nil
	}
	return llm.CompletionResponse{Text: "42"}, nil
}

// TestDrainedKeyThenAttrScanAllocs guards a drained key-then-attr scan of
// 40 keys at the fanout_scan shape (3 votes, 4 workers, batch 1): the KEYS
// completion parses to the keys alone and the attribute phase is one
// fan-out: 336 allocations on Go 1.24, 342 under -race. Fanning the drained
// scan out in prefetch windows made it 753, and parsing the KEYS lines to
// full table rows on top of that 798.
func TestDrainedKeyThenAttrScanAllocs(t *testing.T) {
	const maxAllocs = 400
	var keys strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&keys, "Country%02d\n", i)
	}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0
	cfg.Votes = 3
	cfg.Parallelism = 4
	cfg.BatchSize = 1
	s := NewLLMStore(keysScript{keys.String()}, cfg)
	s.Register(storeTable())
	n := testing.AllocsPerRun(50, func() {
		it, err := s.Scan(exec.ScanRequest{Table: "country", Schema: storeTable().Schema})
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := exec.Drain(it); err != nil || len(rows) != 40 {
			t.Fatalf("%d rows, %v", len(rows), err)
		}
	})
	if n > maxAllocs {
		t.Fatalf("drained key-then-attr scan: %v allocs, want at most %d", n, maxAllocs)
	}
}

// TestLimitZeroMakesNoModelCalls: LIMIT 0 reads no row, so whatever the
// query — a plain scan, ORDER BY, a join, an aggregate — it asks the model
// nothing and still answers with the query's output columns.
func TestLimitZeroMakesNoModelCalls(t *testing.T) {
	w := parWorld()
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	for _, q := range []string{
		"SELECT name FROM country",
		"SELECT name FROM country ORDER BY name",
		"SELECT l.name, c.capital AS city FROM laureate AS l JOIN country AS c ON l.country = c.name",
		"SELECT continent, COUNT(*) AS n FROM country GROUP BY continent",
		"SELECT COUNT(*) AS n FROM country",
	} {
		full, err := worldEngine(w, cfg).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []string{" LIMIT 0", " LIMIT 0 OFFSET 2"} {
			res, err := worldEngine(w, cfg).Query(q + limit)
			if err != nil {
				t.Fatal(err)
			}
			if res.Usage.Calls != 0 || len(res.Scans) != 0 || len(res.Result.Rows) != 0 {
				t.Errorf("%s%s: %d calls, %d scans, %d rows; want none", q, limit, res.Usage.Calls, len(res.Scans), len(res.Result.Rows))
			}
			if got, want := res.Result.Schema.Names(), full.Result.Schema.Names(); !slices.Equal(got, want) {
				t.Errorf("%s%s: columns %v, want %v", q, limit, got, want)
			}
		}
	}
}
