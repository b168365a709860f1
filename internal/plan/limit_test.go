package plan

import (
	"strings"
	"testing"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

func limitTestCatalog() MapCatalog {
	return MapCatalog{
		"country": rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true},
			rel.Column{Name: "capital", Type: rel.TypeText},
			rel.Column{Name: "population", Type: rel.TypeInt},
		),
	}
}

// scanOf digs the single ScanNode out of a plan.
func scanOf(t *testing.T, n Node) *ScanNode {
	t.Helper()
	var found *ScanNode
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*ScanNode); ok {
			found = s
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	if found == nil {
		t.Fatalf("no scan in plan:\n%s", Explain(n))
	}
	return found
}

func planQuery(t *testing.T, query string) Node {
	t.Helper()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Plan(sel, limitTestCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func TestPushLimitsReachesScan(t *testing.T) {
	cases := []struct {
		query string
		want  int64 // expected ScanNode.Limit (0 = no hint)
	}{
		// Plain limit, through the projection.
		{"SELECT name FROM country LIMIT 3", 3},
		// Offset rows are consumed too.
		{"SELECT name FROM country LIMIT 3 OFFSET 2", 5},
		// The scan's own pushed filter does not block the hint: the limit
		// counts rows that survive the re-applied filter.
		{"SELECT name FROM country WHERE population > 5 LIMIT 4", 4},
		// Blocking or row-count-changing operators stop the hint.
		{"SELECT name FROM country ORDER BY name LIMIT 3", 0},
		{"SELECT DISTINCT capital FROM country LIMIT 3", 0},
		{"SELECT COUNT(*) FROM country LIMIT 3", 0},
		// No limit at all.
		{"SELECT name FROM country", 0},
	}
	for _, c := range cases {
		scan := scanOf(t, planQuery(t, c.query))
		if scan.Limit != c.want {
			t.Errorf("%s: scan limit %d, want %d", c.query, scan.Limit, c.want)
		}
	}
}

// TestLimitZeroFoldsToEmptyValues: LIMIT 0, at any offset and whatever sits
// below it, plans as an empty Values node of the query's output schema, so
// no scan, sort or join under it runs.
func TestLimitZeroFoldsToEmptyValues(t *testing.T) {
	cat := limitTestCatalog()
	cat["city"] = rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true},
		rel.Column{Name: "country", Type: rel.TypeText},
	)
	for _, c := range []struct{ query, cols string }{
		{"SELECT name FROM country LIMIT 0", "name"},
		{"SELECT name FROM country LIMIT 0 OFFSET 3", "name"},
		{"SELECT name FROM country ORDER BY name LIMIT 0", "name"},
		{"SELECT name FROM country ORDER BY population DESC LIMIT 0", "name"},
		{"SELECT c.name, t.name AS city FROM country AS c JOIN city AS t ON t.country = c.name LIMIT 0", "name city"},
		{"SELECT capital, COUNT(*) AS n FROM country GROUP BY capital LIMIT 0", "capital n"},
		{"SELECT COUNT(*) AS n FROM country LIMIT 0 OFFSET 1", "n"},
	} {
		sel, err := sql.ParseSelect(c.query)
		if err != nil {
			t.Fatal(err)
		}
		node, err := Plan(sel, cat)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := node.(*ValuesNode)
		if !ok || len(v.Rows) != 0 {
			t.Errorf("%s: plan is not an empty Values node:\n%s", c.query, Explain(node))
			continue
		}
		if got := strings.Join(v.Schema().Names(), " "); got != c.cols {
			t.Errorf("%s: output columns %q, want %q", c.query, got, c.cols)
		}
	}
}

func TestPushLimitsDisabledByOptions(t *testing.T) {
	sel, err := sql.ParseSelect("SELECT name FROM country LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	node, err := PlanOpts(sel, limitTestCatalog(), Options{LimitPushdown: false})
	if err != nil {
		t.Fatal(err)
	}
	if scan := scanOf(t, node); scan.Limit != 0 {
		t.Fatalf("limit pushed despite disabled option: %d", scan.Limit)
	}
}

func TestExplainShowsLimitHint(t *testing.T) {
	out := Explain(planQuery(t, "SELECT name FROM country LIMIT 7"))
	if !strings.Contains(out, "[limit: 7]") {
		t.Fatalf("EXPLAIN missing limit annotation:\n%s", out)
	}
}

func TestPrefetchWindow(t *testing.T) {
	cases := []struct {
		par, cols, votes, batch int
		limit                   int64
		want                    int
	}{
		// Lane fill: ceil(parallelism / (cols*votes)) keys.
		{8, 2, 3, 1, 0, 2},
		{8, 1, 1, 1, 0, 8},
		{1, 2, 3, 1, 0, 1},
		// The limit caps the window.
		{8, 1, 1, 1, 3, 3},
		{8, 1, 1, 1, 1, 1},
		// Batch alignment rounds up, keeping prompt groups identical to
		// the unwindowed scan.
		{8, 1, 1, 4, 3, 4},
		{8, 2, 3, 4, 0, 4},
		// Degenerate inputs clamp.
		{0, 0, 0, 0, 0, 1},
	}
	for _, c := range cases {
		got := PrefetchWindow(c.par, c.cols, c.votes, c.batch, c.limit)
		if got != c.want {
			t.Errorf("PrefetchWindow(%d,%d,%d,%d,%d) = %d, want %d",
				c.par, c.cols, c.votes, c.batch, c.limit, got, c.want)
		}
	}
	// A window is always a positive multiple of the batch size.
	for par := 1; par <= 16; par *= 2 {
		for batch := 1; batch <= 8; batch++ {
			for _, limit := range []int64{0, 1, 5, 100} {
				w := PrefetchWindow(par, 2, 3, batch, limit)
				if w < 1 || w%batch != 0 {
					t.Fatalf("window %d not a positive multiple of batch %d", w, batch)
				}
			}
		}
	}
}

func TestKeyThenAttrLimitAwarePricing(t *testing.T) {
	m := testCostModel()
	unlimited := m.KeyThenAttr()
	m.Limit = 2
	limited := m.KeyThenAttr()
	if limited.Prompts >= unlimited.Prompts {
		t.Fatalf("limit did not shrink prompts: %d vs %d", limited.Prompts, unlimited.Prompts)
	}
	if limited.Dollars >= unlimited.Dollars {
		t.Fatalf("limit did not shrink dollars: %g vs %g", limited.Dollars, unlimited.Dollars)
	}
	// The decision carries the limit and the expected attribute fan-out.
	d := m.Decide()
	if d.Limit != 2 {
		t.Fatalf("decision limit: %d", d.Limit)
	}
	if d.EstKeysAttributed <= 0 || d.EstKeysAttributed >= m.Rows {
		t.Fatalf("est keys attributed: %d (rows %d)", d.EstKeysAttributed, m.Rows)
	}
	if s := d.String(); !strings.Contains(s, "limit=2") || !strings.Contains(s, "est-attr=") {
		t.Fatalf("decision string missing limit annotations: %s", s)
	}
}

func TestSelectivityScalesEstimates(t *testing.T) {
	m := testCostModel()
	full := m.KeyThenAttr()
	m.Selectivity = 0.1
	filtered := m.KeyThenAttr()
	if filtered.Tokens() >= full.Tokens() {
		t.Fatalf("selectivity did not shrink key-then-attr tokens: %d vs %d", filtered.Tokens(), full.Tokens())
	}
	if m.FullTable().Tokens() >= testCostModel().FullTable().Tokens() {
		t.Fatal("selectivity did not shrink full-table tokens")
	}
	if m.Paged().Tokens() >= testCostModel().Paged().Tokens() {
		t.Fatal("selectivity did not shrink paged tokens")
	}
}

// sortOf digs the single SortNode out of a plan.
func sortOf(t *testing.T, n Node) *SortNode {
	t.Helper()
	for x := n; len(x.Children()) > 0; x = x.Children()[0] {
		if s, ok := x.(*SortNode); ok {
			return s
		}
	}
	t.Fatalf("no sort in plan:\n%s", Explain(n))
	return nil
}

// TestSortSinksBelowPassThroughProjection: a Sort moves below a projection
// of column references and literals (a literal key is dropped), and the
// LIMIT — plus its OFFSET — then bounds it exactly, with or without the
// advisory scan hint. A projection that computes stays above the Sort. An
// ORDER BY column outside the select list costs no second projection when
// the Sort sinks: the one projection left builds only the output columns.
func TestSortSinksBelowPassThroughProjection(t *testing.T) {
	cases := []struct {
		query string
		opts  Options
		shape string // node types from the root down
		sort  string // the Sort's EXPLAIN line
	}{
		{"SELECT name FROM country ORDER BY population DESC LIMIT 3 OFFSET 2", DefaultOptions(),
			"Limit Project Sort Scan", "Sort #2 desc top 5"},
		{"SELECT name, population FROM country ORDER BY population DESC, name LIMIT 3", Options{},
			"Limit Project Sort Scan", "Sort #2 desc, #0 asc top 3"},
		{"SELECT name, 1 AS one FROM country ORDER BY one, capital LIMIT 2", DefaultOptions(),
			"Limit Project Sort Scan", "Sort #1 asc top 2"},
		{"SELECT name FROM country ORDER BY population * 2 LIMIT 2", DefaultOptions(),
			"Limit Project Sort Project Scan", "Sort #1 asc top 2"},
		{"SELECT name, population + 1 AS p FROM country ORDER BY p LIMIT 2", DefaultOptions(),
			"Limit Sort Project Scan", "Sort #1 asc top 2"},
		{"SELECT name FROM country ORDER BY name", DefaultOptions(),
			"Project Sort Scan", "Sort #0 asc"},
		{"SELECT DISTINCT name FROM country ORDER BY name LIMIT 2", DefaultOptions(),
			"Limit Sort Distinct Project Scan", "Sort #0 asc top 2"},
	}
	for _, c := range cases {
		sel, err := sql.ParseSelect(c.query)
		if err != nil {
			t.Fatal(err)
		}
		node, err := PlanOpts(sel, limitTestCatalog(), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		var shape []string
		for x := node; x != nil; {
			shape = append(shape, strings.TrimSuffix(strings.TrimPrefix(nodeTypeName(x), "*plan."), "Node"))
			if len(x.Children()) == 0 {
				break
			}
			x = x.Children()[0]
		}
		var line strings.Builder
		explainNode(&line, sortOf(t, node))
		if got := strings.Join(shape, " "); got != c.shape || line.String() != c.sort {
			t.Errorf("%s:\nshape %s, sort %q; want %s, %q\n%s", c.query, got, line.String(), c.shape, c.sort, Explain(node))
		}
		if scan := scanOf(t, node); scan.Limit != 0 {
			t.Errorf("%s: a sorted scan got a limit hint %d", c.query, scan.Limit)
		}
		if s := sortOf(t, node); s.Child == scanOf(t, node) {
			for _, k := range s.Keys {
				if scan := scanOf(t, node); scan.Needed != nil && !scan.Needed[k.Col] {
					t.Errorf("%s: the scan under the Sort drops its key column %d\n%s", c.query, k.Col, Explain(node))
				}
			}
		}
	}
}

// TestBindKeepsSortBound: binding a prepared ORDER BY … LIMIT statement
// copies the Sort, bound included, and leaves the cached plan as it was.
func TestBindKeepsSortBound(t *testing.T) {
	prepared := planQuery(t, "SELECT name FROM country WHERE population > $1 ORDER BY population DESC LIMIT 4")
	for _, arg := range []int64{10, 20} {
		bound, err := Bind(prepared, sql.NewPositional([]rel.Value{rel.Int(arg)}))
		if err != nil {
			t.Fatal(err)
		}
		s := sortOf(t, bound)
		if s == sortOf(t, prepared) {
			t.Fatal("Bind shared the Sort above a bound scan")
		}
		if s.Top != 4 || sortOf(t, prepared).Top != 4 {
			t.Fatalf("after Bind($1=%d): bound sort top %d, prepared top %d, want 4", arg, s.Top, sortOf(t, prepared).Top)
		}
	}
}
