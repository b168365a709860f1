package plan

import (
	"strings"
	"testing"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

func testCatalog() MapCatalog {
	return MapCatalog{
		"country": rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true},
			rel.Column{Name: "capital", Type: rel.TypeText},
			rel.Column{Name: "continent", Type: rel.TypeText},
			rel.Column{Name: "population", Type: rel.TypeInt},
		),
		"movie": rel.NewSchema(
			rel.Column{Name: "title", Type: rel.TypeText, Key: true},
			rel.Column{Name: "director", Type: rel.TypeText},
			rel.Column{Name: "year", Type: rel.TypeInt},
			rel.Column{Name: "country", Type: rel.TypeText},
		),
	}
}

func mustPlan(t *testing.T, src string) Node {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n, err := Plan(sel, testCatalog())
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	return n
}

func planErr(t *testing.T, src string) error {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Plan(sel, testCatalog())
	return err
}

func TestPlanSimpleSelect(t *testing.T) {
	n := mustPlan(t, "SELECT name, population FROM country WHERE population > 50")
	proj, ok := n.(*ProjectNode)
	if !ok {
		t.Fatalf("root: %T", n)
	}
	if proj.Out.Len() != 2 || proj.Out.Col(0).Name != "name" {
		t.Fatalf("out schema: %v", proj.Out)
	}
	// Filter should have been pushed into the scan.
	scan, ok := proj.Child.(*ScanNode)
	if !ok {
		t.Fatalf("child: %T (filter not pushed)", proj.Child)
	}
	if scan.Filter == nil {
		t.Fatal("scan filter missing")
	}
}

func TestPlanProjectionPruning(t *testing.T) {
	n := mustPlan(t, "SELECT name FROM country WHERE population > 50")
	scan := findScan(n, "country")
	if scan == nil {
		t.Fatal("scan not found")
	}
	if scan.Needed == nil {
		t.Fatal("needed mask not set")
	}
	// name (projected), population (filter), plus key columns always kept.
	want := map[string]bool{"name": true, "population": true}
	for i, c := range scan.TableSchema.Columns {
		if scan.Needed[i] != (want[c.Name] || c.Key) {
			t.Errorf("needed[%s] = %v", c.Name, scan.Needed[i])
		}
	}
}

func TestPlanSelectStarKeepsAll(t *testing.T) {
	n := mustPlan(t, "SELECT * FROM country")
	scan := findScan(n, "country")
	if scan == nil {
		t.Fatal("scan not found")
	}
	for i := range scan.TableSchema.Columns {
		if scan.Needed != nil && !scan.Needed[i] {
			t.Fatalf("star query pruned column %d", i)
		}
	}
	proj := n.(*ProjectNode)
	if proj.Out.Len() != 4 {
		t.Fatalf("star expansion: %v", proj.Out)
	}
}

func TestPlanJoinKeyExtraction(t *testing.T) {
	n := mustPlan(t, `SELECT c.name, m.title FROM country c JOIN movie m ON m.country = c.name WHERE m.year > 2000`)
	join := findJoin(n)
	if join == nil {
		t.Fatal("join not found")
	}
	if join.Kind != KindInner || len(join.LeftKey) != 1 || len(join.RightKey) != 1 {
		t.Fatalf("join keys: %+v", join)
	}
	// Year filter pushed to the movie side scan.
	scan := findScan(n, "movie")
	if scan == nil || scan.Filter == nil {
		t.Fatal("movie filter not pushed")
	}
	cscan := findScan(n, "country")
	if cscan == nil || cscan.Filter != nil {
		t.Fatal("country must have no filter")
	}
}

func TestPlanCommaJoinBecomesHashJoin(t *testing.T) {
	n := mustPlan(t, `SELECT c.name FROM country c, movie m WHERE m.country = c.name AND m.year = 1999`)
	join := findJoin(n)
	if join == nil {
		t.Fatal("join not found")
	}
	if join.Kind != KindInner {
		t.Fatalf("cross join not upgraded: %v", join.Kind)
	}
	if len(join.LeftKey) != 1 {
		t.Fatalf("no hash keys: %+v", join)
	}
}

func TestPlanLeftJoinPushdownSafety(t *testing.T) {
	// Right-side predicates must NOT be pushed below a left join from WHERE
	// (they stay in a filter above it).
	sel, err := sql.ParseSelect(`SELECT c.name FROM country c LEFT JOIN movie m ON m.country = c.name WHERE m.year > 2000`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Plan(sel, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if scan := findScan(n, "movie"); scan != nil && scan.Filter != nil {
		t.Fatal("right-side predicate pushed below left join")
	}
	// A filter node must remain above the join.
	if !hasNodeType(n, "*plan.FilterNode") {
		t.Fatalf("missing filter above left join:\n%s", Explain(n))
	}
}

func TestPlanAggregate(t *testing.T) {
	n := mustPlan(t, `
		SELECT continent, COUNT(*) AS n, AVG(population) AS avgpop
		FROM country
		GROUP BY continent
		HAVING COUNT(*) > 2
		ORDER BY n DESC`)
	agg := findAgg(n)
	if agg == nil {
		t.Fatal("aggregate not found")
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Fatalf("agg shape: groups=%d aggs=%d", len(agg.GroupBy), len(agg.Aggs))
	}
	if agg.Aggs[0].Func != "COUNT" || agg.Aggs[0].Type != rel.TypeInt {
		t.Fatalf("agg0: %+v", agg.Aggs[0])
	}
	if agg.Aggs[1].Func != "AVG" || agg.Aggs[1].Type != rel.TypeFloat {
		t.Fatalf("agg1: %+v", agg.Aggs[1])
	}
	// COUNT(*) in HAVING must reuse the same agg column (dedup).
	if len(agg.Aggs) != 2 {
		t.Fatal("aggregate dedup failed")
	}
}

func TestPlanAggregateValidation(t *testing.T) {
	if err := planErr(t, "SELECT name, COUNT(*) FROM country"); err == nil {
		t.Fatal("ungrouped column must be rejected")
	}
	if err := planErr(t, "SELECT * FROM country GROUP BY continent"); err == nil {
		t.Fatal("star with group by must be rejected")
	}
	if err := planErr(t, "SELECT SUM(*) FROM country"); err == nil {
		t.Fatal("SUM(*) must be rejected")
	}
}

func TestPlanGroupByAlias(t *testing.T) {
	n := mustPlan(t, "SELECT UPPER(continent) AS cont, COUNT(*) FROM country GROUP BY cont")
	agg := findAgg(n)
	if agg == nil || len(agg.GroupBy) != 1 {
		t.Fatal("group by alias failed")
	}
	if _, ok := agg.GroupBy[0].(*sql.FuncCall); !ok {
		t.Fatalf("alias not expanded: %T", agg.GroupBy[0])
	}
}

func TestPlanInSubqueryBecomesSemiJoin(t *testing.T) {
	n := mustPlan(t, `SELECT title FROM movie WHERE country IN (SELECT name FROM country WHERE continent = 'Europe')`)
	join := findJoin(n)
	if join == nil {
		t.Fatal("semi join not found")
	}
	if join.Kind != KindSemi {
		t.Fatalf("kind: %v", join.Kind)
	}
	n = mustPlan(t, `SELECT title FROM movie WHERE country NOT IN (SELECT name FROM country)`)
	join = findJoin(n)
	if join == nil || join.Kind != KindAnti {
		t.Fatalf("anti join: %+v", join)
	}
}

func TestPlanInSubqueryArityCheck(t *testing.T) {
	if err := planErr(t, "SELECT * FROM movie WHERE country IN (SELECT name, capital FROM country)"); err == nil {
		t.Fatal("multi-column IN subquery must be rejected")
	}
}

func TestPlanDerivedTable(t *testing.T) {
	n := mustPlan(t, `SELECT s.cnt FROM (SELECT COUNT(*) AS cnt FROM country) AS s`)
	proj, ok := n.(*ProjectNode)
	if !ok {
		t.Fatalf("root: %T", n)
	}
	if proj.Out.Col(0).Name != "cnt" {
		t.Fatalf("derived out: %v", proj.Out)
	}
}

// TestPlanOrderByVariants: an ordinal, an alias and an expression outside
// the select list each resolve to the population column. The projections
// above the scan are column references, so the Sort sits below them and its
// key indexes the scan's columns.
func TestPlanOrderByVariants(t *testing.T) {
	keyName := func(s *SortNode) string { return s.Child.Schema().Col(s.Keys[0].Col).Name }
	// Ordinal.
	n := mustPlan(t, "SELECT name, population FROM country ORDER BY 2 DESC")
	sort := findSort(n)
	if sort == nil || keyName(sort) != "population" || !sort.Keys[0].Desc {
		t.Fatalf("ordinal sort: %+v", sort)
	}
	// Alias.
	n = mustPlan(t, "SELECT population AS pop FROM country ORDER BY pop")
	sort = findSort(n)
	if sort == nil || keyName(sort) != "population" {
		t.Fatalf("alias sort: %+v", sort)
	}
	// Hidden expression (not in select list).
	n = mustPlan(t, "SELECT name FROM country ORDER BY population")
	sort = findSort(n)
	if sort == nil || keyName(sort) != "population" {
		t.Fatalf("hidden sort: %+v", sort)
	}
	// Final schema must not include the hidden column.
	if n.Schema().Len() != 1 {
		t.Fatalf("hidden column leaked: %v", n.Schema())
	}
	// Out of range ordinal.
	if err := planErr(t, "SELECT name FROM country ORDER BY 5"); err == nil {
		t.Fatal("bad ordinal must error")
	}
}

func TestPlanLimitOffset(t *testing.T) {
	n := mustPlan(t, "SELECT name FROM country LIMIT 3 OFFSET 1")
	lim, ok := n.(*LimitNode)
	if !ok || lim.Limit != 3 || lim.Offset != 1 {
		t.Fatalf("limit: %#v", n)
	}
	if err := planErr(t, "SELECT name FROM country LIMIT name"); err == nil {
		t.Fatal("non-constant limit must error")
	}
}

func TestPlanConstantSelect(t *testing.T) {
	n := mustPlan(t, "SELECT 1 + 2 AS three, 'x' AS s")
	v, ok := n.(*ValuesNode)
	if !ok {
		t.Fatalf("root: %T", n)
	}
	if len(v.Rows) != 1 || v.Rows[0][0].AsInt() != 3 {
		t.Fatalf("values: %v", v.Rows)
	}
	if v.Out.Col(0).Name != "three" {
		t.Fatalf("names: %v", v.Out)
	}
}

func TestPlanConstantFoldFilter(t *testing.T) {
	// WHERE TRUE is removed entirely.
	n := mustPlan(t, "SELECT name FROM country WHERE 1 = 1")
	if hasNodeType(n, "*plan.FilterNode") {
		t.Fatalf("tautology not folded:\n%s", Explain(n))
	}
	scan := findScan(n, "country")
	if scan.Filter != nil {
		t.Fatal("tautology pushed into scan")
	}
	// WHERE FALSE becomes an empty Values node.
	n = mustPlan(t, "SELECT name FROM country WHERE 1 = 2")
	if !hasNodeType(n, "*plan.ValuesNode") {
		t.Fatalf("contradiction not folded:\n%s", Explain(n))
	}
}

func TestPlanDistinct(t *testing.T) {
	n := mustPlan(t, "SELECT DISTINCT continent FROM country")
	if !hasNodeType(n, "*plan.DistinctNode") {
		t.Fatal("distinct node missing")
	}
	if err := planErr(t, "SELECT DISTINCT name FROM country ORDER BY population"); err == nil {
		t.Fatal("DISTINCT + hidden ORDER BY column must error")
	}
}

func TestPlanUnknownTableAndColumn(t *testing.T) {
	if err := planErr(t, "SELECT * FROM nosuch"); err == nil {
		t.Fatal("unknown table")
	}
	if err := planErr(t, "SELECT nosuchcol FROM country"); err == nil {
		t.Fatal("unknown column")
	}
	if err := planErr(t, "SELECT x.name FROM country"); err == nil {
		t.Fatal("unknown qualifier")
	}
}

func TestExplainOutput(t *testing.T) {
	n := mustPlan(t, `SELECT c.continent, COUNT(*) FROM country c JOIN movie m ON m.country = c.name GROUP BY c.continent ORDER BY 2 DESC LIMIT 3`)
	out := Explain(n)
	for _, want := range []string{"Limit", "Sort", "Project", "Aggregate", "Join", "Scan country", "Scan movie", "hash:"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestMultiCatalog(t *testing.T) {
	local := MapCatalog{"a": rel.NewSchema(rel.Column{Name: "x", Type: rel.TypeInt})}
	remote := MapCatalog{"b": rel.NewSchema(rel.Column{Name: "y", Type: rel.TypeInt})}
	mc := MultiCatalog{local, remote}
	if _, err := mc.TableSchema("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.TableSchema("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.TableSchema("c"); err == nil {
		t.Fatal("missing table must error")
	}
}

// ---- helpers ----

func findScan(n Node, table string) *ScanNode {
	var found *ScanNode
	walk(n, func(x Node) {
		if s, ok := x.(*ScanNode); ok && s.Table == table {
			found = s
		}
	})
	return found
}

func findJoin(n Node) *JoinNode {
	var found *JoinNode
	walk(n, func(x Node) {
		if j, ok := x.(*JoinNode); ok && found == nil {
			found = j
		}
	})
	return found
}

func findAgg(n Node) *AggregateNode {
	var found *AggregateNode
	walk(n, func(x Node) {
		if a, ok := x.(*AggregateNode); ok {
			found = a
		}
	})
	return found
}

func findSort(n Node) *SortNode {
	var found *SortNode
	walk(n, func(x Node) {
		if s, ok := x.(*SortNode); ok {
			found = s
		}
	})
	return found
}

func hasNodeType(n Node, typeName string) bool {
	found := false
	walk(n, func(x Node) {
		if nodeTypeName(x) == typeName {
			found = true
		}
	})
	return found
}

func nodeTypeName(n Node) string {
	switch n.(type) {
	case *ScanNode:
		return "*plan.ScanNode"
	case *FilterNode:
		return "*plan.FilterNode"
	case *ProjectNode:
		return "*plan.ProjectNode"
	case *JoinNode:
		return "*plan.JoinNode"
	case *AggregateNode:
		return "*plan.AggregateNode"
	case *SortNode:
		return "*plan.SortNode"
	case *LimitNode:
		return "*plan.LimitNode"
	case *DistinctNode:
		return "*plan.DistinctNode"
	case *ValuesNode:
		return "*plan.ValuesNode"
	default:
		return "?"
	}
}

func walk(n Node, f func(Node)) {
	f(n)
	for _, c := range n.Children() {
		walk(c, f)
	}
}
