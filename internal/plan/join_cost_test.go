package plan

import (
	"strings"
	"testing"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// joinTestCatalog is a synthetic catalog with per-table cardinalities whose
// priced tables get decisions from the real estimator (testCostModel sized
// to the table), forced to one strategy — enough structure for the join
// planner's decisions to be inspectable, with bind pricing going through
// the decision's model exactly as it does for the engine's scans.
type joinTestCatalog struct {
	schemas map[string]rel.Schema
	rows    map[string]int
	priced  map[string]bool
	chosen  string // the strategy every priced scan is forced to
}

func (c *joinTestCatalog) TableSchema(name string) (rel.Schema, error) {
	return MapCatalog(c.schemas).TableSchema(name)
}

func (c *joinTestCatalog) EstimateRows(name string) (int, bool) {
	n, ok := c.rows[strings.ToLower(name)]
	return n, ok
}

func (c *joinTestCatalog) ScanDecision(table string, needed []bool, filter sql.Expr, limit int64) (ScanDecision, bool) {
	rows, ok := c.rows[strings.ToLower(table)]
	if !ok || !c.priced[strings.ToLower(table)] {
		return ScanDecision{}, false
	}
	m := testCostModel()
	m.Rows, m.Limit = rows, limit
	d := m.Decide()
	d.Auto, d.Chosen = false, c.chosen
	return d, true
}

func testJoinCatalog() *joinTestCatalog {
	key := func(name string) rel.Schema {
		return rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true},
			rel.Column{Name: "val", Type: rel.TypeInt},
			rel.Column{Name: "ref", Type: rel.TypeText},
		)
	}
	return &joinTestCatalog{
		schemas: map[string]rel.Schema{
			"big":   key("big"),
			"small": key("small"),
			"localtbl": rel.NewSchema(
				rel.Column{Name: "id", Type: rel.TypeInt},
				rel.Column{Name: "ref", Type: rel.TypeText},
			),
		},
		rows:   map[string]int{"big": 1000, "small": 10, "localtbl": 10},
		priced: map[string]bool{"big": true, "small": true},
		chosen: "key-then-attr",
	}
}

func planJoinQuery(t *testing.T, cat Catalog, query string, opts Options) Node {
	t.Helper()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		t.Fatal(err)
	}
	n, err := PlanOpts(sel, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBindJoinChosenWhenCheaper: a selective outer side drives the bound
// scan of the big table; the decision records the strategy, bound table and
// all three candidates.
func TestBindJoinChosenWhenCheaper(t *testing.T) {
	cat := testJoinCatalog()
	n := planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM small s JOIN big b ON s.ref = b.name", DefaultOptions())
	j := findJoin(n)
	if j == nil {
		t.Fatalf("no join in plan:\n%s", Explain(n))
	}
	if j.Strategy != JoinBind || j.BindScan == nil || j.BindScan.Table != "big" {
		t.Fatalf("bind not chosen: strategy=%v scan=%v\n%s", j.Strategy, j.BindScan, Explain(n))
	}
	if j.BindLeft {
		t.Fatalf("bound side must be the right (big) input")
	}
	// Orientation follows cardinality (small left builds), not the bound
	// side — toggling bind must never reorder output.
	if !j.BuildLeft {
		t.Fatalf("build orientation must follow cardinality estimates")
	}
	d := j.Decision
	if d == nil || d.Chosen != JoinBind || d.BindTable != "big" {
		t.Fatalf("decision: %+v", d)
	}
	if len(d.Candidates) != 3 {
		t.Fatalf("candidates: %+v", d.Candidates)
	}
	if bind, hash := d.Candidate("bind"), d.Candidate("hash"); bind.Dollars >= hash.Dollars {
		t.Fatalf("bind (%v) not cheaper than hash (%v)", bind.Dollars, hash.Dollars)
	}
	for _, want := range []string{"[bind:", "→ big", "join=bind", "est-keys="} {
		if out := Explain(n); !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
}

// TestBindJoinDisabledByOption: the ablation gate removes bind from the
// candidates but keeps the hash decision inspectable.
func TestBindJoinDisabledByOption(t *testing.T) {
	cat := testJoinCatalog()
	opts := DefaultOptions()
	opts.BindJoin = false
	n := planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM small s JOIN big b ON s.ref = b.name", opts)
	assertNoBindCandidate(t, n)
}

// TestNoBindCandidateUnlessKeyThenAttr: a scan whose decision runs any
// other decomposition cannot honour a binding, so it offers no bind
// candidate, however cheap binding would be.
func TestNoBindCandidateUnlessKeyThenAttr(t *testing.T) {
	for _, chosen := range []string{"full-table", "paged"} {
		cat := testJoinCatalog()
		cat.chosen = chosen
		n := planJoinQuery(t, cat,
			"SELECT s.val, b.val FROM small s JOIN big b ON s.ref = b.name", DefaultOptions())
		assertNoBindCandidate(t, n)
	}
}

// assertNoBindCandidate checks that the plan's join runs hash, with a
// decision that lists no bind candidate, and that EXPLAIN mentions none.
func assertNoBindCandidate(t *testing.T, n Node) {
	t.Helper()
	j := findJoin(n)
	if j.Strategy != JoinHash || j.BindScan != nil {
		t.Fatalf("bind chosen: %+v\n%s", j.Strategy, Explain(n))
	}
	if j.Decision == nil || j.Decision.Chosen != JoinHash || len(j.Decision.Candidates) != 2 {
		t.Fatalf("decision: %+v", j.Decision)
	}
	if out := Explain(n); strings.Contains(out, "bind") {
		t.Fatalf("EXPLAIN lists a bind candidate:\n%s", out)
	}
}

// TestBindRequiresEntityKeyColumn: when neither side's join key is its
// scan's entity-key column, nothing can bind (the scan enumerates entities
// by key); when only one side's is, that side is the one bound.
func TestBindRequiresEntityKeyColumn(t *testing.T) {
	cat := testJoinCatalog()
	n := planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM small s JOIN big b ON s.ref = b.ref", DefaultOptions())
	if j := findJoin(n); j.Strategy == JoinBind {
		t.Fatalf("bound a non-key join column:\n%s", Explain(n))
	}
	// s.name is small's entity key: the left side binds, driven by the
	// right outer, even though the right side itself cannot.
	n = planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM small s JOIN big b ON s.name = b.ref", DefaultOptions())
	j := findJoin(n)
	if j.Strategy != JoinBind || !j.BindLeft || j.BindScan == nil || j.BindScan.Table != "small" {
		t.Fatalf("key side did not bind:\n%s", Explain(n))
	}
}

// TestBindThroughSubqueryProjection: IN-subqueries plan as semi joins whose
// right side is a projection over the scan; the binding must trace the key
// through it.
func TestBindThroughSubqueryProjection(t *testing.T) {
	cat := testJoinCatalog()
	n := planJoinQuery(t, cat,
		"SELECT val FROM small WHERE ref IN (SELECT name FROM big)", DefaultOptions())
	j := findJoin(n)
	if j == nil || j.Kind != KindSemi {
		t.Fatalf("no semi join:\n%s", Explain(n))
	}
	if j.Strategy != JoinBind || j.BindScan == nil || j.BindScan.Table != "big" {
		t.Fatalf("semi join did not bind through the projection:\n%s", Explain(n))
	}
	// NOT IN: anti joins bind too.
	n = planJoinQuery(t, cat,
		"SELECT val FROM small WHERE ref NOT IN (SELECT name FROM big)", DefaultOptions())
	j = findJoin(n)
	if j == nil || j.Kind != KindAnti || j.Strategy != JoinBind {
		t.Fatalf("anti join did not bind:\n%s", Explain(n))
	}
}

// TestHashBuildSideSelection: the build side follows the cardinality
// estimates for inner joins (ties and non-inner joins keep the right
// side).
func TestHashBuildSideSelection(t *testing.T) {
	cat := testJoinCatalog()
	cat.priced = map[string]bool{} // force hash
	opts := DefaultOptions()

	n := planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM small s JOIN big b ON s.ref = b.name", opts)
	if j := findJoin(n); j.Strategy != JoinHash || j.BuildLeft != true {
		t.Fatalf("small left side not chosen as build: %+v\n%s", j, Explain(n))
	}

	n = planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM big b JOIN small s ON s.ref = b.name", opts)
	if j := findJoin(n); j.BuildLeft {
		t.Fatalf("big left side chosen as build:\n%s", Explain(n))
	}

	// Tie: both sides the same size — keep the historical right build.
	cat.rows["big"] = 10
	n = planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM small s JOIN big b ON s.ref = b.name", opts)
	if j := findJoin(n); j.BuildLeft {
		t.Fatalf("tie must keep the right build side:\n%s", Explain(n))
	}

	// Left joins stream the left side regardless of size.
	cat.rows["big"] = 1000
	n = planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM small s LEFT JOIN big b ON s.ref = b.name", opts)
	if j := findJoin(n); j.BuildLeft {
		t.Fatalf("left join cannot build left:\n%s", Explain(n))
	}
}

// TestJoinDecisionOmittedForLocalJoins: joins with no priceable side keep
// their cost-free EXPLAIN.
func TestJoinDecisionOmittedForLocalJoins(t *testing.T) {
	cat := testJoinCatalog()
	cat.priced = map[string]bool{}
	n := planJoinQuery(t, cat,
		"SELECT a.id, b.id FROM localtbl a JOIN localtbl b ON a.ref = b.ref", DefaultOptions())
	j := findJoin(n)
	if j.Decision != nil {
		t.Fatalf("local-only join got a cost decision: %+v", j.Decision)
	}
	if out := Explain(n); !strings.Contains(out, "[hash:") {
		t.Fatalf("hash annotation missing:\n%s", out)
	}
}
