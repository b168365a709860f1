package exec

import (
	"maps"
	"testing"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// underLimitRecorder passes scans to src and records, per alias, the
// UnderLimit each was requested with.
type underLimitRecorder struct {
	src   Source
	under map[string]bool
}

func (r *underLimitRecorder) Scan(req ScanRequest) (RowIter, error) {
	r.under[req.Alias] = req.UnderLimit
	return r.src.Scan(req)
}

// scanAliases returns the aliases of the scans in n's subtree.
func scanAliases(n plan.Node) []string {
	if s, ok := n.(*plan.ScanNode); ok {
		return []string{s.Alias}
	}
	var out []string
	for _, c := range n.Children() {
		out = append(out, scanAliases(c)...)
	}
	return out
}

// findJoin returns the first join in n's subtree.
func findJoin(n plan.Node) *plan.JoinNode {
	if j, ok := n.(*plan.JoinNode); ok {
		return j
	}
	for _, c := range n.Children() {
		if j := findJoin(c); j != nil {
			return j
		}
	}
	return nil
}

// TestUnderLimitOnlyWhereTheLimitCanStopTheScan: a LIMIT can stop a scan
// early only through operators that stream it. Sort and Aggregate drain
// their input, a hash join its build side and a nested-loop join its inner
// side before emitting a row, so scans there are built as drained ones;
// scans under Filter, Project, Distinct and a hash join's probe side keep
// UnderLimit.
func TestUnderLimitOnlyWhereTheLimitCanStopTheScan(t *testing.T) {
	db := testDB(t)
	for _, tc := range []struct {
		name, query string
		// want maps each scan's alias to its UnderLimit; for joins, build
		// and probe name the sides' expectations instead.
		want         map[string]bool
		build, probe bool
	}{
		{name: "sort", query: "SELECT name FROM country ORDER BY population LIMIT 2", want: map[string]bool{"country": false}},
		{name: "aggregate", query: "SELECT continent, COUNT(*) FROM country GROUP BY continent LIMIT 1", want: map[string]bool{"country": false}},
		{name: "filter", query: "SELECT name FROM country WHERE population + 0 > 60 LIMIT 2", want: map[string]bool{"country": true}},
		{name: "project", query: "SELECT name, population + 1 FROM country LIMIT 2", want: map[string]bool{"country": true}},
		{name: "distinct", query: "SELECT DISTINCT continent FROM country LIMIT 2", want: map[string]bool{"country": true}},
		{name: "no limit", query: "SELECT name FROM country WHERE population > 60", want: map[string]bool{"country": false}},
		{name: "hash join", query: "SELECT c.name, m.title FROM country c JOIN movie m ON m.country = c.name LIMIT 2", build: false, probe: true},
		{name: "nested loop", query: "SELECT c.name, m.title FROM country c JOIN movie m ON m.year > c.population LIMIT 2", build: false, probe: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := sql.ParseSelect(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			node, err := plan.Plan(sel, &StorageCatalog{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if j := findJoin(node); j != nil {
				drained, streamed := j.Right, j.Left
				if len(j.LeftKey) > 0 && j.BuildLeft {
					drained, streamed = j.Left, j.Right
				}
				want = map[string]bool{}
				for _, a := range scanAliases(drained) {
					want[a] = tc.build
				}
				for _, a := range scanAliases(streamed) {
					want[a] = tc.probe
				}
			}
			rec := &underLimitRecorder{src: &StorageSource{DB: db}, under: map[string]bool{}}
			if _, err := Execute(node, rec); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(rec.under, want) {
				t.Fatalf("UnderLimit per scan %v, want %v\n%s", rec.under, want, plan.Explain(node))
			}
		})
	}

	// A bind join drains both sides: the outer one to collect the keys,
	// the bound one to filter it to them.
	leftSchema, rightSchema := bindSchemas()
	leftKey, _ := sql.ParseExpr("l.k")
	rightKey, _ := sql.ParseExpr("r.k")
	r := &plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema}
	join := plan.NewJoinNode(plan.KindInner, &plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema}, r)
	join.LeftKey = []sql.Expr{leftKey}
	join.RightKey = []sql.Expr{rightKey}
	join.Strategy = plan.JoinBind
	join.BindScan = r
	node := &plan.LimitNode{Limit: 1, Child: join}
	rec := &underLimitRecorder{under: map[string]bool{}, src: &bindingSource{tables: map[string][]rel.Row{
		"l": {{rel.Text("a"), rel.Int(1)}},
		"r": {{rel.Text("a"), rel.Int(2)}},
	}}}
	if _, err := Execute(node, rec); err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"l": false, "r": false}; !maps.Equal(rec.under, want) {
		t.Fatalf("bind join: UnderLimit per scan %v, want %v", rec.under, want)
	}
}
