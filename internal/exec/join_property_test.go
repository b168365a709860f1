package exec

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// memSource serves fixed row sets per table, for operator-level tests that
// bypass storage.
type memSource struct {
	tables map[string][]rel.Row
}

func (m *memSource) Scan(req ScanRequest) (RowIter, error) {
	rows, ok := m.tables[req.Table]
	if !ok {
		return nil, errors.New("memSource: unknown table " + req.Table)
	}
	return newSliceIter(rows), nil
}

// failingIter errors after n rows.
type failingIter struct{ n int }

func (f *failingIter) Next() (rel.Row, bool, error) {
	if f.n <= 0 {
		return nil, false, errors.New("source exploded")
	}
	f.n--
	return rel.Row{rel.Int(int64(f.n))}, true, nil
}
func (f *failingIter) Close() error { return nil }

type failingSource struct{ after int }

func (f *failingSource) Scan(ScanRequest) (RowIter, error) {
	return &failingIter{n: f.after}, nil
}

func joinSchemas() (rel.Schema, rel.Schema) {
	left := rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TypeInt, Table: "l"},
		rel.Column{Name: "lv", Type: rel.TypeInt, Table: "l"},
	)
	right := rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TypeInt, Table: "r"},
		rel.Column{Name: "rv", Type: rel.TypeInt, Table: "r"},
	)
	return left, right
}

// randRows builds n rows with keys drawn from a small domain (guaranteeing
// both matches and misses) including occasional NULL keys.
func randRows(rng *rand.Rand, n int) []rel.Row {
	rows := make([]rel.Row, n)
	for i := range rows {
		var key rel.Value
		if rng.Intn(10) == 0 {
			key = rel.Null()
		} else {
			key = rel.Int(int64(rng.Intn(8)))
		}
		rows[i] = rel.Row{key, rel.Int(int64(rng.Intn(100)))}
	}
	return rows
}

// sortedKeys canonicalises a result set for comparison.
func sortedKeys(rows []rel.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.AllKey()
	}
	sort.Strings(out)
	return out
}

// TestHashVsNestedLoopJoinEquivalence: for random inputs, the hash join and
// the nested-loop join must produce identical multisets for inner and left
// equi-joins.
func TestHashVsNestedLoopJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	leftSchema, rightSchema := joinSchemas()
	on, err := sql.ParseExpr("l.k = r.k")
	if err != nil {
		t.Fatal(err)
	}
	leftKey, _ := sql.ParseExpr("l.k")
	rightKey, _ := sql.ParseExpr("r.k")

	for iter := 0; iter < 200; iter++ {
		leftRows := randRows(rng, rng.Intn(20))
		rightRows := randRows(rng, rng.Intn(20))
		src := &memSource{tables: map[string][]rel.Row{"l": leftRows, "r": rightRows}}
		for _, kind := range []plan.JoinKind{plan.KindInner, plan.KindLeft} {
			mk := func() (*plan.ScanNode, *plan.ScanNode) {
				return &plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema},
					&plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema}
			}
			l1, r1 := mk()
			hashJoin := plan.NewJoinNode(kind, l1, r1)
			hashJoin.LeftKey, hashJoin.RightKey = []sql.Expr{leftKey}, []sql.Expr{rightKey}
			l2, r2 := mk()
			nlJoin := plan.NewJoinNode(kind, l2, r2)
			nlJoin.On = on

			hres, err := Execute(hashJoin, src)
			if err != nil {
				t.Fatalf("hash join: %v", err)
			}
			nres, err := Execute(nlJoin, src)
			if err != nil {
				t.Fatalf("nl join: %v", err)
			}
			hk, nk := sortedKeys(hres.Rows), sortedKeys(nres.Rows)
			if len(hk) != len(nk) {
				t.Fatalf("iter %d kind %v: hash %d rows vs nl %d rows", iter, kind, len(hk), len(nk))
			}
			for i := range hk {
				if hk[i] != nk[i] {
					t.Fatalf("iter %d kind %v: row %d differs:\n%v\nvs\n%v", iter, kind, i, hk[i], nk[i])
				}
			}
		}
	}
}

// TestSemiAntiJoinPartition: for any inputs, semi-join output plus
// anti-join output equals the left input whenever the right side has no
// NULL keys and is non-empty (NOT IN null semantics break the partition
// otherwise, which is also asserted).
func TestSemiAntiJoinPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	leftSchema, rightSchema := joinSchemas()
	leftKey, _ := sql.ParseExpr("l.k")
	rightKey, _ := sql.ParseExpr("r.k")

	for iter := 0; iter < 200; iter++ {
		leftRows := randRows(rng, 1+rng.Intn(15))
		// Right side without NULL keys for the partition property.
		rightRows := randRows(rng, 1+rng.Intn(15))
		for i := range rightRows {
			if rightRows[i][0].IsNull() {
				rightRows[i][0] = rel.Int(int64(rng.Intn(8)))
			}
		}
		src := &memSource{tables: map[string][]rel.Row{"l": leftRows, "r": rightRows}}
		run := func(kind plan.JoinKind) []rel.Row {
			node := plan.NewJoinNode(kind,
				&plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema},
				&plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema})
			node.LeftKey, node.RightKey = []sql.Expr{leftKey}, []sql.Expr{rightKey}
			res, err := Execute(node, src)
			if err != nil {
				t.Fatal(err)
			}
			return res.Rows
		}
		semi := run(plan.KindSemi)
		anti := run(plan.KindAnti)
		// NULL-keyed left rows appear in neither (IN and NOT IN are both
		// UNKNOWN for NULL).
		nullKeyed := 0
		for _, r := range leftRows {
			if r[0].IsNull() {
				nullKeyed++
			}
		}
		if len(semi)+len(anti)+nullKeyed != len(leftRows) {
			t.Fatalf("iter %d: semi(%d) + anti(%d) + nullkeys(%d) != left(%d)",
				iter, len(semi), len(anti), nullKeyed, len(leftRows))
		}
	}
}

// TestAntiJoinNullPoisoning: a single NULL key on the right suppresses
// every left row (SQL NOT IN semantics).
func TestAntiJoinNullPoisoning(t *testing.T) {
	leftSchema, rightSchema := joinSchemas()
	leftKey, _ := sql.ParseExpr("l.k")
	rightKey, _ := sql.ParseExpr("r.k")
	src := &memSource{tables: map[string][]rel.Row{
		"l": {{rel.Int(1), rel.Int(0)}, {rel.Int(2), rel.Int(0)}},
		"r": {{rel.Int(9), rel.Int(0)}, {rel.Null(), rel.Int(0)}},
	}}
	node := plan.NewJoinNode(plan.KindAnti,
		&plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema},
		&plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema})
	node.LeftKey, node.RightKey = []sql.Expr{leftKey}, []sql.Expr{rightKey}
	res, err := Execute(node, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("anti join with right NULL must be empty: %v", res.Rows)
	}
	// Empty right side passes everything.
	src.tables["r"] = nil
	node.Left = &plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema}
	node.Right = &plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema}
	res, err = Execute(node, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("anti join with empty right must pass all: %v", res.Rows)
	}
}

// TestSourceErrorPropagation: an error mid-stream must surface through the
// whole operator stack.
func TestSourceErrorPropagation(t *testing.T) {
	schema := rel.NewSchema(rel.Column{Name: "n", Type: rel.TypeInt, Table: "t"})
	scan := &plan.ScanNode{Table: "t", Alias: "t", TableSchema: schema}
	pred, _ := sql.ParseExpr("n >= 0")
	node := plan.Node(&plan.FilterNode{Child: scan, Pred: pred})
	node = &plan.DistinctNode{Child: node}
	node = &plan.LimitNode{Child: node, Limit: 100}
	_, err := Execute(node, &failingSource{after: 3})
	if err == nil || err.Error() != "source exploded" {
		t.Fatalf("error not propagated: %v", err)
	}
	// Sort materializes eagerly and must also propagate.
	sortNode := &plan.SortNode{Child: scan, Keys: []plan.SortKey{{Col: 0}}}
	if _, err := Execute(sortNode, &failingSource{after: 2}); err == nil {
		t.Fatal("sort must propagate source errors")
	}
	// Aggregates too.
	aggNode := &plan.AggregateNode{
		Child: scan,
		Aggs:  []plan.AggSpec{{Func: "COUNT", Name: "#a0", Type: rel.TypeInt}},
		Out:   rel.NewSchema(rel.Column{Name: "#a0", Type: rel.TypeInt}),
	}
	if _, err := Execute(aggNode, &failingSource{after: 2}); err == nil {
		t.Fatal("aggregate must propagate source errors")
	}
}

// TestScanWidthValidation: a source returning the wrong row width is an
// error, not silent corruption.
func TestScanWidthValidation(t *testing.T) {
	schema := rel.NewSchema(
		rel.Column{Name: "a", Type: rel.TypeInt, Table: "t"},
		rel.Column{Name: "b", Type: rel.TypeInt, Table: "t"},
	)
	src := &memSource{tables: map[string][]rel.Row{"t": {{rel.Int(1)}}}} // too narrow
	scan := &plan.ScanNode{Table: "t", Alias: "t", TableSchema: schema}
	if _, err := Execute(scan, src); err == nil {
		t.Fatal("width mismatch must error")
	}
}
