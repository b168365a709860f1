package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// bindingSource serves fixed row sets and honours ScanRequest.Keys the way
// the LLM store does: a bound scan returns only rows whose key (column 0)
// is among the bound values.
type bindingSource struct {
	tables map[string][]rel.Row
	// bound records the key sets each table was bound with, for assertions.
	bound map[string][][]string
}

func (m *bindingSource) Scan(req ScanRequest) (RowIter, error) {
	rows, ok := m.tables[req.Table]
	if !ok {
		return nil, errors.New("bindingSource: unknown table " + req.Table)
	}
	if req.Keys == nil {
		return newSliceIter(rows), nil
	}
	if m.bound == nil {
		m.bound = map[string][][]string{}
	}
	m.bound[req.Table] = append(m.bound[req.Table], req.Keys)
	want := make(map[string]bool, len(req.Keys))
	for _, k := range req.Keys {
		want[k] = true
	}
	var kept []rel.Row
	for _, row := range rows {
		if !row[0].IsNull() && want[row[0].AsText()] {
			kept = append(kept, row)
		}
	}
	return newSliceIter(kept), nil
}

// lyingSource violates the binding contract: bound scans return the rows it
// was asked for plus fabricated rows for keys that were never bound and a
// NULL-keyed row. The executor must drop all of the extras.
type lyingSource struct {
	tables map[string][]rel.Row
}

func (m *lyingSource) Scan(req ScanRequest) (RowIter, error) {
	rows, ok := m.tables[req.Table]
	if !ok {
		return nil, errors.New("lyingSource: unknown table " + req.Table)
	}
	if req.Keys == nil {
		return newSliceIter(rows), nil
	}
	want := make(map[string]bool, len(req.Keys))
	for _, k := range req.Keys {
		want[k] = true
	}
	var kept []rel.Row
	for _, row := range rows {
		if !row[0].IsNull() && want[row[0].AsText()] {
			kept = append(kept, row)
		}
	}
	// Fabrications: rows for a key that was never bound, plus a NULL key.
	// A bind join that kept these could corrupt the anti join's emptiness
	// and NULL determinations; the executor must drop both. (Rows invented
	// for keys that WERE bound are indefensible at this layer — that is
	// the store's contract, upheld by keeping enumeration as the
	// membership oracle.)
	for _, fab := range []rel.Row{
		{rel.Text("never-bound-fabrication"), rel.Int(666)},
		{rel.Null(), rel.Int(667)},
	} {
		if !want[fab[0].AsText()] {
			kept = append(kept, fab)
		}
	}
	return newSliceIter(kept), nil
}

// exactKeys canonicalises a result set preserving row order.
func exactKeys(rows []rel.Row) string {
	out := ""
	for _, r := range rows {
		out += r.AllKey() + "\n"
	}
	return out
}

func bindSchemas() (rel.Schema, rel.Schema) {
	left := rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TypeText, Table: "l"},
		rel.Column{Name: "lv", Type: rel.TypeInt, Table: "l"},
	)
	right := rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TypeText, Table: "r", Key: true},
		rel.Column{Name: "rv", Type: rel.TypeInt, Table: "r"},
	)
	return left, right
}

// randTextRows builds rows keyed in a small text domain with NULLs,
// duplicates, and keys ("x0".."x2") that only ever exist on one side. The
// phantom key the lying source fabricates is planted occasionally so its
// extra build-side rows would match if they were not filtered.
func randTextRows(rng *rand.Rand, n int, side string) []rel.Row {
	rows := make([]rel.Row, n)
	for i := range rows {
		var key rel.Value
		switch r := rng.Intn(12); {
		case r == 0:
			key = rel.Null()
		case r == 1:
			key = rel.Text(fmt.Sprintf("%s-only%d", side, rng.Intn(3)))
		case r == 2:
			key = rel.Text("Phantom")
		default:
			key = rel.Text(fmt.Sprintf("key%d", rng.Intn(6)))
		}
		rows[i] = rel.Row{key, rel.Int(int64(rng.Intn(100)))}
	}
	return rows
}

// bindCase enumerates the (kind, bound side, build orientation)
// combinations the planner can produce: the right side binds for every
// kind, the left side for inner joins; the build orientation is free for
// inner joins and fixed right otherwise.
type bindCase struct {
	kind      plan.JoinKind
	bindLeft  bool
	buildLeft bool
}

func bindCases() []bindCase {
	return []bindCase{
		{plan.KindInner, false, false},
		{plan.KindInner, false, true},
		{plan.KindInner, true, false},
		{plan.KindInner, true, true},
		{plan.KindLeft, false, false},
		{plan.KindSemi, false, false},
		{plan.KindAnti, false, false},
	}
}

// TestBindJoinPropertyByteIdentical: for random inputs with NULL and
// duplicate join keys, the bind join must produce byte-identical row
// multisets to the reference plan — the nested-loop join where it supports
// the kind (inner, left), the hash join otherwise — whether the source
// honours the binding or lies about it.
func TestBindJoinPropertyByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	leftSchema, rightSchema := bindSchemas()
	on, err := sql.ParseExpr("l.k = r.k")
	if err != nil {
		t.Fatal(err)
	}
	leftKey, _ := sql.ParseExpr("l.k")
	rightKey, _ := sql.ParseExpr("r.k")

	for iter := 0; iter < 300; iter++ {
		leftRows := randTextRows(rng, rng.Intn(18), "l")
		rightRows := randTextRows(rng, rng.Intn(18), "r")

		for _, tc := range bindCases() {
			buildRows := rightRows
			if tc.kind == plan.KindAnti {
				// The planner only binds an anti join when the bound key is
				// the scan's entity-key column, which enumeration never
				// yields as NULL — a NULL in the full build side flips NOT
				// IN semantics invisibly to a bound scan. Mirror that
				// contract here (cf. TestSemiAntiJoinPartition).
				buildRows = nil
				for _, r := range rightRows {
					if !r[0].IsNull() {
						buildRows = append(buildRows, r)
					}
				}
			}
			tables := map[string][]rel.Row{"l": leftRows, "r": buildRows}
			mkScan := func() (*plan.ScanNode, *plan.ScanNode) {
				return &plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema},
					&plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema}
			}
			mkJoin := func(strategy plan.JoinStrategy) *plan.JoinNode {
				l, r := mkScan()
				j := plan.NewJoinNode(tc.kind, l, r)
				j.LeftKey, j.RightKey = []sql.Expr{leftKey}, []sql.Expr{rightKey}
				j.Strategy = strategy
				j.BuildLeft = tc.buildLeft
				if strategy == plan.JoinBind {
					j.BindLeft = tc.bindLeft
					if tc.bindLeft {
						j.BindScan = l
					} else {
						j.BindScan = r
					}
				}
				return j
			}

			// Reference: nested loop where supported, hash otherwise, always
			// over the untouched base tables.
			var refNode plan.Node
			switch tc.kind {
			case plan.KindInner, plan.KindLeft:
				l, r := mkScan()
				j := plan.NewJoinNode(tc.kind, l, r)
				j.On = on
				refNode = j
			default:
				refNode = mkJoin(plan.JoinHash)
			}
			ref, err := Execute(refNode, &bindingSource{tables: tables})
			if err != nil {
				t.Fatalf("iter %d %+v: reference: %v", iter, tc, err)
			}
			want := sortedKeys(ref.Rows)

			// The hash join with the same orientation is the exact-order
			// reference: bind must reproduce it byte for byte.
			hash, err := Execute(mkJoin(plan.JoinHash), &bindingSource{tables: tables})
			if err != nil {
				t.Fatalf("iter %d %+v: hash: %v", iter, tc, err)
			}
			wantExact := exactKeys(hash.Rows)

			for _, src := range []Source{
				&bindingSource{tables: tables},
				&lyingSource{tables: tables},
			} {
				got, err := Execute(mkJoin(plan.JoinBind), src)
				if err != nil {
					t.Fatalf("iter %d %+v %T: bind: %v", iter, tc, src, err)
				}
				gk := sortedKeys(got.Rows)
				if len(gk) != len(want) {
					t.Fatalf("iter %d %+v %T: bind %d rows vs reference %d",
						iter, tc, src, len(gk), len(want))
				}
				for i := range gk {
					if gk[i] != want[i] {
						t.Fatalf("iter %d %+v %T: row %d differs:\n%v\nvs\n%v",
							iter, tc, src, i, gk[i], want[i])
					}
				}
				if ge := exactKeys(got.Rows); ge != wantExact {
					t.Fatalf("iter %d %+v %T: bind row order diverged from hash:\n%v\nvs\n%v",
						iter, tc, src, ge, wantExact)
				}
			}
		}
	}
}

// TestBindJoinPushesDistinctSortedKeys: the bound scan receives exactly the
// outer side's distinct non-NULL key values, sorted.
func TestBindJoinPushesDistinctSortedKeys(t *testing.T) {
	leftSchema, rightSchema := bindSchemas()
	leftKey, _ := sql.ParseExpr("l.k")
	rightKey, _ := sql.ParseExpr("r.k")
	src := &bindingSource{tables: map[string][]rel.Row{
		"l": {
			{rel.Text("b"), rel.Int(1)},
			{rel.Text("a"), rel.Int(2)},
			{rel.Null(), rel.Int(3)},
			{rel.Text("b"), rel.Int(4)},
		},
		"r": {{rel.Text("a"), rel.Int(5)}, {rel.Text("z"), rel.Int(6)}},
	}}
	r := &plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema}
	node := plan.NewJoinNode(plan.KindInner, &plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema}, r)
	node.LeftKey = []sql.Expr{leftKey}
	node.RightKey = []sql.Expr{rightKey}
	node.Strategy = plan.JoinBind
	node.BindScan = r
	res, err := Execute(node, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if len(src.bound["r"]) != 1 {
		t.Fatalf("bound scans: %v", src.bound)
	}
	got := src.bound["r"][0]
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("bound keys: %v", got)
	}
}

// TestBindAntiNullFallback: an anti join whose outer side carries a NULL
// key must not bind — whether its NULL-keyed rows pass depends on whether
// the FULL build side is empty, which a bound scan cannot reveal.
func TestBindAntiNullFallback(t *testing.T) {
	leftSchema, rightSchema := bindSchemas()
	leftKey, _ := sql.ParseExpr("l.k")
	rightKey, _ := sql.ParseExpr("r.k")

	run := func(rightRows []rel.Row) (*Result, *bindingSource) {
		src := &bindingSource{tables: map[string][]rel.Row{
			"l": {{rel.Text("a"), rel.Int(1)}, {rel.Null(), rel.Int(2)}},
			"r": rightRows,
		}}
		r := &plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema}
		node := plan.NewJoinNode(plan.KindAnti, &plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema}, r)
		node.LeftKey = []sql.Expr{leftKey}
		node.RightKey = []sql.Expr{rightKey}
		node.Strategy = plan.JoinBind
		node.BindScan = r
		res, err := Execute(node, src)
		if err != nil {
			t.Fatal(err)
		}
		return res, src
	}

	// Non-empty right side that shares no key with the outer: a bound scan
	// would come back empty and (wrongly) pass the NULL-keyed row.
	res, src := run([]rel.Row{{rel.Text("z"), rel.Int(9)}})
	if len(src.bound) != 0 {
		t.Fatalf("anti join with NULL outer keys must not bind: %v", src.bound)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "a" {
		t.Fatalf("NOT IN with non-empty right: %v", res.Rows)
	}

	// Empty right side passes everything, including the NULL-keyed row.
	res, _ = run(nil)
	if len(res.Rows) != 2 {
		t.Fatalf("NOT IN with empty right: %v", res.Rows)
	}
}

// TestHashJoinBuildLeft: an inner hash join built on the left side produces
// the same multiset as the default build (order follows the probe side).
func TestHashJoinBuildLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	leftSchema, rightSchema := bindSchemas()
	leftKey, _ := sql.ParseExpr("l.k")
	rightKey, _ := sql.ParseExpr("r.k")
	for iter := 0; iter < 100; iter++ {
		tables := map[string][]rel.Row{
			"l": randTextRows(rng, rng.Intn(15), "l"),
			"r": randTextRows(rng, rng.Intn(15), "r"),
		}
		run := func(buildLeft bool) []string {
			node := plan.NewJoinNode(plan.KindInner,
				&plan.ScanNode{Table: "l", Alias: "l", TableSchema: leftSchema},
				&plan.ScanNode{Table: "r", Alias: "r", TableSchema: rightSchema})
			node.LeftKey = []sql.Expr{leftKey}
			node.RightKey = []sql.Expr{rightKey}
			node.BuildLeft = buildLeft
			res, err := Execute(node, &bindingSource{tables: tables})
			if err != nil {
				t.Fatal(err)
			}
			return sortedKeys(res.Rows)
		}
		br, bl := run(false), run(true)
		if len(br) != len(bl) {
			t.Fatalf("iter %d: build-right %d rows vs build-left %d", iter, len(br), len(bl))
		}
		for i := range br {
			if br[i] != bl[i] {
				t.Fatalf("iter %d: row %d differs: %v vs %v", iter, i, br[i], bl[i])
			}
		}
	}
}
