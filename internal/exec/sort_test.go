package exec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// sortSchema is the shape of randSortRows' rows: four candidate sort keys
// and a sequence number that is never a key, so stability is observable.
var sortSchema = rel.NewSchema(
	rel.Column{Name: "i", Type: rel.TypeInt},
	rel.Column{Name: "t", Type: rel.TypeText},
	rel.Column{Name: "f", Type: rel.TypeFloat},
	rel.Column{Name: "mixed", Type: rel.TypeUnknown},
	rel.Column{Name: "seq", Type: rel.TypeInt},
)

const (
	sortKeyCols = 4 // columns 0..3 of sortSchema may be keys
	seqCol      = 4
)

// sortFloats are the f column's domain: the IEEE specials (NaN, ±0, ±Inf)
// among a few ordinary values.
var sortFloats = []float64{-1, 0, math.Copysign(0, -1), 0.5, 2, math.Inf(1), math.Inf(-1), math.NaN()}

// sortMixed is the mixed column's domain: every class (numbers, text,
// booleans) and NULL, with numeric text, NaN and -0 among them.
var sortMixed = []rel.Value{
	rel.Int(0), rel.Int(1), rel.Int(3), rel.Float(0.5), rel.Float(1), rel.Float(math.NaN()),
	rel.Float(math.Copysign(0, -1)), rel.Float(math.Inf(1)), rel.Text("0"), rel.Text("1"),
	rel.Text("x"), rel.Text("y"), rel.Bool(false), rel.Bool(true), rel.Null(),
}

// randSortRows builds n rows over sortSchema with small value domains (so
// keys tie often) and NULLs in every key column.
func randSortRows(rng *rand.Rand, n int) []rel.Row {
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = rel.Row{
			rel.Int(int64(rng.Intn(5))),
			rel.Text(string(rune('a' + rng.Intn(4)))),
			rel.Float(sortFloats[rng.Intn(len(sortFloats))]),
			sortMixed[rng.Intn(len(sortMixed))],
			rel.Int(int64(i)),
		}
		for c := 0; c < 3; c++ {
			if rng.Intn(6) == 0 {
				rows[i][c] = rel.NullOf(sortSchema.Col(c).Type)
			}
		}
	}
	return rows
}

// referenceSort is ORDER BY written out independently of compareSortKeys:
// sort.SliceStable over a less function. NULLs go last in both directions;
// other values order by class (numbers, text, booleans), numbers exactly by
// value (math/big) with NaN above every other number and equal to NaN.
func referenceSort(rows []rel.Row, keys []plan.SortKey) []rel.Row {
	out := append([]rel.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			a, b := out[i][k.Col], out[j][k.Col]
			switch {
			case a.IsNull() && b.IsNull():
				continue
			case a.IsNull():
				return false
			case b.IsNull():
				return true
			}
			c := referenceCompare(a, b)
			if c == 0 {
				continue
			}
			if k.Desc {
				c = -c
			}
			return c < 0
		}
		return false
	})
	return out
}

func referenceCompare(a, b rel.Value) int {
	class := map[rel.DataType]int{rel.TypeInt: 0, rel.TypeFloat: 0, rel.TypeText: 1, rel.TypeBool: 2}
	if ca, cb := class[a.Type()], class[b.Type()]; ca != cb {
		return ca - cb
	}
	switch a.Type() {
	case rel.TypeText:
		return strings.Compare(a.AsText(), b.AsText())
	case rel.TypeBool:
		return boolInt(a.AsBool()) - boolInt(b.AsBool())
	}
	an, bn := math.IsNaN(a.AsFloat()), math.IsNaN(b.AsFloat())
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	return exactNumber(a).Cmp(exactNumber(b))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func exactNumber(v rel.Value) *big.Float {
	if v.Type() == rel.TypeInt {
		return new(big.Float).SetInt64(v.AsInt())
	}
	return new(big.Float).SetFloat64(v.AsFloat())
}

// TestSortMatchesReferenceOrdering: over seeded random rows and key lists
// — NULLs under both directions, DESC keys, multi-key ties, NaN, ±0, ±Inf
// and mixed-class keys — the sort operator's order is exactly the
// reference's, row for row (the seq column tells equal-keyed rows apart, so
// this checks stability).
func TestSortMatchesReferenceOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1919))
	for trial := 0; trial < 400; trial++ {
		rows := randSortRows(rng, rng.Intn(90))
		keys := randSortKeys(rng)
		want := referenceSort(rows, keys)
		res, err := Execute(&plan.SortNode{Child: &plan.ValuesNode{Rows: rows, Out: sortSchema}, Keys: keys}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got := res.Rows[i][seqCol].AsInt(); got != want[i][seqCol].AsInt() {
				t.Fatalf("trial %d, keys %+v: row %d is seq %d, reference has seq %d", trial, keys, i, got, want[i][seqCol].AsInt())
			}
		}
	}
}

func randSortKeys(rng *rand.Rand) []plan.SortKey {
	keys := make([]plan.SortKey, 1+rng.Intn(3))
	for i := range keys {
		keys[i] = plan.SortKey{Col: rng.Intn(sortKeyCols), Desc: rng.Intn(2) == 0}
	}
	return keys
}

// TestSortTotalPreorder pins the comparator on values the old one left
// unsorted: NaN is above every number (ascending [3, NaN, 1, 2] used to come
// back unchanged), and values of different classes order numbers, text,
// booleans, whatever the text spells.
func TestSortTotalPreorder(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		in   []rel.Value
		desc bool
		want string
	}{
		{[]rel.Value{rel.Float(3), rel.Float(nan), rel.Float(1), rel.Float(2)}, false, "1 2 3 NaN"},
		{[]rel.Value{rel.Float(3), rel.Float(nan), rel.Float(1), rel.Float(2)}, true, "NaN 3 2 1"},
		{[]rel.Value{rel.Float(nan), rel.NullOf(rel.TypeFloat), rel.Float(math.Inf(1)), rel.Float(nan), rel.Float(math.Inf(-1))}, false, "-Inf +Inf NaN NaN NULL"},
		{[]rel.Value{rel.Text("b"), rel.Int(2), rel.Bool(true), rel.Text("10"), rel.Float(1.5), rel.Bool(false)}, false, "1.5 2 10 b FALSE TRUE"},
		{[]rel.Value{rel.Text("b"), rel.Int(2), rel.Bool(true), rel.Text("10"), rel.Float(1.5)}, true, "TRUE b 10 2 1.5"},
		{[]rel.Value{rel.Int(1<<53 + 1), rel.Float(1 << 53), rel.Int(1 << 53)}, false, "9.007199254740992e+15 9007199254740992 9007199254740993"},
	}
	schema := rel.NewSchema(rel.Column{Name: "v", Type: rel.TypeUnknown})
	for _, c := range cases {
		rows := make([]rel.Row, len(c.in))
		for i, v := range c.in {
			rows[i] = rel.Row{v}
		}
		res, err := Execute(&plan.SortNode{Child: &plan.ValuesNode{Rows: rows, Out: schema}, Keys: []plan.SortKey{{Desc: c.desc}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = r[0].String()
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("ORDER BY %v (desc=%v) = %v, want %s", c.in, c.desc, got, c.want)
		}
	}
}

// checkSortLimit plans LIMIT limit OFFSET offset over ORDER BY keys of rows
// — directly over the rows, or over a projection that picks and reorders
// their columns and adds a literal — and checks that the optimized plan
// returns exactly rows [offset, offset+limit) of the full stable sort.
func checkSortLimit(t *testing.T, rows []rel.Row, keys []plan.SortKey, limit, offset int64, project bool) {
	t.Helper()
	var input plan.Node = &plan.ValuesNode{Rows: rows, Out: sortSchema}
	sortKeys, seq := append([]plan.SortKey(nil), keys...), seqCol
	if project {
		// Output: mixed, seq, 7, i, f, t.
		names := []string{"mixed", "seq", "", "i", "f", "t"}
		pos := map[int]int{0: 3, 1: 5, 2: 4, 3: 0}
		exprs := make([]sql.Expr, len(names))
		cols := make([]rel.Column, len(names))
		for i, name := range names {
			if name == "" {
				exprs[i], cols[i] = &sql.Literal{Value: rel.Int(7)}, rel.Column{Name: "seven", Type: rel.TypeInt}
				continue
			}
			exprs[i], cols[i] = &sql.ColumnRef{Name: name}, sortSchema.Col(sortSchema.IndexOf(name))
		}
		input = &plan.ProjectNode{Child: input, Exprs: exprs, Out: rel.NewSchema(cols...)}
		for i := range sortKeys {
			sortKeys[i].Col = pos[sortKeys[i].Col]
		}
		seq = 1
	}
	node := plan.OptimizeOpts(&plan.LimitNode{Child: &plan.SortNode{Child: input, Keys: sortKeys}, Limit: limit, Offset: offset}, plan.DefaultOptions())
	if limit > 0 {
		var top int64
		for n := node; top == 0 && len(n.Children()) > 0; n = n.Children()[0] {
			if s, ok := n.(*plan.SortNode); ok {
				top = s.Top
			}
		}
		if top != limit+offset {
			t.Fatalf("LIMIT %d OFFSET %d: the sort is bounded to %d rows\n%s", limit, offset, top, plan.Explain(node))
		}
	}
	res, err := Execute(node, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSort(rows, keys)
	want = want[min(offset, int64(len(want))):]
	if limit >= 0 {
		want = want[:min(limit, int64(len(want)))]
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("keys %+v LIMIT %d OFFSET %d over %d rows: %d rows, want %d", keys, limit, offset, len(rows), len(res.Rows), len(want))
	}
	for i := range want {
		if got := res.Rows[i][seq].AsInt(); got != want[i][seqCol].AsInt() {
			t.Fatalf("keys %+v LIMIT %d OFFSET %d (project=%v): row %d is seq %d, the full sort has seq %d",
				keys, limit, offset, project, i, got, want[i][seqCol].AsInt())
		}
	}
}

// TestSortLimitMatchesFullSort: a bounded sort (LIMIT k OFFSET o sunk onto
// the Sort, with or without a projection between them) returns exactly rows
// [o, o+k) of the full stable sort, for k and o from 0 past the input size.
func TestSortLimitMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3301))
	for trial := 0; trial < 600; trial++ {
		n := rng.Intn(60)
		limit := int64(rng.Intn(n+4)) - 1 // -1 is no LIMIT, only OFFSET
		checkSortLimit(t, randSortRows(rng, n), randSortKeys(rng), limit, int64(rng.Intn(n+3)), trial%2 == 1)
	}
}

// FuzzSortLimit: the bounded sort matches the full stable sort's window on
// rows and keys decoded from the input (see decodeSortCase); limit 255
// stands for no LIMIT.
func FuzzSortLimit(f *testing.F) {
	f.Add([]byte{0x02, 0x06, 0x31, 0x07, 0x72, 0x1a, 0x09, 0x20, 0x45, 0xff, 0x13}, uint8(3), uint8(1), false)
	f.Add([]byte{0x01, 0x03, 0x17, 0x5c, 0x27, 0x4c, 0x07, 0x07, 0x37, 0x20}, uint8(2), uint8(0), true)
	f.Add([]byte{0x00, 0x02, 0x00, 0x00, 0x00, 0x00}, uint8(255), uint8(4), true)
	f.Fuzz(func(t *testing.T, data []byte, limit, offset uint8, project bool) {
		keys, rows := decodeSortCase(data)
		l := int64(limit)
		if limit == 255 {
			l = -1
		}
		checkSortLimit(t, rows, keys, l, int64(offset), project)
	})
}

// decodeSortCase reads sort keys and rows over sortSchema from data: the
// first byte gives 1–3 keys, one byte each (column, DESC bit), then every
// two bytes are a row drawn from the same domains as randSortRows.
func decodeSortCase(data []byte) ([]plan.SortKey, []rel.Row) {
	if len(data) == 0 {
		return []plan.SortKey{{}}, nil
	}
	n := 1 + int(data[0])%3
	data = data[1:]
	keys := make([]plan.SortKey, n)
	for i := range keys {
		if len(data) > 0 {
			keys[i] = plan.SortKey{Col: int(data[0]) % sortKeyCols, Desc: data[0]&4 != 0}
			data = data[1:]
		}
	}
	var rows []rel.Row
	for ; len(data) >= 2; data = data[2:] {
		a, b := data[0], data[1]
		row := rel.Row{
			rel.Int(int64(a % 5)),
			rel.Text(string(rune('a' + a>>3%4))),
			rel.Float(sortFloats[b%8]),
			sortMixed[int(b>>3)%len(sortMixed)],
			rel.Int(int64(len(rows))),
		}
		if a&0x80 != 0 {
			row[0] = rel.NullOf(rel.TypeInt)
		}
		if a&0x40 != 0 {
			row[1] = rel.NullOf(rel.TypeText)
		}
		if b&0x80 != 0 {
			row[2] = rel.NullOf(rel.TypeFloat)
		}
		rows = append(rows, row)
	}
	return keys, rows
}

// sortBenchRows are 1,000 rows under the shape of the benchmark's "ORDER BY
// rating DESC, title": a DESC number and a text tie-breaker.
func sortBenchRows() ([]rel.Row, rel.Schema, []plan.SortKey) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]rel.Row, 1000)
	for i := range rows {
		rows[i] = rel.Row{rel.Float(float64(rng.Intn(100)) / 10), rel.Text(fmt.Sprintf("title %d", rng.Intn(500)))}
	}
	schema := rel.NewSchema(rel.Column{Name: "rating", Type: rel.TypeFloat}, rel.Column{Name: "title", Type: rel.TypeText})
	return rows, schema, []plan.SortKey{{Col: 0, Desc: true}, {Col: 1}}
}

// BenchmarkSortStable times the unbounded ORDER BY operator on
// sortBenchRows.
func BenchmarkSortStable(b *testing.B) {
	rows, schema, keys := sortBenchRows()
	node := &plan.SortNode{Child: &plan.ValuesNode{Rows: rows, Out: schema}, Keys: keys}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(node, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortLimit times the same ORDER BY under LIMIT 10: the Sort is
// bounded to 10 rows and keeps a 10-entry heap instead of sorting 1,000.
func BenchmarkSortLimit(b *testing.B) {
	rows, schema, keys := sortBenchRows()
	node := plan.OptimizeOpts(&plan.LimitNode{Child: &plan.SortNode{Child: &plan.ValuesNode{Rows: rows, Out: schema}, Keys: keys}, Limit: 10}, plan.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(node, nil); err != nil {
			b.Fatal(err)
		}
	}
}
