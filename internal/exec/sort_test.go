package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
)

// sortSchema is the shape of randSortRows' rows: three candidate sort keys
// and a sequence number that is never a key, so stability is observable.
var sortSchema = rel.NewSchema(
	rel.Column{Name: "i", Type: rel.TypeInt},
	rel.Column{Name: "t", Type: rel.TypeText},
	rel.Column{Name: "mixed", Type: rel.TypeUnknown},
	rel.Column{Name: "seq", Type: rel.TypeInt},
)

// randSortRows builds n rows over sortSchema with small value domains (so
// keys tie often) and NULLs in every key column. The mixed column holds
// ints, floats, numeric and non-numeric text and booleans: a boolean against
// a number compares Unknown, a tie that is not an equality.
func randSortRows(rng *rand.Rand, n int) []rel.Row {
	rows := make([]rel.Row, n)
	for i := range rows {
		row := rel.Row{rel.Int(int64(rng.Intn(5))), rel.Text(string(rune('a' + rng.Intn(4)))), rel.Null(), rel.Int(int64(i))}
		switch rng.Intn(6) {
		case 0:
			row[2] = rel.Int(int64(rng.Intn(4)))
		case 1:
			row[2] = rel.Float(float64(rng.Intn(8)) / 2)
		case 2:
			row[2] = rel.Text(fmt.Sprint(rng.Intn(4)))
		case 3:
			row[2] = rel.Text(string(rune('x' + rng.Intn(3))))
		case 4:
			row[2] = rel.Bool(rng.Intn(2) == 0)
		}
		for c := 0; c < 2; c++ {
			if rng.Intn(6) == 0 {
				row[c] = rel.NullOf(sortSchema.Col(c).Type)
			}
		}
		rows[i] = row
	}
	return rows
}

// referenceSort is the ORDER BY the executor ran before compareSortKeys:
// sort.SliceStable over a less function with the same NULLs-last rule and
// non-True comparisons as ties.
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
			c, ts := rel.Compare(a, b)
			if ts != rel.True || c == 0 {
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

// TestSortMatchesReferenceOrdering: over seeded random rows and key lists
// — NULLs under both directions, DESC keys, multi-key ties and mixed-type
// keys — the sort operator's order is exactly the reference's, row for row
// (the seq column tells equal-keyed rows apart, so this checks stability).
func TestSortMatchesReferenceOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1919))
	for trial := 0; trial < 400; trial++ {
		rows := randSortRows(rng, rng.Intn(90))
		keys := make([]plan.SortKey, 1+rng.Intn(3))
		for i := range keys {
			keys[i] = plan.SortKey{Col: rng.Intn(3), Desc: rng.Intn(2) == 0}
		}
		want := referenceSort(rows, keys)
		res, err := Execute(&plan.SortNode{Child: &plan.ValuesNode{Rows: rows, Out: sortSchema}, Keys: keys}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got := res.Rows[i][3].AsInt(); got != want[i][3].AsInt() {
				t.Fatalf("trial %d, keys %+v: row %d is seq %d, reference has seq %d", trial, keys, i, got, want[i][3].AsInt())
			}
		}
	}
}

// BenchmarkSortStable times the ORDER BY operator on 1,000 rows under two
// keys, a DESC number and a text tie-breaker — the shape of the benchmark's
// "ORDER BY rating DESC, title".
func BenchmarkSortStable(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]rel.Row, 1000)
	for i := range rows {
		rows[i] = rel.Row{rel.Float(float64(rng.Intn(100)) / 10), rel.Text(fmt.Sprintf("title %d", rng.Intn(500)))}
	}
	schema := rel.NewSchema(rel.Column{Name: "rating", Type: rel.TypeFloat}, rel.Column{Name: "title", Type: rel.TypeText})
	node := &plan.SortNode{Child: &plan.ValuesNode{Rows: rows, Out: schema}, Keys: []plan.SortKey{{Col: 0, Desc: true}, {Col: 1}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(node, nil); err != nil {
			b.Fatal(err)
		}
	}
}
