package metrics

import (
	"math"
	"testing"
	"time"

	"llmsql/internal/rel"
)

func truthRows() []rel.Row {
	return []rel.Row{
		{rel.Text("France"), rel.Text("Paris"), rel.Int(68)},
		{rel.Text("Japan"), rel.Text("Tokyo"), rel.Int(125)},
		{rel.Text("Brazil"), rel.Text("Brasilia"), rel.Int(214)},
		{rel.Text("Italy"), rel.Text("Rome"), rel.Int(59)},
	}
}

func TestComparePerfectRetrieval(t *testing.T) {
	m := Compare(truthRows(), truthRows(), Options{})
	if m.Precision() != 1 || m.Recall() != 1 || m.F1() != 1 {
		t.Fatalf("perfect: %+v", m)
	}
	if m.ExactPrecision() != 1 || m.AttrAccuracy() != 1 || m.HallucinationRate() != 0 {
		t.Fatalf("perfect cells: %+v", m)
	}
}

func TestComparePartialRetrieval(t *testing.T) {
	result := []rel.Row{
		{rel.Text("France"), rel.Text("Paris"), rel.Int(68)},       // exact
		{rel.Text("Japan"), rel.Text("Kyoto"), rel.Int(125)},       // wrong capital
		{rel.Text("Atlantis"), rel.Text("Poseidonia"), rel.Int(1)}, // hallucinated
	}
	m := Compare(result, truthRows(), Options{})
	if m.KeyMatched != 2 || m.Hallucinated != 1 || m.KeysRecalled != 2 {
		t.Fatalf("counts: %+v", m)
	}
	if p := m.Precision(); math.Abs(p-2.0/3) > 1e-9 {
		t.Fatalf("precision: %f", p)
	}
	if r := m.Recall(); r != 0.5 {
		t.Fatalf("recall: %f", r)
	}
	if m.ExactMatched != 1 {
		t.Fatalf("exact: %+v", m)
	}
	// Cells: 2 matched rows x 2 attr cols = 4 compared, 3 correct.
	if m.CellsCompared != 4 || m.CellsCorrect != 3 {
		t.Fatalf("cells: %+v", m)
	}
	if hr := m.HallucinationRate(); math.Abs(hr-1.0/3) > 1e-9 {
		t.Fatalf("hallucination: %f", hr)
	}
}

func TestCompareDuplicateResultRows(t *testing.T) {
	result := []rel.Row{
		{rel.Text("France"), rel.Text("Paris"), rel.Int(68)},
		{rel.Text("France"), rel.Text("Paris"), rel.Int(68)},
	}
	m := Compare(result, truthRows(), Options{})
	// Duplicates inflate precision denominator but recall counts distinct.
	if m.KeysRecalled != 1 || m.KeyMatched != 2 {
		t.Fatalf("dup: %+v", m)
	}
	if m.Recall() != 0.25 {
		t.Fatalf("dup recall: %f", m.Recall())
	}
}

func TestCompareNumericTolerance(t *testing.T) {
	result := []rel.Row{
		{rel.Text("France"), rel.Text("Paris"), rel.Int(70)}, // ~3% off
	}
	strict := Compare(result, truthRows(), Options{})
	if strict.CellsCorrect != 1 { // capital correct, population wrong
		t.Fatalf("strict: %+v", strict)
	}
	loose := Compare(result, truthRows(), Options{NumTolerance: 0.05})
	if loose.CellsCorrect != 2 {
		t.Fatalf("loose: %+v", loose)
	}
}

func TestCompareRestrictedColumns(t *testing.T) {
	result := []rel.Row{
		{rel.Text("France"), rel.Text("WRONG"), rel.Int(68)},
	}
	m := Compare(result, truthRows(), Options{CompareCols: []int{2}})
	if m.CellsCompared != 1 || m.CellsCorrect != 1 || m.ExactMatched != 1 {
		t.Fatalf("restricted: %+v", m)
	}
}

func TestCompareEmptyInputs(t *testing.T) {
	m := Compare(nil, truthRows(), Options{})
	if m.Precision() != 0 || m.Recall() != 0 || m.F1() != 0 {
		t.Fatalf("empty result: %+v", m)
	}
	m = Compare(truthRows(), nil, Options{})
	if m.Recall() != 0 || m.Hallucinated != 4 {
		t.Fatalf("empty truth: %+v", m)
	}
	if m.CardinalityError() != 0 {
		t.Fatalf("empty truth cardinality: %f", m.CardinalityError())
	}
}

func TestCardinalityError(t *testing.T) {
	m := Compare(truthRows()[:2], truthRows(), Options{})
	if m.CardinalityError() != 0.5 {
		t.Fatalf("cardinality: %f", m.CardinalityError())
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b rel.Value
		tol  float64
		want bool
	}{
		{rel.Text("Paris"), rel.Text("paris "), 0, true},
		{rel.Text("Paris"), rel.Text("Lyon"), 0, false},
		{rel.Int(100), rel.Int(100), 0, true},
		{rel.Int(103), rel.Int(100), 0.05, true},
		{rel.Int(110), rel.Int(100), 0.05, false},
		{rel.Float(2.0), rel.Int(2), 0, true},
		{rel.Null(), rel.Null(), 0, true},
		{rel.Null(), rel.Int(1), 0, false},
		{rel.Text("68"), rel.Int(68), 0, true},
		{rel.Text("abc"), rel.Int(68), 0, false},
		// Small numbers use absolute floor max(1, |truth|).
		{rel.Float(0.01), rel.Float(0.02), 0.05, true},
	}
	for _, c := range cases {
		if got := ValueEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ValueEqual(%v,%v,%g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestScalarError(t *testing.T) {
	if e := ScalarError(rel.Int(90), rel.Int(100)); math.Abs(e-0.1) > 1e-9 {
		t.Fatalf("scalar error: %f", e)
	}
	if e := ScalarError(rel.Null(), rel.Int(100)); e != 1 {
		t.Fatalf("null got: %f", e)
	}
	if e := ScalarError(rel.Null(), rel.Null()); e != 0 {
		t.Fatalf("both null: %f", e)
	}
	if e := ScalarError(rel.Text("x"), rel.Text("x")); e != 0 {
		t.Fatalf("text equal: %f", e)
	}
	if e := ScalarError(rel.Text("x"), rel.Text("y")); e != 1 {
		t.Fatalf("text differ: %f", e)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean: %f", m)
	}
}

func TestCompareCompositeKey(t *testing.T) {
	truth := []rel.Row{
		{rel.Text("A"), rel.Int(1), rel.Text("x")},
		{rel.Text("A"), rel.Int(2), rel.Text("y")},
	}
	result := []rel.Row{
		{rel.Text("A"), rel.Int(2), rel.Text("y")},
	}
	m := Compare(result, truth, Options{KeyIdx: []int{0, 1}})
	if m.KeyMatched != 1 || m.Recall() != 0.5 || m.ExactMatched != 1 {
		t.Fatalf("composite key: %+v", m)
	}
}

func TestEfficiency(t *testing.T) {
	e := Efficiency{
		Calls: 100, CachedCalls: 20, Tokens: 5000,
		TotalLatency: 80 * time.Second, WallLatency: 10 * time.Second,
		CacheHits: 20, CacheMisses: 80,
	}
	if got := e.Speedup(); got != 8 {
		t.Fatalf("speedup: %v", got)
	}
	if got := e.CacheHitRate(); got != 0.2 {
		t.Fatalf("hit rate: %v", got)
	}
	zero := Efficiency{}
	if zero.Speedup() != 1 || zero.CacheHitRate() != 0 {
		t.Fatalf("zero-value efficiency: %v %v", zero.Speedup(), zero.CacheHitRate())
	}
}

// ExactPrecision counts fully correct rows over all result rows.
func (m SetMetrics) ExactPrecision() float64 {
	if m.ResultRows == 0 {
		return 0
	}
	return float64(m.ExactMatched) / float64(m.ResultRows)
}

// CardinalityError is |result - truth| / truth.
func (m SetMetrics) CardinalityError() float64 {
	if m.TruthRows == 0 {
		return 0
	}
	return math.Abs(float64(m.ResultRows)-float64(m.TruthRows)) / float64(m.TruthRows)
}

// Speedup is total over wall latency: how much concurrency compressed the
// serial cost (1 when unknown). Cached calls contribute zero to both
// latencies, so the ratio measures concurrency overlap only — cache
// effectiveness is CacheHitRate.
func (e Efficiency) Speedup() float64 {
	if e.WallLatency <= 0 || e.TotalLatency <= 0 {
		return 1
	}
	return float64(e.TotalLatency) / float64(e.WallLatency)
}
