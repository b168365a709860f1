// Package metrics scores LLM-retrieved relations against ground truth:
// tuple-set precision/recall/F1 at entity-key granularity, exact-row
// matching with numeric tolerance, per-cell attribute accuracy,
// hallucination rate, and relative error of aggregate answers. It also
// summarizes execution cost (Efficiency): calls, tokens, total vs
// critical-path simulated latency, and completion-cache effectiveness.
package metrics

import (
	"math"
	"strings"
	"time"

	"llmsql/internal/rel"
)

// Efficiency summarizes the execution cost of an LLM-backed query or scan.
// TotalLatency accumulates every call as if serial; WallLatency is the
// simulated critical path under the engine's worker pool, so
// TotalLatency/WallLatency is the concurrency speedup.
type Efficiency struct {
	// Calls issued to the model; CachedCalls of them were answered by a
	// completion cache at zero cost.
	Calls       int
	CachedCalls int
	// Tokens is prompt+completion tokens actually charged.
	Tokens int
	// TotalLatency is the accumulated simulated latency of all calls.
	TotalLatency time.Duration
	// WallLatency is the simulated critical-path (wall-clock) latency.
	WallLatency time.Duration
	// CacheHits and CacheMisses count completion-cache lookups.
	CacheHits   int
	CacheMisses int
}

// CacheHitRate is hits over cache lookups (0 before any lookup).
func (e Efficiency) CacheHitRate() float64 {
	if e.CacheHits+e.CacheMisses == 0 {
		return 0
	}
	return float64(e.CacheHits) / float64(e.CacheHits+e.CacheMisses)
}

// SetMetrics compares a retrieved row set against ground truth.
type SetMetrics struct {
	// TruthRows and ResultRows are the input cardinalities.
	TruthRows  int
	ResultRows int
	// KeyMatched counts result rows whose entity key exists in the truth.
	KeyMatched int
	// KeysRecalled counts distinct truth keys present in the result.
	KeysRecalled int
	// ExactMatched counts result rows equal to their truth row in every
	// compared cell (within tolerance).
	ExactMatched int
	// Hallucinated counts result rows whose key does not exist in truth.
	Hallucinated int
	// CellsCompared and CellsCorrect track non-key attribute cells of
	// key-matched rows.
	CellsCompared int
	CellsCorrect  int
}

// Precision is key-level: matched result rows / all result rows.
func (m SetMetrics) Precision() float64 {
	if m.ResultRows == 0 {
		return 0
	}
	return float64(m.KeyMatched) / float64(m.ResultRows)
}

// Recall is key-level: distinct truth keys retrieved / truth rows.
func (m SetMetrics) Recall() float64 {
	if m.TruthRows == 0 {
		return 0
	}
	return float64(m.KeysRecalled) / float64(m.TruthRows)
}

// F1 is the harmonic mean of Precision and Recall.
func (m SetMetrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// AttrAccuracy is the fraction of compared attribute cells that are
// correct.
func (m SetMetrics) AttrAccuracy() float64 {
	if m.CellsCompared == 0 {
		return 0
	}
	return float64(m.CellsCorrect) / float64(m.CellsCompared)
}

// HallucinationRate is the fraction of result rows with unknown keys.
func (m SetMetrics) HallucinationRate() float64 {
	if m.ResultRows == 0 {
		return 0
	}
	return float64(m.Hallucinated) / float64(m.ResultRows)
}

// Options tunes row comparison.
type Options struct {
	// KeyIdx lists the key column positions (defaults to [0]).
	KeyIdx []int
	// NumTolerance accepts numeric cells within this relative error
	// (|a-b| <= tol * max(1,|truth|)). 0 requires exact equality.
	NumTolerance float64
	// CompareCols restricts cell comparison to these positions (nil = all
	// non-key columns).
	CompareCols []int
}

// Compare scores result against truth.
func Compare(result, truth []rel.Row, opt Options) SetMetrics {
	keyIdx := opt.KeyIdx
	if len(keyIdx) == 0 {
		keyIdx = []int{0}
	}
	truthByKey := make(map[string]rel.Row, len(truth))
	for _, row := range truth {
		truthByKey[normKey(row, keyIdx)] = row
	}

	m := SetMetrics{TruthRows: len(truth), ResultRows: len(result)}
	recalled := map[string]bool{}
	width := 0
	if len(truth) > 0 {
		width = len(truth[0])
	}
	compareCols := opt.CompareCols
	if compareCols == nil {
		isKey := map[int]bool{}
		for _, k := range keyIdx {
			isKey[k] = true
		}
		for i := 0; i < width; i++ {
			if !isKey[i] {
				compareCols = append(compareCols, i)
			}
		}
	}

	for _, row := range result {
		key := normKey(row, keyIdx)
		truthRow, ok := truthByKey[key]
		if !ok {
			m.Hallucinated++
			continue
		}
		m.KeyMatched++
		recalled[key] = true
		exact := true
		for _, c := range compareCols {
			if c >= len(row) || c >= len(truthRow) {
				exact = false
				continue
			}
			m.CellsCompared++
			if ValueEqual(row[c], truthRow[c], opt.NumTolerance) {
				m.CellsCorrect++
			} else {
				exact = false
			}
		}
		if exact {
			m.ExactMatched++
		}
	}
	m.KeysRecalled = len(recalled)
	return m
}

func normKey(row rel.Row, keyIdx []int) string {
	return row.Key(keyIdx)
}

// ValueEqual compares two cells: NULLs match NULLs, text matches
// case-insensitively after trimming, numerics match within the relative
// tolerance.
func ValueEqual(got, want rel.Value, tol float64) bool {
	if got.IsNull() || want.IsNull() {
		return got.IsNull() && want.IsNull()
	}
	if got.Type().Numeric() || want.Type().Numeric() {
		gf, gerr := rel.Coerce(got, rel.TypeFloat)
		wf, werr := rel.Coerce(want, rel.TypeFloat)
		if gerr != nil || werr != nil {
			return false
		}
		g, w := gf.AsFloat(), wf.AsFloat()
		if g == w {
			return true
		}
		limit := tol * math.Max(1, math.Abs(w))
		return math.Abs(g-w) <= limit
	}
	return strings.EqualFold(strings.TrimSpace(got.AsText()), strings.TrimSpace(want.AsText()))
}

// ScalarError returns the relative error of an aggregate answer:
// |got - want| / max(1, |want|). NULL answers count as error 1.
func ScalarError(got, want rel.Value) float64 {
	if want.IsNull() {
		if got.IsNull() {
			return 0
		}
		return 1
	}
	if got.IsNull() {
		return 1
	}
	gf, gerr := rel.Coerce(got, rel.TypeFloat)
	wf, werr := rel.Coerce(want, rel.TypeFloat)
	if gerr != nil || werr != nil {
		if ValueEqual(got, want, 0) {
			return 0
		}
		return 1
	}
	return math.Abs(gf.AsFloat()-wf.AsFloat()) / math.Max(1, math.Abs(wf.AsFloat()))
}

// Mean averages a float slice (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
