package exec

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"llmsql/internal/plan"
	"llmsql/internal/rel"
)

func (b *builder) buildSort(n *plan.SortNode) (RowIter, error) {
	child, err := b.buildDrained(n.Child)
	if err != nil {
		return nil, err
	}
	if n.Top > 0 {
		rows, err := topRows(child, n.Keys, n.Top)
		if err != nil {
			return nil, err
		}
		return newSliceIter(rows), nil
	}
	rows, err := Drain(child)
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(rows, func(x, y rel.Row) int { return compareSortKeys(x, y, n.Keys) })
	return newSliceIter(rows), nil
}

// ranked is a row and its input position: the position breaks key ties, so
// ranked entries are totally ordered exactly as a stable sort orders rows.
type ranked struct {
	row rel.Row
	pos int
}

// topRows drains it and returns the first k rows of its stable sort by
// keys. It keeps a max-heap of at most k entries — the worst kept entry at
// the root, evicted by any better row — so it runs in O(n log k) and holds
// k rows, not n. compareSortKeys being a total preorder makes the result
// exactly the stable sort's prefix.
func topRows(it RowIter, keys []plan.SortKey, k int64) ([]rel.Row, error) {
	defer it.Close()
	order := func(x, y ranked) int {
		if c := compareSortKeys(x.row, y.row, keys); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	}
	var heap []ranked
	for pos := 0; ; pos++ {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e := ranked{row, pos}
		if int64(len(heap)) < k {
			heap = append(heap, e)
			siftUp(heap, len(heap)-1, order)
		} else if order(e, heap[0]) < 0 {
			heap[0] = e
			siftDown(heap, 0, order)
		}
	}
	slices.SortFunc(heap, order)
	rows := make([]rel.Row, len(heap))
	for i, e := range heap {
		rows[i] = e.row
	}
	return rows, nil
}

// siftUp and siftDown restore the max-heap order of h (every parent orders
// after its children) after h[i] changed.
func siftUp(h []ranked, i int, order func(x, y ranked) int) {
	for i > 0 {
		parent := (i - 1) / 2
		if order(h[parent], h[i]) >= 0 {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []ranked, i int, order func(x, y ranked) int) {
	for {
		worst, l := i, 2*i+1
		if l < len(h) && order(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := l + 1; r < len(h) && order(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// compareSortKeys orders two rows by ORDER BY keys, three-way. It is a
// total preorder, so a bounded sort keeps exactly the full sort's prefix:
// NULLs sort after all values regardless of direction, and the values of one
// key compare by compareSortValues, reversed for DESC.
func compareSortKeys(x, y rel.Row, keys []plan.SortKey) int {
	for _, k := range keys {
		a, b := x[k.Col], y[k.Col]
		switch {
		case a.IsNull() && b.IsNull():
			continue
		case a.IsNull():
			return 1
		case b.IsNull():
			return -1
		}
		c := compareSortValues(a, b)
		if c == 0 {
			continue
		}
		if k.Desc {
			c = -c
		}
		return c
	}
	return 0
}

// compareSortValues orders two non-NULL values. Values of different classes
// order by class — numbers, then text, then booleans — so text never
// compares as the number it spells. Numbers compare by value, exactly across
// INT and FLOAT, with NaN equal to NaN and greater than every other number
// (PostgreSQL's rule); text compares bytewise and FALSE orders before TRUE.
func compareSortValues(a, b rel.Value) int {
	if c := cmp.Compare(sortClass(a.Type()), sortClass(b.Type())); c != 0 {
		return c
	}
	switch a.Type() {
	case rel.TypeText:
		return strings.Compare(a.AsText(), b.AsText())
	case rel.TypeBool:
		return cmpBool(a.AsBool(), b.AsBool())
	}
	return compareNumbers(a, b)
}

// sortClass ranks a non-NULL value's type for compareSortValues.
func sortClass(t rel.DataType) int {
	switch t {
	case rel.TypeText:
		return 1
	case rel.TypeBool:
		return 2
	}
	return 0
}

func compareNumbers(a, b rel.Value) int {
	ai, bi := a.Type() == rel.TypeInt, b.Type() == rel.TypeInt
	switch {
	case ai && bi:
		return cmp.Compare(a.AsInt(), b.AsInt())
	case ai:
		return -compareFloatInt(b.AsFloat(), a.AsInt())
	case bi:
		return compareFloatInt(a.AsFloat(), b.AsInt())
	}
	af, bf := a.AsFloat(), b.AsFloat()
	if an, bn := math.IsNaN(af), math.IsNaN(bf); an || bn {
		return cmpBool(an, bn)
	}
	return cmp.Compare(af, bf)
}

// compareFloatInt compares f with i exactly: converting i to float64 would
// round it, and equate 2^53+1 with 2^53 only on one side of a comparison.
func compareFloatInt(f float64, i int64) int {
	switch {
	case math.IsNaN(f) || f >= 0x1p63:
		return 1
	case f < -0x1p63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(int64(t), i); c != 0 {
		return c
	}
	return cmp.Compare(f, t)
}

// cmpBool orders false before true.
func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	default:
		return -1
	}
}
