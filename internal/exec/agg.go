package exec

import (
	"fmt"

	"llmsql/internal/expr"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
)

// accumulator folds values for one aggregate within one group.
type accumulator interface {
	add(v rel.Value)
	result() rel.Value
}

type countStarAcc struct{ n int64 }

func (a *countStarAcc) add(rel.Value)     { a.n++ }
func (a *countStarAcc) result() rel.Value { return rel.Int(a.n) }

type countAcc struct{ n int64 }

func (a *countAcc) add(v rel.Value) {
	if !v.IsNull() {
		a.n++
	}
}
func (a *countAcc) result() rel.Value { return rel.Int(a.n) }

type sumAcc struct {
	isInt  bool
	intSum int64
	fltSum float64
	sawAny bool
}

func (a *sumAcc) add(v rel.Value) {
	if v.IsNull() {
		return
	}
	f, err := rel.Coerce(v, rel.TypeFloat)
	if err != nil {
		return
	}
	a.sawAny = true
	a.fltSum += f.AsFloat()
	if v.Type() == rel.TypeInt {
		a.intSum += v.AsInt()
	} else {
		a.isInt = false
	}
}

func (a *sumAcc) result() rel.Value {
	if !a.sawAny {
		return rel.Null()
	}
	if a.isInt {
		return rel.Int(a.intSum)
	}
	return rel.Float(a.fltSum)
}

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) add(v rel.Value) {
	if v.IsNull() {
		return
	}
	f, err := rel.Coerce(v, rel.TypeFloat)
	if err != nil {
		return
	}
	a.sum += f.AsFloat()
	a.n++
}

func (a *avgAcc) result() rel.Value {
	if a.n == 0 {
		return rel.NullOf(rel.TypeFloat)
	}
	return rel.Float(a.sum / float64(a.n))
}

type minMaxAcc struct {
	max  bool
	best rel.Value
	set  bool
}

func (a *minMaxAcc) add(v rel.Value) {
	if v.IsNull() {
		return
	}
	if !a.set {
		a.best = v
		a.set = true
		return
	}
	c, ts := rel.Compare(v, a.best)
	if ts != rel.True {
		return
	}
	if (a.max && c > 0) || (!a.max && c < 0) {
		a.best = v
	}
}

func (a *minMaxAcc) result() rel.Value {
	if !a.set {
		return rel.Null()
	}
	return a.best
}

// distinctAcc wraps another accumulator, feeding each distinct value once.
type distinctAcc struct {
	inner accumulator
	seen  map[string]bool
}

func (a *distinctAcc) add(v rel.Value) {
	if v.IsNull() {
		a.inner.add(v) // inner ignores NULLs itself
		return
	}
	key := (rel.Row{v}).AllKey()
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.inner.add(v)
}

func (a *distinctAcc) result() rel.Value { return a.inner.result() }

func newAccumulator(spec plan.AggSpec) (accumulator, error) {
	var acc accumulator
	switch spec.Func {
	case "COUNT":
		if spec.Arg == nil {
			acc = &countStarAcc{}
		} else {
			acc = &countAcc{}
		}
	case "SUM":
		acc = &sumAcc{isInt: spec.Type == rel.TypeInt}
	case "AVG":
		acc = &avgAcc{}
	case "MIN":
		acc = &minMaxAcc{max: false}
	case "MAX":
		acc = &minMaxAcc{max: true}
	default:
		return nil, fmt.Errorf("exec: unknown aggregate %s", spec.Func)
	}
	if spec.Distinct {
		acc = &distinctAcc{inner: acc, seen: make(map[string]bool)}
	}
	return acc, nil
}

func (b *builder) buildAggregate(n *plan.AggregateNode) (RowIter, error) {
	child, err := b.buildDrained(n.Child)
	if err != nil {
		return nil, err
	}
	inSchema := n.Child.Schema()

	groupEvals := make([]*expr.Compiled, len(n.GroupBy))
	for i, g := range n.GroupBy {
		c, err := expr.Compile(g, inSchema)
		if err != nil {
			child.Close()
			return nil, err
		}
		groupEvals[i] = c
	}
	argEvals := make([]*expr.Compiled, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Arg == nil {
			continue
		}
		c, err := expr.Compile(a.Arg, inSchema)
		if err != nil {
			child.Close()
			return nil, err
		}
		argEvals[i] = c
	}

	type group struct {
		key  rel.Row
		accs []accumulator
	}
	groups := make(map[string]*group)
	var order []string // deterministic output order: first-seen

	rows, err := Drain(child)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		keyVals := make(rel.Row, len(groupEvals))
		for i, g := range groupEvals {
			v, err := g.Eval(row)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		key := keyVals.AllKey()
		grp, ok := groups[key]
		if !ok {
			accs := make([]accumulator, len(n.Aggs))
			for i, spec := range n.Aggs {
				acc, err := newAccumulator(spec)
				if err != nil {
					return nil, err
				}
				accs[i] = acc
			}
			grp = &group{key: keyVals, accs: accs}
			groups[key] = grp
			order = append(order, key)
		}
		for i, spec := range n.Aggs {
			if spec.Arg == nil {
				grp.accs[i].add(rel.Null())
				continue
			}
			v, err := argEvals[i].Eval(row)
			if err != nil {
				return nil, err
			}
			grp.accs[i].add(v)
		}
	}

	var out []rel.Row
	if len(groups) == 0 && len(n.GroupBy) == 0 {
		// Global aggregate over empty input: one row of defaults.
		row := make(rel.Row, 0, len(n.Aggs))
		for _, spec := range n.Aggs {
			acc, err := newAccumulator(spec)
			if err != nil {
				return nil, err
			}
			row = append(row, acc.result())
		}
		out = append(out, row)
	} else {
		for _, key := range order {
			grp := groups[key]
			row := make(rel.Row, 0, len(grp.key)+len(grp.accs))
			row = append(row, grp.key...)
			for _, acc := range grp.accs {
				row = append(row, acc.result())
			}
			out = append(out, row)
		}
	}
	return newSliceIter(out), nil
}
