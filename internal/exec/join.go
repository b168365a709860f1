package exec

import (
	"fmt"
	"sort"

	"llmsql/internal/expr"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

func (b *builder) buildJoin(n *plan.JoinNode) (RowIter, error) {
	if len(n.LeftKey) > 0 {
		if n.Strategy == plan.JoinBind && n.BindScan != nil {
			return b.buildBindJoin(n)
		}
		return b.buildHashJoin(n)
	}
	switch n.Kind {
	case plan.KindSemi, plan.KindAnti:
		return nil, fmt.Errorf("exec: %s requires hash keys", n.Kind)
	default:
		return b.buildNestedLoopJoin(n)
	}
}

// keyEvaluators compiles the key expressions over a schema.
func keyEvaluators(keys []sql.Expr, schema rel.Schema) ([]*expr.Compiled, error) {
	out := make([]*expr.Compiled, len(keys))
	for i, k := range keys {
		c, err := expr.Compile(k, schema)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// evalKey computes the composite hash key for a row; ok=false when any key
// component is NULL (NULL never equi-joins).
func evalKey(evals []*expr.Compiled, row rel.Row) (string, bool, error) {
	vals := make(rel.Row, len(evals))
	for i, e := range evals {
		v, err := e.Eval(row)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", false, nil
		}
		vals[i] = v
	}
	return vals.AllKey(), true, nil
}

// hashJoin carries the compiled state shared by the hash and bind join
// strategies.
type hashJoin struct {
	kind       plan.JoinKind
	leftEvals  []*expr.Compiled
	rightEvals []*expr.Compiled
	residual   func(rel.Row) (rel.Tristate, error)
	nullRight  rel.Row
}

func (b *builder) prepareHashJoin(n *plan.JoinNode) (*hashJoin, error) {
	leftSchema := n.Left.Schema()
	rightSchema := n.Right.Schema()

	leftEvals, err := keyEvaluators(n.LeftKey, leftSchema)
	if err != nil {
		return nil, fmt.Errorf("exec: left join key: %w", err)
	}
	rightEvals, err := keyEvaluators(n.RightKey, rightSchema)
	if err != nil {
		return nil, fmt.Errorf("exec: right join key: %w", err)
	}

	var residual func(rel.Row) (rel.Tristate, error)
	if n.Residual != nil {
		residual, err = expr.CompileBool(n.Residual, leftSchema.Concat(rightSchema))
		if err != nil {
			return nil, fmt.Errorf("exec: join residual: %w", err)
		}
	}

	nullRight := make(rel.Row, rightSchema.Len())
	for i := range nullRight {
		nullRight[i] = rel.NullOf(rightSchema.Col(i).Type)
	}
	return &hashJoin{
		kind:       n.Kind,
		leftEvals:  leftEvals,
		rightEvals: rightEvals,
		residual:   residual,
		nullRight:  nullRight,
	}, nil
}

// hashRows builds the hash table over rows keyed by evals, reporting
// whether any row had a NULL key.
func hashRows(rows []rel.Row, evals []*expr.Compiled) (map[string][]rel.Row, bool, error) {
	table := make(map[string][]rel.Row)
	hasNull := false
	for _, row := range rows {
		key, ok, err := evalKey(evals, row)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			hasNull = true
			continue
		}
		table[key] = append(table[key], row)
	}
	return table, hasNull, nil
}

// probeLeft streams left rows against the materialized right side: the
// classic probe phase, emitting left-major output. rightEmpty and
// rightHasNull carry the anti join's NOT IN determinations.
func (h *hashJoin) probeLeft(leftIter RowIter, table map[string][]rel.Row, rightEmpty, rightHasNull bool) RowIter {
	var pending []rel.Row

	emitMatches := func(left rel.Row, matches []rel.Row) ([]rel.Row, error) {
		var out []rel.Row
		for _, right := range matches {
			joined := left.Concat(right)
			if h.residual != nil {
				ts, err := h.residual(joined)
				if err != nil {
					return nil, err
				}
				if ts != rel.True {
					continue
				}
			}
			out = append(out, joined)
		}
		return out, nil
	}

	return &funcIter{
		next: func() (rel.Row, bool, error) {
			for {
				if len(pending) > 0 {
					row := pending[0]
					pending = pending[1:]
					return row, true, nil
				}
				left, ok, err := leftIter.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				key, keyOK, err := evalKey(h.leftEvals, left)
				if err != nil {
					return nil, false, err
				}

				switch h.kind {
				case plan.KindSemi:
					if keyOK && len(table[key]) > 0 {
						return left, true, nil
					}

				case plan.KindAnti:
					// NOT IN semantics: an empty right side passes every
					// row; otherwise NULL on either side suppresses.
					if rightEmpty {
						return left, true, nil
					}
					if rightHasNull || !keyOK {
						continue
					}
					if len(table[key]) == 0 {
						return left, true, nil
					}

				case plan.KindLeft:
					var matches []rel.Row
					if keyOK {
						matches, err = emitMatches(left, table[key])
						if err != nil {
							return nil, false, err
						}
					}
					if len(matches) == 0 {
						return left.Concat(h.nullRight), true, nil
					}
					pending = matches

				default: // inner
					if !keyOK {
						continue
					}
					matches, err := emitMatches(left, table[key])
					if err != nil {
						return nil, false, err
					}
					pending = matches
				}
			}
		},
		close: leftIter.Close,
	}
}

// probeRight streams right rows against a materialized left side (inner
// joins built on the left): output is right-major, each match emitted as
// left ++ right.
func (h *hashJoin) probeRight(rightIter RowIter, table map[string][]rel.Row) RowIter {
	var pending []rel.Row
	return &funcIter{
		next: func() (rel.Row, bool, error) {
			for {
				if len(pending) > 0 {
					row := pending[0]
					pending = pending[1:]
					return row, true, nil
				}
				right, ok, err := rightIter.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				key, keyOK, err := evalKey(h.rightEvals, right)
				if err != nil || !keyOK {
					if err != nil {
						return nil, false, err
					}
					continue
				}
				for _, left := range table[key] {
					joined := left.Concat(right)
					if h.residual != nil {
						ts, err := h.residual(joined)
						if err != nil {
							return nil, false, err
						}
						if ts != rel.True {
							continue
						}
					}
					pending = append(pending, joined)
				}
			}
		},
		close: rightIter.Close,
	}
}

func (b *builder) buildHashJoin(n *plan.JoinNode) (RowIter, error) {
	h, err := b.prepareHashJoin(n)
	if err != nil {
		return nil, err
	}

	// Build phase: materialize and hash the build side — the right input
	// by default, the left when the join planner judged it smaller
	// (inner joins only; output order follows the probe side).
	if n.BuildLeft && n.Kind == plan.KindInner {
		leftIter, err := b.buildDrained(n.Left)
		if err != nil {
			return nil, err
		}
		leftRows, err := Drain(leftIter)
		if err != nil {
			return nil, err
		}
		table, _, err := hashRows(leftRows, h.leftEvals)
		if err != nil {
			return nil, err
		}
		rightIter, err := b.build(n.Right)
		if err != nil {
			return nil, err
		}
		return h.probeRight(rightIter, table), nil
	}

	rightIter, err := b.buildDrained(n.Right)
	if err != nil {
		return nil, err
	}
	rightRows, err := Drain(rightIter)
	if err != nil {
		return nil, err
	}
	table, rightHasNull, err := hashRows(rightRows, h.rightEvals)
	if err != nil {
		return nil, err
	}

	leftIter, err := b.build(n.Left)
	if err != nil {
		return nil, err
	}
	return h.probeLeft(leftIter, table, len(rightRows) == 0, rightHasNull), nil
}

// buildBindJoin executes the sideways-information-passing strategy: drain
// the non-bound (outer) side first, collect its distinct join-key values,
// and build the bound side with those keys pushed into its scan
// (ScanRequest.Keys). The bound side's rows are then filtered to the bound
// key set — sources are untrusted, so rows for keys that were never bound
// are dropped here — and, since both sides are now materialized, the probe
// runs in exactly the orientation the hash join would use (BuildLeft), so
// the output is byte-identical to the unbound plan, ordering included.
func (b *builder) buildBindJoin(n *plan.JoinNode) (RowIter, error) {
	h, err := b.prepareHashJoin(n)
	if err != nil {
		return nil, err
	}

	outerNode, boundNode := n.Left, n.Right
	outerEval, boundEval := h.leftEvals[0], h.rightEvals[0]
	if n.BindLeft {
		outerNode, boundNode = n.Right, n.Left
		outerEval, boundEval = h.rightEvals[0], h.leftEvals[0]
	}

	outerIter, err := b.buildDrained(outerNode)
	if err != nil {
		return nil, err
	}
	outerRows, err := Drain(outerIter)
	if err != nil {
		return nil, err
	}
	keys, outerHasNull, err := distinctKeyTexts(outerRows, outerEval)
	if err != nil {
		return nil, err
	}

	// Anti joins with NULL outer keys depend on whether the FULL right
	// side is empty (an empty NOT IN list passes every row, a non-empty
	// one suppresses NULL-keyed ones) — a bound scan cannot reveal that,
	// so fall back to the unbound build for exactly that case.
	bind := !(n.Kind == plan.KindAnti && outerHasNull)

	if bind {
		if b.bindKeys == nil {
			b.bindKeys = make(map[*plan.ScanNode][]string)
		}
		b.bindKeys[n.BindScan] = keys
	}
	boundIter, err := b.buildDrained(boundNode)
	if bind {
		delete(b.bindKeys, n.BindScan)
	}
	if err != nil {
		return nil, err
	}
	boundRows, err := Drain(boundIter)
	if err != nil {
		return nil, err
	}
	if bind {
		boundRows, err = filterBoundRows(boundRows, boundEval, keys)
		if err != nil {
			return nil, err
		}
	}

	leftRows, rightRows := outerRows, boundRows
	if n.BindLeft {
		leftRows, rightRows = boundRows, outerRows
	}
	if n.BuildLeft && n.Kind == plan.KindInner {
		table, _, err := hashRows(leftRows, h.leftEvals)
		if err != nil {
			return nil, err
		}
		return h.probeRight(newSliceIter(rightRows), table), nil
	}
	table, rightHasNull, err := hashRows(rightRows, h.rightEvals)
	if err != nil {
		return nil, err
	}
	return h.probeLeft(newSliceIter(leftRows), table, len(rightRows) == 0, rightHasNull), nil
}

// distinctKeyTexts collects the sorted distinct textual join-key values of
// the outer rows (NULL keys are reported, never bound).
func distinctKeyTexts(rows []rel.Row, eval *expr.Compiled) ([]string, bool, error) {
	seen := make(map[string]bool)
	hasNull := false
	for _, row := range rows {
		v, err := eval.Eval(row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			hasNull = true
			continue
		}
		seen[v.AsText()] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, hasNull, nil
}

// filterBoundRows drops bound-side rows whose join key is NULL or not among
// the bound keys: the source was asked for exactly these keys, and a row
// outside the set could never match the outer side — but it could corrupt
// the anti join's emptiness/NULL determinations, so the executor enforces
// the contract rather than trusting it.
func filterBoundRows(rows []rel.Row, eval *expr.Compiled, keys []string) ([]rel.Row, error) {
	bound := make(map[string]bool, len(keys))
	for _, k := range keys {
		bound[k] = true
	}
	kept := rows[:0]
	for _, row := range rows {
		v, err := eval.Eval(row)
		if err != nil {
			return nil, err
		}
		if v.IsNull() || !bound[v.AsText()] {
			continue
		}
		kept = append(kept, row)
	}
	return kept, nil
}

func (b *builder) buildNestedLoopJoin(n *plan.JoinNode) (RowIter, error) {
	leftSchema := n.Left.Schema()
	rightSchema := n.Right.Schema()

	var pred func(rel.Row) (rel.Tristate, error)
	on := n.On
	if n.Residual != nil {
		on = n.Residual
	}
	if on != nil {
		var err error
		pred, err = expr.CompileBool(on, leftSchema.Concat(rightSchema))
		if err != nil {
			return nil, fmt.Errorf("exec: join predicate: %w", err)
		}
	}

	rightIter, err := b.buildDrained(n.Right)
	if err != nil {
		return nil, err
	}
	rightRows, err := Drain(rightIter)
	if err != nil {
		return nil, err
	}

	leftIter, err := b.build(n.Left)
	if err != nil {
		return nil, err
	}

	nullRight := make(rel.Row, rightSchema.Len())
	for i := range nullRight {
		nullRight[i] = rel.NullOf(rightSchema.Col(i).Type)
	}

	var current rel.Row
	ri := 0
	matched := false

	return &funcIter{
		next: func() (rel.Row, bool, error) {
			for {
				if current == nil {
					row, ok, err := leftIter.Next()
					if err != nil || !ok {
						return nil, false, err
					}
					current = row
					ri = 0
					matched = false
				}
				for ri < len(rightRows) {
					right := rightRows[ri]
					ri++
					joined := current.Concat(right)
					if pred != nil {
						ts, err := pred(joined)
						if err != nil {
							return nil, false, err
						}
						if ts != rel.True {
							continue
						}
					}
					matched = true
					return joined, true, nil
				}
				// Left row exhausted.
				if n.Kind == plan.KindLeft && !matched {
					out := current.Concat(nullRight)
					current = nil
					return out, true, nil
				}
				current = nil
			}
		},
		close: leftIter.Close,
	}, nil
}
