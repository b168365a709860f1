package plan

import (
	"llmsql/internal/expr"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// Options tunes the optimizer rule pipeline.
type Options struct {
	// LimitPushdown enables the advisory LIMIT hint on scans (see
	// pushLimits). The hint never changes results — sources treat it as
	// permission to stop early, and the executor's LimitNode still
	// enforces the real limit — so disabling it only serves ablation and
	// debugging.
	LimitPushdown bool
	// BindJoin lets the join planner choose the bind strategy: drain the
	// outer join side, push its distinct key values into the build side's
	// scan (see planJoins). Like every pushdown it never changes results —
	// the executor drops rows for keys that were never bound — so
	// disabling it only serves ablation and debugging.
	BindJoin bool
}

// DefaultOptions enables every rule.
func DefaultOptions() Options { return Options{LimitPushdown: true, BindJoin: true} }

// OptimizeOpts applies the rule pipeline under opts: constant folding in
// filters, predicate pushdown (into join sides and scans, turning cross joins
// with equality predicates into hash joins), join-key extraction, projection
// pruning, sorting below pass-through projections, and limit pushdown.
func OptimizeOpts(n Node, opts Options) Node {
	n = foldFilters(n)
	n = pushdown(n)
	n = extractJoinKeys(n)
	pruneColumns(n, nil)
	n = sinkSorts(n)
	pushLimits(n, opts.LimitPushdown)
	return n
}

// ---- constant folding ----

// foldFilters removes always-true conjuncts and replaces always-false
// filters, and LIMIT 0 at any offset, with empty inputs of their schema.
func foldFilters(n Node) Node {
	switch x := n.(type) {
	case *FilterNode:
		x.Child = foldFilters(x.Child)
		var kept []sql.Expr
		for _, c := range sql.SplitConjuncts(x.Pred) {
			v, ok := constValue(c)
			if !ok {
				kept = append(kept, c)
				continue
			}
			switch rel.TristateOf(v) {
			case rel.True:
				// drop
			default:
				// FALSE or UNKNOWN: the filter never passes.
				return &ValuesNode{Out: x.Child.Schema()}
			}
		}
		if len(kept) == 0 {
			return x.Child
		}
		x.Pred = sql.JoinConjuncts(kept)
		return x
	case *LimitNode:
		if x.Limit == 0 {
			return &ValuesNode{Out: x.Schema()}
		}
	}
	replaceChildren(n, foldFilters)
	return n
}

// constValue evaluates e when it references no columns.
func constValue(e sql.Expr) (rel.Value, bool) {
	if len(sql.ColumnRefs(e)) > 0 {
		return rel.Value{}, false
	}
	c, err := expr.Compile(e, rel.Schema{})
	if err != nil {
		return rel.Value{}, false
	}
	v, err := c.Eval(nil)
	if err != nil {
		return rel.Value{}, false
	}
	return v, true
}

// replaceChildren rewrites each child of n in place using f. Nodes are
// pointer types so mutation is safe during optimization.
func replaceChildren(n Node, f func(Node) Node) {
	switch x := n.(type) {
	case *FilterNode:
		x.Child = f(x.Child)
	case *ProjectNode:
		x.Child = f(x.Child)
	case *JoinNode:
		x.Left = f(x.Left)
		x.Right = f(x.Right)
	case *AggregateNode:
		x.Child = f(x.Child)
	case *SortNode:
		x.Child = f(x.Child)
	case *LimitNode:
		x.Child = f(x.Child)
	case *DistinctNode:
		x.Child = f(x.Child)
	}
}

// ---- predicate pushdown ----

func pushdown(n Node) Node {
	switch x := n.(type) {
	case *FilterNode:
		child := pushdown(x.Child)
		remaining := pushConjuncts(child, sql.SplitConjuncts(x.Pred))
		if len(remaining) == 0 {
			return child
		}
		x.Child = child
		x.Pred = sql.JoinConjuncts(remaining)
		return x
	default:
		replaceChildren(n, pushdown)
		return n
	}
}

// pushConjuncts tries to sink each conjunct into the subtree rooted at n,
// returning the conjuncts that could not be placed.
func pushConjuncts(n Node, conjuncts []sql.Expr) []sql.Expr {
	var remaining []sql.Expr
	for _, c := range conjuncts {
		if !pushOne(n, c) {
			remaining = append(remaining, c)
		}
	}
	return remaining
}

// pushOne sinks a single conjunct as deep as possible. It reports whether
// the conjunct was absorbed.
func pushOne(n Node, c sql.Expr) bool {
	switch x := n.(type) {
	case *ScanNode:
		if !compilesOver(c, x.Schema()) {
			return false
		}
		if x.Filter == nil {
			x.Filter = c
		} else {
			x.Filter = &sql.BinaryExpr{Op: sql.OpAnd, Left: x.Filter, Right: c}
		}
		return true

	case *FilterNode:
		if pushOne(x.Child, c) {
			return true
		}
		if !compilesOver(c, x.Schema()) {
			return false
		}
		x.Pred = &sql.BinaryExpr{Op: sql.OpAnd, Left: x.Pred, Right: c}
		return true

	case *JoinNode:
		switch x.Kind {
		case KindInner, KindCross:
			if compilesOver(c, x.Left.Schema()) {
				if !pushOne(x.Left, c) {
					x.Left = &FilterNode{Child: x.Left, Pred: c}
				}
				return true
			}
			if compilesOver(c, x.Right.Schema()) {
				if !pushOne(x.Right, c) {
					x.Right = &FilterNode{Child: x.Right, Pred: c}
				}
				return true
			}
			// Cross-side predicate: attach to the join condition, which may
			// convert a cross join into an inner join.
			if compilesOver(c, x.Left.Schema().Concat(x.Right.Schema())) {
				if x.On == nil {
					x.On = c
				} else {
					x.On = &sql.BinaryExpr{Op: sql.OpAnd, Left: x.On, Right: c}
				}
				if x.Kind == KindCross {
					x.Kind = KindInner
				}
				return true
			}
			return false

		case KindLeft:
			// Only left-side predicates are safe to push below a left join.
			if compilesOver(c, x.Left.Schema()) {
				if !pushOne(x.Left, c) {
					x.Left = &FilterNode{Child: x.Left, Pred: c}
				}
				return true
			}
			return false

		case KindSemi, KindAnti:
			// Output is the left side; left-only predicates push down.
			if compilesOver(c, x.Left.Schema()) {
				if !pushOne(x.Left, c) {
					x.Left = &FilterNode{Child: x.Left, Pred: c}
				}
				return true
			}
			return false
		}
		return false

	case *DistinctNode:
		return pushOne(x.Child, c)

	default:
		// Project/Aggregate/Sort/Limit: pushing through would require
		// expression rewriting; the planner places filters below these
		// nodes already, so stop here.
		return false
	}
}

// compilesOver reports whether e type-checks against schema. Note that a
// reference ambiguous in a wider schema can become resolvable in a narrower
// one; compilation is the authoritative test.
func compilesOver(e sql.Expr, schema rel.Schema) bool {
	_, err := expr.Compile(e, schema)
	return err == nil
}

// ---- sorts below pass-through projections ----

// sinkSorts moves every Sort below the Projects under it whose expressions
// are all column references or literals. Such a projection cannot fail and
// emits one row per input row, so sorting its input by the remapped keys and
// projecting afterwards yields the same rows in the same order — and once
// pushLimits bounds the Sort, only the rows it keeps are projected. The
// rewrite relinks the existing nodes and remaps the keys in place.
func sinkSorts(n Node) Node {
	replaceChildren(n, sinkSorts)
	if s, ok := n.(*SortNode); ok {
		return sinkSort(s)
	}
	return n
}

func sinkSort(s *SortNode) Node {
	p, ok := s.Child.(*ProjectNode)
	if !ok || !passThrough(p) {
		return s
	}
	in := p.Child.Schema()
	kept := s.Keys[:0]
	for _, k := range s.Keys {
		// A literal key ties every row, so it orders nothing and is dropped.
		if cr, ok := p.Exprs[k.Col].(*sql.ColumnRef); ok {
			col, _ := in.Resolve(cr.Table, cr.Name)
			kept = append(kept, SortKey{Col: col, Desc: k.Desc})
		}
	}
	s.Keys = kept
	s.Child = p.Child
	p.Child = sinkSort(s)
	return p
}

// passThrough reports whether every expression of p is a literal or a
// column reference that resolves in p's input.
func passThrough(p *ProjectNode) bool {
	in := p.Child.Schema()
	for _, e := range p.Exprs {
		switch x := e.(type) {
		case *sql.Literal:
		case *sql.ColumnRef:
			if _, err := in.Resolve(x.Table, x.Name); err != nil {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ---- limit pushdown ----

// pushLimits walks the tree and, for every LimitNode with a positive limit,
// sinks a row cap of Limit+Offset through the projections below it (see
// pushLimitHint): onto a Sort as its exact Top bound, and — when scans is
// set (Options.LimitPushdown) — onto a scan as an advisory hint.
func pushLimits(n Node, scans bool) {
	if l, ok := n.(*LimitNode); ok && l.Limit > 0 {
		pushLimitHint(l.Child, l.Limit+l.Offset, scans)
	}
	for _, c := range n.Children() {
		pushLimits(c, scans)
	}
}

// pushLimitHint sinks a row cap through operators that emit exactly one
// output row per input row in input order (currently only projections),
// stopping at anything that filters, reorders, blocks or multiplies rows. A
// Sort or a scan keeps the tightest cap it is offered. On a Sort the cap is
// exact: nothing above it reads past row k of its output.
//
// Note that a scan's own pushed-down Filter does NOT block the hint: the
// executor re-applies that filter on the scan's output, so the rows the
// hint counts are the post-filter rows, and a source honouring the hint
// must keep producing until k rows *survive its filter* (the streaming LLM
// scan does exactly that, demand-driven).
func pushLimitHint(n Node, k int64, scans bool) {
	switch x := n.(type) {
	case *ScanNode:
		if scans && (x.Limit == 0 || k < x.Limit) {
			x.Limit = k
		}
	case *SortNode:
		if x.Top == 0 || k < x.Top {
			x.Top = k
		}
	case *ProjectNode:
		pushLimitHint(x.Child, k, scans)
	}
}

// ---- join key extraction ----

func extractJoinKeys(n Node) Node {
	replaceChildren(n, extractJoinKeys)
	j, ok := n.(*JoinNode)
	if !ok || j.On == nil || len(j.LeftKey) > 0 {
		return n
	}
	var residual []sql.Expr
	for _, c := range sql.SplitConjuncts(j.On) {
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != sql.OpEq {
			residual = append(residual, c)
			continue
		}
		l, r := be.Left, be.Right
		switch {
		case compilesOver(l, j.Left.Schema()) && compilesOver(r, j.Right.Schema()):
			j.LeftKey = append(j.LeftKey, l)
			j.RightKey = append(j.RightKey, r)
		case compilesOver(r, j.Left.Schema()) && compilesOver(l, j.Right.Schema()):
			j.LeftKey = append(j.LeftKey, r)
			j.RightKey = append(j.RightKey, l)
		default:
			residual = append(residual, c)
		}
	}
	j.Residual = sql.JoinConjuncts(residual)
	return n
}

// ---- projection pruning ----

// colID identifies a column by binding table and name.
type colID struct{ table, name string }

// pruneColumns walks the tree computing, for each scan, the set of columns
// any ancestor consumes; needed == nil means "all columns".
func pruneColumns(n Node, needed map[colID]bool) {
	switch x := n.(type) {
	case *ScanNode:
		if needed == nil {
			return
		}
		// The source must also see the columns its own pushed filter reads.
		for _, ref := range refsOf(x.Filter, x.Schema()) {
			needed[ref] = true
		}
		mask := make([]bool, x.Schema().Len())
		for i, c := range x.Schema().Columns {
			mask[i] = needed[colID{c.Table, c.Name}] || c.Key
		}
		x.Needed = mask

	case *FilterNode:
		child := addRefs(needed, x.Pred, x.Child.Schema())
		pruneColumns(x.Child, child)

	case *ProjectNode:
		// A projection resets the requirement: only its expressions' refs
		// matter below it.
		child := map[colID]bool{}
		for _, e := range x.Exprs {
			for _, ref := range refsOf(e, x.Child.Schema()) {
				child[ref] = true
			}
		}
		pruneColumns(x.Child, child)

	case *JoinNode:
		left := cloneNeed(needed)
		right := cloneNeed(needed)
		for _, e := range x.LeftKey {
			left = addRefs(left, e, x.Left.Schema())
		}
		for _, e := range x.RightKey {
			right = addRefs(right, e, x.Right.Schema())
		}
		both := x.Left.Schema().Concat(x.Right.Schema())
		for _, e := range []sql.Expr{x.On, x.Residual} {
			if e == nil {
				continue
			}
			for _, ref := range refsOf(e, both) {
				if left != nil {
					left[ref] = true
				}
				if right != nil {
					right[ref] = true
				}
			}
		}
		if x.Kind == KindSemi || x.Kind == KindAnti {
			// Right side only feeds the key.
			if right != nil {
				r2 := map[colID]bool{}
				for _, e := range x.RightKey {
					r2 = addRefs(r2, e, x.Right.Schema())
				}
				right = r2
			}
		}
		pruneColumns(x.Left, left)
		pruneColumns(x.Right, right)

	case *AggregateNode:
		child := map[colID]bool{}
		for _, g := range x.GroupBy {
			for _, ref := range refsOf(g, x.Child.Schema()) {
				child[ref] = true
			}
		}
		for _, a := range x.Aggs {
			if a.Arg != nil {
				for _, ref := range refsOf(a.Arg, x.Child.Schema()) {
					child[ref] = true
				}
			}
		}
		pruneColumns(x.Child, child)

	case *SortNode:
		// A Sort the planner sank below a trim may sort by hidden columns.
		for _, k := range x.Keys {
			if c := x.Child.Schema().Col(k.Col); needed != nil {
				needed[colID{c.Table, c.Name}] = true
			}
		}
		pruneColumns(x.Child, needed)
	case *LimitNode:
		pruneColumns(x.Child, needed)
	case *DistinctNode:
		pruneColumns(x.Child, needed)
	case *ValuesNode:
		// nothing to prune
	}
}

func cloneNeed(m map[colID]bool) map[colID]bool {
	if m == nil {
		return nil
	}
	out := make(map[colID]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// addRefs returns needed plus the refs of e resolved against schema; a nil
// map stays nil ("all needed").
func addRefs(needed map[colID]bool, e sql.Expr, schema rel.Schema) map[colID]bool {
	if needed == nil {
		return nil
	}
	out := cloneNeed(needed)
	for _, ref := range refsOf(e, schema) {
		out[ref] = true
	}
	return out
}

// refsOf resolves every column reference in e against schema and returns
// the identities of the columns it touches.
func refsOf(e sql.Expr, schema rel.Schema) []colID {
	if e == nil {
		return nil
	}
	var out []colID
	for _, cr := range sql.ColumnRefs(e) {
		if idx, err := schema.Resolve(cr.Table, cr.Name); err == nil {
			c := schema.Col(idx)
			out = append(out, colID{c.Table, c.Name})
		}
	}
	return out
}
