package plan

import (
	"llmsql/internal/sql"
)

// HasParams reports whether any expression in the plan contains a parameter
// placeholder. Planned trees cache this cheaply via Bind's fast path, so the
// helper mostly serves tests and diagnostics.
func HasParams(n Node) bool {
	if n == nil {
		return false
	}
	for _, e := range nodeExprs(n) {
		if sql.HasParams(e) {
			return true
		}
	}
	for _, c := range n.Children() {
		if HasParams(c) {
			return true
		}
	}
	return false
}

// nodeExprs lists the expressions held directly by n.
func nodeExprs(n Node) []sql.Expr {
	switch x := n.(type) {
	case *ScanNode:
		return []sql.Expr{x.Filter}
	case *FilterNode:
		return []sql.Expr{x.Pred}
	case *ProjectNode:
		return x.Exprs
	case *JoinNode:
		out := []sql.Expr{x.On, x.Residual}
		out = append(out, x.LeftKey...)
		return append(out, x.RightKey...)
	case *AggregateNode:
		out := append([]sql.Expr{}, x.GroupBy...)
		for _, a := range x.Aggs {
			out = append(out, a.Arg)
		}
		return out
	default:
		return nil
	}
}

// Bind substitutes every parameter placeholder in the plan with its bound
// value as a typed literal, returning a new tree. The original plan is never
// mutated — expr-free subtrees are shared, so a cached plan stays reusable
// across bindings and concurrent executions. A plan without parameters is
// returned unchanged (the steady-state fast path costs one tree walk and no
// allocation).
//
// Copies preserve every planner annotation (scan decisions, join strategy
// and cost breakdowns, needed-column masks, limit hints): those were derived
// from the parameterized plan's shape, which binding does not change —
// substituting a literal for a placeholder alters no schema, join key or
// cardinality estimate the optimizer used.
func Bind(n Node, b *sql.Bindings) (Node, error) {
	if !HasParams(n) {
		return n, nil
	}
	bd := &binder{b: b, scans: map[*ScanNode]*ScanNode{}}
	out, err := bd.bind(n)
	if err != nil {
		return nil, err
	}
	return out, nil
}

type binder struct {
	b *sql.Bindings
	// scans maps original scan nodes to their copies so JoinNode.BindScan
	// pointers follow the copied tree.
	scans map[*ScanNode]*ScanNode
}

func (bd *binder) expr(e sql.Expr) (sql.Expr, error) {
	return sql.BindExpr(e, bd.b)
}

func (bd *binder) exprs(list []sql.Expr) ([]sql.Expr, bool, error) {
	changed := false
	out := make([]sql.Expr, len(list))
	for i, e := range list {
		c, err := bd.expr(e)
		if err != nil {
			return nil, false, err
		}
		if c != e {
			changed = true
		}
		out[i] = c
	}
	if !changed {
		return list, false, nil
	}
	return out, true, nil
}

func (bd *binder) bind(n Node) (Node, error) {
	switch x := n.(type) {
	case *ScanNode:
		f, err := bd.expr(x.Filter)
		if err != nil {
			return nil, err
		}
		if f == x.Filter {
			bd.scans[x] = x
			return x, nil
		}
		cp := *x
		cp.Filter = f
		bd.scans[x] = &cp
		return &cp, nil

	case *FilterNode:
		child, err := bd.bind(x.Child)
		if err != nil {
			return nil, err
		}
		pred, err := bd.expr(x.Pred)
		if err != nil {
			return nil, err
		}
		if child == x.Child && pred == x.Pred {
			return x, nil
		}
		return &FilterNode{Child: child, Pred: pred}, nil

	case *ProjectNode:
		child, err := bd.bind(x.Child)
		if err != nil {
			return nil, err
		}
		exprs, changed, err := bd.exprs(x.Exprs)
		if err != nil {
			return nil, err
		}
		if child == x.Child && !changed {
			return x, nil
		}
		return &ProjectNode{Child: child, Exprs: exprs, Out: x.Out}, nil

	case *JoinNode:
		left, err := bd.bind(x.Left)
		if err != nil {
			return nil, err
		}
		right, err := bd.bind(x.Right)
		if err != nil {
			return nil, err
		}
		on, err := bd.expr(x.On)
		if err != nil {
			return nil, err
		}
		residual, err := bd.expr(x.Residual)
		if err != nil {
			return nil, err
		}
		lk, lkChanged, err := bd.exprs(x.LeftKey)
		if err != nil {
			return nil, err
		}
		rk, rkChanged, err := bd.exprs(x.RightKey)
		if err != nil {
			return nil, err
		}
		if left == x.Left && right == x.Right && on == x.On &&
			residual == x.Residual && !lkChanged && !rkChanged {
			return x, nil
		}
		cp := *x
		cp.Left, cp.Right = left, right
		cp.On, cp.Residual = on, residual
		cp.LeftKey, cp.RightKey = lk, rk
		if cp.BindScan != nil {
			if mapped, ok := bd.scans[cp.BindScan]; ok {
				cp.BindScan = mapped
			}
		}
		return &cp, nil

	case *AggregateNode:
		child, err := bd.bind(x.Child)
		if err != nil {
			return nil, err
		}
		groupBy, gChanged, err := bd.exprs(x.GroupBy)
		if err != nil {
			return nil, err
		}
		aggs := x.Aggs
		aChanged := false
		for i, a := range x.Aggs {
			arg, err := bd.expr(a.Arg)
			if err != nil {
				return nil, err
			}
			if arg != a.Arg {
				if !aChanged {
					aggs = append([]AggSpec{}, x.Aggs...)
					aChanged = true
				}
				aggs[i].Arg = arg
			}
		}
		if child == x.Child && !gChanged && !aChanged {
			return x, nil
		}
		cp := *x
		cp.Child = child
		cp.GroupBy = groupBy
		cp.Aggs = aggs
		return &cp, nil

	case *SortNode:
		child, err := bd.bind(x.Child)
		if err != nil {
			return nil, err
		}
		if child == x.Child {
			return x, nil
		}
		cp := *x
		cp.Child = child
		return &cp, nil

	case *LimitNode:
		child, err := bd.bind(x.Child)
		if err != nil {
			return nil, err
		}
		if child == x.Child {
			return x, nil
		}
		return &LimitNode{Child: child, Limit: x.Limit, Offset: x.Offset}, nil

	case *DistinctNode:
		child, err := bd.bind(x.Child)
		if err != nil {
			return nil, err
		}
		if child == x.Child {
			return x, nil
		}
		return &DistinctNode{Child: child}, nil

	default:
		// ValuesNode and future leaf nodes hold no expressions.
		return n, nil
	}
}
