package exec

import (
	"fmt"

	"llmsql/internal/expr"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
)

// Result is a fully materialized query result.
type Result struct {
	Schema rel.Schema
	Rows   []rel.Row
}

// Execute runs the plan against the source and materializes the result.
func Execute(node plan.Node, src Source) (*Result, error) {
	it, err := Build(node, src)
	if err != nil {
		return nil, err
	}
	rows, err := Drain(it)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: node.Schema(), Rows: rows}, nil
}

// Profile records per-operator output row counts (EXPLAIN ANALYZE).
type Profile struct {
	// Rows maps each plan node to the number of rows it emitted.
	Rows map[plan.Node]int64
}

// ExecuteAnalyzed runs the plan and returns the result together with the
// per-operator profile.
func ExecuteAnalyzed(node plan.Node, src Source) (*Result, *Profile, error) {
	prof := &Profile{Rows: make(map[plan.Node]int64)}
	b := &builder{src: src, prof: prof}
	it, err := b.build(node)
	if err != nil {
		return nil, nil, err
	}
	rows, err := Drain(it)
	if err != nil {
		return nil, nil, err
	}
	return &Result{Schema: node.Schema(), Rows: rows}, prof, nil
}

// Build compiles the plan into an iterator tree.
func Build(node plan.Node, src Source) (RowIter, error) {
	return (&builder{src: src}).build(node)
}

// builder carries the source and optional profile through the recursive
// iterator construction.
type builder struct {
	src  Source
	prof *Profile
	// bindKeys carries the distinct join-key values a bind join wants
	// pushed into a specific scan; buildScan consumes the entry when it
	// reaches that node (the bound side is built after the outer side has
	// been drained, so the keys are final by then).
	bindKeys map[*plan.ScanNode][]string
	// limits counts the LimitNodes above the node being built that no
	// draining operator separates from it (see buildDrained): scans built
	// while it is positive may be abandoned early (ScanRequest.UnderLimit).
	limits int
}

// instrument wraps it so the node's emitted rows are counted when a
// profile is attached.
func (b *builder) instrument(node plan.Node, it RowIter) RowIter {
	if b.prof == nil {
		return it
	}
	return &funcIter{
		next: func() (rel.Row, bool, error) {
			row, ok, err := it.Next()
			if ok {
				b.prof.Rows[node]++
			}
			return row, ok, err
		},
		close: it.Close,
	}
}

// buildDrained builds a child its operator drains before emitting a row: no
// LIMIT above the operator can stop the child early, so its scans are built
// as drained ones.
func (b *builder) buildDrained(node plan.Node) (RowIter, error) {
	limits := b.limits
	b.limits = 0
	defer func() { b.limits = limits }()
	return b.build(node)
}

func (b *builder) build(node plan.Node) (RowIter, error) {
	it, err := b.buildRaw(node)
	if err != nil {
		return nil, err
	}
	return b.instrument(node, it), nil
}

func (b *builder) buildRaw(node plan.Node) (RowIter, error) {
	switch n := node.(type) {
	case *plan.ScanNode:
		return b.buildScan(n)
	case *plan.FilterNode:
		return b.buildFilter(n)
	case *plan.ProjectNode:
		return b.buildProject(n)
	case *plan.JoinNode:
		return b.buildJoin(n)
	case *plan.AggregateNode:
		return b.buildAggregate(n)
	case *plan.SortNode:
		return b.buildSort(n)
	case *plan.LimitNode:
		return b.buildLimit(n)
	case *plan.DistinctNode:
		return b.buildDistinct(n)
	case *plan.ValuesNode:
		return newSliceIter(n.Rows), nil
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", node)
	}
}

func (b *builder) buildScan(n *plan.ScanNode) (RowIter, error) {
	it, err := b.src.Scan(ScanRequest{
		Table:      n.Table,
		Alias:      n.Alias,
		Schema:     n.TableSchema,
		Needed:     n.Needed,
		Filter:     n.Filter,
		Limit:      n.Limit,
		UnderLimit: b.limits > 0,
		Keys:       b.bindKeys[n],
		Decision:   n.Decision,
	})
	if err != nil {
		return nil, err
	}
	width := n.TableSchema.Len()
	// Re-apply the pushed filter: sources are untrusted (the LLM source in
	// particular treats pushdown as a hint, not a guarantee).
	var pred func(rel.Row) (rel.Tristate, error)
	if n.Filter != nil {
		pred, err = expr.CompileBool(n.Filter, n.TableSchema)
		if err != nil {
			it.Close()
			return nil, err
		}
	}
	return &funcIter{
		next: func() (rel.Row, bool, error) {
			for {
				row, ok, err := it.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				if len(row) != width {
					return nil, false, fmt.Errorf("exec: scan of %s returned %d columns, want %d", n.Table, len(row), width)
				}
				if pred != nil {
					ts, err := pred(row)
					if err != nil {
						return nil, false, err
					}
					if ts != rel.True {
						continue
					}
				}
				return row, true, nil
			}
		},
		close: it.Close,
	}, nil
}

func (b *builder) buildFilter(n *plan.FilterNode) (RowIter, error) {
	child, err := b.build(n.Child)
	if err != nil {
		return nil, err
	}
	pred, err := expr.CompileBool(n.Pred, n.Child.Schema())
	if err != nil {
		child.Close()
		return nil, err
	}
	return &funcIter{
		next: func() (rel.Row, bool, error) {
			for {
				row, ok, err := child.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				ts, err := pred(row)
				if err != nil {
					return nil, false, err
				}
				if ts == rel.True {
					return row, true, nil
				}
			}
		},
		close: child.Close,
	}, nil
}

func (b *builder) buildProject(n *plan.ProjectNode) (RowIter, error) {
	child, err := b.build(n.Child)
	if err != nil {
		return nil, err
	}
	inSchema := n.Child.Schema()
	compiled := make([]*expr.Compiled, len(n.Exprs))
	for i, e := range n.Exprs {
		c, err := expr.Compile(e, inSchema)
		if err != nil {
			child.Close()
			return nil, err
		}
		compiled[i] = c
	}
	return &funcIter{
		next: func() (rel.Row, bool, error) {
			row, ok, err := child.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			out := make(rel.Row, len(compiled))
			for i, c := range compiled {
				v, err := c.Eval(row)
				if err != nil {
					return nil, false, err
				}
				out[i] = v
			}
			return out, true, nil
		},
		close: child.Close,
	}, nil
}

func (b *builder) buildLimit(n *plan.LimitNode) (RowIter, error) {
	// Only a finite limit stops pulling; OFFSET alone drains its child.
	if n.Limit >= 0 {
		b.limits++
		defer func() { b.limits-- }()
	}
	child, err := b.build(n.Child)
	if err != nil {
		return nil, err
	}
	skipped := int64(0)
	emitted := int64(0)
	return &funcIter{
		next: func() (rel.Row, bool, error) {
			for {
				if n.Limit >= 0 && emitted >= n.Limit {
					return nil, false, nil
				}
				row, ok, err := child.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				if skipped < n.Offset {
					skipped++
					continue
				}
				emitted++
				return row, true, nil
			}
		},
		close: child.Close,
	}, nil
}

func (b *builder) buildDistinct(n *plan.DistinctNode) (RowIter, error) {
	child, err := b.build(n.Child)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	return &funcIter{
		next: func() (rel.Row, bool, error) {
			for {
				row, ok, err := child.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				key := row.AllKey()
				if seen[key] {
					continue
				}
				seen[key] = true
				return row, true, nil
			}
		},
		close: child.Close,
	}, nil
}
