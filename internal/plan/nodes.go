// Package plan turns parsed SELECT statements into logical query plans:
// name-resolved, type-checked operator trees that the executor
// (internal/exec) can run against any table source. It also implements the
// optimizer rules (constant folding, predicate pushdown, projection pruning)
// and EXPLAIN rendering.
package plan

import (
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// Node is a logical plan operator.
type Node interface {
	// Schema describes the rows the operator produces.
	Schema() rel.Schema
	// Children returns the operator's inputs in order.
	Children() []Node
}

// ScanNode reads a base (or virtual) table. The optimizer may attach a
// pushed-down filter and a needed-column mask; sources are free to ignore
// both (the executor re-applies the filter and the full row width is always
// produced, with NULLs in unneeded positions when the source prunes).
type ScanNode struct {
	// Table is the catalog name of the table.
	Table string
	// Alias is the binding name used in the query ("c" in "country c").
	Alias string
	// TableSchema is the scan output schema, renamed to Alias.
	TableSchema rel.Schema
	// Filter is a pushed-down predicate over TableSchema, or nil.
	Filter sql.Expr
	// Needed marks which columns the rest of the plan consumes; nil means
	// all.
	Needed []bool
	// Limit, when positive, is an advisory row cap pushed down from an
	// enclosing LimitNode through prefix-safe operators: the plan consumes
	// at most this many of the scan's output rows. Sources may use it to
	// stop retrieving early (the LLM source bounds its attribute fan-out);
	// the executor's LimitNode still enforces the real limit, so a source
	// that ignores or violates the hint cannot change results. 0 means no
	// hint.
	Limit int64
	// Decision, when non-nil, is the scan-cost decision the source reported
	// for this table (virtual tables only): the chosen prompt decomposition
	// and its per-strategy cost breakdown. EXPLAIN surfaces it and the
	// executor passes it back in the scan request, so the scan runs it.
	Decision *ScanDecision
	// Materialized, when non-empty, names the materialized view whose row
	// store serves this scan instead of a live LLM retrieval; EXPLAIN
	// renders it as [materialized=name age=N].
	Materialized string
	// MaterializedAge is the view's age when the plan was built, counted in
	// warm reads served since the last build or refresh (views age by use,
	// not wall clock, so replayed plans stay deterministic). A cached plan
	// keeps it through reads and through a REFRESH that leaves a fresh
	// view's row count unchanged: neither invalidates plans.
	MaterializedAge int
}

// Schema implements Node.
func (s *ScanNode) Schema() rel.Schema { return s.TableSchema }

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// FilterNode drops rows whose predicate is not TRUE.
type FilterNode struct {
	Child Node
	// Pred is a boolean expression over Child's schema.
	Pred sql.Expr
}

// Schema implements Node.
func (f *FilterNode) Schema() rel.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *FilterNode) Children() []Node { return []Node{f.Child} }

// ProjectNode computes expressions over child rows.
type ProjectNode struct {
	Child Node
	// Exprs are the output expressions over Child's schema.
	Exprs []sql.Expr
	// Out is the output schema, one column per expression.
	Out rel.Schema
}

// Schema implements Node.
func (p *ProjectNode) Schema() rel.Schema { return p.Out }

// Children implements Node.
func (p *ProjectNode) Children() []Node { return []Node{p.Child} }

// JoinKind extends the surface join types with semi/anti joins produced by
// IN-subquery rewriting.
type JoinKind int

const (
	// KindInner is an inner join.
	KindInner JoinKind = iota
	// KindLeft is a left outer join.
	KindLeft
	// KindCross is a cross product.
	KindCross
	// KindSemi keeps left rows with at least one match (IN subquery).
	KindSemi
	// KindAnti keeps left rows with no match (NOT IN subquery, with SQL
	// NULL semantics: any NULL on either side suppresses the row).
	KindAnti
)

// String returns the display name of the join kind.
func (k JoinKind) String() string {
	switch k {
	case KindLeft:
		return "LeftJoin"
	case KindCross:
		return "CrossJoin"
	case KindSemi:
		return "SemiJoin"
	case KindAnti:
		return "AntiJoin"
	default:
		return "Join"
	}
}

// JoinStrategy selects how an equi-join is executed. The zero value is the
// classic hash join, so plans built without the join planner (tests,
// hand-assembled trees) keep today's behavior.
type JoinStrategy int

const (
	// JoinHash materializes the build side into a hash table and streams
	// the probe side.
	JoinHash JoinStrategy = iota
	// JoinBind drains the probe (outer) side first, collects its distinct
	// join-key values, and pushes them into the build side's scan as
	// ScanRequest.Keys — sideways information passing. The build side then
	// retrieves only entities the join can possibly keep; the executor
	// still drops any row for a key that was never bound (sources are
	// untrusted), so results are identical to JoinHash with the same build
	// side.
	JoinBind
	// JoinNestedLoop compares every row pair (non-equi predicates).
	JoinNestedLoop
)

// String names the strategy for EXPLAIN and reports.
func (s JoinStrategy) String() string {
	switch s {
	case JoinBind:
		return "bind"
	case JoinNestedLoop:
		return "nested-loop"
	default:
		return "hash"
	}
}

// JoinNode combines two inputs. For semi/anti joins the output schema is the
// left schema; otherwise it is left ++ right.
type JoinNode struct {
	Kind  JoinKind
	Left  Node
	Right Node
	// On is the join predicate over left++right (nil for cross).
	On sql.Expr
	// LeftKey/RightKey are set when On (or part of it) is an equi-join the
	// executor can hash on: expressions over the respective input schemas.
	LeftKey  []sql.Expr
	RightKey []sql.Expr
	// Residual is the non-equi remainder of On, over left++right.
	Residual sql.Expr
	// Strategy is the execution strategy chosen by the join planner (the
	// zero value keeps the hash join).
	Strategy JoinStrategy
	// BuildLeft selects the output orientation: the left input goes into
	// the hash table and the right input streams through it (inner joins
	// only; left/semi/anti joins require the right side in the table).
	// It is chosen from cardinality estimates independently of the join
	// strategy — a bind join materializes both sides anyway — so toggling
	// bind on and off never reorders the output.
	BuildLeft bool
	// BindLeft, for JoinBind, marks the left input as the bound side (the
	// one whose scan receives the other side's distinct join-key values);
	// the default binds the right input. Inner joins only — the left
	// stream of a left/semi/anti join must not be restricted.
	BindLeft bool
	// BindScan, for JoinBind, is the scan inside the bound side that
	// receives the keys.
	BindScan *ScanNode
	// Decision, when non-nil, records the join planner's per-strategy cost
	// breakdown for EXPLAIN (set only when a side is priceable).
	Decision *JoinDecision
}

// Schema implements Node.
func (j *JoinNode) Schema() rel.Schema {
	if j.Kind == KindSemi || j.Kind == KindAnti {
		return j.Left.Schema()
	}
	return j.Left.Schema().Concat(j.Right.Schema())
}

// Children implements Node.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// AggSpec is one aggregate computation.
type AggSpec struct {
	// Func is COUNT, SUM, AVG, MIN or MAX.
	Func string
	// Arg is the argument expression over the child schema (nil for
	// COUNT(*)).
	Arg sql.Expr
	// Distinct applies DISTINCT to the argument stream.
	Distinct bool
	// Name is the internal output column name ("#a0", "#a1", ...).
	Name string
	// Type is the output type.
	Type rel.DataType
}

// AggregateNode groups rows and computes aggregates. Its output schema is
// the group-by columns followed by the aggregate columns.
type AggregateNode struct {
	Child Node
	// GroupBy are the grouping expressions over Child's schema.
	GroupBy []sql.Expr
	// GroupNames are the internal output names for group columns
	// ("#g0", ...).
	GroupNames []string
	// Aggs are the aggregate computations.
	Aggs []AggSpec
	// Out is the output schema.
	Out rel.Schema
}

// Schema implements Node.
func (a *AggregateNode) Schema() rel.Schema { return a.Out }

// Children implements Node.
func (a *AggregateNode) Children() []Node { return []Node{a.Child} }

// SortKey orders by an output column index.
type SortKey struct {
	// Col is the column index in the child schema.
	Col int
	// Desc sorts descending.
	Desc bool
}

// SortNode sorts its input, stably.
type SortNode struct {
	Child Node
	Keys  []SortKey
	// Top, when positive, is exact: the plan consumes only the first Top
	// rows of the sorted order (an enclosing LIMIT plus its OFFSET, sunk
	// through projections by pushLimits), so the executor keeps at most
	// Top rows instead of sorting every one. 0 means unbounded.
	Top int64
}

// Schema implements Node.
func (s *SortNode) Schema() rel.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *SortNode) Children() []Node { return []Node{s.Child} }

// LimitNode keeps Offset..Offset+Limit rows. Limit < 0 means no limit.
type LimitNode struct {
	Child  Node
	Limit  int64
	Offset int64
}

// Schema implements Node.
func (l *LimitNode) Schema() rel.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *LimitNode) Children() []Node { return []Node{l.Child} }

// DistinctNode removes duplicate rows.
type DistinctNode struct {
	Child Node
}

// Schema implements Node.
func (d *DistinctNode) Schema() rel.Schema { return d.Child.Schema() }

// Children implements Node.
func (d *DistinctNode) Children() []Node { return []Node{d.Child} }

// ValuesNode produces literal rows (FROM-less SELECT).
type ValuesNode struct {
	Rows []rel.Row
	Out  rel.Schema
}

// Schema implements Node.
func (v *ValuesNode) Schema() rel.Schema { return v.Out }

// Children implements Node.
func (v *ValuesNode) Children() []Node { return nil }
