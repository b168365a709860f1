package plan

import (
	"fmt"
	"strings"

	"llmsql/internal/sql"
)

// Explain renders the plan as an indented tree, one operator per line.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0, nil)
	return b.String()
}

// ExplainWithRows renders the plan like Explain, annotating each operator
// with its observed output cardinality (EXPLAIN ANALYZE). rows maps plan
// nodes to emitted row counts as collected by the executor's profile; a
// nil map renders like Explain.
func ExplainWithRows(n Node, rows map[Node]int64) string {
	var b strings.Builder
	explain(&b, n, 0, rows)
	return b.String()
}

// explain writes n's subtree, one line per operator indented by depth,
// each line suffixed with the operator's row count when rows is non-nil.
func explain(b *strings.Builder, n Node, depth int, rows map[Node]int64) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	explainNode(b, n)
	if rows != nil {
		fmt.Fprintf(b, "  [rows=%d]", rows[n])
	}
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explain(b, c, depth+1, rows)
	}
}

// explainNode writes one operator's line, without indent or newline.
func explainNode(b *strings.Builder, n Node) {
	switch x := n.(type) {
	case *ScanNode:
		fmt.Fprintf(b, "Scan %s", x.Table)
		if x.Alias != "" && x.Alias != x.Table {
			fmt.Fprintf(b, " AS %s", x.Alias)
		}
		if x.Filter != nil {
			fmt.Fprintf(b, " [filter: %s]", sql.Deparse(x.Filter))
		}
		if x.Limit > 0 {
			fmt.Fprintf(b, " [limit: %d]", x.Limit)
		}
		if x.Needed != nil {
			var cols []string
			for i, need := range x.Needed {
				if need {
					cols = append(cols, x.TableSchema.Col(i).Name)
				}
			}
			fmt.Fprintf(b, " [cols: %s]", strings.Join(cols, ","))
		}
		if x.Decision != nil {
			fmt.Fprintf(b, " [%s]", x.Decision)
		}
		if x.Materialized != "" {
			fmt.Fprintf(b, " [materialized=%s age=%d]", x.Materialized, x.MaterializedAge)
		}

	case *FilterNode:
		fmt.Fprintf(b, "Filter %s", sql.Deparse(x.Pred))

	case *ProjectNode:
		var parts []string
		for i, e := range x.Exprs {
			parts = append(parts, fmt.Sprintf("%s AS %s", sql.Deparse(e), x.Out.Col(i).Name))
		}
		fmt.Fprintf(b, "Project %s", strings.Join(parts, ", "))

	case *JoinNode:
		b.WriteString(x.Kind.String())
		if len(x.LeftKey) > 0 {
			var keys []string
			for i := range x.LeftKey {
				keys = append(keys, fmt.Sprintf("%s = %s", sql.Deparse(x.LeftKey[i]), sql.Deparse(x.RightKey[i])))
			}
			fmt.Fprintf(b, " [%s: %s]", x.Strategy, strings.Join(keys, " AND "))
			if x.Strategy == JoinBind && x.BindScan != nil {
				boundFrom := "left"
				if x.BindLeft {
					boundFrom = "right"
				}
				k := 0
				if x.Decision != nil {
					k = x.Decision.EstBoundKeys
				}
				fmt.Fprintf(b, " [bind: ~%d keys from %s → %s]", k, boundFrom, x.BindScan.Table)
			}
			if x.Kind == KindInner {
				side := "right"
				if x.BuildLeft {
					side = "left"
				}
				fmt.Fprintf(b, " [build: %s]", side)
			}
		}
		if x.Residual != nil {
			fmt.Fprintf(b, " [residual: %s]", sql.Deparse(x.Residual))
		} else if x.On != nil && len(x.LeftKey) == 0 {
			fmt.Fprintf(b, " [on: %s]", sql.Deparse(x.On))
		}
		if x.Decision != nil {
			fmt.Fprintf(b, " [%s]", x.Decision)
		}

	case *AggregateNode:
		var groups, aggs []string
		for _, g := range x.GroupBy {
			groups = append(groups, sql.Deparse(g))
		}
		for _, a := range x.Aggs {
			s := a.Func + "("
			if a.Arg == nil {
				s += "*"
			} else {
				if a.Distinct {
					s += "DISTINCT "
				}
				s += sql.Deparse(a.Arg)
			}
			s += ")"
			aggs = append(aggs, s)
		}
		fmt.Fprintf(b, "Aggregate")
		if len(groups) > 0 {
			fmt.Fprintf(b, " group=[%s]", strings.Join(groups, ", "))
		}
		if len(aggs) > 0 {
			fmt.Fprintf(b, " aggs=[%s]", strings.Join(aggs, ", "))
		}

	case *SortNode:
		var keys []string
		for _, k := range x.Keys {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys = append(keys, fmt.Sprintf("#%d %s", k.Col, dir))
		}
		fmt.Fprintf(b, "Sort %s", strings.Join(keys, ", "))
		if x.Top > 0 {
			fmt.Fprintf(b, " top %d", x.Top)
		}

	case *LimitNode:
		fmt.Fprintf(b, "Limit %d offset %d", x.Limit, x.Offset)

	case *DistinctNode:
		b.WriteString("Distinct")

	case *ValuesNode:
		fmt.Fprintf(b, "Values (%d rows)", len(x.Rows))

	default:
		fmt.Fprintf(b, "<?node %T>", n)
	}
}
