package plan

import (
	"fmt"
	"strings"
	"time"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// This file implements the cost side of join planning: every equi-join is
// priced under the same token/latency/$ estimator the scan planner uses,
// per strategy (hash, bind, nested-loop), and the cheapest runs. The bind
// strategy is sideways information passing — drain the outer side, push its
// distinct join-key values into the build side's scan — and is the only
// candidate whose LLM spend differs: hash and nested-loop both pay two full
// scans, bind pays the outer scan plus an attribute fan-out restricted to
// the bound keys. Build/bound-side selection is part of the decision, with
// deterministic tie-breaks, so plans are stable across runs.

// JoinDecision records the join planner's choice and the per-strategy cost
// breakdown behind it, for EXPLAIN and the Table 12 ablations.
type JoinDecision struct {
	// Chosen is the display name of the strategy that will run.
	Chosen JoinStrategy
	// BuildLeft reports the chosen build (hash) / bound (bind) side.
	BuildLeft bool
	// BindTable is the table receiving the bound keys (bind only).
	BindTable string
	// EstLeftRows / EstRightRows are the side cardinality estimates.
	EstLeftRows, EstRightRows int
	// EstBoundKeys is the estimated number of distinct join-key values the
	// outer side passes into the bound scan (bind only).
	EstBoundKeys int
	// Candidates holds the cost breakdown per strategy, in a stable order.
	Candidates []StrategyCost
}

// Candidate returns the cost entry for the named strategy (zero value when
// absent).
func (d JoinDecision) Candidate(name string) StrategyCost {
	for _, c := range d.Candidates {
		if c.Strategy == name {
			return c
		}
	}
	return StrategyCost{}
}

// String renders the decision compactly for EXPLAIN:
//
//	join=bind build=right est-rows=400x180 est-keys=40 | hash: ...
func (d JoinDecision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "join=%s", d.Chosen)
	side := "right"
	if d.BuildLeft {
		side = "left"
	}
	fmt.Fprintf(&b, " build=%s est-rows=%dx%d", side, d.EstLeftRows, d.EstRightRows)
	if d.Chosen == JoinBind {
		fmt.Fprintf(&b, " est-keys=%d", d.EstBoundKeys)
	}
	for _, c := range d.Candidates {
		fmt.Fprintf(&b, " | %s: %d prompts, %d tok, $%.4f, %s",
			c.Strategy, c.Prompts, c.Tokens(), c.Dollars, c.Wall.Round(time.Millisecond))
	}
	return b.String()
}

// Cardinalities is an optional Catalog capability: catalogs that know (or
// estimate) per-table row counts report them so the join planner can size
// the sides. Row stores report exact counts; the LLM store reports its
// registration/prior-scan estimate.
type Cardinalities interface {
	// EstimateRows returns the estimated row count of the named table; ok
	// is false when the table is not this catalog's.
	EstimateRows(table string) (int, bool)
}

// EstimateRows implements Cardinalities for MultiCatalog.
func (m MultiCatalog) EstimateRows(table string) (int, bool) {
	for _, c := range m {
		if ce, ok := c.(Cardinalities); ok {
			if n, ok := ce.EstimateRows(table); ok {
				return n, true
			}
		}
	}
	return 0, false
}

// defaultRowEstimate is the cardinality guess for tables no catalog can
// size (mirrors the scan planner's default).
const defaultRowEstimate = 40

// estimateRows walks a subtree and produces a crude, deterministic
// cardinality estimate: scan decisions (which already fold in selectivity
// and limit hints) win, then catalog row counts, then the default; filters
// keep a third, limits cap, grouped aggregates keep a quarter. The numbers
// only rank join candidates — EXPLAIN labels everything "est".
func estimateRows(n Node, cat Catalog) int {
	switch x := n.(type) {
	case *ScanNode:
		if x.Decision != nil {
			return clampRows(x.Decision.EstKeysAttributed)
		}
		rows := defaultRowEstimate
		if ce, ok := cat.(Cardinalities); ok {
			if r, ok := ce.EstimateRows(x.Table); ok {
				rows = r
			}
		}
		if x.Filter != nil {
			rows = rows / 3
		}
		if x.Limit > 0 && int64(rows) > x.Limit {
			rows = int(x.Limit)
		}
		return clampRows(rows)
	case *FilterNode:
		return clampRows(estimateRows(x.Child, cat) / 3)
	case *ProjectNode:
		return estimateRows(x.Child, cat)
	case *SortNode:
		return estimateRows(x.Child, cat)
	case *DistinctNode:
		return estimateRows(x.Child, cat)
	case *LimitNode:
		rows := estimateRows(x.Child, cat)
		if x.Limit >= 0 && int64(rows) > x.Limit+x.Offset {
			rows = int(x.Limit + x.Offset)
		}
		return clampRows(rows)
	case *AggregateNode:
		if len(x.GroupBy) == 0 {
			return 1
		}
		return clampRows(estimateRows(x.Child, cat) / 4)
	case *JoinNode:
		l, r := estimateRows(x.Left, cat), estimateRows(x.Right, cat)
		switch x.Kind {
		case KindSemi, KindAnti:
			return l
		case KindCross:
			return clampRows(l * r)
		default:
			if l > r {
				return l
			}
			return r
		}
	case *ValuesNode:
		return clampRows(len(x.Rows))
	default:
		return defaultRowEstimate
	}
}

func clampRows(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// estimateKeyNDV estimates the number of distinct values the join-key
// expression takes over a side: entity keys are unique by construction, any
// other expression is assumed to repeat (two thirds distinct).
func estimateKeyNDV(side Node, key sql.Expr, rows int) int {
	if cr, ok := key.(*sql.ColumnRef); ok {
		if idx, err := side.Schema().Resolve(cr.Table, cr.Name); err == nil {
			if side.Schema().Col(idx).Key {
				return rows
			}
		}
	}
	return clampRows(rows * 2 / 3)
}

// bindableScan locates the scan a bind join could push keys into: the side
// must be a ScanNode reached only through row-local operators (pass-through
// projections, filters, distinct — each commutes with restricting the scan
// to a key subset), and the side's join-key expression must trace to the
// scan's entity-key column (a TEXT key — bound keys travel as strings).
// Limits and aggregates block binding: restricting their input changes
// which rows they emit. Requiring the entity key is also what makes anti
// joins safe to bind: entity keys are never NULL, and a NULL in the full
// build side would flip NOT IN semantics invisibly to a bound scan.
func bindableScan(n Node, key sql.Expr) (*ScanNode, bool) {
	cr, ok := key.(*sql.ColumnRef)
	if !ok {
		return nil, false
	}
	switch x := n.(type) {
	case *ScanNode:
		idx, err := x.Schema().Resolve(cr.Table, cr.Name)
		if err != nil {
			return nil, false
		}
		keys := x.TableSchema.KeyIndexes()
		if len(keys) != 1 || idx != keys[0] {
			return nil, false
		}
		if x.TableSchema.Col(idx).Type != rel.TypeText {
			return nil, false
		}
		return x, true
	case *ProjectNode:
		idx, err := x.Out.Resolve(cr.Table, cr.Name)
		if err != nil {
			return nil, false
		}
		return bindableScan(x.Child, x.Exprs[idx])
	case *FilterNode:
		return bindableScan(x.Child, key)
	case *DistinctNode:
		return bindableScan(x.Child, key)
	default:
		return nil, false
	}
}

// subtreeScanCost sums the estimated cost of every priced scan in a
// subtree (local scans cost no prompts and contribute zero).
func subtreeScanCost(n Node) StrategyCost {
	var total StrategyCost
	var walk func(Node)
	walk = func(n Node) {
		if n == nil {
			return
		}
		if s, ok := n.(*ScanNode); ok {
			if s.Decision != nil {
				c := s.Decision.Candidate(s.Decision.Chosen)
				total.Prompts += c.Prompts
				total.PromptTokens += c.PromptTokens
				total.CompletionTokens += c.CompletionTokens
				total.Wall += c.Wall
				total.Dollars += c.Dollars
			}
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return total
}

// addCost sums two cost shapes under a display name (scans of the two join
// sides run sequentially in the executor, so wall latencies add).
func addCost(name string, a, b StrategyCost) StrategyCost {
	return StrategyCost{
		Strategy:         name,
		Prompts:          a.Prompts + b.Prompts,
		PromptTokens:     a.PromptTokens + b.PromptTokens,
		CompletionTokens: a.CompletionTokens + b.CompletionTokens,
		Wall:             a.Wall + b.Wall,
		Dollars:          a.Dollars + b.Dollars,
	}
}

// planJoins walks an optimized, scan-annotated plan and decides every
// equi-join's strategy and build side. It runs after annotateScans so the
// per-side scan costs it sums are the ones EXPLAIN shows.
func planJoins(n Node, cat Catalog, opts Options) {
	if n == nil {
		return
	}
	for _, c := range n.Children() {
		planJoins(c, cat, opts)
	}
	j, ok := n.(*JoinNode)
	if !ok || len(j.LeftKey) == 0 {
		return
	}

	estLeft := estimateRows(j.Left, cat)
	estRight := estimateRows(j.Right, cat)

	// Hash build side: materialize the smaller side. Only inner joins may
	// build left (the left/semi/anti algorithms need the right side in the
	// table); ties break toward the right side, the historical default.
	buildLeft := j.Kind == KindInner && estLeft < estRight

	leftScan := subtreeScanCost(j.Left)
	rightScan := subtreeScanCost(j.Right)
	hash := addCost("hash", leftScan, rightScan)

	// Bind candidates, only with BindJoin on: one key pair only (the scan
	// binds a single entity-key column), and the bound side must trace to a
	// bindable scan whose decision runs key-then-attr — any other
	// decomposition could not honour the binding without changing its
	// prompts, and therefore its rows, relative to the unbound scan. The
	// bound scan is priced from the model its decision was priced with. For
	// non-inner joins only the right side may be bound (the left stream must
	// be preserved / is the output).
	type bindOption struct {
		cost  StrategyCost
		scan  *ScanNode
		left  bool
		bound int
	}
	var bindOpts []bindOption
	if opts.BindJoin && len(j.LeftKey) == 1 {
		consider := func(side Node, key sql.Expr, outer Node, outerKey sql.Expr, outerRows int, left bool) {
			scan, ok := bindableScan(side, key)
			if !ok || scan.Decision == nil || scan.Decision.Chosen != "key-then-attr" {
				return
			}
			bound := estimateKeyNDV(outer, outerKey, outerRows)
			bindOpts = append(bindOpts, bindOption{
				cost:  addCost("bind", subtreeScanCost(outer), scan.Decision.Model.BindScan(bound)),
				scan:  scan,
				left:  left,
				bound: bound,
			})
		}
		consider(j.Right, j.RightKey[0], j.Left, j.LeftKey[0], estLeft, false)
		if j.Kind == KindInner {
			consider(j.Left, j.LeftKey[0], j.Right, j.RightKey[0], estRight, true)
		}
	}
	// Keep the cheaper bind side as the single bind candidate.
	var bind *bindOption
	for i := range bindOpts {
		if bind == nil || bindOpts[i].cost.Dollars < bind.cost.Dollars {
			bind = &bindOpts[i]
		}
	}

	// The nested loop pays the same two full scans as hash; it exists in
	// the breakdown to show that the LLM spend of the classical strategies
	// is scan-bound.
	nl := addCost("nested-loop", leftScan, rightScan)

	candidates := []StrategyCost{hash}
	if bind != nil {
		candidates = append(candidates, bind.cost)
	}
	candidates = append(candidates, nl)

	// Choose: cheapest dollars; ties prefer bind (it can only shrink the
	// attribute fan-out at runtime), then hash, then nested-loop.
	chosen := JoinHash
	if bind != nil && bind.cost.Dollars <= hash.Dollars {
		chosen = JoinBind
	}

	// Orientation (BuildLeft) is cardinality-chosen regardless of the
	// strategy: a bind join materializes both sides anyway and probes in
	// the hash join's orientation, so toggling bind never reorders rows.
	j.Strategy = chosen
	j.BuildLeft = buildLeft
	if chosen == JoinBind {
		j.BindLeft = bind.left
		j.BindScan = bind.scan
	} else {
		j.BindLeft = false
		j.BindScan = nil
	}

	// Annotate only joins with something priceable on a side; plans over
	// pure row stores keep their cost-free EXPLAIN.
	if hash.Dollars > 0 || bind != nil {
		d := &JoinDecision{
			Chosen:       chosen,
			BuildLeft:    j.BuildLeft,
			EstLeftRows:  estLeft,
			EstRightRows: estRight,
			Candidates:   candidates,
		}
		if bind != nil {
			d.EstBoundKeys = bind.bound
			d.BindTable = bind.scan.Table
		}
		j.Decision = d
	}
}
