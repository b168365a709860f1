package plan

import (
	"fmt"
	"strings"

	"llmsql/internal/expr"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// Catalog resolves table names to schemas during planning.
type Catalog interface {
	// TableSchema returns the schema of the named table, or an error when
	// the table does not exist.
	TableSchema(name string) (rel.Schema, error)
}

// Plan builds an optimized logical plan for a SELECT statement. After
// optimization (so needed-column masks and limit hints are final) every
// scan the catalog can price is annotated with its cost-based strategy
// decision.
func Plan(sel *sql.SelectStmt, cat Catalog) (Node, error) {
	return PlanOpts(sel, cat, DefaultOptions())
}

// PlanOpts is Plan with explicit optimizer options.
func PlanOpts(sel *sql.SelectStmt, cat Catalog, opts Options) (Node, error) {
	p := &planner{cat: cat}
	node, err := p.planSelect(sel)
	if err != nil {
		return nil, err
	}
	node = OptimizeOpts(node, opts)
	annotateScans(node, cat)
	planJoins(node, cat, opts)
	return node, nil
}

type planner struct {
	cat Catalog
}

func (p *planner) planSelect(sel *sql.SelectStmt) (Node, error) {
	// 1. FROM.
	if sel.From == nil {
		if sel.Where != nil || len(sel.GroupBy) > 0 || sel.Having != nil {
			return nil, fmt.Errorf("plan: WHERE/GROUP BY require a FROM clause")
		}
		out, rows, err := planConstantSelect(sel)
		if err != nil {
			return nil, err
		}
		return applyLimit(sel, &ValuesNode{Rows: rows, Out: out})
	}
	node, err := p.planFrom(sel.From)
	if err != nil {
		return nil, err
	}

	// 2. WHERE: split conjuncts; IN-subqueries become semi/anti joins, the
	// rest a filter.
	if sel.Where != nil {
		node, err = p.applyWhere(node, sel.Where)
		if err != nil {
			return nil, err
		}
	}
	return p.finishSelect(sel, node)
}

// planConstantSelect handles FROM-less queries: every item must be constant.
func planConstantSelect(sel *sql.SelectStmt) (rel.Schema, []rel.Row, error) {
	empty := rel.Schema{}
	row := make(rel.Row, 0, len(sel.Items))
	cols := make([]rel.Column, 0, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			return rel.Schema{}, nil, fmt.Errorf("plan: SELECT * requires a FROM clause")
		}
		c, err := expr.Compile(item.Expr, empty)
		if err != nil {
			return rel.Schema{}, nil, err
		}
		v, err := c.Eval(nil)
		if err != nil {
			return rel.Schema{}, nil, err
		}
		row = append(row, v)
		cols = append(cols, rel.Column{Name: outputName(item, i), Type: c.Type})
	}
	return rel.NewSchema(cols...), []rel.Row{row}, nil
}

// finishSelect applies aggregation, projection, distinct, order and limit.
func (p *planner) finishSelect(sel *sql.SelectStmt, node Node) (Node, error) {
	var err error
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		if !item.Star && sql.ContainsAggregate(item.Expr) {
			hasAgg = true
		}
	}
	for _, o := range sel.OrderBy {
		if sql.ContainsAggregate(o.Expr) {
			hasAgg = true
		}
	}

	// Working copies of the expressions that may be rewritten over the
	// aggregate output.
	items := make([]sql.SelectItem, len(sel.Items))
	copy(items, sel.Items)
	// Capture display names before any rewriting replaces expressions with
	// internal references (#g0/#a0).
	names := make([]string, len(items))
	for i, it := range items {
		if !it.Star {
			names[i] = outputName(it, i)
		}
	}
	having := sel.Having
	orderBy := make([]sql.OrderItem, len(sel.OrderBy))
	copy(orderBy, sel.OrderBy)

	if hasAgg {
		node, items, having, orderBy, err = p.planAggregate(node, sel, items, having, orderBy)
		if err != nil {
			return nil, err
		}
		if having != nil {
			node = &FilterNode{Child: node, Pred: having}
		}
	}

	// Projection.
	projExprs, outCols, err := p.expandItems(items, node.Schema(), names)
	if err != nil {
		return nil, err
	}
	outSchema := rel.NewSchema(outCols...)

	// ORDER BY resolution: output alias/name, ordinal, or arbitrary
	// expression over the pre-projection schema (a hidden column).
	type orderRef struct {
		visibleCol int // the projection column the order refers to
		desc       bool
	}
	var orders []orderRef
	allExprs, allCols := projExprs, outCols
	for _, o := range orderBy {
		ref := orderRef{visibleCol: -1, desc: o.Desc}
		// Ordinal: ORDER BY 2.
		if lit, ok := o.Expr.(*sql.Literal); ok && lit.Value.Type() == rel.TypeInt {
			n := int(lit.Value.AsInt())
			if n < 1 || n > len(projExprs) {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", n)
			}
			ref.visibleCol = n - 1
			orders = append(orders, ref)
			continue
		}
		// Output column name / alias (only for bare refs).
		if cr, ok := o.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
			if idx := outSchema.IndexOf(cr.Name); idx >= 0 {
				ref.visibleCol = idx
				orders = append(orders, ref)
				continue
			}
		}
		// Same expression as a projected item?
		matched := false
		for i, pe := range projExprs {
			if exprEqual(o.Expr, pe, node.Schema()) {
				ref.visibleCol = i
				matched = true
				break
			}
		}
		if !matched {
			c, err := expr.Compile(o.Expr, node.Schema())
			if err != nil {
				return nil, fmt.Errorf("plan: cannot resolve ORDER BY expression: %w", err)
			}
			allExprs = append(allExprs, o.Expr)
			allCols = append(allCols, rel.Column{Type: c.Type})
			ref.visibleCol = len(allExprs) - 1
		}
		orders = append(orders, ref)
	}
	hiddenCount := len(allExprs) - len(projExprs)

	wide := allCols
	if hiddenCount > 0 {
		// Give the wide projection unique internal names so that the final
		// trim projection can reference columns unambiguously even when the
		// visible output has duplicate names.
		wide = make([]rel.Column, len(allCols))
		for i, c := range allCols {
			wide[i] = rel.Column{Name: fmt.Sprintf("#p%d", i), Type: c.Type}
		}
	}
	node = &ProjectNode{Child: node, Exprs: allExprs, Out: rel.NewSchema(wide...)}

	if sel.Distinct {
		if hiddenCount > 0 {
			return nil, fmt.Errorf("plan: ORDER BY expression must appear in SELECT list when DISTINCT is used")
		}
		node = &DistinctNode{Child: node}
	}

	if len(orders) > 0 {
		keys := make([]SortKey, len(orders))
		for i, o := range orders {
			keys[i] = SortKey{Col: o.visibleCol, Desc: o.desc}
		}
		node = &SortNode{Child: node, Keys: keys}
	}

	if hiddenCount > 0 {
		// Trim the hidden order columns: a pass-through wide projection takes
		// the Sort below it and is cut to the output columns, so each kept row
		// is built once; any other is trimmed by a second projection.
		if p, ok := sinkSort(node.(*SortNode)).(*ProjectNode); ok {
			p.Exprs, p.Out = p.Exprs[:len(projExprs)], outSchema
			node = p
		} else {
			node = &ProjectNode{Child: node, Exprs: positionalRefs(node.Schema(), len(projExprs)), Out: outSchema}
		}
	}

	return applyLimit(sel, node)
}

// applyLimit wraps node in a LimitNode when sel has a LIMIT or an OFFSET.
func applyLimit(sel *sql.SelectStmt, node Node) (Node, error) {
	if sel.Limit == nil && sel.Offset == nil {
		return node, nil
	}
	limit, offset := int64(-1), int64(0)
	var err error
	if sel.Limit != nil {
		if limit, err = constInt(sel.Limit); err != nil {
			return nil, fmt.Errorf("plan: LIMIT must be a constant integer: %w", err)
		}
	}
	if sel.Offset != nil {
		if offset, err = constInt(sel.Offset); err != nil {
			return nil, fmt.Errorf("plan: OFFSET must be a constant integer: %w", err)
		}
	}
	return &LimitNode{Child: node, Limit: limit, Offset: offset}, nil
}

// positionalRefs references the first n columns of schema by name; the wide
// projection's names (#p0, #p1, ...) are unique.
func positionalRefs(s rel.Schema, n int) []sql.Expr {
	out := make([]sql.Expr, n)
	for i := 0; i < n; i++ {
		out[i] = &sql.ColumnRef{Table: s.Col(i).Table, Name: s.Col(i).Name}
	}
	return out
}

func constInt(e sql.Expr) (int64, error) {
	if sql.HasParams(e) {
		// LIMIT/OFFSET are folded into the plan itself, so a parameter here
		// cannot be bound at execution time.
		return 0, fmt.Errorf("parameters are not supported in LIMIT/OFFSET (the value is folded into the plan)")
	}
	c, err := expr.Compile(e, rel.Schema{})
	if err != nil {
		return 0, err
	}
	v, err := c.Eval(nil)
	if err != nil {
		return 0, err
	}
	iv, err := rel.Coerce(v, rel.TypeInt)
	if err != nil || iv.IsNull() {
		return 0, fmt.Errorf("not an integer")
	}
	return iv.AsInt(), nil
}

// planFrom builds the join tree for a FROM clause.
func (p *planner) planFrom(t sql.TableExpr) (Node, error) {
	switch tt := t.(type) {
	case *sql.TableRef:
		schema, err := p.cat.TableSchema(tt.Name)
		if err != nil {
			return nil, err
		}
		alias := tt.Binding()
		return &ScanNode{Table: tt.Name, Alias: alias, TableSchema: schema.Rename(alias)}, nil

	case *sql.SubqueryRef:
		child, err := p.planSelect(tt.Select)
		if err != nil {
			return nil, err
		}
		// Rename the derived table's schema to the alias via a pass-through
		// projection.
		in := child.Schema()
		exprs := make([]sql.Expr, in.Len())
		cols := make([]rel.Column, in.Len())
		for i := 0; i < in.Len(); i++ {
			c := in.Col(i)
			exprs[i] = &sql.ColumnRef{Table: c.Table, Name: c.Name}
			cols[i] = rel.Column{Name: c.Name, Type: c.Type, Table: tt.Alias, Key: c.Key}
		}
		return &ProjectNode{Child: child, Exprs: exprs, Out: rel.NewSchema(cols...)}, nil

	case *sql.JoinExpr:
		left, err := p.planFrom(tt.Left)
		if err != nil {
			return nil, err
		}
		right, err := p.planFrom(tt.Right)
		if err != nil {
			return nil, err
		}
		var kind JoinKind
		switch tt.Type {
		case sql.JoinInner:
			kind = KindInner
		case sql.JoinLeft:
			kind = KindLeft
		case sql.JoinCross:
			kind = KindCross
		}
		join := NewJoinNode(kind, left, right)
		join.On = tt.On
		if tt.On != nil {
			// Validate the predicate compiles over left++right.
			if _, err := expr.CompileBool(tt.On, join.inputs()); err != nil {
				return nil, fmt.Errorf("plan: join predicate: %w", err)
			}
		}
		return join, nil

	default:
		return nil, fmt.Errorf("plan: unsupported FROM clause %T", t)
	}
}

// applyWhere splits the WHERE predicate: IN-subquery conjuncts become
// semi/anti joins, everything else a filter node.
func (p *planner) applyWhere(node Node, where sql.Expr) (Node, error) {
	conjuncts := sql.SplitConjuncts(where)
	var rest []sql.Expr
	for _, c := range conjuncts {
		in, ok := c.(*sql.InExpr)
		if !ok || in.Subquery == nil {
			rest = append(rest, c)
			continue
		}
		sub, err := p.planSelect(in.Subquery)
		if err != nil {
			return nil, err
		}
		if sub.Schema().Len() != 1 {
			return nil, fmt.Errorf("plan: IN subquery must produce exactly one column, got %d", sub.Schema().Len())
		}
		kind := KindSemi
		if in.Not {
			kind = KindAnti
		}
		rightCol := sub.Schema().Col(0)
		join := NewJoinNode(kind, node, sub)
		join.LeftKey = []sql.Expr{in.X}
		join.RightKey = []sql.Expr{&sql.ColumnRef{Table: rightCol.Table, Name: rightCol.Name}}
		if _, err := expr.Compile(in.X, node.Schema()); err != nil {
			return nil, fmt.Errorf("plan: IN subquery target: %w", err)
		}
		node = join
	}
	if len(rest) > 0 {
		pred := sql.JoinConjuncts(rest)
		if _, err := expr.CompileBool(pred, node.Schema()); err != nil {
			return nil, fmt.Errorf("plan: WHERE: %w", err)
		}
		node = &FilterNode{Child: node, Pred: pred}
	}
	return node, nil
}

// planAggregate builds the AggregateNode and rewrites select items, HAVING
// and ORDER BY over its output schema.
func (p *planner) planAggregate(node Node, sel *sql.SelectStmt, items []sql.SelectItem, having sql.Expr, orderBy []sql.OrderItem) (Node, []sql.SelectItem, sql.Expr, []sql.OrderItem, error) {
	childSchema := node.Schema()

	// Collect unique aggregate calls across all clauses.
	var aggCalls []*sql.FuncCall
	seen := map[string]int{}
	collect := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) bool {
			f, ok := x.(*sql.FuncCall)
			if !ok || !sql.AggregateFuncs[f.Name] {
				return true
			}
			key := aggKey(f, childSchema)
			if _, dup := seen[key]; !dup {
				seen[key] = len(aggCalls)
				aggCalls = append(aggCalls, f)
			}
			return false // do not descend into aggregate args
		})
	}
	for _, it := range items {
		if !it.Star {
			collect(it.Expr)
		} else {
			return nil, nil, nil, nil, fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY or aggregates")
		}
	}
	collect(having)
	for _, o := range orderBy {
		collect(o.Expr)
	}

	// Build the aggregate node schema: group columns then agg columns.
	agg := &AggregateNode{Child: node}
	var outCols []rel.Column
	for i, g := range sel.GroupBy {
		// Allow grouping by output alias (GROUP BY n where n aliases an item).
		g = resolveAliasRef(g, items, childSchema)
		c, err := expr.Compile(g, childSchema)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("plan: GROUP BY: %w", err)
		}
		name := fmt.Sprintf("#g%d", i)
		agg.GroupBy = append(agg.GroupBy, g)
		agg.GroupNames = append(agg.GroupNames, name)
		outCols = append(outCols, rel.Column{Name: name, Type: c.Type})
	}
	for i, f := range aggCalls {
		spec := AggSpec{Func: f.Name, Distinct: f.Distinct, Name: fmt.Sprintf("#a%d", i)}
		if f.Star {
			if f.Name != "COUNT" {
				return nil, nil, nil, nil, fmt.Errorf("plan: %s(*) is not valid", f.Name)
			}
			spec.Type = rel.TypeInt
		} else {
			if len(f.Args) != 1 {
				return nil, nil, nil, nil, fmt.Errorf("plan: %s takes exactly one argument", f.Name)
			}
			spec.Arg = f.Args[0]
			c, err := expr.Compile(spec.Arg, childSchema)
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("plan: %s argument: %w", f.Name, err)
			}
			switch f.Name {
			case "COUNT":
				spec.Type = rel.TypeInt
			case "AVG":
				spec.Type = rel.TypeFloat
			case "SUM":
				if c.Type == rel.TypeInt {
					spec.Type = rel.TypeInt
				} else {
					spec.Type = rel.TypeFloat
				}
			default: // MIN/MAX
				spec.Type = c.Type
			}
		}
		agg.Aggs = append(agg.Aggs, spec)
		outCols = append(outCols, rel.Column{Name: spec.Name, Type: spec.Type})
	}
	agg.Out = rel.NewSchema(outCols...)

	// Rewrite items/having/orderby over the aggregate output.
	rw := &aggRewriter{
		childSchema: childSchema,
		groupBy:     agg.GroupBy,
		groupNames:  agg.GroupNames,
		aggIndex:    seen,
		aggNames:    make([]string, len(agg.Aggs)),
	}
	for i, a := range agg.Aggs {
		rw.aggNames[i] = a.Name
	}
	var err error
	for i := range items {
		items[i].Expr, err = rw.rewrite(items[i].Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if having != nil {
		having, err = rw.rewrite(having)
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	for i := range orderBy {
		// Ordinals and aliases are resolved later; only rewrite real exprs.
		if _, isLit := orderBy[i].Expr.(*sql.Literal); isLit {
			continue
		}
		rewritten, err := rw.rewrite(orderBy[i].Expr)
		if err == nil {
			orderBy[i].Expr = rewritten
		}
		// Errors here are deferred: the expression may be an output alias
		// resolved in finishSelect.
	}
	return agg, items, having, orderBy, nil
}

// resolveAliasRef maps a bare column ref that matches a select-item alias to
// that item's expression (supports GROUP BY alias).
func resolveAliasRef(g sql.Expr, items []sql.SelectItem, schema rel.Schema) sql.Expr {
	cr, ok := g.(*sql.ColumnRef)
	if !ok || cr.Table != "" {
		return g
	}
	// A real column wins over an alias.
	if _, err := schema.Resolve("", cr.Name); err == nil {
		return g
	}
	for _, it := range items {
		if !it.Star && strings.EqualFold(it.Alias, cr.Name) {
			return it.Expr
		}
	}
	return g
}

// aggRewriter replaces aggregate calls and group-by expressions with column
// references into the aggregate output schema.
type aggRewriter struct {
	childSchema rel.Schema
	groupBy     []sql.Expr
	groupNames  []string
	aggIndex    map[string]int
	aggNames    []string
}

func (rw *aggRewriter) rewrite(e sql.Expr) (sql.Expr, error) {
	if e == nil {
		return nil, nil
	}
	// Whole expression equals a group-by expression?
	for i, g := range rw.groupBy {
		if exprEqual(e, g, rw.childSchema) {
			return &sql.ColumnRef{Name: rw.groupNames[i]}, nil
		}
	}
	switch x := e.(type) {
	case *sql.FuncCall:
		if sql.AggregateFuncs[x.Name] {
			idx, ok := rw.aggIndex[aggKey(x, rw.childSchema)]
			if !ok {
				return nil, fmt.Errorf("plan: internal: aggregate %s not collected", x.Name)
			}
			return &sql.ColumnRef{Name: rw.aggNames[idx]}, nil
		}
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			ra, err := rw.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return &sql.FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}, nil

	case *sql.ColumnRef:
		return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate", refName(x))

	case *sql.Literal:
		return x, nil

	case *sql.Param:
		return x, nil

	case *sql.BinaryExpr:
		l, err := rw.rewrite(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(x.Right)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryExpr{Op: x.Op, Left: l, Right: r}, nil

	case *sql.UnaryExpr:
		in, err := rw.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryExpr{Op: x.Op, X: in}, nil

	case *sql.IsNullExpr:
		in, err := rw.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		return &sql.IsNullExpr{X: in, Not: x.Not}, nil

	case *sql.InExpr:
		tgt, err := rw.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		list := make([]sql.Expr, len(x.List))
		for i, it := range x.List {
			ri, err := rw.rewrite(it)
			if err != nil {
				return nil, err
			}
			list[i] = ri
		}
		return &sql.InExpr{X: tgt, List: list, Not: x.Not}, nil

	case *sql.BetweenExpr:
		tgt, err := rw.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := rw.rewrite(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := rw.rewrite(x.Hi)
		if err != nil {
			return nil, err
		}
		return &sql.BetweenExpr{X: tgt, Lo: lo, Hi: hi, Not: x.Not}, nil

	case *sql.LikeExpr:
		tgt, err := rw.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		pat, err := rw.rewrite(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &sql.LikeExpr{X: tgt, Pattern: pat, Not: x.Not}, nil

	case *sql.CaseExpr:
		out := &sql.CaseExpr{}
		var err error
		out.Operand, err = rw.rewrite(x.Operand)
		if err != nil {
			return nil, err
		}
		for _, w := range x.Whens {
			c, err := rw.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			th, err := rw.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, sql.WhenClause{Cond: c, Then: th})
		}
		out.Else, err = rw.rewrite(x.Else)
		if err != nil {
			return nil, err
		}
		return out, nil

	case *sql.CastExpr:
		in, err := rw.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		return &sql.CastExpr{X: in, Type: x.Type}, nil

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T in aggregate query", e)
	}
}

func refName(c *sql.ColumnRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// expandItems expands stars and names the projection outputs. names, when
// non-nil, supplies pre-computed display names for non-star items (needed
// because aggregate rewriting replaces expressions before naming).
func (p *planner) expandItems(items []sql.SelectItem, in rel.Schema, names []string) ([]sql.Expr, []rel.Column, error) {
	var exprs []sql.Expr
	var cols []rel.Column
	for i, item := range items {
		if item.Star {
			for _, c := range in.Columns {
				if item.StarTable != "" && c.Table != strings.ToLower(item.StarTable) {
					continue
				}
				exprs = append(exprs, &sql.ColumnRef{Table: c.Table, Name: c.Name})
				cols = append(cols, rel.Column{Name: c.Name, Type: c.Type, Key: c.Key})
			}
			if item.StarTable != "" && len(exprs) == 0 {
				return nil, nil, fmt.Errorf("plan: unknown table %q in %s.*", item.StarTable, item.StarTable)
			}
			continue
		}
		c, err := expr.Compile(item.Expr, in)
		if err != nil {
			return nil, nil, fmt.Errorf("plan: SELECT item %d: %w", i+1, err)
		}
		name := ""
		if names != nil {
			name = names[i]
		}
		if name == "" {
			name = outputName(item, i)
		}
		exprs = append(exprs, item.Expr)
		cols = append(cols, rel.Column{Name: name, Type: c.Type})
	}
	if len(exprs) == 0 {
		return nil, nil, fmt.Errorf("plan: empty projection")
	}
	return exprs, cols, nil
}

// outputName picks the display name of a projection.
func outputName(item sql.SelectItem, pos int) string {
	if item.Alias != "" {
		return strings.ToLower(item.Alias)
	}
	switch e := item.Expr.(type) {
	case *sql.ColumnRef:
		return e.Name
	case *sql.FuncCall:
		return strings.ToLower(e.Name)
	default:
		return fmt.Sprintf("col%d", pos+1)
	}
}

// aggKey canonicalises an aggregate call for dedup.
func aggKey(f *sql.FuncCall, schema rel.Schema) string {
	var b strings.Builder
	b.WriteString(f.Name)
	if f.Distinct {
		b.WriteString(" DISTINCT")
	}
	if f.Star {
		b.WriteString("(*)")
		return b.String()
	}
	for _, a := range f.Args {
		b.WriteByte('(')
		b.WriteString(normalizedDeparse(a, schema))
		b.WriteByte(')')
	}
	return b.String()
}

// exprEqual compares two expressions modulo column-reference qualification,
// by deparsing their schema-normalized forms.
func exprEqual(a, b sql.Expr, schema rel.Schema) bool {
	if a == nil || b == nil {
		return a == b
	}
	return normalizedDeparse(a, schema) == normalizedDeparse(b, schema)
}

// normalizedDeparse deparses e with every resolvable column reference
// replaced by its canonical position in schema.
func normalizedDeparse(e sql.Expr, schema rel.Schema) string {
	n := normalizeRefs(e, schema)
	return sql.Deparse(n)
}

func normalizeRefs(e sql.Expr, schema rel.Schema) sql.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sql.ColumnRef:
		if idx, err := schema.Resolve(x.Table, x.Name); err == nil {
			return &sql.ColumnRef{Name: fmt.Sprintf("#c%d", idx)}
		}
		return x
	case *sql.Literal:
		return x
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: x.Op, Left: normalizeRefs(x.Left, schema), Right: normalizeRefs(x.Right, schema)}
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, X: normalizeRefs(x.X, schema)}
	case *sql.FuncCall:
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = normalizeRefs(a, schema)
		}
		return &sql.FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{X: normalizeRefs(x.X, schema), Not: x.Not}
	case *sql.InExpr:
		list := make([]sql.Expr, len(x.List))
		for i, a := range x.List {
			list[i] = normalizeRefs(a, schema)
		}
		return &sql.InExpr{X: normalizeRefs(x.X, schema), List: list, Subquery: x.Subquery, Not: x.Not}
	case *sql.BetweenExpr:
		return &sql.BetweenExpr{X: normalizeRefs(x.X, schema), Lo: normalizeRefs(x.Lo, schema), Hi: normalizeRefs(x.Hi, schema), Not: x.Not}
	case *sql.LikeExpr:
		return &sql.LikeExpr{X: normalizeRefs(x.X, schema), Pattern: normalizeRefs(x.Pattern, schema), Not: x.Not}
	case *sql.CaseExpr:
		out := &sql.CaseExpr{Operand: normalizeRefs(x.Operand, schema), Else: normalizeRefs(x.Else, schema)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sql.WhenClause{Cond: normalizeRefs(w.Cond, schema), Then: normalizeRefs(w.Then, schema)})
		}
		return out
	case *sql.CastExpr:
		return &sql.CastExpr{X: normalizeRefs(x.X, schema), Type: x.Type}
	default:
		return e
	}
}
