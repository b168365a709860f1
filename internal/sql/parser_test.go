package sql

import (
	"testing"

	"llmsql/internal/rel"
)

func mustSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	sel, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT name, population FROM country WHERE population > 50")
	if len(sel.Items) != 2 {
		t.Fatalf("items: %d", len(sel.Items))
	}
	c0, ok := sel.Items[0].Expr.(*ColumnRef)
	if !ok || c0.Name != "name" {
		t.Fatalf("item0: %#v", sel.Items[0].Expr)
	}
	ref, ok := sel.From.(*TableRef)
	if !ok || ref.Name != "country" {
		t.Fatalf("from: %#v", sel.From)
	}
	cmp, ok := sel.Where.(*BinaryExpr)
	if !ok || cmp.Op != OpGt {
		t.Fatalf("where: %#v", sel.Where)
	}
}

func TestParseStarVariants(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t")
	if !sel.Items[0].Star || sel.Items[0].StarTable != "" {
		t.Fatalf("star: %+v", sel.Items[0])
	}
	sel = mustSelect(t, "SELECT t.* , x FROM t")
	if !sel.Items[0].Star || sel.Items[0].StarTable != "t" {
		t.Fatalf("t.*: %+v", sel.Items[0])
	}
}

func TestParseAliases(t *testing.T) {
	sel := mustSelect(t, "SELECT population AS pop, name n FROM country AS c")
	if sel.Items[0].Alias != "pop" || sel.Items[1].Alias != "n" {
		t.Fatalf("aliases: %+v", sel.Items)
	}
	ref := sel.From.(*TableRef)
	if ref.Alias != "c" || ref.Binding() != "c" {
		t.Fatalf("table alias: %+v", ref)
	}
}

func TestParseJoins(t *testing.T) {
	sel := mustSelect(t, `SELECT c.name, m.title FROM country c JOIN movie m ON m.country = c.name`)
	j, ok := sel.From.(*JoinExpr)
	if !ok || j.Type != JoinInner || j.On == nil {
		t.Fatalf("join: %#v", sel.From)
	}
	sel = mustSelect(t, `SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x`)
	j = sel.From.(*JoinExpr)
	if j.Type != JoinLeft {
		t.Fatalf("left join type: %v", j.Type)
	}
	sel = mustSelect(t, `SELECT * FROM a CROSS JOIN b`)
	j = sel.From.(*JoinExpr)
	if j.Type != JoinCross || j.On != nil {
		t.Fatalf("cross join: %#v", j)
	}
	sel = mustSelect(t, `SELECT * FROM a, b WHERE a.x = b.x`)
	j = sel.From.(*JoinExpr)
	if j.Type != JoinCross {
		t.Fatalf("comma join: %#v", j)
	}
	// Three-way chains left-deep.
	sel = mustSelect(t, `SELECT * FROM a JOIN b ON a.x=b.x JOIN c ON b.y=c.y`)
	outer := sel.From.(*JoinExpr)
	if _, ok := outer.Left.(*JoinExpr); !ok {
		t.Fatalf("not left-deep: %#v", outer)
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	sel := mustSelect(t, `
		SELECT continent, COUNT(*) AS n, AVG(population)
		FROM country
		GROUP BY continent
		HAVING COUNT(*) > 3
		ORDER BY n DESC, continent
		LIMIT 5 OFFSET 2`)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("group/having: %+v", sel)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order: %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Fatal("limit/offset missing")
	}
	fc, ok := sel.Items[1].Expr.(*FuncCall)
	if !ok || fc.Name != "COUNT" || !fc.Star {
		t.Fatalf("count(*): %#v", sel.Items[1].Expr)
	}
}

func TestParseDistinct(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT continent FROM country")
	if !sel.Distinct {
		t.Fatal("distinct flag")
	}
	sel = mustSelect(t, "SELECT COUNT(DISTINCT continent) FROM country")
	fc := sel.Items[0].Expr.(*FuncCall)
	if !fc.Distinct {
		t.Fatal("count distinct flag")
	}
}

func TestParsePredicates(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL`)
	conj := SplitConjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	if n, ok := conj[0].(*IsNullExpr); !ok || n.Not {
		t.Fatalf("is null: %#v", conj[0])
	}
	if n, ok := conj[1].(*IsNullExpr); !ok || !n.Not {
		t.Fatalf("is not null: %#v", conj[1])
	}

	sel = mustSelect(t, `SELECT * FROM t WHERE x IN (1, 2, 3) AND y NOT IN ('a')`)
	conj = SplitConjuncts(sel.Where)
	in0 := conj[0].(*InExpr)
	if in0.Not || len(in0.List) != 3 {
		t.Fatalf("in: %#v", in0)
	}
	in1 := conj[1].(*InExpr)
	if !in1.Not {
		t.Fatalf("not in: %#v", in1)
	}

	sel = mustSelect(t, `SELECT * FROM t WHERE x BETWEEN 1 AND 10 AND s LIKE 'A%'`)
	conj = SplitConjuncts(sel.Where)
	if _, ok := conj[0].(*BetweenExpr); !ok {
		t.Fatalf("between: %#v", conj[0])
	}
	if _, ok := conj[1].(*LikeExpr); !ok {
		t.Fatalf("like: %#v", conj[1])
	}
}

func TestParseInSubquery(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM movie WHERE director IN (SELECT name FROM person WHERE born > 1960)`)
	in := sel.Where.(*InExpr)
	if in.Subquery == nil {
		t.Fatalf("subquery: %#v", in)
	}
}

func TestParseDerivedTable(t *testing.T) {
	sel := mustSelect(t, `SELECT s.n FROM (SELECT COUNT(*) AS n FROM t) AS s`)
	sub, ok := sel.From.(*SubqueryRef)
	if !ok || sub.Alias != "s" {
		t.Fatalf("derived: %#v", sel.From)
	}
	if _, err := ParseSelect(`SELECT * FROM (SELECT 1)`); err == nil {
		t.Fatal("derived table requires alias")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("root: %v", add.Op)
	}
	mul := add.Right.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatalf("right: %v", mul.Op)
	}

	e, err = ParseExpr("a OR b AND c")
	if err != nil {
		t.Fatal(err)
	}
	or := e.(*BinaryExpr)
	if or.Op != OpOr {
		t.Fatalf("or root: %v", or.Op)
	}
	if and := or.Right.(*BinaryExpr); and.Op != OpAnd {
		t.Fatalf("and right: %v", and.Op)
	}

	e, err = ParseExpr("NOT a = b")
	if err != nil {
		t.Fatal(err)
	}
	not := e.(*UnaryExpr)
	if not.Op != "NOT" {
		t.Fatalf("not: %#v", e)
	}
	if cmpE := not.X.(*BinaryExpr); cmpE.Op != OpEq {
		t.Fatalf("not binds over comparison: %#v", not.X)
	}
}

func TestParseNegativeNumbersFold(t *testing.T) {
	e, err := ParseExpr("-5")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*Literal)
	if !ok || lit.Value.AsInt() != -5 {
		t.Fatalf("folded literal: %#v", e)
	}
	e, err = ParseExpr("-2.5")
	if err != nil {
		t.Fatal(err)
	}
	if lit := e.(*Literal); lit.Value.AsFloat() != -2.5 {
		t.Fatalf("float fold: %#v", e)
	}
}

func TestParseCaseAndCast(t *testing.T) {
	e, err := ParseExpr("CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*CaseExpr)
	if c.Operand != nil || len(c.Whens) != 1 || c.Else == nil {
		t.Fatalf("case: %#v", c)
	}
	e, err = ParseExpr("CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END")
	if err != nil {
		t.Fatal(err)
	}
	c = e.(*CaseExpr)
	if c.Operand == nil || len(c.Whens) != 2 || c.Else != nil {
		t.Fatalf("simple case: %#v", c)
	}
	e, err = ParseExpr("CAST(x AS FLOAT)")
	if err != nil {
		t.Fatal(err)
	}
	cast := e.(*CastExpr)
	if cast.Type != rel.TypeFloat {
		t.Fatalf("cast: %#v", cast)
	}
}

func TestParseLiterals(t *testing.T) {
	for src, want := range map[string]rel.Value{
		"NULL":  rel.Null(),
		"TRUE":  rel.Bool(true),
		"FALSE": rel.Bool(false),
		"'str'": rel.Text("str"),
		"12":    rel.Int(12),
		"1.5":   rel.Float(1.5),
		"1e3":   rel.Float(1000),
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		lit, ok := e.(*Literal)
		if !ok {
			t.Fatalf("%q: not literal: %#v", src, e)
		}
		if !rel.Equal(lit.Value, want) && !(lit.Value.IsNull() && want.IsNull()) {
			t.Errorf("%q = %v, want %v", src, lit.Value, want)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE country (name TEXT PRIMARY KEY, capital TEXT, population INT, gdp FLOAT)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "country" || len(ct.Columns) != 4 {
		t.Fatalf("create: %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != rel.TypeText {
		t.Fatalf("pk: %+v", ct.Columns[0])
	}
	if ct.Columns[2].Type != rel.TypeInt {
		t.Fatalf("int col: %+v", ct.Columns[2])
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert: %+v", ins)
	}
	stmt, err = Parse(`INSERT INTO t VALUES (1, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins := stmt.(*InsertStmt); len(ins.Columns) != 0 {
		t.Fatalf("positional insert: %+v", ins)
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*ExplainStmt); !ok {
		t.Fatalf("explain: %#v", stmt)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT a FROM t ORDER",
		"SELECT CASE END",
		"SELECT CAST(a AS blob)",
		"SELECT a FROM t extra extra2",
		"INSERT INTO t",
		"CREATE TABLE t",
		"SELECT * FROM t WHERE a NOT 5",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Fatal(err)
	}
}

func TestWalkAndHelpers(t *testing.T) {
	e, err := ParseExpr("a + b * 2 > LENGTH(c) AND d IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	refs := ColumnRefs(e)
	if len(refs) != 4 {
		t.Fatalf("refs: %d", len(refs))
	}
	if ContainsAggregate(e) {
		t.Fatal("no aggregate here")
	}
	agg, _ := ParseExpr("SUM(x) + 1")
	if !ContainsAggregate(agg) {
		t.Fatal("aggregate not found")
	}
	conj := SplitConjuncts(e)
	if len(conj) != 2 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	back := JoinConjuncts(conj)
	if len(SplitConjuncts(back)) != 2 {
		t.Fatal("join/split roundtrip")
	}
	if JoinConjuncts(nil) != nil {
		t.Fatal("empty join")
	}
}
