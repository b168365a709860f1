package sql

import (
	"fmt"
	"strings"
)

// Deparse renders an expression back to SQL text. Parsing the result yields
// an equivalent AST (round-trip property tested in deparse_test.go and
// fuzzed in fuzz_targets_test.go).
func Deparse(e Expr) string {
	var a [128]byte
	return string(deparseExpr(a[:0], e, false))
}

// AppendDeparse appends Deparse(e) to dst.
func AppendDeparse(dst []byte, e Expr) []byte { return deparseExpr(dst, e, false) }

// deparseReserved lists words (beyond reservedAfterTable) whose bare
// spelling the expression grammar claims, so an identifier spelled like one
// must be double-quoted to re-parse as a name.
var deparseReserved = map[string]bool{
	"NULL": true, "TRUE": true, "FALSE": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "CAST": true, "IS": true,
	"IN": true, "LIKE": true, "BETWEEN": true, "DISTINCT": true,
	"PRIMARY": true, "KEY": true, "EXPLAIN": true,
}

// plainIdent reports whether s lexes as a single bare identifier token.
func plainIdent(s string) bool {
	for i, r := range s {
		switch {
		case r == '_', 'a' <= r && r <= 'z', 'A' <= r && r <= 'Z':
		case i > 0 && '0' <= r && r <= '9':
		default:
			return false
		}
	}
	return s != ""
}

// deparseIdent writes an identifier, double-quoting it when its bare
// spelling would not re-lex to the same name (non-plain shapes, reserved
// words).
func deparseIdent(dst []byte, name string) []byte {
	if plainIdent(name) && !lookupKeyword(deparseReserved, name) && !lookupKeyword(reservedAfterTable, name) {
		return append(dst, name...)
	}
	dst = append(dst, '"')
	dst = append(dst, strings.ReplaceAll(name, `"`, `""`)...)
	return append(dst, '"')
}

// DeparseStmt renders a statement back to SQL text.
func DeparseStmt(s Statement) string {
	var dst []byte
	switch st := s.(type) {
	case *SelectStmt:
		dst = append(dst, deparseSelect(st)...)
	case *CreateTableStmt:
		dst = append(dst, "CREATE TABLE "...)
		dst = deparseIdent(dst, st.Name)
		dst = append(dst, " ("...)
		for i, c := range st.Columns {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = deparseIdent(dst, c.Name)
			dst = append(dst, ' ')
			dst = append(dst, c.Type.String()...)
			if c.PrimaryKey {
				dst = append(dst, " PRIMARY KEY"...)
			}
		}
		dst = append(dst, ')')
	case *InsertStmt:
		dst = append(dst, "INSERT INTO "...)
		dst = deparseIdent(dst, st.Table)
		if len(st.Columns) > 0 {
			dst = append(dst, " ("...)
			for i, col := range st.Columns {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = deparseIdent(dst, col)
			}
			dst = append(dst, ')')
		}
		dst = append(dst, " VALUES "...)
		for i, row := range st.Rows {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, '(')
			for j, e := range row {
				if j > 0 {
					dst = append(dst, ", "...)
				}
				dst = deparseExpr(dst, e, false)
			}
			dst = append(dst, ')')
		}
	case *ExplainStmt:
		dst = append(dst, "EXPLAIN "...)
		if st.Analyze {
			dst = append(dst, "ANALYZE "...)
		}
		dst = append(dst, deparseSelect(st.Stmt)...)
	case *CreateViewStmt:
		dst = append(dst, "CREATE MATERIALIZED VIEW "...)
		dst = deparseIdent(dst, st.Name)
		dst = append(dst, " AS "...)
		dst = append(dst, deparseSelect(st.Select)...)
	case *RefreshViewStmt:
		dst = append(dst, "REFRESH MATERIALIZED VIEW "...)
		dst = deparseIdent(dst, st.Name)
	case *DropViewStmt:
		dst = append(dst, "DROP MATERIALIZED VIEW "...)
		dst = deparseIdent(dst, st.Name)
	}
	return string(dst)
}

// deparseSelect and deparseTable return strings rather than append to a
// caller's buffer, so that deparseExpr, which they call, is the only function
// returning the buffers it is handed (see deparseExpr).
func deparseSelect(s *SelectStmt) string {
	dst := append([]byte(nil), "SELECT "...)
	if s.Distinct {
		dst = append(dst, "DISTINCT "...)
	}
	for i, item := range s.Items {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		if item.Star {
			if item.StarTable != "" {
				dst = deparseIdent(dst, item.StarTable)
				dst = append(dst, '.')
			}
			dst = append(dst, '*')
			continue
		}
		dst = deparseExpr(dst, item.Expr, false)
		if item.Alias != "" {
			dst = append(dst, " AS "...)
			dst = deparseIdent(dst, item.Alias)
		}
	}
	if s.From != nil {
		dst = append(dst, " FROM "...)
		dst = append(dst, deparseTable(s.From)...)
	}
	if s.Where != nil {
		dst = append(dst, " WHERE "...)
		dst = deparseExpr(dst, s.Where, false)
	}
	if len(s.GroupBy) > 0 {
		dst = append(dst, " GROUP BY "...)
		for i, e := range s.GroupBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = deparseExpr(dst, e, false)
		}
	}
	if s.Having != nil {
		dst = append(dst, " HAVING "...)
		dst = deparseExpr(dst, s.Having, false)
	}
	if len(s.OrderBy) > 0 {
		dst = append(dst, " ORDER BY "...)
		for i, o := range s.OrderBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = deparseExpr(dst, o.Expr, false)
			if o.Desc {
				dst = append(dst, " DESC"...)
			}
		}
	}
	if s.Limit != nil {
		dst = append(dst, " LIMIT "...)
		dst = deparseExpr(dst, s.Limit, false)
	}
	if s.Offset != nil {
		dst = append(dst, " OFFSET "...)
		dst = deparseExpr(dst, s.Offset, false)
	}
	return string(dst)
}

func deparseTable(t TableExpr) string {
	var dst []byte
	switch tt := t.(type) {
	case *TableRef:
		dst = deparseIdent(dst, tt.Name)
		if tt.Alias != "" && tt.Alias != tt.Name {
			dst = append(dst, " AS "...)
			dst = deparseIdent(dst, tt.Alias)
		}
	case *JoinExpr:
		dst = append(dst, deparseTable(tt.Left)...)
		dst = append(dst, ' ')
		dst = append(dst, tt.Type.String()...)
		dst = append(dst, ' ')
		if _, nested := tt.Right.(*JoinExpr); nested {
			dst = append(dst, '(')
			dst = append(dst, deparseTable(tt.Right)...)
			dst = append(dst, ')')
		} else {
			dst = append(dst, deparseTable(tt.Right)...)
		}
		if tt.On != nil {
			dst = append(dst, " ON "...)
			dst = deparseExpr(dst, tt.On, false)
		}
	case *SubqueryRef:
		dst = append(dst, '(')
		dst = append(dst, deparseSelect(tt.Select)...)
		dst = append(dst, ") AS "...)
		dst = deparseIdent(dst, tt.Alias)
	}
	return string(dst)
}

// deparseExpr appends e, in parentheses when paren is set. It is the only
// function of its call cycle (through subqueries) that returns a buffer it
// was handed, which lets Go's escape analysis keep a caller's stack buffer
// on the stack: a buffer that flows to the result of another function of the
// cycle is moved to the heap.
func deparseExpr(dst []byte, e Expr, paren bool) []byte {
	if paren {
		dst = append(dst, '(')
		dst = deparseExpr(dst, e, false)
		return append(dst, ')')
	}
	switch x := e.(type) {
	case *Literal:
		dst = x.Value.AppendSQLLiteral(dst)
	case *Param:
		dst = append(dst, x.String()...)
	case *ColumnRef:
		if x.Table != "" {
			dst = deparseIdent(dst, x.Table)
			dst = append(dst, '.')
		}
		dst = deparseIdent(dst, x.Name)
	case *BinaryExpr:
		dst = deparseExpr(dst, x.Left, childParen(x.Left, precOf(x.Op), true))
		dst = append(dst, ' ')
		dst = append(dst, x.Op.String()...)
		dst = append(dst, ' ')
		dst = deparseExpr(dst, x.Right, childParen(x.Right, precOf(x.Op), false))
	case *UnaryExpr:
		if x.Op == "NOT" {
			dst = append(dst, "NOT "...)
		} else {
			dst = append(dst, x.Op...)
		}
		_, binary := x.X.(*BinaryExpr)
		dst = deparseExpr(dst, x.X, binary)
	case *FuncCall:
		dst = deparseIdent(dst, x.Name)
		dst = append(dst, '(')
		if x.Star {
			dst = append(dst, '*')
		} else {
			if x.Distinct {
				dst = append(dst, "DISTINCT "...)
			}
			for i, a := range x.Args {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = deparseExpr(dst, a, false)
			}
		}
		dst = append(dst, ')')
	case *IsNullExpr:
		dst = deparseExpr(dst, x.X, exprPrec(x.X) < 3)
		if x.Not {
			dst = append(dst, " IS NOT NULL"...)
		} else {
			dst = append(dst, " IS NULL"...)
		}
	case *InExpr:
		dst = deparseExpr(dst, x.X, exprPrec(x.X) < 3)
		if x.Not {
			dst = append(dst, " NOT"...)
		}
		dst = append(dst, " IN ("...)
		if x.Subquery != nil {
			dst = append(dst, deparseSelect(x.Subquery)...)
		} else {
			for i, a := range x.List {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = deparseExpr(dst, a, false)
			}
		}
		dst = append(dst, ')')
	case *BetweenExpr:
		dst = deparseExpr(dst, x.X, exprPrec(x.X) < 3)
		if x.Not {
			dst = append(dst, " NOT"...)
		}
		dst = append(dst, " BETWEEN "...)
		dst = deparseExpr(dst, x.Lo, exprPrec(x.Lo) < 4)
		dst = append(dst, " AND "...)
		dst = deparseExpr(dst, x.Hi, exprPrec(x.Hi) < 4)
	case *LikeExpr:
		dst = deparseExpr(dst, x.X, exprPrec(x.X) < 3)
		if x.Not {
			dst = append(dst, " NOT"...)
		}
		dst = append(dst, " LIKE "...)
		dst = deparseExpr(dst, x.Pattern, exprPrec(x.Pattern) < 4)
	case *CaseExpr:
		dst = append(dst, "CASE"...)
		if x.Operand != nil {
			dst = append(dst, ' ')
			dst = deparseExpr(dst, x.Operand, false)
		}
		for _, w := range x.Whens {
			dst = append(dst, " WHEN "...)
			dst = deparseExpr(dst, w.Cond, false)
			dst = append(dst, " THEN "...)
			dst = deparseExpr(dst, w.Then, false)
		}
		if x.Else != nil {
			dst = append(dst, " ELSE "...)
			dst = deparseExpr(dst, x.Else, false)
		}
		dst = append(dst, " END"...)
	case *CastExpr:
		dst = append(dst, "CAST("...)
		dst = deparseExpr(dst, x.X, false)
		dst = append(dst, " AS "...)
		dst = append(dst, x.Type.String()...)
		dst = append(dst, ')')
	default:
		dst = append(dst, fmt.Sprintf("<?expr %T>", e)...)
	}
	return dst
}

// precOf assigns a precedence level to binary operators for minimal
// parenthesisation in deparsed output.
func precOf(op BinaryOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub, OpConcat:
		return 4
	case OpMul, OpDiv, OpMod:
		return 5
	default:
		return 6
	}
}

// exprPrec returns the effective parse precedence of an expression when it
// appears as an operand: primaries are 100, postfix predicates parse at
// comparison level (3), NOT between AND and comparisons (2).
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		return precOf(x.Op)
	case *UnaryExpr:
		if x.Op == "NOT" {
			return 2
		}
		return 100
	case *IsNullExpr, *InExpr, *BetweenExpr, *LikeExpr:
		return 3
	default:
		return 100
	}
}

// childParen reports whether a child of a binary expression needs
// parentheses: it binds more loosely than the parent (or equally, on the
// right side, to preserve left associativity).
func childParen(e Expr, parentPrec int, isLeft bool) bool {
	childPrec := exprPrec(e)
	return childPrec < parentPrec || (childPrec == parentPrec && !isLeft)
}
