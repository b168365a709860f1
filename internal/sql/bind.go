package sql

import (
	"fmt"
	"sort"

	"llmsql/internal/rel"
)

// Bindings maps parameter placeholders to concrete values for one execution
// of a statement. Positional bindings serve $n and auto-numbered ? params;
// named bindings serve :name params. A statement uses exactly one style
// (enforced by the parser), so at most one of the two sets is consulted.
type Bindings struct {
	pos   []rel.Value
	named map[string]rel.Value
}

// NewPositional builds bindings for $1..$n from args in order.
func NewPositional(args []rel.Value) *Bindings { return &Bindings{pos: args} }

// NewNamed builds bindings for :name params. Keys are lower-cased to match
// the parser's normalization.
func NewNamed(args map[string]rel.Value) *Bindings {
	m := make(map[string]rel.Value, len(args))
	for k, v := range args {
		m[toLowerASCII(k)] = v
	}
	return &Bindings{named: m}
}

func toLowerASCII(s string) string {
	lower := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

// Resolve returns the value bound to p.
func (b *Bindings) Resolve(p *Param) (rel.Value, error) {
	if b == nil {
		return rel.Value{}, fmt.Errorf("sql: unbound parameter %s", p)
	}
	if p.Name != "" {
		v, ok := b.named[p.Name]
		if !ok {
			return rel.Value{}, fmt.Errorf("sql: unbound parameter :%s", p.Name)
		}
		return v, nil
	}
	if p.Ordinal < 1 || p.Ordinal > len(b.pos) {
		return rel.Value{}, fmt.Errorf("sql: unbound parameter $%d (%d argument(s) supplied)", p.Ordinal, len(b.pos))
	}
	return b.pos[p.Ordinal-1], nil
}

// CollectParams returns every parameter placeholder in the statement, in
// visit order (including inside subqueries).
func CollectParams(s Statement) []*Param {
	var out []*Param
	WalkStmtExprs(s, func(e Expr) bool {
		if p, ok := e.(*Param); ok {
			out = append(out, p)
		}
		return true
	})
	return out
}

// HasParams reports whether e contains a parameter placeholder.
func HasParams(e Expr) bool {
	found := false
	walkExprDeep(e, func(x Expr) bool {
		if _, ok := x.(*Param); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// ValidateBindings checks that the supplied bindings match the statement's
// parameters exactly: every placeholder is bound, and no argument is unused.
// positional is the number of positional arguments supplied (ignored when
// the statement uses named parameters), names the supplied named set.
func ValidateBindings(s Statement, positional int, names map[string]rel.Value) error {
	params := CollectParams(s)
	if len(params) == 0 {
		if positional > 0 || len(names) > 0 {
			return fmt.Errorf("sql: statement has no parameters but %d argument(s) supplied", positional+len(names))
		}
		return nil
	}
	if params[0].Name != "" {
		used := map[string]bool{}
		for _, p := range params {
			if _, ok := names[p.Name]; !ok {
				return fmt.Errorf("sql: unbound parameter :%s", p.Name)
			}
			used[p.Name] = true
		}
		var extra []string
		for k := range names {
			if !used[toLowerASCII(k)] {
				extra = append(extra, k)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("sql: extra named argument %q (statement has no :%s)", extra[0], extra[0])
		}
		if positional > 0 {
			return fmt.Errorf("sql: statement uses named parameters; bind them by name")
		}
		return nil
	}
	// Positional: the ordinal set must be exactly 1..positional.
	seen := map[int]bool{}
	max := 0
	for _, p := range params {
		seen[p.Ordinal] = true
		if p.Ordinal > max {
			max = p.Ordinal
		}
	}
	if len(names) > 0 {
		return fmt.Errorf("sql: statement uses positional parameters; bind them by position")
	}
	if max > positional {
		return fmt.Errorf("sql: unbound parameter $%d (%d argument(s) supplied)", max, positional)
	}
	if positional > max {
		return fmt.Errorf("sql: %d argument(s) supplied but statement has only $1..$%d", positional, max)
	}
	for i := 1; i <= max; i++ {
		if !seen[i] {
			return fmt.Errorf("sql: argument %d is unused (statement skips $%d)", i, i)
		}
	}
	return nil
}

// BindExpr substitutes every parameter in e with its bound value as a typed
// literal, returning a new tree (copy-on-write: subtrees without parameters
// are shared, and a param-free e is returned unchanged).
func BindExpr(e Expr, b *Bindings) (Expr, error) {
	if e == nil || !HasParams(e) {
		return e, nil
	}
	return bindExpr(e, b)
}

func bindExpr(e Expr, b *Bindings) (Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *Param:
		v, err := b.Resolve(x)
		if err != nil {
			return nil, err
		}
		return &Literal{Value: v}, nil
	case *Literal, *ColumnRef:
		return e, nil
	case *BinaryExpr:
		l, err := bindExpr(x.Left, b)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(x.Right, b)
		if err != nil {
			return nil, err
		}
		if l == x.Left && r == x.Right {
			return x, nil
		}
		return &BinaryExpr{Op: x.Op, Left: l, Right: r}, nil
	case *UnaryExpr:
		c, err := bindExpr(x.X, b)
		if err != nil {
			return nil, err
		}
		if c == x.X {
			return x, nil
		}
		return &UnaryExpr{Op: x.Op, X: c}, nil
	case *FuncCall:
		args, changed, err := bindExprs(x.Args, b)
		if err != nil {
			return nil, err
		}
		if !changed {
			return x, nil
		}
		return &FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}, nil
	case *IsNullExpr:
		c, err := bindExpr(x.X, b)
		if err != nil {
			return nil, err
		}
		if c == x.X {
			return x, nil
		}
		return &IsNullExpr{X: c, Not: x.Not}, nil
	case *InExpr:
		c, err := bindExpr(x.X, b)
		if err != nil {
			return nil, err
		}
		list, changed, err := bindExprs(x.List, b)
		if err != nil {
			return nil, err
		}
		sub, err := BindSelect(x.Subquery, b)
		if err != nil {
			return nil, err
		}
		if c == x.X && !changed && sub == x.Subquery {
			return x, nil
		}
		return &InExpr{X: c, List: list, Subquery: sub, Not: x.Not}, nil
	case *BetweenExpr:
		c, err := bindExpr(x.X, b)
		if err != nil {
			return nil, err
		}
		lo, err := bindExpr(x.Lo, b)
		if err != nil {
			return nil, err
		}
		hi, err := bindExpr(x.Hi, b)
		if err != nil {
			return nil, err
		}
		if c == x.X && lo == x.Lo && hi == x.Hi {
			return x, nil
		}
		return &BetweenExpr{X: c, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *LikeExpr:
		c, err := bindExpr(x.X, b)
		if err != nil {
			return nil, err
		}
		pat, err := bindExpr(x.Pattern, b)
		if err != nil {
			return nil, err
		}
		if c == x.X && pat == x.Pattern {
			return x, nil
		}
		return &LikeExpr{X: c, Pattern: pat, Not: x.Not}, nil
	case *CaseExpr:
		op, err := bindExpr(x.Operand, b)
		if err != nil {
			return nil, err
		}
		els, err := bindExpr(x.Else, b)
		if err != nil {
			return nil, err
		}
		whens := make([]WhenClause, len(x.Whens))
		changed := op != x.Operand || els != x.Else
		for i, w := range x.Whens {
			cond, err := bindExpr(w.Cond, b)
			if err != nil {
				return nil, err
			}
			then, err := bindExpr(w.Then, b)
			if err != nil {
				return nil, err
			}
			if cond != w.Cond || then != w.Then {
				changed = true
			}
			whens[i] = WhenClause{Cond: cond, Then: then}
		}
		if !changed {
			return x, nil
		}
		return &CaseExpr{Operand: op, Whens: whens, Else: els}, nil
	case *CastExpr:
		c, err := bindExpr(x.X, b)
		if err != nil {
			return nil, err
		}
		if c == x.X {
			return x, nil
		}
		return &CastExpr{X: c, Type: x.Type}, nil
	default:
		return nil, fmt.Errorf("sql: cannot bind parameters in %T", e)
	}
}

func bindExprs(list []Expr, b *Bindings) ([]Expr, bool, error) {
	changed := false
	out := make([]Expr, len(list))
	for i, e := range list {
		c, err := bindExpr(e, b)
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

// BindSelect substitutes parameters throughout a SELECT statement,
// returning a new statement that shares every parameter-free subtree with
// the original (copy-on-write, like BindExpr). Plan-level binding
// (plan.Bind) is the execution path — it reaches expressions after the
// optimizer has moved them into plan nodes — so this AST-level binder
// serves IN (SELECT ...) subqueries during plan binding, plus tests and
// tools that rewrite statements before planning.
func BindSelect(s *SelectStmt, b *Bindings) (*SelectStmt, error) {
	if s == nil || !stmtHasParamsSelect(s) {
		return s, nil
	}
	out := *s
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		e, err := bindExpr(it.Expr, b)
		if err != nil {
			return nil, err
		}
		out.Items[i] = SelectItem{Star: it.Star, StarTable: it.StarTable, Expr: e, Alias: it.Alias}
	}
	var err error
	if out.From, err = bindTable(s.From, b); err != nil {
		return nil, err
	}
	if out.Where, err = bindExpr(s.Where, b); err != nil {
		return nil, err
	}
	if len(s.GroupBy) > 0 {
		if out.GroupBy, _, err = bindExprs(s.GroupBy, b); err != nil {
			return nil, err
		}
	}
	if out.Having, err = bindExpr(s.Having, b); err != nil {
		return nil, err
	}
	if len(s.OrderBy) > 0 {
		out.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			e, err := bindExpr(o.Expr, b)
			if err != nil {
				return nil, err
			}
			out.OrderBy[i] = OrderItem{Expr: e, Desc: o.Desc}
		}
	}
	if out.Limit, err = bindExpr(s.Limit, b); err != nil {
		return nil, err
	}
	if out.Offset, err = bindExpr(s.Offset, b); err != nil {
		return nil, err
	}
	return &out, nil
}

// bindTable substitutes params inside FROM items (join ON clauses, derived
// tables).
func bindTable(t TableExpr, b *Bindings) (TableExpr, error) {
	switch tt := t.(type) {
	case *JoinExpr:
		l, err := bindTable(tt.Left, b)
		if err != nil {
			return nil, err
		}
		r, err := bindTable(tt.Right, b)
		if err != nil {
			return nil, err
		}
		on, err := bindExpr(tt.On, b)
		if err != nil {
			return nil, err
		}
		if l == tt.Left && r == tt.Right && on == tt.On {
			return tt, nil
		}
		return &JoinExpr{Type: tt.Type, Left: l, Right: r, On: on}, nil
	case *SubqueryRef:
		s2, err := BindSelect(tt.Select, b)
		if err != nil {
			return nil, err
		}
		if s2 == tt.Select {
			return tt, nil
		}
		return &SubqueryRef{Select: s2, Alias: tt.Alias}, nil
	default:
		return t, nil
	}
}

func stmtHasParamsSelect(s *SelectStmt) bool {
	found := false
	walkSelectExprs(s, func(e Expr) bool {
		if _, ok := e.(*Param); ok {
			found = true
			return false
		}
		return true
	})
	return found
}
