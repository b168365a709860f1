package sql

import (
	"strings"
	"testing"

	"llmsql/internal/rel"
)

func TestParseParamStyles(t *testing.T) {
	cases := []struct {
		src  string
		want []Param // expected collected params in order
	}{
		{"SELECT a FROM t WHERE b = $1 AND c = $2", []Param{{Ordinal: 1}, {Ordinal: 2}}},
		{"SELECT a FROM t WHERE b = ? AND c = ?", []Param{{Ordinal: 1}, {Ordinal: 2}}},
		{"SELECT a FROM t WHERE b = :lo AND c = :HI", []Param{{Name: "lo"}, {Name: "hi"}}},
		{"SELECT a FROM t WHERE b IN ($2, $1, $2)", []Param{{Ordinal: 2}, {Ordinal: 1}, {Ordinal: 2}}},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		got := CollectParams(stmt)
		if len(got) != len(tc.want) {
			t.Fatalf("%q: got %d params, want %d", tc.src, len(got), len(tc.want))
		}
		for i, p := range got {
			if p.Ordinal != tc.want[i].Ordinal || p.Name != tc.want[i].Name {
				t.Errorf("%q param %d: got %+v, want %+v", tc.src, i, *p, tc.want[i])
			}
		}
	}
}

func TestParseParamMixingRejected(t *testing.T) {
	for _, src := range []string{
		"SELECT a FROM t WHERE b = $1 AND c = ?",
		"SELECT a FROM t WHERE b = ? AND c = :x",
		"SELECT a FROM t WHERE b = :x AND c = $1",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "mix") {
			t.Errorf("%q: want mixing error, got %v", src, err)
		}
	}
}

func TestParseErrorsCarryLineColumn(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of the error
	}{
		{"SELECT +", "1:9"}, // unary + consumed; error points at EOF
		{"SELECT a\nFROM t\nWHERE >", "3:7"},
		{"SELECT 'unterminated", "1:8"},
		{"SELECT a FROM t WHERE b = 'x\ny' AND", "2:7"}, // line counted through the multi-line literal
		{"SELECT a,\n  b,,c FROM t", "2:5"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Fatalf("%q: expected error", tc.src)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not mention position %s", tc.src, err, tc.want)
		}
	}
}

func TestLexErrorNotDroppedAfterCompleteStatement(t *testing.T) {
	// The statement parses to completion before the lexer reaches the
	// unterminated string; the error must still surface.
	if _, err := Parse("SELECT a FROM t 'oops"); err == nil {
		t.Fatal("unterminated trailing literal silently dropped")
	}
}

func TestValidateBindings(t *testing.T) {
	pos := func(src string, n int) error {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return ValidateBindings(stmt, n, nil)
	}
	if err := pos("SELECT a FROM t WHERE b = $1 AND c = $2", 2); err != nil {
		t.Errorf("exact positional set rejected: %v", err)
	}
	if err := pos("SELECT a FROM t WHERE b = $1 AND c = $2", 1); err == nil ||
		!strings.Contains(err.Error(), "unbound parameter $2") {
		t.Errorf("missing $2 not reported: %v", err)
	}
	if err := pos("SELECT a FROM t WHERE b = $1", 3); err == nil {
		t.Errorf("extra arguments not reported: %v", err)
	}
	if err := pos("SELECT a FROM t WHERE b = $2", 2); err == nil ||
		!strings.Contains(err.Error(), "unused") {
		t.Errorf("sparse ordinals not reported: %v", err)
	}

	named, err := Parse("SELECT a FROM t WHERE b = :x AND c = :y")
	if err != nil {
		t.Fatal(err)
	}
	ok := map[string]rel.Value{"x": rel.Int(1), "y": rel.Int(2)}
	if err := ValidateBindings(named, 0, ok); err != nil {
		t.Errorf("exact named set rejected: %v", err)
	}
	if err := ValidateBindings(named, 0, map[string]rel.Value{"x": rel.Int(1)}); err == nil {
		t.Error("missing :y not reported")
	}
	if err := ValidateBindings(named, 0, map[string]rel.Value{
		"x": rel.Int(1), "y": rel.Int(2), "z": rel.Int(3)}); err == nil {
		t.Error("extra :z not reported")
	}
}

func TestBindSelectSubstitutesEverywhere(t *testing.T) {
	src := `SELECT a + $1 FROM (SELECT a FROM u WHERE k = $2) s
JOIN t ON s.a = t.a AND t.w > $3
WHERE t.b IN (SELECT c FROM v WHERE d = $4)
GROUP BY a HAVING COUNT(*) > $5 ORDER BY a`
	stmt, err := ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]rel.Value, 5)
	for i := range vals {
		vals[i] = rel.Int(int64(10 + i))
	}
	bound, err := BindSelect(stmt, NewPositional(vals))
	if err != nil {
		t.Fatal(err)
	}
	if StmtHasParams(bound) {
		t.Fatalf("placeholders survived binding: %s", DeparseStmt(bound))
	}
	if !StmtHasParams(stmt) {
		t.Fatal("binding mutated the original statement")
	}
	text := DeparseStmt(bound)
	for _, lit := range []string{"10", "11", "12", "13", "14"} {
		if !strings.Contains(text, lit) {
			t.Errorf("bound value %s missing from %s", lit, text)
		}
	}
}

func TestDeparseParamRoundTrip(t *testing.T) {
	for _, src := range []string{
		"SELECT a FROM t WHERE b = $1 AND c IN ($2, $3)",
		"SELECT a FROM t WHERE b = :lo AND c < :hi",
		"SELECT CASE WHEN a > $1 THEN $2 ELSE $1 END FROM t",
		`SELECT "weird name" FROM t WHERE "select" = $1`,
		// Precedence edges: the deparser must parenthesize so the shape
		// survives reparsing.
		"SELECT (a + b) * c - -d FROM t",
		"SELECT NOT (a AND b) OR c FROM t",
		"SELECT a - (b - c), (a || b) || c FROM t",
		"EXPLAIN SELECT a FROM t WHERE b = $1",
		"EXPLAIN ANALYZE SELECT a FROM t WHERE b = $1",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		text := DeparseStmt(stmt)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%q: deparse %q does not reparse: %v", src, text, err)
		}
		if again := DeparseStmt(back); again != text {
			t.Errorf("%q: unstable round trip %q -> %q", src, text, again)
		}
	}
}

func TestNormalize(t *testing.T) {
	groups := [][]string{
		// Spellings that must share one plan-cache key.
		{
			"SELECT name FROM country WHERE population > $1",
			"select NAME from COUNTRY where POPULATION > ?;",
			"  SELECT  name -- c\n FROM country WHERE population > $1  ",
			"SELECT/*x*/name FROM country WHERE population>?",
		},
		{
			`SELECT "Weird" FROM t`,
		},
	}
	for _, g := range groups {
		want, err := Normalize(g[0])
		if err != nil {
			t.Fatalf("%q: %v", g[0], err)
		}
		for _, src := range g[1:] {
			got, err := Normalize(src)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if got != want {
				t.Errorf("Normalize(%q) = %q, want %q (same key as %q)", src, got, want, g[0])
			}
		}
		// Fixed point.
		if twice, err := Normalize(want); err != nil || twice != want {
			t.Errorf("Normalize(%q) not a fixed point: %q (%v)", want, twice, err)
		}
	}
	// Distinct statements must not collide.
	a, _ := Normalize("SELECT a FROM t")
	b, _ := Normalize("SELECT a FROM u")
	if a == b {
		t.Error("different statements share a normalized key")
	}
	// Case inside string literals and quoted identifiers is significant.
	c1, _ := Normalize("SELECT 'A' FROM t")
	c2, _ := Normalize("SELECT 'a' FROM t")
	if c1 == c2 {
		t.Error("string-literal case was folded")
	}
	if _, err := Normalize("SELECT 'unterminated"); err == nil {
		t.Error("lex error not surfaced")
	}
}

// StmtHasParams reports whether any expression in s contains a parameter.
func StmtHasParams(s Statement) bool {
	found := false
	WalkStmtExprs(s, func(e Expr) bool {
		if _, ok := e.(*Param); ok {
			found = true
			return false
		}
		return true
	})
	return found
}
