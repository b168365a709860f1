package sql

import (
	"reflect"
	"strings"
	"testing"
)

// TestDeparseRoundTrip checks parse -> deparse -> parse is a fixed point on
// the AST for a corpus of statements.
func TestDeparseRoundTrip(t *testing.T) {
	corpus := []string{
		"SELECT 1",
		"SELECT * FROM t",
		"SELECT a, b AS bb FROM t WHERE a > 1 AND b < 2",
		"SELECT DISTINCT x FROM t ORDER BY x DESC LIMIT 3 OFFSET 1",
		"SELECT continent, COUNT(*) AS n FROM country GROUP BY continent HAVING COUNT(*) > 2",
		"SELECT c.name FROM country AS c JOIN movie AS m ON m.country = c.name",
		"SELECT * FROM a LEFT JOIN b ON a.x = b.x",
		"SELECT * FROM a CROSS JOIN b",
		"SELECT * FROM t WHERE x IN (1, 2, 3)",
		"SELECT * FROM t WHERE x NOT IN (SELECT y FROM u)",
		"SELECT * FROM t WHERE x BETWEEN 1 AND 10",
		"SELECT * FROM t WHERE s LIKE 'A%' AND s IS NOT NULL",
		"SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
		"SELECT CAST(x AS FLOAT) FROM t",
		"SELECT (a + b) * c FROM t",
		"SELECT a - (b - c) FROM t",
		"SELECT name || ' (' || capital || ')' FROM country",
		"SELECT s.n FROM (SELECT COUNT(*) AS n FROM t) AS s",
		"SELECT * FROM t WHERE NOT (a = 1 OR b = 2)",
		"SELECT SUM(DISTINCT x) FROM t",
	}
	for _, src := range corpus {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		out := DeparseStmt(s1)
		s2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", out, src, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("round trip changed AST:\n in: %s\nout: %s\nfirst: %#v\nsecond: %#v", src, out, s1, s2)
		}
		// Deparse must be a fixed point after one round.
		if again := DeparseStmt(s2); again != out {
			t.Errorf("deparse not stable: %q vs %q", out, again)
		}
	}
}

func TestDeparsePrecedenceParens(t *testing.T) {
	cases := map[string]string{
		"(a + b) * c":    "(a + b) * c",
		"a + b * c":      "a + b * c",
		"a - (b - c)":    "a - (b - c)",
		"(a OR b) AND c": "(a OR b) AND c",
		"NOT (a AND b)":  "NOT (a AND b)",
		"a / b / c":      "a / b / c",
	}
	for in, want := range cases {
		e, err := ParseExpr(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := Deparse(e); got != want {
			t.Errorf("Deparse(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDeparseCreateInsert(t *testing.T) {
	src := "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)"
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := DeparseStmt(stmt); got != src {
		t.Errorf("create deparse: %q", got)
	}
	src = "INSERT INTO t (a, b) VALUES (1, 'x''y'), (2, NULL)"
	stmt, err = Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := DeparseStmt(stmt); got != src {
		t.Errorf("insert deparse: %q", got)
	}
}

func TestDeparseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := DeparseStmt(stmt); got != "EXPLAIN SELECT a FROM t" {
		t.Errorf("explain deparse: %q", got)
	}
}

// TestDeparseQuotesReservedIdentifiers: a name spelled like a reserved
// word, in any case, is double-quoted; a plain name of any length is not.
func TestDeparseQuotesReservedIdentifiers(t *testing.T) {
	for _, set := range []map[string]bool{deparseReserved, reservedAfterTable} {
		for w := range set {
			for _, name := range []string{w, strings.ToLower(w), strings.ToLower(w[:1]) + w[1:]} {
				if got, want := Deparse(&ColumnRef{Name: name}), `"`+name+`"`; got != want {
					t.Errorf("Deparse(%s) = %s, want %s", name, got, want)
				}
			}
		}
	}
	for _, name := range []string{"population", "a_very_long_column_name_x", "Selected", "x1"} {
		if got := Deparse(&ColumnRef{Name: name}); got != name {
			t.Errorf("Deparse(%s) = %s, want it bare", name, got)
		}
	}
}
