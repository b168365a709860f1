package expr

import (
	"testing"
	"testing/quick"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// identical reports whether two values are indistinguishable: equal, or
// both NULL.
func identical(a, b rel.Value) bool { return a.IsNull() && b.IsNull() || rel.Equal(a, b) }

var testSchema = rel.NewSchema(
	rel.Column{Name: "a", Type: rel.TypeInt, Table: "t"},
	rel.Column{Name: "b", Type: rel.TypeFloat, Table: "t"},
	rel.Column{Name: "s", Type: rel.TypeText, Table: "t"},
	rel.Column{Name: "flag", Type: rel.TypeBool, Table: "t"},
)

func evalOn(t *testing.T, src string, row rel.Row) rel.Value {
	t.Helper()
	e, err := sql.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c, err := Compile(e, testSchema)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	v, err := c.Eval(row)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

var sampleRow = rel.Row{rel.Int(10), rel.Float(2.5), rel.Text("Hello"), rel.Bool(true)}

func TestArithmetic(t *testing.T) {
	cases := map[string]rel.Value{
		"a + 5":    rel.Int(15),
		"a - 3":    rel.Int(7),
		"a * 2":    rel.Int(20),
		"a / 4":    rel.Float(2.5),
		"a % 3":    rel.Int(1),
		"b * 2":    rel.Float(5),
		"a + b":    rel.Float(12.5),
		"-a":       rel.Int(-10),
		"a / 0":    rel.NullOf(rel.TypeFloat),
		"a % 0":    rel.NullOf(rel.TypeInt),
		"NULL + 1": rel.Null(),
	}
	for src, want := range cases {
		got := evalOn(t, src, sampleRow)
		if want.IsNull() {
			if !got.IsNull() {
				t.Errorf("%q = %v, want NULL", src, got)
			}
			continue
		}
		if !identical(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestIntArithmeticStaysInt(t *testing.T) {
	e, _ := sql.ParseExpr("a + 1")
	c, err := Compile(e, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if c.Type != rel.TypeInt {
		t.Fatalf("a+1 type = %v", c.Type)
	}
	e, _ = sql.ParseExpr("a / 2")
	c, _ = Compile(e, testSchema)
	if c.Type != rel.TypeFloat {
		t.Fatalf("a/2 type = %v", c.Type)
	}
}

func TestComparisons(t *testing.T) {
	cases := map[string]rel.Value{
		"a = 10":      rel.Bool(true),
		"a <> 10":     rel.Bool(false),
		"a < 11":      rel.Bool(true),
		"a >= 10":     rel.Bool(true),
		"s = 'Hello'": rel.Bool(true),
		"s < 'I'":     rel.Bool(true),
		"a = NULL":    rel.NullOf(rel.TypeBool),
		"b > 2":       rel.Bool(true),
	}
	for src, want := range cases {
		got := evalOn(t, src, sampleRow)
		if want.IsNull() {
			if !got.IsNull() {
				t.Errorf("%q = %v, want NULL", src, got)
			}
			continue
		}
		if !identical(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestBooleanLogic3VL(t *testing.T) {
	// NULL-aware AND/OR.
	cases := map[string]any{
		"flag AND a = 10": true,
		"flag AND a = 9":  false,
		"flag OR a = 9":   true,
		"NOT flag":        false,
		"flag AND NULL":   nil,
		"flag OR NULL":    true,
		"NOT NULL":        nil,
		"a = 9 AND NULL":  false, // FALSE AND UNKNOWN = FALSE
		"a = 10 OR NULL":  true,  // TRUE OR UNKNOWN = TRUE
	}
	for src, want := range cases {
		got := evalOn(t, src, sampleRow)
		if want == nil {
			if !got.IsNull() {
				t.Errorf("%q = %v, want NULL", src, got)
			}
			continue
		}
		if got.IsNull() || got.AsBool() != want.(bool) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestInBetweenLike(t *testing.T) {
	cases := map[string]any{
		"a IN (1, 10, 100)":      true,
		"a NOT IN (1, 10, 100)":  false,
		"a IN (1, 2)":            false,
		"a IN (1, NULL)":         nil, // not found + null present = UNKNOWN
		"a BETWEEN 5 AND 15":     true,
		"a NOT BETWEEN 5 AND 15": false,
		"a BETWEEN 11 AND 15":    false,
		"s LIKE 'He%'":           true,
		"s LIKE '%lo'":           true,
		"s LIKE 'H_llo'":         true,
		"s LIKE 'h%'":            false, // case-sensitive
		"s NOT LIKE 'xyz'":       true,
		"s LIKE '%'":             true,
		"NULL LIKE '%'":          nil,
	}
	for src, want := range cases {
		got := evalOn(t, src, sampleRow)
		if want == nil {
			if !got.IsNull() {
				t.Errorf("%q = %v, want NULL", src, got)
			}
			continue
		}
		if got.IsNull() || got.AsBool() != want.(bool) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestIsNull(t *testing.T) {
	if v := evalOn(t, "s IS NULL", sampleRow); v.AsBool() {
		t.Fatal("s is not null")
	}
	if v := evalOn(t, "s IS NOT NULL", sampleRow); !v.AsBool() {
		t.Fatal("s is not null (not)")
	}
	nullRow := rel.Row{rel.Null(), rel.Null(), rel.Null(), rel.Null()}
	if v := evalOn(t, "a IS NULL", nullRow); !v.AsBool() {
		t.Fatal("null detection")
	}
}

func TestCase(t *testing.T) {
	v := evalOn(t, "CASE WHEN a > 5 THEN 'big' ELSE 'small' END", sampleRow)
	if v.AsText() != "big" {
		t.Fatalf("case: %v", v)
	}
	v = evalOn(t, "CASE a WHEN 10 THEN 'ten' WHEN 20 THEN 'twenty' END", sampleRow)
	if v.AsText() != "ten" {
		t.Fatalf("simple case: %v", v)
	}
	v = evalOn(t, "CASE a WHEN 99 THEN 'x' END", sampleRow)
	if !v.IsNull() {
		t.Fatalf("case fallthrough must be NULL: %v", v)
	}
}

func TestCast(t *testing.T) {
	if v := evalOn(t, "CAST(a AS TEXT)", sampleRow); v.AsText() != "10" {
		t.Fatalf("cast int->text: %v", v)
	}
	if v := evalOn(t, "CAST('12' AS INT)", sampleRow); v.AsInt() != 12 {
		t.Fatalf("cast text->int: %v", v)
	}
	// Unparseable cast yields NULL, not an error (LLM-tolerant behaviour).
	if v := evalOn(t, "CAST('garbage' AS INT)", sampleRow); !v.IsNull() {
		t.Fatalf("bad cast should be NULL: %v", v)
	}
}

func TestConcatOperator(t *testing.T) {
	if v := evalOn(t, "s || '!' ", sampleRow); v.AsText() != "Hello!" {
		t.Fatalf("concat: %v", v)
	}
	if v := evalOn(t, "s || NULL", sampleRow); !v.IsNull() {
		t.Fatalf("concat null: %v", v)
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := map[string]rel.Value{
		"UPPER(s)":             rel.Text("HELLO"),
		"LOWER(s)":             rel.Text("hello"),
		"LENGTH(s)":            rel.Int(5),
		"TRIM('  x  ')":        rel.Text("x"),
		"SUBSTR(s, 2)":         rel.Text("ello"),
		"SUBSTR(s, 2, 3)":      rel.Text("ell"),
		"SUBSTR(s, 1, 0)":      rel.Text(""),
		"ABS(-5)":              rel.Int(5),
		"ABS(-2.5)":            rel.Float(2.5),
		"ROUND(2.567, 2)":      rel.Float(2.57),
		"ROUND(2.4)":           rel.Float(2),
		"FLOOR(2.9)":           rel.Int(2),
		"CEIL(2.1)":            rel.Int(3),
		"COALESCE(NULL, 7)":    rel.Int(7),
		"COALESCE(a, 0)":       rel.Int(10),
		"NULLIF(a, 10)":        rel.Null(),
		"NULLIF(a, 9)":         rel.Int(10),
		"CONCAT(s, ' ', 'Go')": rel.Text("Hello Go"),
	}
	for src, want := range cases {
		got := evalOn(t, src, sampleRow)
		if want.IsNull() {
			if !got.IsNull() {
				t.Errorf("%q = %v, want NULL", src, got)
			}
			continue
		}
		if !identical(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"missing_col",
		"NOSUCHFUNC(a)",
		"SUBSTR(s)",
		"SUM(a)", // aggregate rejected here
		"a IN (SELECT x FROM t)",
	}
	for _, src := range bad {
		e, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(e, testSchema); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestCompileBool(t *testing.T) {
	e, _ := sql.ParseExpr("a > 5")
	pred, err := CompileBool(e, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := pred(sampleRow)
	if err != nil || ts != rel.True {
		t.Fatalf("pred: %v %v", ts, err)
	}
	// Non-boolean predicate rejected.
	e, _ = sql.ParseExpr("a + 1")
	if _, err := CompileBool(e, testSchema); err == nil {
		t.Fatal("non-bool predicate must be rejected")
	}
}

func TestMatchLikeProperties(t *testing.T) {
	// '%' matches everything.
	f := func(s string) bool { return MatchLike(s, "%") }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Literal string matches itself when it contains no metacharacters.
	g := func(raw string) bool {
		s := ""
		for _, r := range raw {
			if r != '%' && r != '_' {
				s += string(r)
			}
		}
		return MatchLike(s, s)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchLikeCorners(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%c", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "m%iss%pi", true},
		{"abc", "%%%", true},
		{"ab", "a__", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestQualifiedColumnCompile(t *testing.T) {
	v := evalOn(t, "t.a + 1", sampleRow)
	if v.AsInt() != 11 {
		t.Fatalf("qualified ref: %v", v)
	}
}
