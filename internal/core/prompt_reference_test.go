package core

import (
	"fmt"
	"strings"
	"testing"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// This file keeps the LIST/KEYS prompt renderer that built each prompt piece
// by piece from the table's fields, with fmt and intermediate strings, as
// the reference the pre-rendered one must match byte for byte: every cache
// layer, the replay fixture and the chaos goldens key on the prompt text.

func refBuildListPrompt(t *VirtualTable, cols []int, filter sql.Expr, exclude []string, maxRows int) string {
	var b strings.Builder
	b.WriteString(promptHeader)
	b.WriteString("\nTASK: LIST\n")
	refWriteTableLine(&b, t)
	b.WriteString("COLUMNS: ")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(" | ")
		}
		col := t.Schema.Col(c)
		b.WriteString(col.Name)
		if col.Desc != "" {
			b.WriteString(" -- ")
			b.WriteString(col.Desc)
		}
	}
	b.WriteByte('\n')
	refWriteFilterLines(&b, filter)
	refWriteExcludeLine(&b, exclude)
	if maxRows > 0 {
		fmt.Fprintf(&b, "MAXROWS: %d\n", maxRows)
	}
	b.WriteString("Respond with one row per line, fields separated by ' | ', in the column order given. Output data only, no commentary.")
	return b.String()
}

func refBuildKeysPrompt(t *VirtualTable, filter sql.Expr, exclude []string, maxRows int) string {
	var b strings.Builder
	b.WriteString(promptHeader)
	b.WriteString("\nTASK: KEYS\n")
	refWriteTableLine(&b, t)
	key := t.Schema.Col(t.Schema.KeyIndexes()[0])
	fmt.Fprintf(&b, "COLUMNS: %s -- %s\n", key.Name, key.Desc)
	refWriteFilterLines(&b, filter)
	refWriteExcludeLine(&b, exclude)
	if maxRows > 0 {
		fmt.Fprintf(&b, "MAXROWS: %d\n", maxRows)
	}
	fmt.Fprintf(&b, "Respond with one %s per line. Output data only, no commentary.", key.Name)
	return b.String()
}

func refWriteTableLine(b *strings.Builder, t *VirtualTable) {
	fmt.Fprintf(b, "TABLE: %s -- %s\n", strings.ToLower(t.Name), t.Description)
}

func refWriteFilterLines(b *strings.Builder, filter sql.Expr) {
	if filter == nil {
		return
	}
	fmt.Fprintf(b, "FILTER: %s\n", sql.Deparse(filter))
	fmt.Fprintf(b, "Only include rows where this condition holds: %s.\n", refVerbalizePredicate(filter))
}

func refWriteExcludeLine(b *strings.Builder, exclude []string) {
	if len(exclude) == 0 {
		return
	}
	fmt.Fprintf(b, "EXCLUDE: %s\n", strings.Join(exclude, " | "))
	b.WriteString("Do not repeat any excluded entry.\n")
}

func refVerbalizePredicate(e sql.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *sql.ColumnRef:
		return x.Name
	case *sql.Literal:
		return x.Value.SQLLiteral()
	case *sql.BinaryExpr:
		l, r := refVerbalizePredicate(x.Left), refVerbalizePredicate(x.Right)
		switch x.Op {
		case sql.OpAnd:
			return l + " and " + r
		case sql.OpOr:
			return l + " or " + r
		case sql.OpEq:
			return l + " equals " + r
		case sql.OpNe:
			return l + " differs from " + r
		case sql.OpLt:
			return l + " is less than " + r
		case sql.OpLe:
			return l + " is at most " + r
		case sql.OpGt:
			return l + " is greater than " + r
		case sql.OpGe:
			return l + " is at least " + r
		default:
			return l + " " + x.Op.String() + " " + r
		}
	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			return "not (" + refVerbalizePredicate(x.X) + ")"
		}
		return x.Op + refVerbalizePredicate(x.X)
	case *sql.IsNullExpr:
		if x.Not {
			return refVerbalizePredicate(x.X) + " is known"
		}
		return refVerbalizePredicate(x.X) + " is unknown"
	case *sql.InExpr:
		var items []string
		for _, it := range x.List {
			items = append(items, refVerbalizePredicate(it))
		}
		verb := " is one of "
		if x.Not {
			verb = " is none of "
		}
		return refVerbalizePredicate(x.X) + verb + strings.Join(items, ", ")
	case *sql.BetweenExpr:
		verb := " is between "
		if x.Not {
			verb = " is not between "
		}
		return refVerbalizePredicate(x.X) + verb + refVerbalizePredicate(x.Lo) + " and " + refVerbalizePredicate(x.Hi)
	case *sql.LikeExpr:
		verb := " matches the pattern "
		if x.Not {
			verb = " does not match the pattern "
		}
		return refVerbalizePredicate(x.X) + verb + refVerbalizePredicate(x.Pattern)
	default:
		return sql.Deparse(e)
	}
}

// referenceFilters covers every kind the verbalizer spells out, the kinds it
// hands to the deparser, quoted identifiers and quotes inside literals.
var referenceFilters = []string{
	"population > 37",
	"year >= 1940 AND rating < 7.5",
	"name = 'Côte d''Ivoire' OR capital <> 'x''''y'",
	"population <= -12 AND (name = 'a' OR name = 'b')",
	"name IN ('France', 'Japan')",
	"name NOT IN ('it''s', 'fine', 3)",
	"population BETWEEN 1 AND 50",
	"population NOT BETWEEN 1 + 1 AND 50 * 2",
	"name LIKE 'A%'",
	"name NOT LIKE '%''s'",
	"NOT (population = 1)",
	"NOT capital IS NULL",
	"capital IS NULL",
	"capital IS NOT NULL AND population IS NULL",
	"CASE WHEN population > 10 THEN 'big' ELSE 'small' END = 'big'",
	"CASE name WHEN 'x' THEN 1 END IS NULL",
	"CAST(population AS TEXT) = '5'",
	"CAST(name AS INT) > 1.0",
	`"select" = 1 AND "my col" > 2 AND "a""b" < 'c'`,
	`"ORDER" IS NOT NULL`,
	"UPPER(name) = 'FRANCE' AND LENGTH(capital) > 3",
	"population * 2 + 1 > 10 - -3",
	"name || capital = 'ab'",
	"population > $1",
	"capital = NULL OR TRUE",
	"population % 7 = 0 AND population / 2 > 1.25",
	"c.population > 50 AND c.name LIKE 'A%'",
	"population > 1234567890123",
}

// referenceTables returns records of the world's tables and of a table of
// awkward names and descriptions.
func referenceTables() []*VirtualTable {
	w := parWorld()
	var out []*VirtualTable
	for _, name := range w.DomainNames() {
		d := w.Domain(name)
		out = append(out, tableRecord(VirtualTable{Name: d.Name, Description: d.Description, Schema: d.Schema}))
	}
	return append(out, promptTable(), tableRecord(VirtualTable{
		Name:        "Städte",
		Description: "a city with 100k+ inhabitants -- %d 'quoted'",
		Schema: rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true},
			rel.Column{Name: "count", Type: rel.TypeInt},
			rel.Column{Name: "größe", Type: rel.TypeFloat, Desc: "area in km² (2024)"},
			rel.Column{Name: "my col", Type: rel.TypeText, Desc: "a | b %s"},
		),
	}))
}

// TestPromptRendererMatchesReference: over every column subset of each
// table, each filter (and none), exclude lists and row caps, the
// pre-rendered LIST and KEYS prompts and the verbalized filter are the
// reference renderer's bytes.
func TestPromptRendererMatchesReference(t *testing.T) {
	filters := []sql.Expr{nil}
	for _, src := range referenceFilters {
		e, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		filters = append(filters, e)
	}
	// The last list makes a prompt longer than the stack buffer it is
	// written into.
	excludes := [][]string{nil, {"France"}, {"Côte d'Ivoire", "a | b", ""}, strings.Split(strings.Repeat("Bosnia and Herzegovina|", promptBuf/20), "|")}
	checked := 0
	for _, vt := range referenceTables() {
		n := vt.Schema.Len()
		for _, f := range filters {
			if got, want := string(appendVerbalized(nil, f)), refVerbalizePredicate(f); got != want {
				t.Errorf("appendVerbalized(%s) = %q, reference %q", sql.Deparse(f), got, want)
			}
			for _, ex := range excludes {
				for _, maxRows := range []int{0, 40, 1000} {
					if got, want := buildKeysPrompt(vt, f, ex, maxRows), refBuildKeysPrompt(vt, f, ex, maxRows); got != want {
						t.Errorf("%s KEYS prompt:\n%q\nreference\n%q", vt.Name, got, want)
					}
					for mask := 1; mask < 1<<n; mask++ {
						var cols []int
						for c := 0; c < n; c++ {
							if mask&(1<<c) != 0 {
								cols = append(cols, c)
							}
						}
						if got, want := buildListPrompt(vt, cols, f, ex, maxRows), refBuildListPrompt(vt, cols, f, ex, maxRows); got != want {
							t.Errorf("%s LIST %v prompt:\n%q\nreference\n%q", vt.Name, cols, got, want)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d LIST prompts checked", checked)
}

// FuzzListPromptMatchesReference parses fuzzed filter expressions and wants
// the LIST and KEYS prompts and the verbalized filter to be the reference
// renderer's bytes.
func FuzzListPromptMatchesReference(f *testing.F) {
	for _, src := range referenceFilters {
		f.Add(src, "France", uint16(0))
	}
	f.Add("a = 'x'", "", uint16(7))
	tables := referenceTables()
	vt := tables[len(tables)-1]
	all := []int{0, 1, 2, 3}
	f.Fuzz(func(t *testing.T, src, exclude string, maxRows uint16) {
		e, err := sql.ParseExpr(src)
		if err != nil {
			return
		}
		var ex []string
		if exclude != "" {
			ex = strings.Split(exclude, "\n")
		}
		if got, want := string(appendVerbalized(nil, e)), refVerbalizePredicate(e); got != want {
			t.Fatalf("appendVerbalized(%q) = %q, reference %q", src, got, want)
		}
		if got, want := buildListPrompt(vt, all, e, ex, int(maxRows)), refBuildListPrompt(vt, all, e, ex, int(maxRows)); got != want {
			t.Fatalf("LIST prompt for %q:\n%q\nreference\n%q", src, got, want)
		}
		if got, want := buildKeysPrompt(vt, e, ex, int(maxRows)), refBuildKeysPrompt(vt, e, ex, int(maxRows)); got != want {
			t.Fatalf("KEYS prompt for %q:\n%q\nreference\n%q", src, got, want)
		}
	})
}
