package core

import (
	"strings"
	"testing"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// promptTable returns a registered record of a three-column country table.
func promptTable() *VirtualTable {
	return tableRecord(VirtualTable{
		Name:        "country",
		Description: "a sovereign country of the world",
		Schema: rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "the country's name"},
			rel.Column{Name: "capital", Type: rel.TypeText, Desc: "the capital city"},
			rel.Column{Name: "population", Type: rel.TypeInt, Desc: "population in millions"},
		),
	})
}

func TestBuildListPrompt(t *testing.T) {
	filter, err := sql.ParseExpr("population > 50")
	if err != nil {
		t.Fatal(err)
	}
	p := buildListPrompt(promptTable(), []int{0, 2}, filter, []string{"France", "Japan"}, 40)
	for _, want := range []string{
		"TASK: LIST",
		"TABLE: country -- a sovereign country of the world",
		"name -- the country's name",
		"population -- population in millions",
		"FILTER: population > 50",
		"population is greater than 50",
		"EXCLUDE: France | Japan",
		"MAXROWS: 40",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q:\n%s", want, p)
		}
	}
	if strings.Contains(p, "capital") {
		t.Error("unneeded column leaked into prompt")
	}
}

func TestBuildKeysPrompt(t *testing.T) {
	p := buildKeysPrompt(promptTable(), nil, nil, 0)
	if !strings.Contains(p, "TASK: KEYS") {
		t.Errorf("keys prompt:\n%s", p)
	}
	if !strings.Contains(p, "name -- the country's name") {
		t.Errorf("key column missing:\n%s", p)
	}
	if strings.Contains(p, "FILTER") || strings.Contains(p, "MAXROWS") {
		t.Errorf("unexpected optional lines:\n%s", p)
	}
}

func TestBuildAttrPrompt(t *testing.T) {
	p := buildAttrPrompt(promptTable(), "France", 1)
	for _, want := range []string{"TASK: ATTR", "ENTITY: France", "COLUMN: capital -- the capital city"} {
		if !strings.Contains(p, want) {
			t.Errorf("attr prompt missing %q:\n%s", want, p)
		}
	}
	// The prompt is a cache, trace and disk-cache key: its bytes are pinned.
	// (The table name is lower-cased on the TABLE line whatever its spelling.)
	const want = "You are a precise data assistant. Answer strictly from your world knowledge.\n" +
		"TASK: ATTR\n" +
		"TABLE: country -- a sovereign country of the world\n" +
		"ENTITY: São Tomé\n" +
		"COLUMN: population -- population in millions\n" +
		"Respond with only the value."
	tbl := promptTable()
	tbl.Name = "Country"
	if got := buildAttrPrompt(tbl, "São Tomé", 2); got != want {
		t.Errorf("attr prompt bytes changed:\n%q\nwant\n%q", got, want)
	}
	if got := newAttrPrompter(tbl, 2).prompt("São Tomé"); got != want {
		t.Errorf("attrPrompter disagrees with buildAttrPrompt:\n%q", got)
	}
}

// TestFilterQualifiersStripped checks that a table-qualified pushed filter
// reaches the LIST and KEYS prompts with bare column names: the scan spec
// strips qualifiers once, and every prompt builder prints what it is given.
func TestFilterQualifiersStripped(t *testing.T) {
	filter, err := sql.ParseExpr("c.population > 50 AND c.name LIKE 'A%'")
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []Strategy{StrategyFullTable, StrategyKeyThenAttr} {
		var prompts []string
		model := &scriptModel{respond: func(req llm.CompletionRequest) string {
			prompts = append(prompts, req.Prompt)
			return ""
		}}
		cfg := DefaultConfig()
		cfg.Temperature = 0
		cfg.Strategy = strategy
		s := NewLLMStore(model, cfg)
		s.Register(*promptTable())
		it, err := s.Scan(exec.ScanRequest{Table: "country", Alias: "c", Schema: promptTable().Schema.Rename("c"), Filter: filter})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Drain(it); err != nil {
			t.Fatal(err)
		}
		want := "FILTER: population > 50 AND name LIKE 'A%'" // LIST: the whole filter
		if strategy == StrategyKeyThenAttr {
			want = "FILTER: name LIKE 'A%'" // KEYS: the key-only conjunct
		}
		if len(prompts) == 0 || strings.Contains(prompts[0], "c.") || !strings.Contains(prompts[0], want) {
			t.Errorf("%v: want %q with no qualifier in\n%v", strategy, want, prompts)
		}
	}
}

func TestVerbalizePredicate(t *testing.T) {
	cases := map[string]string{
		"population > 50":   "population is greater than 50",
		"a = 1 AND b < 2":   "a equals 1 and b is less than 2",
		"x BETWEEN 1 AND 5": "x is between 1 and 5",
		"name LIKE 'A%'":    "name matches the pattern 'A%'",
		"c IN ('x', 'y')":   "c is one of 'x', 'y'",
		"c NOT IN ('x')":    "c is none of 'x'",
		"v IS NULL":         "v is unknown",
		"v IS NOT NULL":     "v is known",
		"NOT (a = 1)":       "not (a equals 1)",
		"population >= 10":  "population is at least 10",
		"population <= 10":  "population is at most 10",
		"population <> 10":  "population differs from 10",
	}
	for in, want := range cases {
		e, err := sql.ParseExpr(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := string(appendVerbalized(nil, e)); got != want {
			t.Errorf("Verbalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNeededColumns(t *testing.T) {
	schema := promptTable().Schema
	// nil mask = all columns.
	cols, keyPos, attrCols := neededColumns(schema, nil)
	if len(cols) != 3 || keyPos != 0 || len(attrCols) != 2 {
		t.Fatalf("all: %v %d %v", cols, keyPos, attrCols)
	}
	// Key always included even when masked out.
	cols, _, attrCols = neededColumns(schema, []bool{false, false, true})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || len(attrCols) != 1 || attrCols[0] != 2 {
		t.Fatalf("masked: %v %v", cols, attrCols)
	}
}

// TestPromptTokensAdditive: the token counts Register measures price every
// column set exactly as the rendered templates would — the LIST count over
// each column subset of the world's tables and of a table of awkward names,
// the KEYS count and each column's ATTR count.
func TestPromptTokensAdditive(t *testing.T) {
	s := NewLLMStore(&scriptModel{}, DefaultConfig())
	w := parWorld()
	var names []string
	for _, name := range w.DomainNames() {
		d := w.Domain(name)
		s.Register(VirtualTable{Name: d.Name, Description: d.Description, Schema: d.Schema})
		names = append(names, d.Name)
	}
	s.Register(VirtualTable{
		Name:        "Städte",
		Description: "a city with 100k+ inhabitants",
		Schema: rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "the city's name"},
			rel.Column{Name: "count", Type: rel.TypeInt},
			rel.Column{Name: "größe", Type: rel.TypeFloat, Desc: "area in km² (2024)"},
			rel.Column{Name: "pop_2020", Type: rel.TypeInt, Desc: "population—2020 census, in 1000s"},
			rel.Column{Name: "abcde", Type: rel.TypeText, Desc: "1234 56789 x"},
		),
	})
	names = append(names, "städte")
	subsets := 0
	for _, name := range names {
		vt := s.tables.get(name)
		n := vt.Schema.Len()
		if got, want := vt.prompts.keys, llm.CountTokens(buildKeysPrompt(vt, nil, nil, 0)); got != want {
			t.Errorf("%s KEYS: %d tokens, the template has %d", name, got, want)
		}
		for c := 0; c < n; c++ {
			if got, want := vt.prompts.attr[c], llm.CountTokens(buildAttrPrompt(vt, vt.Name, c)); got != want {
				t.Errorf("%s ATTR %s: %d tokens, the template has %d", name, vt.Schema.Col(c).Name, got, want)
			}
		}
		for mask := 1; mask < 1<<n; mask++ {
			var cols []int
			for c := 0; c < n; c++ {
				if mask&(1<<c) != 0 {
					cols = append(cols, c)
				}
			}
			if got, want := vt.prompts.list(cols), llm.CountTokens(buildListPrompt(vt, cols, nil, nil, 0)); got != want {
				t.Errorf("%s LIST %v: %d tokens, the template has %d", name, cols, got, want)
			}
			subsets++
		}
	}
	t.Logf("%d column subsets over %d tables", subsets, len(names))
}

// hotListShape is the LIST prompt of hot_repeat's first shape (SELECT name,
// capital, population FROM country WHERE population > $1, bound).
func hotListShape(tb testing.TB) (*VirtualTable, []int, sql.Expr) {
	d := parWorld().Domain("country")
	vt := tableRecord(VirtualTable{Name: d.Name, Description: d.Description, Schema: d.Schema})
	cols := []int{d.Schema.IndexOf("name"), d.Schema.IndexOf("capital"), d.Schema.IndexOf("population")}
	filter, err := sql.ParseExpr("population > 37")
	if err != nil {
		tb.Fatal(err)
	}
	return vt, cols, filter
}

// TestBuildListPromptAllocs: the prompt string is the render's only
// allocation; the buffer it is written into stays on the stack.
func TestBuildListPromptAllocs(t *testing.T) {
	vt, cols, filter := hotListShape(t)
	if n := testing.AllocsPerRun(100, func() { buildListPrompt(vt, cols, filter, nil, 0) }); n != 1 {
		t.Fatalf("buildListPrompt: %v allocs, want 1", n)
	}
}

// BenchmarkBuildListPrompt renders hotListShape's prompt.
func BenchmarkBuildListPrompt(b *testing.B) {
	vt, cols, filter := hotListShape(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildListPrompt(vt, cols, filter, nil, 0)
	}
}
