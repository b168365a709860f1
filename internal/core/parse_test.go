package core

import (
	"slices"
	"strings"
	"testing"

	"llmsql/internal/rel"
)

var parseSchema = rel.NewSchema(
	rel.Column{Name: "name", Type: rel.TypeText, Key: true},
	rel.Column{Name: "capital", Type: rel.TypeText},
	rel.Column{Name: "population", Type: rel.TypeInt},
)

// keyMidSchema puts the entity key in the middle, so parses are checked at
// a key position other than 0.
var keyMidSchema = rel.NewSchema(
	rel.Column{Name: "capital", Type: rel.TypeText},
	rel.Column{Name: "name", Type: rel.TypeText, Key: true},
	rel.Column{Name: "population", Type: rel.TypeInt},
)

func allCols() []int { return []int{0, 1, 2} }

func TestParseCleanRows(t *testing.T) {
	text := "France | Paris | 68\nJapan | Tokyo | 125"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 2 || stats.RowsParsed != 2 || stats.RowsDropped != 0 {
		t.Fatalf("rows=%d stats=%+v", len(rows), stats)
	}
	if rows[0][0].AsText() != "France" || rows[0][2].AsInt() != 68 {
		t.Fatalf("row0: %v", rows[0])
	}
	if stats.Repairs != 0 {
		t.Fatalf("clean input needed repairs: %+v", stats)
	}
}

func TestParseSkipsProse(t *testing.T) {
	text := "Here are the rows I know of:\nFrance | Paris | 68\n(end of list)"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if stats.RowsDropped != 2 {
		t.Fatalf("prose lines must be dropped: %+v", stats)
	}
}

func TestParseRepairsBulletsAndCommentary(t *testing.T) {
	text := "- France | Paris | 68\nRow: Japan | Tokyo | 125."
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if stats.Repairs == 0 {
		t.Fatal("repairs must be counted")
	}
	if rows[1][2].AsInt() != 125 {
		t.Fatalf("trailing period handling: %v", rows[1])
	}
}

func TestParseCommaFallback(t *testing.T) {
	text := "France, Paris, 68"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 1 || rows[0][1].AsText() != "Paris" {
		t.Fatalf("comma fallback: %v (%+v)", rows, stats)
	}
	// Strict mode rejects it.
	rows, _ = parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), false)
	if len(rows) != 0 {
		t.Fatalf("strict mode accepted comma row: %v", rows)
	}
}

func TestParseRaggedRows(t *testing.T) {
	// Missing field -> NULL-padded; extra field -> truncated.
	text := "France | Paris\nJapan | Tokyo | 125 | extra"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 2 {
		t.Fatalf("ragged rows: %v", rows)
	}
	if !rows[0][2].IsNull() {
		t.Fatalf("missing field must be NULL: %v", rows[0])
	}
	if rows[1][2].AsInt() != 125 {
		t.Fatalf("extra field must be dropped: %v", rows[1])
	}
	if stats.Repairs < 2 {
		t.Fatalf("repairs: %+v", stats)
	}
	// Strict mode rejects both.
	rows, _ = parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), false)
	if len(rows) != 0 {
		t.Fatalf("strict accepted ragged rows: %v", rows)
	}
}

func TestParseNumericRescue(t *testing.T) {
	text := "France | Paris | about 68 million\nJapan | Tokyo | 1,254"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][2].AsInt() != 68 {
		t.Fatalf("unit words: %v", rows[0][2])
	}
	if rows[1][2].AsInt() != 1254 {
		t.Fatalf("thousands separators: %v", rows[1][2])
	}
	_ = stats
}

func TestParseDropsRowsWithoutKey(t *testing.T) {
	text := " | Paris | 68\nunknown | Rome | 59"
	rows, _ := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	// First row has empty key; second has "unknown" which ParseTyped maps
	// to NULL for text? No: "unknown" maps to NULL only for non-text; for
	// TEXT it is the literal string "unknown"... which IS the NULL marker.
	for _, r := range rows {
		if r[0].IsNull() || r[0].AsText() == "" {
			t.Fatalf("row with null key leaked: %v", r)
		}
	}
}

func TestParsePartialColumns(t *testing.T) {
	// Only columns 0 and 2 requested; column 1 must be NULL.
	text := "France | 68"
	rows, _ := parseListCompletion(text, parseSchema, []int{0, 2}, 0, parseSchema.Len(), true)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if !rows[0][1].IsNull() || rows[0][2].AsInt() != 68 {
		t.Fatalf("partial columns: %v", rows[0])
	}
}

func TestParseKeysOnly(t *testing.T) {
	text := "France\nJapan\nHere are more:\nBrazil."
	rows, _ := parseListCompletion(text, parseSchema, []int{0}, 0, parseSchema.Len(), true)
	if len(rows) != 3 {
		t.Fatalf("keys: %v", rows)
	}
	if rows[2][0].AsText() != "Brazil" {
		t.Fatalf("trailing period on key: %v", rows[2])
	}
}

func TestParseTruncatedLastLine(t *testing.T) {
	// Mid-row truncation: last line misses the numeric tail.
	text := "France | Paris | 68\nJapan | Tok"
	rows, _ := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if !rows[1][2].IsNull() {
		t.Fatalf("truncated row numeric must be NULL: %v", rows[1])
	}
}

func TestExtractNumber(t *testing.T) {
	cases := map[string]string{
		"about 68 million":      "68",
		"≈1,408 (2021)":         "1,408",
		"-12 degrees":           "-12",
		"value: 3.5 approx":     "3.5",
		"no digits here at all": "",
	}
	for in, want := range cases {
		got, ok := extractNumber(in)
		if want == "" {
			if ok {
				t.Errorf("extractNumber(%q) = %q, want none", in, got)
			}
			continue
		}
		if !ok || got != want {
			t.Errorf("extractNumber(%q) = %q,%v want %q", in, got, ok, want)
		}
	}
}

func TestParseAttrCompletion(t *testing.T) {
	cases := []struct {
		text string
		typ  rel.DataType
		want string
		ok   bool
	}{
		{"Paris", rel.TypeText, "Paris", true},
		{"Paris.", rel.TypeText, "Paris", true},
		{"The capital of France is Paris.", rel.TypeText, "Paris", true},
		{"capital: Paris", rel.TypeText, "Paris", true},
		{"I'm not sure.", rel.TypeText, "", false},
		{"I DON'T KNOW", rel.TypeText, "", false},
		{"Unknown.", rel.TypeText, "", false},
		{"The capital IS Paris.", rel.TypeText, "Paris", true},
		{"La capitale de la Côte d'Ivoire is Yamoussoukro.", rel.TypeText, "Yamoussoukro", true},
		{"Ünknown, sorry", rel.TypeText, "Ünknown, sorry", true}, // "ünknown" is not the marker
		{"İ: unknown", rel.TypeText, "", false},                  // a non-ASCII line is still scanned
		{"\xff\xff is 5", rel.TypeInt, "5", true},                // lower-casing grows invalid UTF-8
		{"ȺȺ is 5", rel.TypeInt, "5", true},                      // ... and 'Ⱥ'
		{"68", rel.TypeInt, "68", true},
		{"The population of France is 68.", rel.TypeInt, "68", true},
		{"about 68 million", rel.TypeInt, "68", true},
		{"population: 1,408", rel.TypeInt, "1408", true},
		{"", rel.TypeText, "", false},
	}
	for _, c := range cases {
		v, ok := parseAttrCompletion(c.text, c.typ, true)
		if ok != c.ok {
			t.Errorf("parseAttr(%q): ok=%v want %v", c.text, ok, c.ok)
			continue
		}
		if ok && v.String() != c.want {
			t.Errorf("parseAttr(%q) = %q, want %q", c.text, v.String(), c.want)
		}
	}
}

func TestParseAttrMultiline(t *testing.T) {
	v, ok := parseAttrCompletion("Paris\nIt is a lovely city.", rel.TypeText, true)
	if !ok || v.AsText() != "Paris" {
		t.Fatalf("multiline attr: %v %v", v, ok)
	}
}

func TestParseNormalizesKeyWhitespace(t *testing.T) {
	// Interior whitespace runs in the entity key are collapsed at parse
	// time, so the emitted row, dedup identity, ATTR prompts and cache all
	// agree on one spelling (regression: variants used to flow through).
	text := "United  Kingdom | London | 67\nNew\t York | Albany | 20"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if got := rows[0][0].AsText(); got != "United Kingdom" {
		t.Fatalf("key not normalized: %q", got)
	}
	if got := rows[1][0].AsText(); got != "New York" {
		t.Fatalf("key not normalized: %q", got)
	}
	// Non-key fields keep their parsed spelling.
	if rows[0][1].AsText() != "London" {
		t.Fatalf("capital: %v", rows[0][1])
	}
	// Canonicalization is not a repair: the strict-parser ablation must
	// stay repair-free on well-formed lines.
	if stats.Repairs != 0 {
		t.Fatalf("normalization must not count as a repair: %+v", stats)
	}
	strictRows, strictStats := parseListCompletion(text, parseSchema, allCols(), 0, parseSchema.Len(), false)
	if len(strictRows) != 2 || strictStats.Repairs != 0 {
		t.Fatalf("strict parse: rows=%d stats=%+v", len(strictRows), strictStats)
	}
	if got := strictRows[0][0].AsText(); got != "United Kingdom" {
		t.Fatalf("strict parser must canonicalize keys too: %q", got)
	}
}

func TestParseBatchMatchesWhitespaceVariantKeys(t *testing.T) {
	// A batched ATTRS answer echoing a key with different interior spacing
	// must still be attributed to that key, not dropped into fallback.
	vals, ok, found := parseAttrBatchCompletion(
		"United  Kingdom | London\nFrance | Paris",
		[]string{"United Kingdom", "France"}, rel.TypeText, true)
	if !found[0] || !ok[0] || vals[0].AsText() != "London" {
		t.Fatalf("whitespace-variant echo not matched: found=%v ok=%v vals=%v", found, ok, vals)
	}
	if !found[1] || vals[1].AsText() != "Paris" {
		t.Fatalf("clean echo broken: %v", vals)
	}
}

// On ASCII input lastIndexFold must agree with the lower-cased copy it
// replaced, index for index.
func TestLastIndexFoldMatchesToLower(t *testing.T) {
	lines := []string{"", " is ", "IS", "x IS y is z", "The Capital Is Paris IS", "unknown", "UNKNOWN!", "UnKnOwN",
		"i'm not sure", "I'M NOT SURE.", "un known", "nknown", "[{@`", "A is  is B", "is", " is"}
	markers := []string{" is ", "unknown", "i'm not sure", "i don't know", "a", ""}
	for _, line := range lines {
		for _, m := range markers {
			if got, want := lastIndexFold(line, m), strings.LastIndex(strings.ToLower(line), m); got != want {
				t.Errorf("lastIndexFold(%q, %q) = %d, want %d", line, m, got, want)
			}
		}
	}
}

// The fast path of normalizeKeyText must return exactly what the split and
// join would have built.
func TestNormalizeKeyTextFastPath(t *testing.T) {
	for _, s := range []string{"", " ", "  ", "France", "United Kingdom", "United  Kingdom", " France", "France ",
		"a b c", "a\tb", "a\nb", "a\vb", "a\fb", "a\rb", "Côte d'Ivoire", "Côte  d'Ivoire", "a\u00a0b", "a\u2003b", "a\u0085b",
		"x", " x ", "são tomé"} {
		want := strings.Join(strings.Fields(s), " ")
		if got := normalizeKeyText(s); got != want {
			t.Errorf("normalizeKeyText(%q) = %q, want %q", s, got, want)
		}
		if keyTextIsCanonical(s) && s != want {
			t.Errorf("keyTextIsCanonical(%q) but normalization gives %q", s, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = normalizeKeyText("United Kingdom") }); n != 0 {
		t.Errorf("canonical key allocated %v times", n)
	}
}

// FuzzParseCompletion drives the three completion decoders — raw model
// output, the least trusted input in the system — in tolerant and strict
// mode alike. Whatever the text, they must not panic, every full-width
// LIST/KEYS row must span the schema with a typed cell per column and a
// canonical key, the key-only parse must accept the same lines with the
// same keys and counters, a strict parse must repair nothing, an ATTR value
// must be typed and NULL exactly when rejected, and a batched ATTRS parse
// must answer every key.
func FuzzParseCompletion(f *testing.F) {
	f.Add("France | Paris | 68\nJapan | Tokyo | 125", "France\nJapan", uint8(0), true)
	f.Add("Here are the rows I know of:\n- France | Paris | 68\nRow: Japan | Tokyo | 125.\n(end of list)", "France", uint8(3), true)
	f.Add("France, Paris, about 68 million\nUnited  Kingdom | London", "United Kingdom", uint8(5), false)
	f.Add("The population of France is 68.\nIt is large.", "France", uint8(3), true)
	f.Add("United  Kingdom | London\n* France: Paris\nFrance | Lyon", "United Kingdom\nFrance", uint8(0), true)
	f.Add("İ: unknown\nCôte  d'Ivoire | Yamoussoukro | 1,408", "Côte d'Ivoire", uint8(6), true)
	f.Add("\xff\xff\xff is 5\nx | y | z", "x", uint8(3), true)
	f.Add("Paris | France | 68\n | Tokyo\nLyon |  France  ", "France", uint8(4), false)
	f.Add("", "", uint8(9), false)
	shapes := []struct {
		schema rel.Schema
		cols   []int
		keyPos int
	}{
		{parseSchema, allCols(), 0}, {parseSchema, []int{0}, 0}, {parseSchema, []int{0, 2}, 0},
		{keyMidSchema, allCols(), 1}, {keyMidSchema, []int{1}, 1}, {keyMidSchema, []int{1, 2}, 1},
	}
	attrTypes := []rel.DataType{rel.TypeText, rel.TypeInt, rel.TypeFloat, rel.TypeBool}
	f.Fuzz(func(t *testing.T, text, keyLines string, shape uint8, tolerant bool) {
		sh := shapes[int(shape)%len(shapes)]
		full := parseCompletion(text, sh.schema, sh.cols, sh.keyPos, sh.schema.Len(), tolerant)
		rows, stats := full.rows, full.stats
		if stats.RowsParsed != len(rows) || stats.LinesSeen != stats.RowsParsed+stats.RowsDropped {
			t.Fatalf("stats %+v disagree with %d rows", stats, len(rows))
		}
		if !tolerant && stats.Repairs != 0 {
			t.Fatalf("strict parse repaired: %+v", stats)
		}
		for _, row := range rows {
			if len(row) != sh.schema.Len() {
				t.Fatalf("row %v has %d cells, schema %d", row, len(row), sh.schema.Len())
			}
			for i, v := range row {
				if v.Type() != sh.schema.Col(i).Type {
					t.Fatalf("row %v: cell %d is %s, column is %s", row, i, v.Type(), sh.schema.Col(i).Type)
				}
			}
			if k := row[sh.keyPos]; k.IsNull() || k.AsText() == "" || normalizeKeyText(k.AsText()) != k.AsText() {
				t.Fatalf("row %v: key %q is not canonical", row, k.AsText())
			}
		}

		keyOnly := parseCompletion(text, sh.schema, sh.cols, sh.keyPos, 1, tolerant)
		if keyOnly.stats != stats || len(keyOnly.rows) != len(rows) || !slices.Equal(keyOnly.keys, full.keys) {
			t.Fatalf("key-only parse %+v (%d rows, keys %q) disagrees with full-width %+v (%d rows, keys %q)",
				keyOnly.stats, len(keyOnly.rows), keyOnly.keys, stats, len(rows), full.keys)
		}
		for i, row := range keyOnly.rows {
			if len(row) != 1 || row[0] != rows[i][sh.keyPos] {
				t.Fatalf("key-only row %v, full-width key %v", row, rows[i][sh.keyPos])
			}
		}

		typ := attrTypes[int(shape)/len(shapes)%len(attrTypes)]
		v, ok := parseAttrCompletion(text, typ, tolerant)
		if v.Type() != typ || ok == v.IsNull() {
			t.Fatalf("ATTR %q as %s: %v (%s), ok=%v", text, typ, v, v.Type(), ok)
		}

		var keys []string
		if keyLines != "" {
			keys = strings.Split(keyLines, "\n")
		}
		vals, oks, found := parseAttrBatchCompletion(text, keys, typ, tolerant)
		if len(vals) != len(keys) || len(oks) != len(keys) || len(found) != len(keys) {
			t.Fatalf("%d keys, got %d values / %d ok / %d found", len(keys), len(vals), len(oks), len(found))
		}
		for i := range keys {
			if vals[i].Type() != typ || oks[i] == vals[i].IsNull() || oks[i] && !found[i] {
				t.Fatalf("key %q: %v (%s), ok=%v found=%v", keys[i], vals[i], vals[i].Type(), oks[i], found[i])
			}
		}
	})
}
