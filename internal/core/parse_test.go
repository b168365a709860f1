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
	text := "France\nJapan\nHere are more:\nSt. Kitts and Nevis.\nI Don't Know Why\nNo further rows."
	rows, _ := parseListCompletion(text, parseSchema, []int{0}, 0, parseSchema.Len(), true)
	if len(rows) != 4 {
		t.Fatalf("keys: %v", rows)
	}
	// A key line adds no period, so a final one is the key's own.
	if rows[2][0].AsText() != "St. Kitts and Nevis." {
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
		text   string
		column string
		entity string
		typ    rel.DataType
		want   string // "" with ok false: rejected
		ok     bool
		// tolerantOnly marks a value only the tolerant parser's numeric
		// rescue reads; the strict parser rejects it.
		tolerantOnly bool
	}{
		{"Paris", "capital", "France", rel.TypeText, "Paris", true, false},
		{"Paris.", "capital", "France", rel.TypeText, "Paris", true, false},
		{"The capital of France is Paris.", "capital", "France", rel.TypeText, "Paris", true, false},
		{"capital: Paris", "capital", "France", rel.TypeText, "Paris", true, false},
		{"The Capital of FRANCE is Paris.", "capital", "France", rel.TypeText, "Paris", true, false},
		{"I'm not sure.", "capital", "France", rel.TypeText, "", false, false},
		{"I'M NOT SURE", "capital", "France", rel.TypeText, "", false, false},
		{"I do not know that attribute.", "capital", "France", rel.TypeText, "", false, false},
		{"Unknown.", "capital", "France", rel.TypeText, "", false, false},
		{"capital: unknown", "capital", "France", rel.TypeText, "", false, false},
		{"", "capital", "France", rel.TypeText, "", false, false},
		// A value is read whole: a refusal word, " is ", ':' or a period
		// inside it is the value's, and only the phrasing's own period goes.
		{"Unknown Pleasures", "label", "Joy Division", rel.TypeText, "Unknown Pleasures", true, false},
		{"What is Love", "title", "Haddaway", rel.TypeText, "What is Love", true, false},
		{"The title of Haddaway is What is Love.", "title", "Haddaway", rel.TypeText, "What is Love", true, false},
		{"Star Trek: Voyager", "series", "Kate Mulgrew", rel.TypeText, "Star Trek: Voyager", true, false},
		{"series: Star Trek: Voyager", "series", "Kate Mulgrew", rel.TypeText, "Star Trek: Voyager", true, false},
		{"Washington D.C..", "capital", "United States", rel.TypeText, "Washington D.C.", true, false},
		{"capital: Washington D.C.", "capital", "United States", rel.TypeText, "Washington D.C.", true, false},
		{"The capital of United States is Washington D.C..", "capital", "United States", rel.TypeText, "Washington D.C.", true, false},
		{"The capital of Côte d'Ivoire is Yamoussoukro.", "capital", "Côte d'Ivoire", rel.TypeText, "Yamoussoukro", true, false},
		{"The capital of Star Trek: Voyager is Delta.", "capital", "Star Trek: Voyager", rel.TypeText, "Delta", true, false},
		// A sentence about another entity or column is no phrasing of this
		// prompt's answer: it is read as a bare value.
		{"The capital IS Paris.", "capital", "France", rel.TypeText, "The capital IS Paris", true, false},
		{"Ünknown, sorry", "capital", "France", rel.TypeText, "Ünknown, sorry", true, false},
		{"68", "population", "France", rel.TypeInt, "68", true, false},
		{"68.", "population", "France", rel.TypeInt, "68", true, false},
		{"The population of France is 68.", "population", "France", rel.TypeInt, "68", true, false},
		{"population: 68", "population", "France", rel.TypeInt, "68", true, false},
		{"population: 1,408", "population", "France", rel.TypeInt, "1408", true, false},
		{"about 68 million", "population", "France", rel.TypeInt, "68", true, true},
		{"The population of Japan is 125.", "population", "France", rel.TypeInt, "125", true, true},
	}
	for _, c := range cases {
		for _, tolerant := range []bool{true, false} {
			v, ok := parseAttrCompletion(c.text, c.column, c.entity, c.typ, tolerant)
			wantOK := c.ok && (tolerant || !c.tolerantOnly)
			if ok != wantOK {
				t.Errorf("parseAttr(%q, tolerant=%v): ok=%v want %v", c.text, tolerant, ok, wantOK)
				continue
			}
			if ok && v.String() != c.want {
				t.Errorf("parseAttr(%q, tolerant=%v) = %q, want %q", c.text, tolerant, v.String(), c.want)
			}
		}
	}
}

func TestParseAttrMultiline(t *testing.T) {
	v, ok := parseAttrCompletion("Paris\nIt is a lovely city.", "capital", "France", rel.TypeText, true)
	if !ok || v.AsText() != "Paris" {
		t.Fatalf("multiline attr: %v %v", v, ok)
	}
}

// A strict parse accepts no decorated line — a bullet or the "Row: …."
// wrapper — and counts each as dropped; a tolerant one strips the
// decoration as a repair, and only the wrapper's period with it.
func TestParseStrictDropsDecoratedLines(t *testing.T) {
	keys := "- France\n* Japan\nRow: Brazil.\nRow: Washington D.C..\nChile"
	rows, stats := parseListCompletion(keys, parseSchema, []int{0}, 0, 1, false)
	if len(rows) != 1 || rows[0][0].AsText() != "Chile" || stats.RowsDropped != 4 {
		t.Fatalf("strict KEYS parse kept %v (%+v), want only Chile and 4 dropped", rows, stats)
	}
	rows, stats = parseListCompletion(keys, parseSchema, []int{0}, 0, 1, true)
	var got []string
	for _, r := range rows {
		got = append(got, r[0].AsText())
	}
	if want := []string{"France", "Japan", "Brazil", "Washington D.C.", "Chile"}; !slices.Equal(got, want) || stats.Repairs != 4 {
		t.Fatalf("tolerant KEYS parse = %q (%+v), want %q with 4 repairs", got, stats, want)
	}

	list := "Row: France | Paris | 67.\nJapan | Tokyo | 125\n- Chile | Santiago | 19"
	rows, stats = parseListCompletion(list, parseSchema, allCols(), 0, parseSchema.Len(), false)
	if len(rows) != 1 || rows[0][0].AsText() != "Japan" || stats.RowsDropped != 2 {
		t.Fatalf("strict LIST parse kept %v (%+v), want only Japan and 2 dropped", rows, stats)
	}
	rows, _ = parseListCompletion(list, parseSchema, allCols(), 0, parseSchema.Len(), true)
	if len(rows) != 3 || rows[0][0].AsText() != "France" || rows[0][2].AsInt() != 67 {
		t.Fatalf("tolerant LIST parse: %v", rows)
	}
}

// A pipe row's last cell keeps its own period: only the "Row: …." wrapper
// adds one.
func TestParseKeepsValuePeriods(t *testing.T) {
	schema := rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true},
		rel.Column{Name: "capital", Type: rel.TypeText},
	)
	for _, tolerant := range []bool{true, false} {
		rows, _ := parseListCompletion("United States | Washington D.C.", schema, []int{0, 1}, 0, 2, tolerant)
		if len(rows) != 1 || rows[0][1].AsText() != "Washington D.C." {
			t.Fatalf("tolerant=%v: LIST rows %v", tolerant, rows)
		}
	}
}

// The batched colon fallback attributes a line to the longest key followed
// by ':', so a key that is a prefix of another cannot take its value.
func TestParseBatchColonFallbackLongestKey(t *testing.T) {
	keys := []string{"Star Trek", "Star Trek: Voyager"}
	vals, ok, found := parseAttrBatchCompletion("Star Trek: Voyager: 1995\nStar Trek: 1979", keys, rel.TypeInt, true)
	if !found[0] || !ok[0] || vals[0].AsInt() != 1979 || !found[1] || !ok[1] || vals[1].AsInt() != 1995 {
		t.Fatalf("colon fallback: vals=%v ok=%v found=%v", vals, ok, found)
	}
	vals, ok, _ = parseAttrBatchCompletion("Star Trek: Elektra: Asylum", keys, rel.TypeText, true)
	if !ok[0] || vals[0].AsText() != "Elektra: Asylum" {
		t.Fatalf("colon fallback with ':' in the value: vals=%v ok=%v", vals, ok)
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
// must answer every key. And the ATTR parse is the inverse of each
// phrasing: the text's first line, as a value of the fuzzed column of the
// first key, reads back as that value from every phrasing that does not
// spell it ambiguously (attrPhrasings).
func FuzzParseCompletion(f *testing.F) {
	f.Add("France | Paris | 68\nJapan | Tokyo | 125", "France\nJapan", "capital", uint8(0), true)
	f.Add("Here are the rows I know of:\n- France | Paris | 68\nRow: Japan | Tokyo | 125.\n(end of list)", "France", "population", uint8(3), true)
	f.Add("France, Paris, about 68 million\nUnited  Kingdom | London", "United Kingdom", "capital", uint8(5), false)
	f.Add("The population of France is 68.\nIt is large.", "France", "population", uint8(3), true)
	f.Add("United  Kingdom | London\n* France: Paris\nFrance | Lyon", "United Kingdom\nFrance", "capital", uint8(0), true)
	f.Add("İ: unknown\nCôte  d'Ivoire | Yamoussoukro | 1,408", "Côte d'Ivoire", "capital", uint8(6), true)
	f.Add("\xff\xff\xff is 5\nx | y | z", "x", "population", uint8(3), true)
	f.Add("Paris | France | 68\n | Tokyo\nLyon |  France  ", "France", "capital", uint8(4), false)
	f.Add("", "", "", uint8(9), false)
	f.Add("Washington D.C.\nRow: Washington D.C..", "United States", "capital", uint8(1), false)
	f.Add("Unknown Pleasures", "Joy Division", "title", uint8(0), true)
	f.Add("What is Love", "Haddaway", "title", uint8(0), false)
	f.Add("Star Trek: Voyager: 1995\nStar Trek | 1979", "Star Trek\nStar Trek: Voyager", "year", uint8(6), true)
	f.Add("capital: Paris", "France", "capital", uint8(0), true)
	shapes := []struct {
		schema rel.Schema
		cols   []int
		keyPos int
	}{
		{parseSchema, allCols(), 0}, {parseSchema, []int{0}, 0}, {parseSchema, []int{0, 2}, 0},
		{keyMidSchema, allCols(), 1}, {keyMidSchema, []int{1}, 1}, {keyMidSchema, []int{1, 2}, 1},
	}
	attrTypes := []rel.DataType{rel.TypeText, rel.TypeInt, rel.TypeFloat, rel.TypeBool}
	f.Fuzz(func(t *testing.T, text, keyLines, column string, shape uint8, tolerant bool) {
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
		var keys []string
		if keyLines != "" {
			keys = strings.Split(keyLines, "\n")
		}
		entity := ""
		if len(keys) > 0 {
			entity = keys[0]
		}
		v, ok := parseAttrCompletion(text, column, entity, typ, tolerant)
		if v.Type() != typ || ok == v.IsNull() {
			t.Fatalf("ATTR %q as %s: %v (%s), ok=%v", text, typ, v, v.Type(), ok)
		}

		column = strings.TrimSpace(column)
		value, _, _ := strings.Cut(text, "\n")
		value = strings.TrimSpace(value)
		if want, err := rel.ParseTyped(value, typ); err == nil && !want.IsNull() && value != "" && !isRefusal(value) && !strings.Contains(column, "\n") {
			for _, line := range attrPhrasings(value, column, entity) {
				got, ok := parseAttrCompletion(line, column, entity, typ, tolerant)
				if !ok || got.Type() != want.Type() || got.String() != want.String() {
					t.Fatalf("ATTR %q (column %q, entity %q) read as %q, ok=%v; want %q", line, column, entity, got, ok, want)
				}
			}
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

// attrPhrasings renders value in each phrasing a model answers an ATTR
// prompt for column of entity in — bare, bare with a period, the sentence,
// "<column>: value" — leaving out the ones that spell it ambiguously: a
// value ending in '.' cannot go bare (it reads like a shorter value with a
// period), and a value that itself opens like the sentence or the colon
// phrasing can go neither bare nor with a period.
func attrPhrasings(value, column, entity string) []string {
	sentence := func(s string) bool {
		_, ok := cutPrefixesFold(s, "The ", column, " of ", entity, " is ")
		return ok && strings.HasSuffix(s, ".")
	}
	_, colon := cutPrefixesFold(value, column, ": ")
	lines := []string{"The " + column + " of " + entity + " is " + value + "."}
	if !colon && !sentence(value+".") {
		lines = append(lines, value+".")
		if !strings.HasSuffix(value, ".") {
			lines = append(lines, value)
		}
	}
	if colonLine := column + ": " + value; !sentence(colonLine) {
		lines = append(lines, colonLine)
	}
	return lines
}
