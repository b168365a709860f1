package core

import (
	"slices"
	"strings"

	"llmsql/internal/rel"
)

// ParseStats counts what the tolerant parser had to do, for ablation and
// per-query reports.
type ParseStats struct {
	// LinesSeen counts non-empty completion lines.
	LinesSeen int
	// RowsParsed counts lines accepted as rows.
	RowsParsed int
	// RowsDropped counts lines rejected entirely.
	RowsDropped int
	// Repairs counts individual fixes (stripped bullets, padded fields,
	// rescued numerics, comma fallbacks, ...).
	Repairs int
}

// Add merges another stats value.
func (s *ParseStats) Add(o ParseStats) {
	s.LinesSeen += o.LinesSeen
	s.RowsParsed += o.RowsParsed
	s.RowsDropped += o.RowsDropped
	s.Repairs += o.Repairs
}

// parseListCompletion parses a LIST/KEYS completion into rows of width
// cells: fields arrive in the order of cols (positions into the schema);
// keyPos is the schema position of the entity key; rows with a NULL key
// are dropped. At width schema.Len() a row spans the table — each field at
// its column's position, every other column a typed NULL. At width 1 it is
// the entity key alone: the other fields are still parsed, so which lines
// are accepted and the ParseStats do not depend on the width, but their
// values are not kept. The rows of one completion share one backing slab.
//
// tolerant enables the repair heuristics; when false, only undecorated
// lines with the exact field count and cleanly parsing values are accepted.
func parseListCompletion(text string, schema rel.Schema, cols []int, keyPos, width int, tolerant bool) ([]rel.Row, ParseStats) {
	// slot is a schema position's cell in an output row (-1: not kept).
	slot := func(c int) int {
		switch {
		case width == schema.Len():
			return c
		case c == keyPos:
			return 0
		}
		return -1
	}
	blank := make(rel.Row, width)
	for i := 0; i < schema.Len(); i++ {
		if at := slot(i); at >= 0 {
			blank[at] = rel.NullOf(schema.Col(i).Type)
		}
	}
	key := slot(keyPos)
	lines := strings.Count(text, "\n") + 1
	slab := make([]rel.Value, lines*width)
	rows := make([]rel.Row, 0, lines)
	var stats ParseStats
	for rest := text; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		stats.LinesSeen++
		fields, repairs, ok := splitRowLine(line, len(cols), tolerant)
		if !ok {
			stats.RowsDropped++
			continue
		}
		stats.Repairs += repairs

		// The next free cells of the slab; a dropped line leaves them to
		// the line after it.
		n := len(rows) * width
		row := rel.Row(slab[n : n+width : n+width])
		copy(row, blank)
		bad := false
		for i, c := range cols {
			if i >= len(fields) {
				if !tolerant {
					bad = true
					break
				}
				stats.Repairs++ // padded missing field with NULL
				continue
			}
			v, rescued, err := parseField(fields[i], schema.Col(c).Type, tolerant)
			if err != nil {
				if !tolerant {
					bad = true
					break
				}
				stats.Repairs++ // unparseable value becomes NULL
				continue
			}
			if rescued {
				stats.Repairs++
			}
			if at := slot(c); at >= 0 {
				row[at] = v
			}
		}
		if bad || row[key].IsNull() || strings.TrimSpace(row[key].AsText()) == "" {
			stats.RowsDropped++
			continue
		}
		// Normalize the entity key once, here, so the emitted row, the
		// dedup/convergence key, exclusion lists and every downstream ATTR
		// prompt all agree on one spelling. Without this, whitespace
		// variants of one entity ("United  Kingdom") defeat dedup, desync
		// the prompt<->row pairing of the attribute phase, and miss the
		// completion cache. This is unconditional canonicalization, not a
		// repair: it applies (and is uncounted) under the strict parser
		// too, which accepts or rejects lines before this point.
		if schema.Col(keyPos).Type == rel.TypeText {
			if norm := normalizeKeyText(row[key].AsText()); norm != row[key].AsText() {
				row[key] = rel.Text(norm)
			}
		}
		rows = append(rows, row)
		stats.RowsParsed++
	}
	return rows, stats
}

// normalizeKeyText canonicalizes an entity key's whitespace: edges
// trimmed, interior runs collapsed to single spaces. Parsing already trims
// field edges, so this is about interior variants.
func normalizeKeyText(s string) string {
	if keyTextIsCanonical(s) {
		return s // the usual case: nothing to split, join or copy
	}
	return strings.Join(strings.Fields(s), " ")
}

// keyTextIsCanonical reports that s is provably what normalizeKeyText would
// rebuild: ASCII, no whitespace but single interior spaces. A non-ASCII
// string may hide a Unicode space, so it takes the slow path.
func keyTextIsCanonical(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 0x80, c >= '\t' && c <= '\r':
			return false
		case c == ' ' && (i == 0 || i == len(s)-1 || s[i-1] == ' '):
			return false
		}
	}
	return true
}

// splitRowLine turns a completion line into fields. It reports the number
// of repairs applied and whether the line is usable at all.
func splitRowLine(line string, wantFields int, tolerant bool) ([]string, int, bool) {
	repairs := 0
	if rest, decorated := cutDecoration(line); decorated {
		if !tolerant {
			return nil, 0, false
		}
		line = rest
		repairs++
	}
	if strings.Contains(line, "|") {
		fields := trimFields(strings.Split(line, "|"))
		if !tolerant && len(fields) != wantFields {
			return nil, 0, false
		}
		if len(fields) > wantFields {
			fields = fields[:wantFields]
			repairs++
		}
		if len(fields) < wantFields {
			repairs++ // will be padded by the caller
		}
		return fields, repairs, true
	}
	// No pipe separator.
	if wantFields == 1 {
		// A single-column answer: the line is the value, unless it is the
		// model's commentary.
		if looksLikeProse(line) {
			return nil, 0, false
		}
		return []string{line}, repairs, true
	}
	if !tolerant {
		return nil, 0, false
	}
	// Comma fallback for rows emitted with the wrong separator.
	if strings.Count(line, ",") >= wantFields-1 {
		return trimFields(strings.SplitN(line, ",", wantFields)), repairs + 1, true
	}
	return nil, 0, false
}

// trimFields trims the space around each field, in place.
func trimFields(fields []string) []string {
	for i, f := range fields {
		fields[i] = strings.TrimSpace(f)
	}
	return fields
}

// cutDecoration removes the decoration a model sometimes puts around a
// row — a "- " or "* " bullet, or the "Row: …." wrapper, the one decoration
// that adds a period — and reports whether there was any.
func cutDecoration(line string) (string, bool) {
	for _, bullet := range [...]string{"- ", "* "} {
		if rest, ok := strings.CutPrefix(line, bullet); ok {
			return rest, true
		}
	}
	for _, wrapper := range [...]string{"Row: ", "row: "} {
		if rest, ok := strings.CutPrefix(line, wrapper); ok {
			return strings.TrimSuffix(rest, "."), true
		}
	}
	return line, false
}

// refusals are the answers the model gives instead of a value or a row
// (internal/llm's SynthLM says each of them), lower-cased and without
// their period.
var refusals = [...]string{"i'm not sure", "i do not know that attribute",
	"i do not have information about that table", "no further rows", "no entities given"}

// isRefusal reports whether a whole answer, without one final period, is
// one of the refusals, compared case-insensitively. A value that merely
// contains a refusal word ("Unknown Pleasures") is not one.
func isRefusal(answer string) bool {
	answer = strings.TrimSuffix(answer, ".")
	return slices.ContainsFunc(refusals[:], func(r string) bool { return strings.EqualFold(answer, r) })
}

// looksLikeProse detects preamble/closing lines such as "Here are the rows:",
// "(end of list)" or a refusal.
func looksLikeProse(line string) bool {
	return strings.HasSuffix(line, ":") ||
		strings.HasPrefix(line, "(") && strings.HasSuffix(line, ")") ||
		isRefusal(line)
}

// parseField parses one field into the column type. rescued reports that a
// lenient extraction was needed (a repair).
func parseField(field string, t rel.DataType, tolerant bool) (rel.Value, bool, error) {
	v, err := rel.ParseTyped(field, t)
	if err == nil {
		return v, false, nil
	}
	if !tolerant {
		return rel.Value{}, false, err
	}
	if t.Numeric() {
		if num, ok := extractNumber(field); ok {
			v, err := rel.ParseTyped(num, t)
			if err == nil {
				return v, true, nil
			}
		}
	}
	return rel.Value{}, false, err
}

// extractNumber pulls the first numeric substring out of chatty values like
// "about 68 million" or "≈1,408 (2021 estimate)".
func extractNumber(s string) (string, bool) {
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		isNumChar := (c >= '0' && c <= '9') || c == '.' || c == ','
		if start < 0 {
			if c == '-' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
				start = i
			} else if c >= '0' && c <= '9' {
				start = i
			}
			continue
		}
		if !isNumChar {
			return strings.Trim(s[start:i], ".,"), true
		}
	}
	if start >= 0 {
		return strings.Trim(s[start:], ".,"), true
	}
	return "", false
}

// parseAttrBatchCompletion extracts per-key values from a batched ATTRS
// completion ("<entity> | <value>" lines). Lines are matched to keys by
// the key field, case-insensitively, so reordered or dropped lines cannot
// misattribute a value; under tolerant parsing a decoration (see
// cutDecoration) and a "key: value" separator are repaired, and under
// strict parsing a line needing either is skipped. The value after the
// separator is the bare value: neither line format adds a period. The
// three returned slices are parallel to keys:
//
//   - found[i] reports that key i's line was located and syntactically
//     usable — when false the caller should fall back to a single-key
//     prompt;
//   - ok[i] reports that the located value parsed into the column type and
//     was not a refusal (mirrors parseAttrCompletion's second result);
//   - vals[i] is the parsed value (typed NULL unless ok).
func parseAttrBatchCompletion(text string, keys []string, t rel.DataType, tolerant bool) (vals []rel.Value, ok []bool, found []bool) {
	vals = make([]rel.Value, len(keys))
	ok = make([]bool, len(keys))
	found = make([]bool, len(keys))
	for i := range vals {
		vals[i] = rel.NullOf(t)
	}
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[strings.ToLower(normalizeKeyText(k))] = i
	}
	lookup := func(keyPart string) (i int, known bool) {
		i, known = index[strings.ToLower(normalizeKeyText(keyPart))]
		return
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || looksLikeProse(line) {
			continue
		}
		if rest, decorated := cutDecoration(line); decorated {
			if !tolerant {
				continue
			}
			line = rest
		}
		i, known := -1, false
		keyPart, valPart, split := strings.Cut(line, "|")
		switch {
		case split:
			i, known = lookup(keyPart)
		case tolerant:
			// Colon fallback ("key: value") for lines emitted with the
			// wrong separator. A key may itself contain ':' ("Star Trek:
			// Voyager"), so the longest known key followed by ':' wins.
			for at := strings.LastIndexByte(line, ':'); at >= 0 && !known; at = strings.LastIndexByte(line[:at], ':') {
				if i, known = lookup(line[:at]); known {
					valPart = line[at+1:]
				}
			}
		}
		if !known || found[i] {
			continue // unattributable line, or a duplicate for a seen key
		}
		found[i] = true
		if valPart = strings.TrimSpace(valPart); !isRefusal(valPart) {
			vals[i], ok[i] = parseAttrValue(valPart, t, tolerant)
		}
	}
	return vals, ok, found
}

// parseAttrCompletion extracts a single value from the answer to the ATTR
// prompt that asked for column of entity. Each phrasing the model answers
// in is read by its exact inverse — "Paris", "Paris.", "The capital of
// France is Paris." and "capital: Paris" all read as Paris — and a refusal
// ("I'm not sure.") is an answer that is nothing but one. Only the first
// line counts.
func parseAttrCompletion(text, column, entity string, t rel.DataType, tolerant bool) (rel.Value, bool) {
	line, _, _ := strings.Cut(strings.TrimSpace(text), "\n")
	line = strings.TrimSpace(line)
	if line == "" || isRefusal(line) {
		return rel.NullOf(t), false
	}
	return parseAttrValue(statedValue(line, column, entity), t, tolerant)
}

// statedValue is the value an ATTR answer line states, undoing the one
// phrasing the line is in. The sentence "The <column> of <entity> is V."
// adds exactly one period and "<column>: V" none; any other line is the
// bare value, possibly with one period added — so a bare value that itself
// ends in '.' reads without it (DESIGN.md "Completion parsing").
func statedValue(line, column, entity string) string {
	if v, ok := cutPrefixesFold(line, "The ", column, " of ", entity, " is "); ok && strings.HasSuffix(v, ".") {
		return v[:len(v)-1]
	}
	if v, ok := cutPrefixesFold(line, column, ": "); ok {
		return v
	}
	return strings.TrimSuffix(line, ".")
}

// cutPrefixesFold reports whether s begins with the concatenation of
// prefixes, ignoring case, and returns the rest of s.
func cutPrefixesFold(s string, prefixes ...string) (string, bool) {
	for _, p := range prefixes {
		if len(s) < len(p) || !strings.EqualFold(s[:len(p)], p) {
			return "", false
		}
		s = s[len(p):]
	}
	return s, true
}

// parseAttrValue parses a stated attribute value into the column type; ok
// is false when it does not parse or is a NULL marker ("unknown"). Tolerant
// parsing rescues a number from a chatty numeric ("about 68 million").
func parseAttrValue(v string, t rel.DataType, tolerant bool) (rel.Value, bool) {
	val, _, err := parseField(v, t, tolerant)
	if err != nil || val.IsNull() {
		return rel.NullOf(t), false
	}
	return val, true
}
