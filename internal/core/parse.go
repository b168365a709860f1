package core

import (
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
// tolerant enables the repair heuristics; when false, only lines with the
// exact field count and cleanly parsing values are accepted.
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
	if tolerant {
		// Strip decoration the model sometimes adds.
		for _, prefix := range []string{"- ", "* ", "Row: ", "row: "} {
			if strings.HasPrefix(line, prefix) {
				line = strings.TrimPrefix(line, prefix)
				repairs++
				break
			}
		}
		// Trailing period after a pipe row ("Row: a | b.").
		if strings.HasSuffix(line, ".") && strings.Contains(line, "|") {
			line = strings.TrimSuffix(line, ".")
		}
	}
	if strings.Contains(line, "|") {
		parts := strings.Split(line, "|")
		fields := make([]string, len(parts))
		for i, p := range parts {
			fields[i] = strings.TrimSpace(p)
		}
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
		// A single-column answer; prose lines are filtered by heuristics:
		// skip obvious commentary (trailing colon, parenthesised notes).
		if looksLikeProse(line) {
			return nil, 0, false
		}
		return []string{strings.TrimSuffix(line, ".")}, repairs, true
	}
	if !tolerant {
		return nil, 0, false
	}
	// Comma fallback for rows emitted with the wrong separator.
	if strings.Count(line, ",") >= wantFields-1 {
		parts := strings.SplitN(line, ",", wantFields)
		fields := make([]string, len(parts))
		for i, p := range parts {
			fields[i] = strings.TrimSpace(p)
		}
		return fields, repairs + 1, true
	}
	return nil, 0, false
}

// looksLikeProse detects preamble/closing lines such as "Here are the rows:"
// or "(end of list)".
func looksLikeProse(line string) bool {
	if strings.HasSuffix(line, ":") {
		return true
	}
	if strings.HasPrefix(line, "(") && strings.HasSuffix(line, ")") {
		return true
	}
	lower := strings.ToLower(line)
	for _, marker := range []string{"here are", "no further", "i do not", "i don't", "end of list", "i'm not sure", "as requested"} {
		if strings.Contains(lower, marker) {
			return true
		}
	}
	return false
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
// misattribute a value; under tolerant parsing bullet prefixes and a
// "key: value" separator are repaired. The three returned slices are
// parallel to keys:
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
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || looksLikeProse(line) {
			continue
		}
		if tolerant {
			for _, prefix := range []string{"- ", "* "} {
				if strings.HasPrefix(line, prefix) {
					line = strings.TrimPrefix(line, prefix)
					break
				}
			}
		}
		keyPart, valPart, split := strings.Cut(line, "|")
		if !split {
			if !tolerant {
				continue
			}
			// Colon fallback ("key: value") for lines emitted with the
			// wrong separator.
			keyPart, valPart, split = strings.Cut(line, ":")
			if !split {
				continue
			}
		}
		i, known := index[strings.ToLower(normalizeKeyText(keyPart))]
		if !known || found[i] {
			continue // unattributable line, or a duplicate for a seen key
		}
		found[i] = true
		vals[i], ok[i] = parseAttrCompletion(strings.TrimSpace(valPart), t, tolerant)
	}
	return vals, ok, found
}

// parseAttrCompletion extracts a single value from an ATTR completion,
// handling the phrasings the model uses ("Paris", "Paris.",
// "The capital of France is Paris.", "capital: Paris", "I'm not sure.").
func parseAttrCompletion(text string, t rel.DataType, tolerant bool) (rel.Value, bool) {
	line := strings.TrimSpace(text)
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = strings.TrimSpace(line[:i])
	}
	if line == "" {
		return rel.NullOf(t), false
	}
	// Markers are matched case-insensitively. An ASCII line — nearly every
	// answer — is matched in place; only a non-ASCII one is lower-cased into
	// a copy first.
	lower := line
	if !isASCII(line) {
		lower = strings.ToLower(line)
	}
	for _, refusal := range [...]string{"i'm not sure", "i am not sure", "i do not know", "i don't know", "unknown"} {
		if lastIndexFold(lower, refusal) >= 0 {
			return rel.NullOf(t), false
		}
	}
	// "The X of Y is VALUE." The marker is found in line itself, not in the
	// lower-cased copy: lower-casing can change a line's byte length (invalid
	// UTF-8, 'Ⱥ'), so an index into the copy may not be one into line.
	if idx := lastIndexFold(line, " is "); idx >= 0 && tolerant {
		candidate := strings.TrimSpace(line[idx+4:])
		candidate = strings.TrimSuffix(candidate, ".")
		if v, err := rel.ParseTyped(candidate, t); err == nil && !v.IsNull() {
			return v, true
		}
		if t.Numeric() {
			if num, ok := extractNumber(candidate); ok {
				if v, err := rel.ParseTyped(num, t); err == nil {
					return v, true
				}
			}
		}
	}
	// "column: VALUE"
	if idx := strings.Index(line, ":"); idx >= 0 && tolerant {
		candidate := strings.TrimSpace(line[idx+1:])
		candidate = strings.TrimSuffix(candidate, ".")
		if v, err := rel.ParseTyped(candidate, t); err == nil && !v.IsNull() {
			return v, true
		}
	}
	// Bare value, maybe with trailing period.
	candidate := strings.TrimSuffix(line, ".")
	if v, err := rel.ParseTyped(candidate, t); err == nil && !v.IsNull() {
		return v, true
	}
	if tolerant && t.Numeric() {
		if num, ok := extractNumber(line); ok {
			if v, err := rel.ParseTyped(num, t); err == nil {
				return v, true
			}
		}
	}
	if t == rel.TypeText {
		return rel.Text(candidate), true
	}
	return rel.NullOf(t), false
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// lastIndexFold returns the index of the last occurrence in s of marker, a
// lower-case ASCII string, ignoring the case of ASCII letters in s, or -1.
// On ASCII input it equals strings.LastIndex(strings.ToLower(s), marker)
// without the copy.
func lastIndexFold(s, marker string) int {
next:
	for i := len(s) - len(marker); i >= 0; i-- {
		for j := 0; j < len(marker); j++ {
			c := s[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != marker[j] {
				continue next
			}
		}
		return i
	}
	return -1
}
