package core

import (
	"fmt"
	"strings"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// VirtualTable declares one LLM-backed relation.
type VirtualTable struct {
	// Name is the table name used in SQL.
	Name string
	// Description is a one-line natural-language description of the
	// entity type ("a sovereign country of the world").
	Description string
	// Schema declares columns; Desc strings verbalise each column in
	// prompts; the first column (or Key-marked columns) identifies the
	// entity.
	Schema rel.Schema
	// EstRows, when positive, seeds the scan planner's cardinality
	// estimate for this table (RegisterWorldDomain fills it from the
	// domain size). Prior-scan statistics refine it; zero means unknown.
	EstRows int

	// prompts is the prompt boilerplate's token counts, measured once by
	// tableRecord.
	prompts promptTokens
}

const promptHeader = "You are a precise data assistant. Answer strictly from your world knowledge."

// buildListPrompt asks for full rows over the given column positions.
func buildListPrompt(t *VirtualTable, cols []int, filter sql.Expr, exclude []string, maxRows int) string {
	var b strings.Builder
	b.WriteString(promptHeader)
	b.WriteString("\nTASK: LIST\n")
	writeTableLine(&b, t)
	b.WriteString("COLUMNS: ")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(" | ")
		}
		writeListColumn(&b, t.Schema.Col(c))
	}
	b.WriteByte('\n')
	writeFilterLines(&b, filter)
	writeExcludeLine(&b, exclude)
	if maxRows > 0 {
		fmt.Fprintf(&b, "MAXROWS: %d\n", maxRows)
	}
	b.WriteString("Respond with one row per line, fields separated by ' | ', in the column order given. Output data only, no commentary.")
	return b.String()
}

// writeListColumn writes one column's segment of the LIST prompt's COLUMNS
// line. Whitespace surrounds every segment, so its tokens are its own
// (promptTokens.list relies on this).
func writeListColumn(b *strings.Builder, col rel.Column) {
	b.WriteString(col.Name)
	if col.Desc != "" {
		b.WriteString(" -- ")
		b.WriteString(col.Desc)
	}
}

// buildKeysPrompt asks only for entity keys.
func buildKeysPrompt(t *VirtualTable, filter sql.Expr, exclude []string, maxRows int) string {
	var b strings.Builder
	b.WriteString(promptHeader)
	b.WriteString("\nTASK: KEYS\n")
	writeTableLine(&b, t)
	key := t.Schema.Col(t.Schema.KeyIndexes()[0])
	fmt.Fprintf(&b, "COLUMNS: %s -- %s\n", key.Name, key.Desc)
	writeFilterLines(&b, filter)
	writeExcludeLine(&b, exclude)
	if maxRows > 0 {
		fmt.Fprintf(&b, "MAXROWS: %d\n", maxRows)
	}
	fmt.Fprintf(&b, "Respond with one %s per line. Output data only, no commentary.", key.Name)
	return b.String()
}

// attrPrompter renders the single-entity ATTR prompts of one (table, column)
// pair. Everything but the entity is the same for every key of a scan, so the
// text before and after it is rendered once and each prompt is one
// concatenation.
type attrPrompter struct{ prefix, suffix string }

func newAttrPrompter(t *VirtualTable, col int) attrPrompter {
	var b strings.Builder
	b.WriteString(promptHeader)
	b.WriteString("\nTASK: ATTR\n")
	writeTableLine(&b, t)
	b.WriteString("ENTITY: ")
	c := t.Schema.Col(col)
	return attrPrompter{
		prefix: b.String(),
		suffix: "\nCOLUMN: " + c.Name + " -- " + c.Desc + "\nRespond with only the value.",
	}
}

func (p attrPrompter) prompt(entityKey string) string { return p.prefix + entityKey + p.suffix }

// buildAttrPrompt asks for a single attribute of a single entity.
func buildAttrPrompt(t *VirtualTable, entityKey string, col int) string {
	return newAttrPrompter(t, col).prompt(entityKey)
}

// buildAttrBatchPrompt asks for one attribute of a batch of entities
// (Config.BatchSize > 1): the answer is expected as one
// "<entity> | <value>" line per entity, in the given order.
func buildAttrBatchPrompt(t *VirtualTable, entityKeys []string, col int) string {
	var b strings.Builder
	b.WriteString(promptHeader)
	b.WriteString("\nTASK: ATTRS\n")
	writeTableLine(&b, t)
	fmt.Fprintf(&b, "ENTITIES: %s\n", strings.Join(entityKeys, " | "))
	c := t.Schema.Col(col)
	fmt.Fprintf(&b, "COLUMN: %s -- %s\n", c.Name, c.Desc)
	b.WriteString("Respond with one line per entity, in the order given, formatted as '<entity> | <value>'. Output data only, no commentary.")
	return b.String()
}

func writeTableLine(b *strings.Builder, t *VirtualTable) {
	fmt.Fprintf(b, "TABLE: %s -- %s\n", strings.ToLower(t.Name), t.Description)
}

// writeFilterLines emits both the canonical condition (FILTER:) and a
// human-oriented sentence. Scans pass their filter with qualifiers already
// stripped (scanSpec.filter), so the canonical line carries bare column
// names the model can interpret against the declared columns.
func writeFilterLines(b *strings.Builder, filter sql.Expr) {
	if filter == nil {
		return
	}
	fmt.Fprintf(b, "FILTER: %s\n", sql.Deparse(filter))
	fmt.Fprintf(b, "Only include rows where this condition holds: %s.\n", VerbalizePredicate(filter))
}

func writeExcludeLine(b *strings.Builder, exclude []string) {
	if len(exclude) == 0 {
		return
	}
	fmt.Fprintf(b, "EXCLUDE: %s\n", strings.Join(exclude, " | "))
	b.WriteString("Do not repeat any excluded entry.\n")
}

// stripQualifiers rewrites table-qualified column references to bare names,
// since prompts describe columns without aliases.
func stripQualifiers(e sql.Expr) sql.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sql.ColumnRef:
		return &sql.ColumnRef{Name: x.Name}
	case *sql.Literal:
		return x
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: x.Op, Left: stripQualifiers(x.Left), Right: stripQualifiers(x.Right)}
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, X: stripQualifiers(x.X)}
	case *sql.FuncCall:
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = stripQualifiers(a)
		}
		return &sql.FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{X: stripQualifiers(x.X), Not: x.Not}
	case *sql.InExpr:
		list := make([]sql.Expr, len(x.List))
		for i, a := range x.List {
			list[i] = stripQualifiers(a)
		}
		return &sql.InExpr{X: stripQualifiers(x.X), List: list, Not: x.Not}
	case *sql.BetweenExpr:
		return &sql.BetweenExpr{X: stripQualifiers(x.X), Lo: stripQualifiers(x.Lo), Hi: stripQualifiers(x.Hi), Not: x.Not}
	case *sql.LikeExpr:
		return &sql.LikeExpr{X: stripQualifiers(x.X), Pattern: stripQualifiers(x.Pattern), Not: x.Not}
	case *sql.CaseExpr:
		out := &sql.CaseExpr{Operand: stripQualifiers(x.Operand), Else: stripQualifiers(x.Else)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sql.WhenClause{Cond: stripQualifiers(w.Cond), Then: stripQualifiers(w.Then)})
		}
		return out
	case *sql.CastExpr:
		return &sql.CastExpr{X: stripQualifiers(x.X), Type: x.Type}
	default:
		return e
	}
}

// VerbalizePredicate renders a predicate as approximate English, e.g.
// "population > 50 AND continent = 'Europe'" becomes
// "population is greater than 50 and continent equals 'Europe'".
func VerbalizePredicate(e sql.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *sql.ColumnRef:
		return x.Name
	case *sql.Literal:
		return x.Value.SQLLiteral()
	case *sql.BinaryExpr:
		l, r := VerbalizePredicate(x.Left), VerbalizePredicate(x.Right)
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
			return "not (" + VerbalizePredicate(x.X) + ")"
		}
		return x.Op + VerbalizePredicate(x.X)
	case *sql.IsNullExpr:
		if x.Not {
			return VerbalizePredicate(x.X) + " is known"
		}
		return VerbalizePredicate(x.X) + " is unknown"
	case *sql.InExpr:
		var items []string
		for _, it := range x.List {
			items = append(items, VerbalizePredicate(it))
		}
		verb := " is one of "
		if x.Not {
			verb = " is none of "
		}
		return VerbalizePredicate(x.X) + verb + strings.Join(items, ", ")
	case *sql.BetweenExpr:
		verb := " is between "
		if x.Not {
			verb = " is not between "
		}
		return VerbalizePredicate(x.X) + verb + VerbalizePredicate(x.Lo) + " and " + VerbalizePredicate(x.Hi)
	case *sql.LikeExpr:
		verb := " matches the pattern "
		if x.Not {
			verb = " does not match the pattern "
		}
		return VerbalizePredicate(x.X) + verb + VerbalizePredicate(x.Pattern)
	default:
		return sql.Deparse(e)
	}
}
