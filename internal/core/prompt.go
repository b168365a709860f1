package core

import (
	"fmt"
	"strconv"
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

	// text is the prompt text the table's LIST and KEYS prompts share and
	// prompts its token counts, both made once by tableRecord.
	text    promptText
	prompts promptTokens
}

const promptHeader = "You are a precise data assistant. Answer strictly from your world knowledge."

// listTail closes every LIST prompt.
const listTail = "Respond with one row per line, fields separated by ' | ', in the column order given. Output data only, no commentary."

// promptText is the part of a table's LIST and KEYS prompts that depends on
// the table record alone, rendered once when the table is registered: a
// warm scan writes these strings and its filter into one allocation, and
// measurePrompts counts tokens over the same strings.
type promptText struct {
	listHead string   // header, TASK and TABLE lines, "COLUMNS: "
	keysHead string   // header, TASK and TABLE lines, the key's COLUMNS line
	keysTail string   // the KEYS answer instruction, which names the key
	cols     []string // per column, its segment of the LIST COLUMNS line
}

func renderPromptText(t *VirtualTable) promptText {
	var b strings.Builder
	writeTableLine(&b, t)
	table := b.String()
	key := t.Schema.Col(t.Schema.KeyIndexes()[0])
	p := promptText{
		listHead: promptHeader + "\nTASK: LIST\n" + table + "COLUMNS: ",
		keysHead: promptHeader + "\nTASK: KEYS\n" + table + "COLUMNS: " + key.Name + " -- " + key.Desc + "\n",
		keysTail: "Respond with one " + key.Name + " per line. Output data only, no commentary.",
		cols:     make([]string, t.Schema.Len()),
	}
	// Whitespace surrounds every column segment, so its tokens are its own
	// (promptTokens.list relies on this).
	for i, col := range t.Schema.Columns {
		p.cols[i] = col.Name
		if col.Desc != "" {
			p.cols[i] += " -- " + col.Desc
		}
	}
	return p
}

// promptBuf is the size of the stack buffer a LIST or KEYS prompt is
// written into before it is copied out: a prompt that fits costs one
// allocation of its exact size, a longer one (a long EXCLUDE list) grows on
// the heap.
const promptBuf = 1024

// buildListPrompt asks for full rows over the given column positions of a
// table record.
func buildListPrompt(t *VirtualTable, cols []int, filter sql.Expr, exclude []string, maxRows int) string {
	var a [promptBuf]byte
	p := append(a[:0], t.text.listHead...)
	for i, c := range cols {
		if i > 0 {
			p = append(p, " | "...)
		}
		p = append(p, t.text.cols[c]...)
	}
	p = append(p, '\n')
	p = appendOptionalLines(p, filter, exclude, maxRows)
	return string(append(p, listTail...))
}

// buildKeysPrompt asks a table record only for entity keys.
func buildKeysPrompt(t *VirtualTable, filter sql.Expr, exclude []string, maxRows int) string {
	var a [promptBuf]byte
	p := append(a[:0], t.text.keysHead...)
	p = appendOptionalLines(p, filter, exclude, maxRows)
	return string(append(p, t.text.keysTail...))
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

// appendOptionalLines appends the lines a LIST or KEYS prompt carries only
// when it has them: the filter (as appendFilterLines), the excluded entries
// and the row cap.
func appendOptionalLines(p []byte, filter sql.Expr, exclude []string, maxRows int) []byte {
	p = appendFilterLines(p, filter)
	if len(exclude) > 0 {
		p = append(p, "EXCLUDE: "...)
		for i, x := range exclude {
			if i > 0 {
				p = append(p, " | "...)
			}
			p = append(p, x...)
		}
		p = append(p, "\nDo not repeat any excluded entry.\n"...)
	}
	if maxRows > 0 {
		p = append(p, "MAXROWS: "...)
		p = strconv.AppendInt(p, int64(maxRows), 10)
		p = append(p, '\n')
	}
	return p
}

// appendFilterLines appends both the canonical condition (FILTER:) and a
// human-oriented sentence. Scans pass their filter with qualifiers already
// stripped (scanSpec.filter), so the canonical line carries bare column
// names the model can interpret against the declared columns.
func appendFilterLines(p []byte, filter sql.Expr) []byte {
	if filter == nil {
		return p
	}
	p = append(p, "FILTER: "...)
	p = sql.AppendDeparse(p, filter)
	p = append(p, "\nOnly include rows where this condition holds: "...)
	p = appendVerbalized(p, filter)
	return append(p, ".\n"...)
}

// stripQualifiers rewrites table-qualified column references to bare names,
// since prompts describe columns without aliases. A filter without a
// qualified reference is returned as it is.
func stripQualifiers(e sql.Expr) sql.Expr {
	qualified := false
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if c, ok := x.(*sql.ColumnRef); ok && c.Table != "" {
			qualified = true
		}
		return !qualified
	})
	if !qualified {
		return e
	}
	return stripRefs(e)
}

// stripRefs copies e with every column reference bare.
func stripRefs(e sql.Expr) sql.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sql.ColumnRef:
		return &sql.ColumnRef{Name: x.Name}
	case *sql.Literal:
		return x
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: x.Op, Left: stripRefs(x.Left), Right: stripRefs(x.Right)}
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, X: stripRefs(x.X)}
	case *sql.FuncCall:
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = stripRefs(a)
		}
		return &sql.FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{X: stripRefs(x.X), Not: x.Not}
	case *sql.InExpr:
		list := make([]sql.Expr, len(x.List))
		for i, a := range x.List {
			list[i] = stripRefs(a)
		}
		return &sql.InExpr{X: stripRefs(x.X), List: list, Not: x.Not}
	case *sql.BetweenExpr:
		return &sql.BetweenExpr{X: stripRefs(x.X), Lo: stripRefs(x.Lo), Hi: stripRefs(x.Hi), Not: x.Not}
	case *sql.LikeExpr:
		return &sql.LikeExpr{X: stripRefs(x.X), Pattern: stripRefs(x.Pattern), Not: x.Not}
	case *sql.CaseExpr:
		out := &sql.CaseExpr{Operand: stripRefs(x.Operand), Else: stripRefs(x.Else)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sql.WhenClause{Cond: stripRefs(w.Cond), Then: stripRefs(w.Then)})
		}
		return out
	case *sql.CastExpr:
		return &sql.CastExpr{X: stripRefs(x.X), Type: x.Type}
	default:
		return e
	}
}

// appendVerbalized appends a predicate rendered as approximate English, e.g.
// "population > 50 AND continent = 'Europe'" becomes
// "population is greater than 50 and continent equals 'Europe'".
func appendVerbalized(p []byte, e sql.Expr) []byte {
	switch x := e.(type) {
	case nil:
	case *sql.ColumnRef:
		p = append(p, x.Name...)
	case *sql.BinaryExpr:
		p = appendVerbalized(p, x.Left)
		if v := verbalOp(x.Op); v != "" {
			p = append(p, v...)
		} else {
			p = append(p, ' ')
			p = append(p, x.Op.String()...)
			p = append(p, ' ')
		}
		p = appendVerbalized(p, x.Right)
	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			p = append(p, "not ("...)
			p = appendVerbalized(p, x.X)
			return append(p, ')')
		}
		p = append(p, x.Op...)
		p = appendVerbalized(p, x.X)
	case *sql.IsNullExpr:
		p = appendVerbalized(p, x.X)
		if x.Not {
			p = append(p, " is known"...)
		} else {
			p = append(p, " is unknown"...)
		}
	case *sql.InExpr:
		p = appendVerbalized(p, x.X)
		if x.Not {
			p = append(p, " is none of "...)
		} else {
			p = append(p, " is one of "...)
		}
		for i, it := range x.List {
			if i > 0 {
				p = append(p, ", "...)
			}
			p = appendVerbalized(p, it)
		}
	case *sql.BetweenExpr:
		p = appendVerbalized(p, x.X)
		if x.Not {
			p = append(p, " is not between "...)
		} else {
			p = append(p, " is between "...)
		}
		p = appendVerbalized(p, x.Lo)
		p = append(p, " and "...)
		p = appendVerbalized(p, x.Hi)
	case *sql.LikeExpr:
		p = appendVerbalized(p, x.X)
		if x.Not {
			p = append(p, " does not match the pattern "...)
		} else {
			p = append(p, " matches the pattern "...)
		}
		p = appendVerbalized(p, x.Pattern)
	default:
		// Literals verbalize as their SQL spelling, and so does every kind
		// without an English form.
		p = sql.AppendDeparse(p, e)
	}
	return p
}

// verbalOp spells a logical or comparison operator in English, with the
// spaces around it; any other operator has no English form ("").
func verbalOp(op sql.BinaryOp) string {
	switch op {
	case sql.OpAnd:
		return " and "
	case sql.OpOr:
		return " or "
	case sql.OpEq:
		return " equals "
	case sql.OpNe:
		return " differs from "
	case sql.OpLt:
		return " is less than "
	case sql.OpLe:
		return " is at most "
	case sql.OpGt:
		return " is greater than "
	case sql.OpGe:
		return " is at least "
	}
	return ""
}
