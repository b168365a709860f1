// Package serve implements the long-lived serving layer over the core
// engine: a newline-delimited JSON protocol (one object per line, request
// lines bounded by MaxRequestLine) spoken over TCP or unix
// sockets, per-connection sessions with prepared statements and named
// parameter state, admission control with per-tenant concurrency and token
// budgets, and graceful drain. Each connection gets its own engine from a
// core.EngineGroup, so concurrent sessions scanning the same virtual tables
// coalesce their identical prompts into one live fan-out (see
// llm.Coalescer) while every session is billed and answered exactly as a
// solo run would be.
package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
)

// Request is one client-to-server message: a single JSON object on its own
// line. Op selects the action; the other fields are op-specific.
type Request struct {
	// ID is an opaque client correlation token echoed on the response.
	ID int64 `json:"id,omitempty"`
	// Op is one of: hello, query, exec, prepare, stmt, close_stmt, set,
	// stats, views, ping. exec also carries the materialized-view lifecycle
	// (CREATE/REFRESH/DROP MATERIALIZED VIEW); views lists the session's
	// materialized views and their freshness state. Plans are statements:
	// query or prepare "EXPLAIN [ANALYZE] SELECT ..." and the plan comes
	// back as the result rows.
	Op string `json:"op"`
	// SQL carries the statement for query/exec/prepare.
	SQL string `json:"sql,omitempty"`
	// Args binds positional parameters ($1/?) in order. JSON numbers become
	// INT when integral, FLOAT otherwise.
	Args []any `json:"args,omitempty"`
	// Named binds :name parameters, and is the payload of the set op (a
	// null value unsets the session default of that name).
	Named map[string]any `json:"named,omitempty"`
	// Stmt addresses a prepared statement (stmt/close_stmt).
	Stmt int64 `json:"stmt,omitempty"`
	// Tenant identifies the budget/concurrency bucket (hello only; empty
	// selects the default tenant).
	Tenant string `json:"tenant,omitempty"`
}

// Response is one server-to-client message, one JSON object per line. Its
// JSON goes through the package's wire codec (MarshalJSON, UnmarshalJSON):
// the bytes encoding/json would write, read back without reflection.
type Response struct {
	// ID echoes the request's correlation token.
	ID int64 `json:"id,omitempty"`
	// OK reports success; on failure Error describes it and Code classifies
	// it (admission rejections use the RejectError codes, everything else
	// "error").
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Columns/Types/Rows carry a query result (Types uses rel.DataType
	// spellings: BOOL, INT, FLOAT, TEXT).
	Columns []string `json:"columns,omitempty"`
	Types   []string `json:"types,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	// Usage and Scans report the query's billed consumption, exactly as a
	// solo engine would report them. exec responses carry Usage too (a view
	// build or refresh spends model tokens; plain local DDL reports zeros).
	Usage *llm.Usage       `json:"usage,omitempty"`
	Scans []core.ScanStats `json:"scans,omitempty"`
	// Views lists the session's materialized views (views op).
	Views []core.ViewInfo `json:"views,omitempty"`
	// Stmt returns the prepared-statement handle (prepare).
	Stmt int64 `json:"stmt,omitempty"`
	// Session returns the server-assigned session id (hello).
	Session int64 `json:"session,omitempty"`
	// Stats is the server-wide counter snapshot (stats).
	Stats *Stats `json:"stats,omitempty"`

	// result, when set, is written in place of Columns/Types/Rows, straight
	// from its values (the server's query responses).
	result *exec.Result
}

// EncodeRows flattens a result into the wire shape: column names, type
// spellings and one []any per row (nil for NULL, bool, int64, float64 or
// string otherwise — all round-trip exactly through JSON). The server does
// not box rows: it writes a result's values straight onto the wire, in the
// same bytes a Response holding EncodeRows' output encodes to.
func EncodeRows(res *exec.Result) (cols []string, types []string, rows [][]any) {
	cols = res.Schema.Names()
	types = make([]string, res.Schema.Len())
	for i := 0; i < res.Schema.Len(); i++ {
		types[i] = res.Schema.Col(i).Type.String()
	}
	rows = make([][]any, len(res.Rows))
	for ri, row := range res.Rows {
		out := make([]any, len(row))
		for ci, v := range row {
			out[ci] = encodeValue(v)
		}
		rows[ri] = out
	}
	return cols, types, rows
}

func encodeValue(v rel.Value) any {
	if v.IsNull() {
		return nil
	}
	switch v.Type() {
	case rel.TypeBool:
		return v.AsBool()
	case rel.TypeInt:
		return v.AsInt()
	case rel.TypeFloat:
		return v.AsFloat()
	default:
		return v.AsText()
	}
}

// DecodeRows rebuilds a materialized result from the wire shape (the
// client-side inverse of EncodeRows). Numbers must have been decoded as
// json.Number (as Client and Response.UnmarshalJSON do) for INT columns to
// round-trip exactly. A FLOAT cell may also be one of the strings "NaN",
// "+Inf" and "-Inf", the wire spelling of non-finite values.
func DecodeRows(cols, types []string, rows [][]any) (*exec.Result, error) {
	if len(cols) != len(types) {
		return nil, fmt.Errorf("serve: %d columns but %d types", len(cols), len(types))
	}
	schemaCols := make([]rel.Column, len(cols))
	for i := range cols {
		t, err := typeFromString(types[i])
		if err != nil {
			return nil, err
		}
		schemaCols[i] = rel.Column{Name: cols[i], Type: t}
	}
	res := &exec.Result{Schema: rel.NewSchema(schemaCols...)}
	for ri, raw := range rows {
		if len(raw) != len(cols) {
			return nil, fmt.Errorf("serve: row %d has %d values, want %d", ri, len(raw), len(cols))
		}
		row := make(rel.Row, len(raw))
		for ci, cell := range raw {
			v, err := decodeValue(schemaCols[ci].Type, cell)
			if err != nil {
				return nil, fmt.Errorf("serve: row %d column %s: %w", ri, cols[ci], err)
			}
			row[ci] = v
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func typeFromString(s string) (rel.DataType, error) {
	switch strings.ToUpper(s) {
	case "BOOL":
		return rel.TypeBool, nil
	case "INT":
		return rel.TypeInt, nil
	case "FLOAT":
		return rel.TypeFloat, nil
	case "TEXT":
		return rel.TypeText, nil
	default:
		return rel.TypeUnknown, fmt.Errorf("serve: unknown column type %q", s)
	}
}

func decodeValue(t rel.DataType, cell any) (rel.Value, error) {
	if cell == nil {
		return rel.NullOf(t), nil
	}
	switch t {
	case rel.TypeBool:
		b, ok := cell.(bool)
		if !ok {
			return rel.Value{}, fmt.Errorf("not a bool: %v", cell)
		}
		return rel.Bool(b), nil
	case rel.TypeInt:
		switch n := cell.(type) {
		case json.Number:
			i, err := n.Int64()
			if err != nil {
				return rel.Value{}, err
			}
			return rel.Int(i), nil
		case float64:
			return rel.Int(int64(n)), nil
		}
		return rel.Value{}, fmt.Errorf("not an int: %v", cell)
	case rel.TypeFloat:
		switch n := cell.(type) {
		case json.Number:
			f, err := n.Float64()
			if err != nil {
				return rel.Value{}, err
			}
			return rel.Float(f), nil
		case float64:
			return rel.Float(n), nil
		case string:
			if n == "NaN" || n == "+Inf" || n == "-Inf" {
				f, _ := strconv.ParseFloat(n, 64)
				return rel.Float(f), nil
			}
		}
		return rel.Value{}, fmt.Errorf("not a float: %v", cell)
	default:
		s, ok := cell.(string)
		if !ok {
			return rel.Value{}, fmt.Errorf("not text: %v", cell)
		}
		return rel.Text(s), nil
	}
}

// convertArg maps one wire argument onto a Go value the engine's binding
// layer accepts: JSON numbers become int64 when integral and float64
// otherwise; bool, string and nil pass through.
func convertArg(raw any) (any, error) {
	switch v := raw.(type) {
	case nil, bool, string, int64, float64:
		return v, nil
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return i, nil
		}
		f, err := v.Float64()
		if err != nil {
			return nil, fmt.Errorf("serve: bad numeric argument %q", v.String())
		}
		return f, nil
	default:
		return nil, fmt.Errorf("serve: unsupported argument type %T", raw)
	}
}

// convertArgs converts a positional argument list.
func convertArgs(raw []any) ([]any, error) {
	out := make([]any, len(raw))
	for i, r := range raw {
		v, err := convertArg(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
