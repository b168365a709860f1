package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"llmsql/internal/core"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
)

// encoder appends a response to buf. err keeps the first value encoding/json
// would refuse; encoding goes on regardless.
type encoder struct {
	buf []byte
	err error
}

// appendResponse appends r, without a newline, to dst: exactly the bytes
// encoding/json writes for r, except that a non-finite FLOAT cell, which
// encoding/json refuses, is written as the string "NaN", "+Inf" or "-Inf".
// The error reports a value encoding/json would still refuse.
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	e := encoder{buf: append(dst, '{')}
	if r.ID != 0 {
		e.buf = append(strconv.AppendInt(append(e.buf, `"id":`...), r.ID, 10), ',')
	}
	e.buf = strconv.AppendBool(append(e.buf, `"ok":`...), r.OK)
	e.member(`,"error":`, r.Error != "", &r.Error)
	e.member(`,"code":`, r.Code != "", &r.Code)
	if res := r.result; res != nil {
		cols := &res.Schema.Columns
		e.member(`,"columns":`, len(*cols) > 0, cols)
		e.member(`,"types":`, len(*cols) > 0, (*columnTypes)(cols))
		e.member(`,"rows":`, len(res.Rows) > 0, &res.Rows)
	} else {
		e.member(`,"columns":`, len(r.Columns) > 0, &r.Columns)
		e.member(`,"types":`, len(r.Types) > 0, &r.Types)
		e.member(`,"rows":`, len(r.Rows) > 0, &r.Rows)
	}
	e.member(`,"usage":`, r.Usage != nil, r.Usage)
	e.member(`,"scans":`, len(r.Scans) > 0, &r.Scans)
	e.member(`,"views":`, len(r.Views) > 0, &r.Views)
	e.member(`,"stmt":`, r.Stmt != 0, &r.Stmt)
	e.member(`,"session":`, r.Session != 0, &r.Session)
	e.member(`,"stats":`, r.Stats != nil, r.Stats)
	return append(e.buf, '}'), e.err
}

// columnTypes is a schema's columns, written as their type names.
type columnTypes []rel.Column

// member writes key and the value p points to when present (omitempty).
func (e *encoder) member(key string, present bool, p any) {
	if present {
		e.buf = append(e.buf, key...)
		e.value(p)
	}
}

// value writes the value p points to.
func (e *encoder) value(p any) {
	switch p := p.(type) {
	case *string:
		e.buf = appendString(e.buf, *p)
	case *bool:
		e.buf = strconv.AppendBool(e.buf, *p)
	case *int64:
		e.buf = strconv.AppendInt(e.buf, *p, 10)
	case *int:
		e.buf = strconv.AppendInt(e.buf, int64(*p), 10)
	case *time.Duration:
		e.buf = strconv.AppendInt(e.buf, int64(*p), 10)
	case *core.Strategy:
		e.buf = strconv.AppendInt(e.buf, int64(*p), 10)
	case *float64:
		if math.IsInf(*p, 0) || math.IsNaN(*p) {
			e.fail(fmt.Errorf("serve: cannot encode %v", *p))
		}
		e.buf = appendFloat(e.buf, *p)
	case *llm.Usage:
		encodeObject(e, p, usageFields[:])
	case *core.ParseStats:
		encodeObject(e, p, parseFields[:])
	case *[]core.ScanStats:
		e.list(len(*p), func(i int) { encodeObject(e, &(*p)[i], scanFields[:]) })
	case *[]string:
		e.list(len(*p), func(i int) { e.buf = appendString(e.buf, (*p)[i]) })
	case *[]rel.Column:
		e.list(len(*p), func(i int) { e.buf = appendString(e.buf, (*p)[i].Name) })
	case *columnTypes:
		e.list(len(*p), func(i int) { e.buf = appendString(e.buf, (*p)[i].Type.String()) })
	case *[]rel.Row: // a result's rows, from their values: what EncodeRows would box
		e.list(len(*p), func(i int) {
			row := (*p)[i]
			e.list(len(row), func(j int) { e.cell(row[j]) })
		})
	case *[][]any:
		e.list(len(*p), func(i int) {
			if row := (*p)[i]; row != nil {
				e.list(len(row), func(j int) { e.boxed(row[j]) })
			} else {
				e.buf = append(e.buf, "null"...)
			}
		})
	default: // views and stats: rare, left to encoding/json
		e.json(p)
	}
}

// list writes an array of n elements, elem(i) writing each.
func (e *encoder) list(n int, elem func(i int)) {
	e.buf = append(e.buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		elem(i)
	}
	e.buf = append(e.buf, ']')
}

// encodeObject writes v as encoding/json writes a struct without tags.
func encodeObject[T any](e *encoder, v *T, fields []field[T]) {
	sep := byte('{')
	for _, f := range fields {
		e.buf = append(append(append(e.buf, sep, '"'), f.key...), '"', ':')
		e.value(f.ptr(v))
		sep = ','
	}
	e.buf = append(e.buf, '}')
}

// cell writes one result value.
func (e *encoder) cell(v rel.Value) {
	switch {
	case v.IsNull():
		e.buf = append(e.buf, "null"...)
	case v.Type() == rel.TypeBool:
		e.buf = strconv.AppendBool(e.buf, v.AsBool())
	case v.Type() == rel.TypeInt:
		e.buf = strconv.AppendInt(e.buf, v.AsInt(), 10)
	case v.Type() == rel.TypeFloat:
		e.float(v.AsFloat())
	default:
		e.buf = appendString(e.buf, v.AsText())
	}
}

// boxed writes one cell of Response.Rows.
func (e *encoder) boxed(c any) {
	switch c := c.(type) {
	case nil:
		e.buf = append(e.buf, "null"...)
	case bool:
		e.buf = strconv.AppendBool(e.buf, c)
	case int64:
		e.buf = strconv.AppendInt(e.buf, c, 10)
	case float64:
		e.float(c)
	case string:
		e.buf = appendString(e.buf, c)
	default: // not a type EncodeRows produces
		e.json(c)
	}
}

// float writes a FLOAT cell. JSON has no number for ±Inf or NaN, so those
// travel as strconv's spelling in a string, which DecodeRows maps back.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.buf = append(strconv.AppendFloat(append(e.buf, '"'), f, 'g', -1, 64), '"')
	} else {
		e.buf = appendFloat(e.buf, f)
	}
}

// json writes v with encoding/json.
func (e *encoder) json(v any) {
	data, err := json.Marshal(v)
	e.fail(err)
	e.buf = append(e.buf, data...)
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// appendFloat writes a finite float as encoding/json does: ES6 number
// formatting, exponent form only below 1e-6 or from 1e21, and e-7, not e-07.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString writes s quoted. A string encoding/json writes verbatim — no
// control byte, quote, backslash, <, > or &, and no invalid UTF-8, U+2028
// or U+2029 — is copied; encoding/json quotes the rare rest itself.
func appendString(dst []byte, s string) []byte {
	i := 0
	for i < len(s) && plain[s[i]] {
		i++
	}
	verbatim := utf8.ValidString(s[i:])
	for ; verbatim && i < len(s); i++ {
		// U+2028 and U+2029 are E2 80 A8 and E2 80 A9.
		c := s[i]
		verbatim = !(c < utf8.RuneSelf && !plain[c] || c == 0xE2 && i+2 < len(s) && s[i+1] == 0x80 && s[i+2]&^1 == 0xA8)
	}
	if !verbatim {
		data, _ := json.Marshal(s)
		return append(dst, data...)
	}
	return append(append(append(dst, '"'), s...), '"')
}

// plain marks the ASCII bytes encoding/json writes verbatim in a string:
// printable ones other than '"', '\\', '<', '>' and '&'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
