package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"llmsql/internal/core"
	"llmsql/internal/llm"
)

// decoder reads the JSON of one response line. Member names are matched in
// place; only values are copied out, so a decoded Response never aliases the
// line. It accepts only what encoding/json accepts.
type decoder struct {
	src []byte
	pos int
}

// decodeResponse decodes one response line into r as encoding/json with
// UseNumber would: members absent from the line keep their value.
func decodeResponse(line []byte, r *Response) error {
	d := decoder{src: line}
	err := d.value(r)
	if d.ws(); err == nil && d.pos < len(d.src) {
		err = d.syntax("data after the response")
	}
	return err
}

// value decodes the value at the cursor into what p points to; null leaves
// it unchanged.
func (d *decoder) value(p any) (err error) {
	if d.null() {
		return nil
	}
	var n int64
	switch p := p.(type) {
	case *Response:
		err = decodeObject(d, p, responseFields[:])
	case **llm.Usage:
		if *p == nil {
			*p = new(llm.Usage)
		}
		err = decodeObject(d, *p, usageFields[:])
	case *core.ParseStats:
		err = decodeObject(d, p, parseFields[:])
	case *[]core.ScanStats:
		*p = []core.ScanStats{}
		err = d.list('[', ']', func() error {
			*p = append(*p, core.ScanStats{})
			return decodeObject(d, &(*p)[len(*p)-1], scanFields[:])
		})
	case *[]string:
		*p = []string{}
		err = d.list('[', ']', func() error {
			s, err := d.str()
			*p = append(*p, string(s))
			return err
		})
	case *[][]any:
		*p = [][]any{}
		var cells []any // the row being read, copied out at its exact size
		err = d.list('[', ']', func() error {
			if d.null() {
				*p = append(*p, nil)
				return nil
			}
			cells = cells[:0]
			err := d.list('[', ']', func() error {
				c, err := d.cell()
				cells = append(cells, c)
				return err
			})
			*p = append(*p, append(make([]any, 0, len(cells)), cells...))
			return err
		})
	case *string:
		var s []byte
		s, err = d.str()
		*p = string(s)
	case *bool:
		*p, err = d.bool()
	case *float64:
		*p, err = d.float()
	case *int64:
		*p, err = d.integer()
	case *int:
		n, err = d.integer()
		*p = int(n)
	case *time.Duration:
		n, err = d.integer()
		*p = time.Duration(n)
	case *core.Strategy:
		n, err = d.integer()
		*p = core.Strategy(n)
	default: // views and stats: rare, left to encoding/json
		err = d.json(p)
	}
	return err
}

// decodeObject decodes an object into v through its field table. Member
// names match case-insensitively, as in encoding/json; unknown members are
// skipped.
func decodeObject[T any](d *decoder, v *T, fields []field[T]) error {
	next := 0 // the codec writes fields in table order: try the next one first
	return d.list('{', '}', func() error {
		key, err := d.str()
		if err == nil && !d.eat(':') {
			err = d.syntax("want ':'")
		}
		if err != nil {
			return err
		}
		i := next
		if i >= len(fields) || fields[i].key != string(key) {
			i = slices.IndexFunc(fields, func(f field[T]) bool { return bytes.EqualFold([]byte(f.key), key) })
		}
		if i < 0 {
			var unknown any
			return d.json(&unknown)
		}
		next = i + 1
		return d.value(fields[i].ptr(v))
	})
}

// list reads an array ('[', ']') or an object's members ('{', '}'), calling
// elem with the cursor on each element; elem must consume it.
func (d *decoder) list(open, close byte, elem func() error) error {
	if !d.eat(open) {
		return d.syntax("want " + string(open))
	}
	if d.eat(close) {
		return nil
	}
	for {
		d.ws()
		if err := elem(); err != nil {
			return err
		}
		if d.eat(close) {
			return nil
		}
		if !d.eat(',') {
			return d.syntax("want ',' or " + string(close))
		}
	}
}

// cell reads a row cell: nil, bool, string or json.Number.
func (d *decoder) cell() (any, error) {
	switch c := d.ws(); {
	case c == '"':
		s, err := d.str()
		return string(s), err
	case c == 't' || c == 'f':
		b, err := d.bool()
		return b, err
	case c == 'n' && d.null():
		return nil, nil
	}
	n, err := d.number()
	return json.Number(n), err
}

// str reads a string: the bytes between its quotes, in the line, unless it
// holds an escape, a control byte or invalid UTF-8, which are rare and left
// to encoding/json.
func (d *decoder) str() ([]byte, error) {
	if d.ws() != '"' {
		return nil, d.syntax("want a string")
	}
	if n := bytes.IndexByte(d.src[d.pos+1:], '"'); n >= 0 {
		s := d.src[d.pos+1 : d.pos+1+n]
		i := 0
		for i < len(s) && s[i] >= ' ' && s[i] != '\\' {
			i++
		}
		if i == len(s) && utf8.Valid(s) {
			d.pos += n + 2
			return s, nil
		}
	}
	var s string
	err := d.json(&s)
	return []byte(s), err
}

// json decodes the value at the cursor into v with encoding/json.
func (d *decoder) json(v any) error {
	dec := json.NewDecoder(bytes.NewReader(d.src[d.pos:]))
	dec.UseNumber()
	err := dec.Decode(v)
	d.pos += int(dec.InputOffset())
	return err
}

// number reads a number's text, checked against the JSON grammar.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	d.skip('-')
	if !d.skip('0') && d.digits() == 0 || d.skip('.') && d.digits() == 0 {
		return nil, d.syntax("want a number")
	}
	if d.skip('e') || d.skip('E') {
		if !d.skip('+') {
			d.skip('-')
		}
		if d.digits() == 0 {
			return nil, d.syntax("want an exponent")
		}
	}
	return d.src[start:d.pos], nil
}

func (d *decoder) digits() int {
	start := d.pos
	for d.pos < len(d.src) && '0' <= d.src[d.pos] && d.src[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

func (d *decoder) integer() (int64, error) {
	n, err := d.number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(n), 10, 64)
}

func (d *decoder) float() (float64, error) {
	n, err := d.number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(n), 64)
}

func (d *decoder) bool() (bool, error) {
	switch {
	case bytes.HasPrefix(d.src[d.pos:], []byte("true")):
		d.pos += 4
		return true, nil
	case bytes.HasPrefix(d.src[d.pos:], []byte("false")):
		d.pos += 5
		return false, nil
	}
	return false, d.syntax("want a bool")
}

// null consumes a null after optional whitespace, reporting whether there
// was one.
func (d *decoder) null() bool {
	if d.ws() == 'n' && bytes.HasPrefix(d.src[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// eat consumes c after optional whitespace, reporting whether it was there.
func (d *decoder) eat(c byte) bool {
	d.ws()
	return d.skip(c)
}

// skip consumes c if it is the next byte, reporting whether it was.
func (d *decoder) skip(c byte) bool {
	if d.pos < len(d.src) && d.src[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) ws() byte {
	for ; d.pos < len(d.src); d.pos++ {
		if c := d.src[d.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (d *decoder) syntax(what string) error {
	return fmt.Errorf("serve: malformed response at byte %d: %s", d.pos, what)
}
