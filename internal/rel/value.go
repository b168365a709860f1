package rel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a typed SQL value. The zero Value is NULL.
//
// Value is a small immutable struct passed by value; rows are []Value. It
// is 32 bytes: TEXT lives in s, and every other type in the bits of n —
// INT as its two's complement, FLOAT as math.Float64bits, BOOL as 0 or 1.
// A NULL keeps its declared type in typ (TypeUnknown for the bare NULL)
// with notNull false and n and s zero.
type Value struct {
	s       string
	n       uint64
	typ     uint8
	notNull bool
}

// Null returns the untyped NULL value.
func Null() Value { return Value{} }

// NullOf returns a NULL that remembers its column type.
func NullOf(t DataType) Value { return Value{typ: uint8(t)} }

// Int returns an INT value.
func Int(v int64) Value { return Value{typ: uint8(TypeInt), notNull: true, n: uint64(v)} }

// Float returns a FLOAT value.
func Float(v float64) Value {
	return Value{typ: uint8(TypeFloat), notNull: true, n: math.Float64bits(v)}
}

// Text returns a TEXT value.
func Text(v string) Value { return Value{typ: uint8(TypeText), notNull: true, s: v} }

// Bool returns a BOOL value.
func Bool(v bool) Value {
	if v {
		return Value{typ: uint8(TypeBool), notNull: true, n: 1}
	}
	return Value{typ: uint8(TypeBool), notNull: true}
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return !v.notNull }

// Type returns the value's data type (the declared type for typed NULLs,
// TypeUnknown for the bare NULL).
func (v Value) Type() DataType { return DataType(v.typ) }

// i, f and b read n as the INT, FLOAT and BOOL they hold; each is only
// meaningful for its own type.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) b() bool    { return v.n != 0 }

// AsInt returns the value as int64, truncating FLOAT; it is 0 for every
// other type. Callers must ensure the type.
func (v Value) AsInt() int64 {
	switch v.Type() {
	case TypeInt:
		return v.i()
	case TypeFloat:
		return int64(v.f())
	}
	return 0
}

// AsFloat returns the value as float64, promoting INT; it is 0 for every
// other type.
func (v Value) AsFloat() float64 {
	switch v.Type() {
	case TypeInt:
		return float64(v.i())
	case TypeFloat:
		return v.f()
	}
	return 0
}

// AsText returns the value as string. For non-text values it renders them.
func (v Value) AsText() string {
	if v.Type() == TypeText {
		return v.s
	}
	return v.String()
}

// AsBool returns the value as bool: true only for BOOL TRUE.
func (v Value) AsBool() bool { return v.Type() == TypeBool && v.b() }

// String renders the value for display. NULL renders as "NULL".
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.Type() {
	case TypeInt:
		return strconv.FormatInt(v.i(), 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TypeText:
		return v.s
	case TypeBool:
		if v.b() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "NULL"
	}
}

// SQLLiteral renders the value as a SQL literal: text quoted and escaped,
// and FLOAT values always spelled with a decimal point (116.0, not 116) so
// that reparsing preserves the type.
func (v Value) SQLLiteral() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.Type() {
	case TypeText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case TypeFloat:
		if f := v.f(); f == math.Trunc(f) && !math.IsInf(f, 0) && !math.IsNaN(f) && math.Abs(f) < 1e15 {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return v.String()
	default:
		return v.String()
	}
}

// Tristate is the result of a three-valued-logic predicate.
type Tristate int

const (
	// False is SQL FALSE.
	False Tristate = iota
	// True is SQL TRUE.
	True
	// Unknown is SQL UNKNOWN (comparison involving NULL).
	Unknown
)

// ToValue converts a Tristate to a BOOL Value (Unknown -> NULL).
func (t Tristate) ToValue() Value {
	switch t {
	case True:
		return Bool(true)
	case False:
		return Bool(false)
	default:
		return NullOf(TypeBool)
	}
}

// TristateOf converts a BOOL Value to a Tristate (NULL -> Unknown).
func TristateOf(v Value) Tristate {
	if v.IsNull() {
		return Unknown
	}
	if v.AsBool() {
		return True
	}
	return False
}

// And implements 3VL conjunction.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or implements 3VL disjunction.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not implements 3VL negation.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Compare compares two values with SQL semantics. It returns
// (ordering, Unknown-ness): if either side is NULL the Tristate is Unknown
// and the ordering is unspecified. Values of different numeric types are
// promoted; numbers never equal text unless the text parses as that number.
func Compare(a, b Value) (int, Tristate) {
	if a.IsNull() || b.IsNull() {
		return 0, Unknown
	}
	ct := CommonType(a.Type(), b.Type())
	switch ct {
	case TypeInt:
		return cmpInt(a.AsInt(), b.AsInt()), True
	case TypeFloat:
		return cmpFloat(a.AsFloat(), b.AsFloat()), True
	case TypeBool:
		av, bv := 0, 0
		if a.b() {
			av = 1
		}
		if b.b() {
			bv = 1
		}
		return cmpInt(int64(av), int64(bv)), True
	case TypeText:
		// If one side is numeric, try to compare numerically: the lenient
		// path used for LLM-derived text values like "1200".
		if a.Type().Numeric() || b.Type().Numeric() {
			af, aok := toFloat(a)
			bf, bok := toFloat(b)
			if aok && bok {
				return cmpFloat(af, bf), True
			}
		}
		return strings.Compare(a.AsText(), b.AsText()), True
	default:
		return 0, Unknown
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func toFloat(v Value) (float64, bool) {
	switch v.Type() {
	case TypeInt:
		return float64(v.i()), true
	case TypeFloat:
		return v.f(), true
	case TypeText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal under SQL semantics, treating
// NULL = NULL as false (GROUP BY and DISTINCT compare Row keys instead).
func Equal(a, b Value) bool {
	c, t := Compare(a, b)
	return t == True && c == 0
}

// Coerce converts v to type t when a sensible conversion exists, otherwise
// returns an error. NULL coerces to a typed NULL of t.
func Coerce(v Value, t DataType) (Value, error) {
	if v.IsNull() {
		return NullOf(t), nil
	}
	if v.Type() == t || t == TypeUnknown {
		return v, nil
	}
	switch t {
	case TypeInt:
		switch v.Type() {
		case TypeFloat:
			return Int(int64(math.Round(v.f()))), nil
		case TypeText:
			if n, err := parseLooseInt(v.s); err == nil {
				return Int(n), nil
			}
			return Value{}, fmt.Errorf("rel: cannot coerce %q to INT", v.s)
		case TypeBool:
			if v.b() {
				return Int(1), nil
			}
			return Int(0), nil
		}
	case TypeFloat:
		switch v.Type() {
		case TypeInt:
			return Float(float64(v.i())), nil
		case TypeText:
			if f, err := parseLooseFloat(v.s); err == nil {
				return Float(f), nil
			}
			return Value{}, fmt.Errorf("rel: cannot coerce %q to FLOAT", v.s)
		case TypeBool:
			if v.b() {
				return Float(1), nil
			}
			return Float(0), nil
		}
	case TypeText:
		return Text(v.String()), nil
	case TypeBool:
		switch v.Type() {
		case TypeInt:
			return Bool(v.i() != 0), nil
		case TypeFloat:
			return Bool(v.f() != 0), nil
		case TypeText:
			switch strings.ToUpper(strings.TrimSpace(v.s)) {
			case "TRUE", "T", "YES", "Y", "1":
				return Bool(true), nil
			case "FALSE", "F", "NO", "N", "0":
				return Bool(false), nil
			}
			return Value{}, fmt.Errorf("rel: cannot coerce %q to BOOL", v.s)
		}
	}
	return Value{}, fmt.Errorf("rel: cannot coerce %s to %s", v.Type(), t)
}

// parseLooseInt parses integers with thousands separators ("1,234,567") and
// falls back to rounding float spellings ("3.0", "1.2e3").
func parseLooseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	s = strings.ReplaceAll(s, ",", "")
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && f == math.Trunc(f) {
		return int64(f), nil
	}
	return strconv.ParseInt(s, 10, 64)
}

// parseLooseFloat parses floats with thousands separators.
func parseLooseFloat(s string) (float64, error) {
	s = strings.TrimSpace(s)
	s = strings.ReplaceAll(s, ",", "")
	return strconv.ParseFloat(s, 64)
}

// ParseTyped parses raw text into a Value of the requested type using the
// loose rules (thousand separators etc.). Empty string parses as NULL for
// non-text types.
func ParseTyped(s string, t DataType) (Value, error) {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" && t != TypeText {
		return NullOf(t), nil
	}
	if strings.EqualFold(trimmed, "null") || trimmed == "-" || strings.EqualFold(trimmed, "n/a") || strings.EqualFold(trimmed, "unknown") {
		return NullOf(t), nil
	}
	switch t {
	case TypeText:
		return Text(trimmed), nil
	default:
		return Coerce(Text(trimmed), t)
	}
}
