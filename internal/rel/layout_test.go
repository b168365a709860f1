package rel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestValueSize: every cell of every row is a Value, so its size is paid
// per cell a query copies; it is pinned at 32 bytes on 64-bit platforms.
func TestValueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("rel.Value is %d bytes, want 32", got)
	}
}

// wideValue is the 56-byte layout Value had before it folded INT, FLOAT and
// BOOL into one 64-bit word: a separate field per type. It and the wide*
// functions below are a verbatim copy of that implementation, kept as the
// oracle TestValueLayoutMatchesWideOracle checks the packed layout against.
type wideValue struct {
	typ     DataType
	notNull bool
	i       int64
	f       float64
	s       string
	b       bool
}

func wideNullOf(t DataType) wideValue { return wideValue{typ: t} }
func wideInt(v int64) wideValue       { return wideValue{typ: TypeInt, notNull: true, i: v} }
func wideFloat(v float64) wideValue   { return wideValue{typ: TypeFloat, notNull: true, f: v} }
func wideText(v string) wideValue     { return wideValue{typ: TypeText, notNull: true, s: v} }
func wideBool(v bool) wideValue       { return wideValue{typ: TypeBool, notNull: true, b: v} }

func (v wideValue) IsNull() bool   { return !v.notNull }
func (v wideValue) Type() DataType { return v.typ }

func (v wideValue) AsInt() int64 {
	if v.typ == TypeFloat {
		return int64(v.f)
	}
	return v.i
}

func (v wideValue) AsFloat() float64 {
	if v.typ == TypeInt {
		return float64(v.i)
	}
	return v.f
}

func (v wideValue) AsText() string {
	if v.typ == TypeText {
		return v.s
	}
	return v.String()
}

func (v wideValue) AsBool() bool { return v.b }

func (v wideValue) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.typ {
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeText:
		return v.s
	case TypeBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "NULL"
	}
}

func (v wideValue) SQLLiteral() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.typ {
	case TypeText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case TypeFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && !math.IsNaN(v.f) && math.Abs(v.f) < 1e15 {
			return strconv.FormatFloat(v.f, 'f', 1, 64)
		}
		return v.String()
	default:
		return v.String()
	}
}

func wideCompare(a, b wideValue) (int, Tristate) {
	if a.IsNull() || b.IsNull() {
		return 0, Unknown
	}
	switch CommonType(a.typ, b.typ) {
	case TypeInt:
		return cmpInt(a.AsInt(), b.AsInt()), True
	case TypeFloat:
		return cmpFloat(a.AsFloat(), b.AsFloat()), True
	case TypeBool:
		av, bv := 0, 0
		if a.b {
			av = 1
		}
		if b.b {
			bv = 1
		}
		return cmpInt(int64(av), int64(bv)), True
	case TypeText:
		if a.typ.Numeric() || b.typ.Numeric() {
			af, aok := wideToFloat(a)
			bf, bok := wideToFloat(b)
			if aok && bok {
				return cmpFloat(af, bf), True
			}
		}
		return strings.Compare(a.AsText(), b.AsText()), True
	default:
		return 0, Unknown
	}
}

func wideToFloat(v wideValue) (float64, bool) {
	switch v.typ {
	case TypeInt:
		return float64(v.i), true
	case TypeFloat:
		return v.f, true
	case TypeText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

func wideEqual(a, b wideValue) bool {
	c, t := wideCompare(a, b)
	return t == True && c == 0
}

func (v wideValue) IdenticalTo(o wideValue) bool {
	if v.IsNull() && o.IsNull() {
		return true
	}
	if v.IsNull() != o.IsNull() {
		return false
	}
	c, t := wideCompare(v, o)
	return t == True && c == 0
}

func wideCoerce(v wideValue, t DataType) (wideValue, error) {
	if v.IsNull() {
		return wideNullOf(t), nil
	}
	if v.typ == t || t == TypeUnknown {
		return v, nil
	}
	switch t {
	case TypeInt:
		switch v.typ {
		case TypeFloat:
			return wideInt(int64(math.Round(v.f))), nil
		case TypeText:
			if n, err := parseLooseInt(v.s); err == nil {
				return wideInt(n), nil
			}
			return wideValue{}, fmt.Errorf("rel: cannot coerce %q to INT", v.s)
		case TypeBool:
			if v.b {
				return wideInt(1), nil
			}
			return wideInt(0), nil
		}
	case TypeFloat:
		switch v.typ {
		case TypeInt:
			return wideFloat(float64(v.i)), nil
		case TypeText:
			if f, err := parseLooseFloat(v.s); err == nil {
				return wideFloat(f), nil
			}
			return wideValue{}, fmt.Errorf("rel: cannot coerce %q to FLOAT", v.s)
		case TypeBool:
			if v.b {
				return wideFloat(1), nil
			}
			return wideFloat(0), nil
		}
	case TypeText:
		return wideText(v.String()), nil
	case TypeBool:
		switch v.typ {
		case TypeInt:
			return wideBool(v.i != 0), nil
		case TypeFloat:
			return wideBool(v.f != 0), nil
		case TypeText:
			switch strings.ToUpper(strings.TrimSpace(v.s)) {
			case "TRUE", "T", "YES", "Y", "1":
				return wideBool(true), nil
			case "FALSE", "F", "NO", "N", "0":
				return wideBool(false), nil
			}
			return wideValue{}, fmt.Errorf("rel: cannot coerce %q to BOOL", v.s)
		}
	}
	return wideValue{}, fmt.Errorf("rel: cannot coerce %s to %s", v.typ, t)
}

func wideKey(v wideValue) string {
	if v.IsNull() {
		return "\x00NULL"
	}
	if v.typ.Numeric() {
		return wideFloat(v.AsFloat()).String()
	}
	if v.typ == TypeText {
		return strings.ToLower(strings.TrimSpace(v.AsText()))
	}
	return v.String()
}

// valuePair is one grid cell: the same value built in both layouts.
type valuePair struct {
	v Value
	w wideValue
}

// layoutGrid covers every type, typed and bare NULLs, the float specials
// (NaN, ±0, ±Inf), the int extremes, empty and numeric-looking text.
func layoutGrid() []valuePair {
	grid := []valuePair{{Null(), wideNullOf(TypeUnknown)}}
	for _, t := range []DataType{TypeBool, TypeInt, TypeFloat, TypeText} {
		grid = append(grid, valuePair{NullOf(t), wideNullOf(t)})
	}
	for _, n := range []int64{0, 1, -1, 2, 42, -7, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64} {
		grid = append(grid, valuePair{Int(n), wideInt(n)})
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 0.1, -3.75, 116, 1e15, 1e300, 1 << 53,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		grid = append(grid, valuePair{Float(f), wideFloat(f)})
	}
	for _, s := range []string{"", " ", "a", "abc", "ABC", "O'Hare", "1", "2.5", " 42 ", "1,234", "NaN", "-Inf", "true", "no", "null"} {
		grid = append(grid, valuePair{Text(s), wideText(s)})
	}
	for _, b := range []bool{false, true} {
		grid = append(grid, valuePair{Bool(b), wideBool(b)})
	}
	return grid
}

// sameValue reports whether v and w read back alike through every
// accessor; floats compare by bits so NaN and -0 count.
func sameValue(v Value, w wideValue) bool {
	return v.IsNull() == w.IsNull() && v.Type() == w.Type() &&
		v.AsInt() == w.AsInt() && math.Float64bits(v.AsFloat()) == math.Float64bits(w.AsFloat()) &&
		v.AsText() == w.AsText() && v.AsBool() == w.AsBool() &&
		v.String() == w.String() && v.SQLLiteral() == w.SQLLiteral()
}

// TestValueLayoutMatchesWideOracle: over a grid of values, the 32-byte
// Value answers every accessor, comparison, coercion and row key exactly as
// the 56-byte layout it replaced did.
func TestValueLayoutMatchesWideOracle(t *testing.T) {
	grid := layoutGrid()
	for _, a := range grid {
		if !sameValue(a.v, a.w) {
			t.Errorf("%#v reads back differently from the wide layout's %#v", a.v, a.w)
		}
		if got, want := (Row{a.v}).Key([]int{0}), wideKey(a.w); got != want {
			t.Errorf("Row{%v}.Key = %q, wide layout %q", a.v, got, want)
		}
		for _, typ := range []DataType{TypeUnknown, TypeBool, TypeInt, TypeFloat, TypeText} {
			got, gotErr := Coerce(a.v, typ)
			want, wantErr := wideCoerce(a.w, typ)
			if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !sameValue(got, want) {
				t.Errorf("Coerce(%v, %v) = %#v, %v; wide layout %#v, %v", a.v, typ, got, gotErr, want, wantErr)
			}
		}
		for _, b := range grid {
			c, ts := Compare(a.v, b.v)
			wc, wts := wideCompare(a.w, b.w)
			if ts != wts || ts == True && c != wc {
				t.Errorf("Compare(%v, %v) = %d, %v; wide layout %d, %v", a.v, b.v, c, ts, wc, wts)
			}
			if got, want := Equal(a.v, b.v), wideEqual(a.w, b.w); got != want {
				t.Errorf("Equal(%v, %v) = %v, wide layout %v", a.v, b.v, got, want)
			}
			if got, want := a.v.IdenticalTo(b.v), a.w.IdenticalTo(b.w); got != want {
				t.Errorf("%v.IdenticalTo(%v) = %v, wide layout %v", a.v, b.v, got, want)
			}
		}
	}
}
