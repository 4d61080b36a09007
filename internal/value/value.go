// Package value implements the typed SQL value system shared by every layer
// of the TROD stack: the storage engine, the SQL executor, the provenance
// database, and the replay/retroactive-programming engines.
//
// A Value is a small immutable tagged union over the SQL types TROD supports:
// NULL, INTEGER (int64), FLOAT (float64), TEXT (string), BOOL, and BYTES.
// Values provide total ordering (with NULL sorting first, matching the
// executor's ORDER BY semantics), SQL three-valued-logic comparison helpers,
// and order-preserving binary codecs used for index keys and the WAL.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported SQL value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
	KindBytes
)

// String returns the SQL-facing type name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	case KindBytes:
		return "BYTES"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable SQL value. The zero Value is NULL.
//
// It is 32 bytes: every stored row, index tuple, wire row and executor tuple
// is a slice of these, so the payloads share storage instead of each having
// a field of its own. Strings are immutable, so a BYTES payload held as one
// can never be aliased by callers.
type Value struct {
	kind Kind
	n    uint64 // KindInt, KindBool (0/1): the int64's bits; KindFloat: IEEE-754 bits
	s    string // KindText; KindBytes: the bytes
}

// Null is the SQL NULL value.
var Null = Value{kind: KindNull}

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Bool returns a BOOL value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Bytes returns a BYTES value. The input slice is copied so the Value is
// immutable regardless of later mutation by the caller.
func Bytes(v []byte) Value { return Value{kind: KindBytes, s: string(v)} }

// FromGo converts a native Go value into a Value. Supported inputs are nil,
// bool, all integer widths, float32/64, string, and []byte. It is used by the
// public API's argument binding.
func FromGo(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null, nil
	case Value:
		return x, nil
	case bool:
		return Bool(x), nil
	case int:
		return Int(int64(x)), nil
	case int8:
		return Int(int64(x)), nil
	case int16:
		return Int(int64(x)), nil
	case int32:
		return Int(int64(x)), nil
	case int64:
		return Int(x), nil
	case uint:
		return Int(int64(x)), nil
	case uint8:
		return Int(int64(x)), nil
	case uint16:
		return Int(int64(x)), nil
	case uint32:
		return Int(int64(x)), nil
	case uint64:
		if x > math.MaxInt64 {
			return Null, fmt.Errorf("value: uint64 %d overflows INTEGER", x)
		}
		return Int(int64(x)), nil
	case float32:
		return Float(float64(x)), nil
	case float64:
		return Float(x), nil
	case string:
		return Text(x), nil
	case []byte:
		return Bytes(x), nil
	default:
		return Null, fmt.Errorf("value: unsupported Go type %T", v)
	}
}

// MustFromGo is FromGo that panics on unsupported input. Intended for tests
// and static literals.
func MustFromGo(v any) Value {
	val, err := FromGo(v)
	if err != nil {
		panic(err)
	}
	return val
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the int64 payload. It is valid only for KindInt and KindBool.
func (v Value) AsInt() int64 { return int64(v.n) }

// AsFloat returns the float64 payload for KindFloat, or a widened int for
// KindInt.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.n))
	case KindFloat:
		return math.Float64frombits(v.n)
	}
	return 0
}

// AsText returns the string payload. Valid only for KindText.
func (v Value) AsText() string { return v.s }

// AsBool returns the boolean payload. Valid only for KindBool.
func (v Value) AsBool() bool { return v.n != 0 }

// AsBytes returns a copy of the byte payload. Valid only for KindBytes.
func (v Value) AsBytes() []byte { return []byte(v.s) }

// Go converts the Value back to its natural Go representation: nil, int64,
// float64, string, bool, or []byte.
func (v Value) Go() any {
	switch v.kind {
	case KindNull:
		return nil
	case KindInt:
		return v.AsInt()
	case KindFloat:
		return v.AsFloat()
	case KindText:
		return v.s
	case KindBool:
		return v.n != 0
	case KindBytes:
		return v.AsBytes()
	default:
		return nil
	}
}

// String renders the value in SQL literal syntax; it implements fmt.Stringer.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case KindText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindBytes:
		return fmt.Sprintf("X'%x'", v.s)
	default:
		return "?"
	}
}

// Display renders the value for human-facing tables (no quoting of text).
func (v Value) Display() string {
	switch v.kind {
	case KindText:
		return v.s
	case KindNull:
		return "null"
	default:
		return v.String()
	}
}

// numericKinds reports whether both values can participate in numeric
// comparison/arithmetic.
func numericPair(a, b Value) bool {
	return (a.kind == KindInt || a.kind == KindFloat) && (b.kind == KindInt || b.kind == KindFloat)
}

// Compare totally orders two values. NULL sorts before everything; values of
// different non-numeric kinds order by kind tag. Numeric kinds compare by
// value (1 == 1.0), and NaN sorts above every number. The result is -1, 0,
// or +1.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericPair(a, b) {
		if a.kind == KindInt && b.kind == KindInt {
			ai, bi := a.AsInt(), b.AsInt()
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		// Equal, or a NaN: NaN equals NaN and sorts above every number,
		// where EncodeKey puts it.
		if an, bn := af != af, bf != bf; an != bn {
			if an {
				return 1
			}
			return -1
		}
		return 0
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindText, KindBytes:
		return strings.Compare(a.s, b.s)
	case KindBool:
		switch {
		case a.n < b.n:
			return -1
		case a.n > b.n:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether two values are identical under Compare semantics
// (NULL equals NULL here; SQL tri-state equality lives in CompareSQL).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Tristate is the SQL three-valued logic result of a comparison.
type Tristate uint8

// Three-valued logic outcomes.
const (
	Unknown Tristate = iota
	False
	True
)

// TristateOf converts a Go bool into a Tristate.
func TristateOf(b bool) Tristate {
	if b {
		return True
	}
	return False
}

// And implements SQL AND over three-valued logic.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or implements SQL OR over three-valued logic.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not implements SQL NOT over three-valued logic.
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

// Bool reduces a Tristate to a Go bool, with Unknown treated as false (SQL
// WHERE semantics).
func (t Tristate) Bool() bool { return t == True }

// CompareSQL performs SQL comparison: if either side is NULL the result is
// Unknown; otherwise cmp is applied to Compare's result.
func CompareSQL(a, b Value, test func(int) bool) Tristate {
	if a.IsNull() || b.IsNull() {
		return Unknown
	}
	return TristateOf(test(Compare(a, b)))
}

// Arithmetic errors.
var errDivZero = fmt.Errorf("value: division by zero")

// Arith applies a binary arithmetic operator (+ - * / %) with SQL NULL
// propagation and int/float promotion.
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !numericPair(a, b) {
		if op == '+' && a.kind == KindText && b.kind == KindText {
			return Text(a.s + b.s), nil
		}
		return Null, fmt.Errorf("value: cannot apply %q to %s and %s", string(op), a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		ai, bi := a.AsInt(), b.AsInt()
		switch op {
		case '+':
			return Int(ai + bi), nil
		case '-':
			return Int(ai - bi), nil
		case '*':
			return Int(ai * bi), nil
		case '/':
			if bi == 0 {
				return Null, errDivZero
			}
			return Int(ai / bi), nil
		case '%':
			if bi == 0 {
				return Null, errDivZero
			}
			return Int(ai % bi), nil
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case '+':
		return Float(af + bf), nil
	case '-':
		return Float(af - bf), nil
	case '*':
		return Float(af * bf), nil
	case '/':
		if bf == 0 {
			return Null, errDivZero
		}
		return Float(af / bf), nil
	case '%':
		if bf == 0 {
			return Null, errDivZero
		}
		return Float(math.Mod(af, bf)), nil
	}
	return Null, fmt.Errorf("value: unknown arithmetic operator %q", string(op))
}

// Row is an ordered tuple of values.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	cp := make(Row, len(r))
	copy(cp, r)
	return cp
}

// Equal reports element-wise equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !Equal(r[i], o[i]) {
			return false
		}
	}
	return true
}

// String renders the row as a parenthesised tuple.
func (r Row) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
