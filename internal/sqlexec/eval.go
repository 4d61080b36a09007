// Package sqlexec implements the SQL planner/executor over the transaction
// layer: single-table plans with primary-key and secondary-index access
// paths, hash and nested-loop joins, aggregation, sorting, and DML. It also
// exposes the read-provenance hook the TROD interposition layer uses to
// capture which rows each statement read (paper §3.4, Table 2).
package sqlexec

import (
	"fmt"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/value"
)

// colInfo describes one slot of a runtime tuple: which FROM source it came
// from (by alias), its column name and its declared type.
type colInfo struct {
	source string // effective table alias, lowercased; "" for computed columns
	column string // lowercased
	kind   value.Kind
}

// env is the evaluation environment for one tuple: slot metadata, slot
// values, statement arguments, and (during aggregate output) the computed
// aggregate values keyed by node identity. slots carries the plan's
// precomputed column-reference resolutions (nil for transient environments);
// references not in slots fall back to dynamic resolution.
type env struct {
	cols  []colInfo
	vals  value.Row
	args  []value.Value
	aggs  map[*sqlparse.FuncCall]value.Value
	slots map[*sqlparse.ColumnRef]int
}

// lookupSlot resolves ref against a layout, returning the slot and the match
// count (0 = unknown, 1 = resolved, >1 = ambiguous). It is the single
// column-matching rule shared by plan-time registration (resolveIn) and
// runtime resolution (env.resolve), so the two can never diverge.
func lookupSlot(ref *sqlparse.ColumnRef, cols []colInfo) (int, int) {
	tbl := strings.ToLower(ref.Table)
	col := strings.ToLower(ref.Column)
	found, matches := -1, 0
	for i, c := range cols {
		if c.column != col {
			continue
		}
		if tbl != "" && c.source != tbl {
			continue
		}
		matches++
		if matches > 1 {
			return 0, matches
		}
		found = i
	}
	if matches == 0 {
		return 0, 0
	}
	return found, 1
}

// resolve finds the slot for a column reference; ambiguous unqualified names
// are an error. Plan-compiled references hit the slots map and skip the
// per-call lowercasing and layout scan entirely.
func (e *env) resolve(ref *sqlparse.ColumnRef) (int, error) {
	if i, ok := e.slots[ref]; ok {
		return i, nil
	}
	idx, matches := lookupSlot(ref, e.cols)
	switch matches {
	case 1:
		return idx, nil
	case 0:
		return 0, fmt.Errorf("sql: unknown column %q", ref.String())
	default:
		return 0, fmt.Errorf("sql: ambiguous column reference %q", ref.String())
	}
}

// eval evaluates an expression over the environment.
func eval(e *env, expr sqlparse.Expr) (value.Value, error) {
	switch x := expr.(type) {
	case *sqlparse.Literal:
		return x.Val, nil
	case *sqlparse.Placeholder:
		if x.Index >= len(e.args) {
			return value.Null, fmt.Errorf("sql: missing argument for placeholder %d (have %d)", x.Index+1, len(e.args))
		}
		return e.args[x.Index], nil
	case *sqlparse.ColumnRef:
		i, err := e.resolve(x)
		if err != nil {
			return value.Null, err
		}
		return e.vals[i], nil
	case *sqlparse.UnaryExpr:
		v, err := eval(e, x.Operand)
		if err != nil {
			return value.Null, err
		}
		if x.Op == '-' {
			return value.Arith('-', value.Int(0), v)
		}
		// NOT over three-valued logic.
		return triToValue(valueToTri(v).Not()), nil
	case *sqlparse.BinaryExpr:
		return evalBinary(e, x)
	case *sqlparse.IsNullExpr:
		v, err := eval(e, x.Operand)
		if err != nil {
			return value.Null, err
		}
		res := v.IsNull()
		if x.Negate {
			res = !res
		}
		return value.Bool(res), nil
	case *sqlparse.InExpr:
		return evalIn(e, x)
	case *sqlparse.BetweenExpr:
		return evalBetween(e, x)
	case *sqlparse.FuncCall:
		if e.aggs != nil {
			if v, ok := e.aggs[x]; ok {
				return v, nil
			}
		}
		if sqlparse.AggregateFuncs[x.Name] {
			return value.Null, fmt.Errorf("sql: aggregate %s used outside aggregation context", x.Name)
		}
		return evalScalarFunc(e, x)
	default:
		return value.Null, fmt.Errorf("sql: cannot evaluate %T", expr)
	}
}

// valueToTri interprets a value as a SQL boolean: NULL→Unknown, BOOL→itself,
// numerics→nonzero.
func valueToTri(v value.Value) value.Tristate {
	switch v.Kind() {
	case value.KindNull:
		return value.Unknown
	case value.KindBool:
		return value.TristateOf(v.AsBool())
	case value.KindInt:
		return value.TristateOf(v.AsInt() != 0)
	case value.KindFloat:
		return value.TristateOf(v.AsFloat() != 0)
	default:
		return value.TristateOf(v.AsText() != "")
	}
}

func triToValue(t value.Tristate) value.Value {
	switch t {
	case value.True:
		return value.Bool(true)
	case value.False:
		return value.Bool(false)
	default:
		return value.Null
	}
}

// evalPredicate evaluates expr as a WHERE-style predicate (Unknown = false).
func evalPredicate(e *env, expr sqlparse.Expr) (bool, error) {
	if expr == nil {
		return true, nil
	}
	v, err := eval(e, expr)
	if err != nil {
		return false, err
	}
	return valueToTri(v).Bool(), nil
}

func evalBinary(e *env, x *sqlparse.BinaryExpr) (value.Value, error) {
	switch x.Op {
	case sqlparse.OpAnd, sqlparse.OpOr:
		lv, err := eval(e, x.Left)
		if err != nil {
			return value.Null, err
		}
		lt := valueToTri(lv)
		// Short-circuit where three-valued logic allows it.
		if x.Op == sqlparse.OpAnd && lt == value.False {
			return value.Bool(false), nil
		}
		if x.Op == sqlparse.OpOr && lt == value.True {
			return value.Bool(true), nil
		}
		rv, err := eval(e, x.Right)
		if err != nil {
			return value.Null, err
		}
		rt := valueToTri(rv)
		if x.Op == sqlparse.OpAnd {
			return triToValue(lt.And(rt)), nil
		}
		return triToValue(lt.Or(rt)), nil
	}

	lv, err := eval(e, x.Left)
	if err != nil {
		return value.Null, err
	}
	rv, err := eval(e, x.Right)
	if err != nil {
		return value.Null, err
	}
	switch x.Op {
	case sqlparse.OpEq:
		if eq, ok := plainEqual(lv, rv); ok {
			return value.Bool(eq), nil
		}
		return triToValue(value.CompareSQL(lv, rv, func(c int) bool { return c == 0 })), nil
	case sqlparse.OpNe:
		if eq, ok := plainEqual(lv, rv); ok {
			return value.Bool(!eq), nil
		}
		return triToValue(value.CompareSQL(lv, rv, func(c int) bool { return c != 0 })), nil
	case sqlparse.OpLt:
		return triToValue(value.CompareSQL(lv, rv, func(c int) bool { return c < 0 })), nil
	case sqlparse.OpLe:
		return triToValue(value.CompareSQL(lv, rv, func(c int) bool { return c <= 0 })), nil
	case sqlparse.OpGt:
		return triToValue(value.CompareSQL(lv, rv, func(c int) bool { return c > 0 })), nil
	case sqlparse.OpGe:
		return triToValue(value.CompareSQL(lv, rv, func(c int) bool { return c >= 0 })), nil
	case sqlparse.OpAdd:
		return value.Arith('+', lv, rv)
	case sqlparse.OpSub:
		return value.Arith('-', lv, rv)
	case sqlparse.OpMul:
		return value.Arith('*', lv, rv)
	case sqlparse.OpDiv:
		return value.Arith('/', lv, rv)
	case sqlparse.OpMod:
		return value.Arith('%', lv, rv)
	case sqlparse.OpConcat:
		if lv.IsNull() || rv.IsNull() {
			return value.Null, nil
		}
		return value.Text(asString(lv) + asString(rv)), nil
	case sqlparse.OpLike:
		if lv.IsNull() || rv.IsNull() {
			return value.Null, nil
		}
		return value.Bool(likeMatch(asString(lv), asString(rv))), nil
	default:
		return value.Null, fmt.Errorf("sql: unsupported binary operator")
	}
}

// plainEqual decides whether two TEXT values, or two INTEGER values, are
// equal, which is what Compare would say, without its three-way compare.
// ok is false for any other pair of kinds, NULL included.
func plainEqual(a, b value.Value) (eq, ok bool) {
	switch k := a.Kind(); {
	case k != b.Kind():
		return false, false
	case k == value.KindText:
		return a.AsText() == b.AsText(), true
	case k == value.KindInt:
		return a.AsInt() == b.AsInt(), true
	}
	return false, false
}

func asString(v value.Value) string {
	if v.Kind() == value.KindText {
		return v.AsText()
	}
	return v.Display()
}

// likeMatch implements SQL LIKE: % matches any run, _ matches one character.
// Matching is case-sensitive, byte-oriented.
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer algorithm with backtracking on the last %.
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func evalIn(e *env, x *sqlparse.InExpr) (value.Value, error) {
	v, err := eval(e, x.Operand)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := eval(e, item)
		if err != nil {
			return value.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if value.Compare(v, iv) == 0 {
			return value.Bool(!x.Negate), nil
		}
	}
	if sawNull {
		return value.Null, nil
	}
	return value.Bool(x.Negate), nil
}

func evalBetween(e *env, x *sqlparse.BetweenExpr) (value.Value, error) {
	v, err := eval(e, x.Operand)
	if err != nil {
		return value.Null, err
	}
	lo, err := eval(e, x.Lo)
	if err != nil {
		return value.Null, err
	}
	hi, err := eval(e, x.Hi)
	if err != nil {
		return value.Null, err
	}
	ge := value.CompareSQL(v, lo, func(c int) bool { return c >= 0 })
	le := value.CompareSQL(v, hi, func(c int) bool { return c <= 0 })
	res := ge.And(le)
	if x.Negate {
		res = res.Not()
	}
	return triToValue(res), nil
}

func evalScalarFunc(e *env, x *sqlparse.FuncCall) (value.Value, error) {
	argv := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := eval(e, a)
		if err != nil {
			return value.Null, err
		}
		argv[i] = v
	}
	need := func(n int) error {
		if len(argv) != n {
			return fmt.Errorf("sql: %s expects %d argument(s), got %d", x.Name, n, len(argv))
		}
		return nil
	}
	switch x.Name {
	case "UPPER":
		if err := need(1); err != nil {
			return value.Null, err
		}
		if argv[0].IsNull() {
			return value.Null, nil
		}
		return value.Text(strings.ToUpper(asString(argv[0]))), nil
	case "LOWER":
		if err := need(1); err != nil {
			return value.Null, err
		}
		if argv[0].IsNull() {
			return value.Null, nil
		}
		return value.Text(strings.ToLower(asString(argv[0]))), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return value.Null, err
		}
		if argv[0].IsNull() {
			return value.Null, nil
		}
		return value.Int(int64(len(asString(argv[0])))), nil
	case "ABS":
		if err := need(1); err != nil {
			return value.Null, err
		}
		v := argv[0]
		switch v.Kind() {
		case value.KindNull:
			return value.Null, nil
		case value.KindInt:
			if v.AsInt() < 0 {
				return value.Int(-v.AsInt()), nil
			}
			return v, nil
		case value.KindFloat:
			if v.AsFloat() < 0 {
				return value.Float(-v.AsFloat()), nil
			}
			return v, nil
		default:
			return value.Null, fmt.Errorf("sql: ABS of non-numeric %s", v.Kind())
		}
	case "COALESCE":
		for _, v := range argv {
			if !v.IsNull() {
				return v, nil
			}
		}
		return value.Null, nil
	case "SUBSTR":
		if len(argv) != 2 && len(argv) != 3 {
			return value.Null, fmt.Errorf("sql: SUBSTR expects 2 or 3 arguments")
		}
		if argv[0].IsNull() || argv[1].IsNull() {
			return value.Null, nil
		}
		s := asString(argv[0])
		start := int(argv[1].AsInt()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return value.Text(""), nil
		}
		end := len(s)
		if len(argv) == 3 && !argv[2].IsNull() {
			if n := int(argv[2].AsInt()); start+n < end {
				end = start + n
			}
		}
		if end < start {
			end = start
		}
		return value.Text(s[start:end]), nil
	default:
		return value.Null, fmt.Errorf("sql: unknown function %s", x.Name)
	}
}
