// Package schema defines table schemas and row-level helpers shared by the
// storage engine and the SQL executor: column metadata, primary-key
// extraction and encoding, type checking, and coercion.
package schema

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    value.Kind
	NotNull bool
}

// Table describes a table: its columns and primary key. Column order is the
// physical row order.
type Table struct {
	Name    string
	Columns []Column
	// PKCols are indices into Columns forming the primary key, in key order.
	PKCols []int

	// colIndex maps lowercased column name to position.
	colIndex map[string]int
}

// NewTable validates and constructs a Table. Every table needs at least one
// column and a non-empty primary key whose columns are NOT NULL.
func NewTable(name string, cols []Column, pk []string) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: table %q has no columns", name)
	}
	t := &Table{Name: name, Columns: cols, colIndex: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := t.colIndex[key]; dup {
			return nil, fmt.Errorf("schema: table %q has duplicate column %q", name, c.Name)
		}
		t.colIndex[key] = i
	}
	if len(pk) == 0 {
		return nil, fmt.Errorf("schema: table %q has no primary key", name)
	}
	seen := make(map[int]bool, len(pk))
	for _, pc := range pk {
		idx, ok := t.colIndex[strings.ToLower(pc)]
		if !ok {
			return nil, fmt.Errorf("schema: table %q primary key references unknown column %q", name, pc)
		}
		if seen[idx] {
			return nil, fmt.Errorf("schema: table %q primary key repeats column %q", name, pc)
		}
		seen[idx] = true
		t.Columns[idx].NotNull = true
		t.PKCols = append(t.PKCols, idx)
	}
	return t, nil
}

// ColumnIndex returns the position of the named column (case-insensitive) or
// -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	if idx, ok := t.colIndex[strings.ToLower(name)]; ok {
		return idx
	}
	return -1
}

// ColumnNames returns the column names in physical order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// IsPKColumn reports whether column index i participates in the primary key.
func (t *Table) IsPKColumn(i int) bool {
	for _, p := range t.PKCols {
		if p == i {
			return true
		}
	}
	return false
}

// PrimaryKey extracts the primary-key tuple from a physical row.
func (t *Table) PrimaryKey(row value.Row) value.Row {
	key := make(value.Row, len(t.PKCols))
	for i, c := range t.PKCols {
		key[i] = row[c]
	}
	return key
}

// AppendPrimaryKey appends the order-preserving key bytes for a row to dst.
func (t *Table) AppendPrimaryKey(dst []byte, row value.Row) []byte {
	for _, c := range t.PKCols {
		dst = value.EncodeKey(dst, row[c])
	}
	return dst
}

// EncodePrimaryKey returns the order-preserving key bytes for a row.
func (t *Table) EncodePrimaryKey(row value.Row) string {
	return string(t.AppendPrimaryKey(nil, row))
}

// EncodeKeyTuple encodes an already-extracted key tuple.
func EncodeKeyTuple(key value.Row) string {
	return string(value.EncodeKeyRow(nil, key))
}

// CheckRow validates a physical row against the schema: arity, NOT NULL, and
// type compatibility (with int→float widening). It returns a possibly
// coerced copy of the row.
func (t *Table) CheckRow(row value.Row) (value.Row, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("schema: table %q expects %d columns, got %d", t.Name, len(t.Columns), len(row))
	}
	out := row.Clone()
	for i, col := range t.Columns {
		v, err := Coerce(row[i], col.Type)
		if err != nil {
			return nil, fmt.Errorf("schema: table %q column %q: %w", t.Name, col.Name, err)
		}
		if v.IsNull() && col.NotNull {
			return nil, fmt.Errorf("schema: table %q column %q is NOT NULL", t.Name, col.Name)
		}
		out[i] = v
	}
	return out, nil
}

// Coerce converts v to the target kind where SQL allows it: exact match,
// NULL into any nullable slot, int→float widening, int 0/1→bool, and
// bool→int. Anything else is a type error.
func Coerce(v value.Value, target value.Kind) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	if v.Kind() == target {
		return v, nil
	}
	switch {
	case target == value.KindFloat && v.Kind() == value.KindInt:
		return value.Float(float64(v.AsInt())), nil
	case target == value.KindInt && v.Kind() == value.KindFloat:
		f := v.AsFloat()
		if f == float64(int64(f)) {
			return value.Int(int64(f)), nil
		}
		return value.Null, fmt.Errorf("cannot store non-integral FLOAT %v in INTEGER", f)
	case target == value.KindBool && v.Kind() == value.KindInt:
		switch v.AsInt() {
		case 0:
			return value.Bool(false), nil
		case 1:
			return value.Bool(true), nil
		}
		return value.Null, fmt.Errorf("cannot store INTEGER %d in BOOL", v.AsInt())
	case target == value.KindInt && v.Kind() == value.KindBool:
		if v.AsBool() {
			return value.Int(1), nil
		}
		return value.Int(0), nil
	default:
		return value.Null, fmt.Errorf("cannot store %s in %s", v.Kind(), target)
	}
}

// Clone returns a deep copy of the table definition (schemas are immutable
// once installed, but catalog snapshots copy defensively).
func (t *Table) Clone() *Table {
	cols := make([]Column, len(t.Columns))
	copy(cols, t.Columns)
	pk := make([]int, len(t.PKCols))
	copy(pk, t.PKCols)
	idx := make(map[string]int, len(t.colIndex))
	for k, v := range t.colIndex {
		idx[k] = v
	}
	return &Table{Name: t.Name, Columns: cols, PKCols: pk, colIndex: idx}
}

// String renders the schema as a CREATE TABLE statement.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE %s (", t.Name)
	for i, c := range t.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", c.Name, c.Type)
		if c.NotNull && !t.IsPKColumn(i) {
			sb.WriteString(" NOT NULL")
		}
	}
	sb.WriteString(", PRIMARY KEY (")
	for i, p := range t.PKCols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Columns[p].Name)
	}
	sb.WriteString("))")
	return sb.String()
}

// Index describes a secondary index over a table.
type Index struct {
	Name    string
	Table   string
	Columns []int // positions in the table's physical row
	Unique  bool
}

// AppendIndexKey appends the index key for a row to dst: the indexed column
// values (order-preserving) followed, for non-unique indexes, by the primary
// key to disambiguate duplicates.
func (ix *Index) AppendIndexKey(dst []byte, t *Table, row value.Row) []byte {
	for _, c := range ix.Columns {
		dst = value.EncodeKey(dst, row[c])
	}
	if !ix.Unique {
		dst = t.AppendPrimaryKey(dst, row)
	}
	return dst
}

// EncodeIndexKey returns the index key AppendIndexKey builds.
func (ix *Index) EncodeIndexKey(t *Table, row value.Row) string {
	return string(ix.AppendIndexKey(nil, t, row))
}

// EncodeIndexPrefix encodes a prefix of the indexed columns for range scans.
func (ix *Index) EncodeIndexPrefix(vals value.Row) string {
	var buf []byte
	for _, v := range vals {
		buf = value.EncodeKey(buf, v)
	}
	return string(buf)
}
