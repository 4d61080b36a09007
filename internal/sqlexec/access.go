package sqlexec

import (
	"math"
	"slices"

	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file reads one source: choosing its access path for one execution,
// then walking it. Order is a property of the path. A walk yields rows in
// its key order, forward or in reverse, so a select whose ORDER BY the path
// already yields skips the sort, and its LIMIT stops the walk (see
// accessPath.order and runSelectPlan).

// pathKind is the shape of an access path.
type pathKind uint8

const (
	pathFull  pathKind = iota // every row, in primary-key order
	pathPoint                 // one primary-key lookup
	pathPK                    // a primary-key prefix and/or range
	pathIndex                 // a secondary-index prefix and/or range
)

// accessPath is how one execution reads a source. Its eqLen leading key
// columns are pinned by equality bounds. lo and hi bound the walked keys
// ([lo, hi), hi == "" unbounded); for a point lookup lo is the key itself.
// pickPath decides kind, ix and eqLen; choosePath binds lo and hi.
type accessPath struct {
	kind   pathKind
	ix     *schema.Index // pathIndex only
	eqLen  int
	lo, hi string
}

// pickPath chooses a source's access path given which columns carry an
// equality bound. Priority: primary-key point lookup, primary-key prefix,
// secondary-index equality prefix, primary-key range, secondary-index
// range, full scan. Index walks merge the transaction's buffered writes
// with committed postings (Txn.IndexScanDir), so they stay correct when the
// transaction has local writes on the table, and they record a precise
// index-key range for OCC validation.
func pickPath(s *planSource, bound func(col int) bool) accessPath {
	pkLen := 0
	for _, c := range s.tbl.PKCols {
		if !bound(c) {
			break
		}
		pkLen++
	}
	if pkLen == len(s.tbl.PKCols) {
		return accessPath{kind: pathPoint, eqLen: pkLen}
	}
	if pkLen > 0 {
		return accessPath{kind: pathPK, eqLen: pkLen}
	}
	ix, eqLen := pickPlanIndex(s, bound)
	switch {
	case ix != nil && eqLen > 0:
		// A selective index equality lookup beats a PK range scan (e.g.
		// "WHERE id > cursor AND email = ?" should probe the email index).
		return accessPath{kind: pathIndex, ix: ix, eqLen: eqLen}
	case s.hasRangeOn(s.tbl.PKCols[0]):
		return accessPath{kind: pathPK}
	case ix != nil:
		return accessPath{kind: pathIndex, ix: ix}
	}
	return accessPath{kind: pathFull}
}

// choosePath evaluates the source's planned equality bounds against the
// statement arguments, picks the path they allow and binds its key
// interval.
func (ex *Executor) choosePath(s *planSource) (accessPath, error) {
	// The bound values, at most one per column (extractBounds), found by a
	// linear search: a select has few.
	type colValue struct {
		col int
		v   value.Value
	}
	var small [8]colValue
	bounds := small[:0]
	find := func(col int) int {
		for i, b := range bounds {
			if b.col == col {
				return i
			}
		}
		return -1
	}
	for _, b := range s.eqBounds {
		v, err := eval(&env{args: ex.Args}, b.expr)
		if err != nil {
			return accessPath{}, err
		}
		coerced, err := schema.Coerce(v, s.tbl.Columns[b.col].Type)
		if err != nil {
			// Type-incompatible constant: the filter can never match, but the
			// residual predicate keeps semantics SQL-like without a bound.
			continue
		}
		bounds = append(bounds, colValue{b.col, coerced})
	}
	path := pickPath(s, func(col int) bool { return find(col) >= 0 })
	if path.kind == pathFull {
		return path, nil
	}
	keyCols := s.tbl.PKCols
	if path.kind == pathIndex {
		keyCols = path.ix.Columns
	}
	var prefix string
	if path.eqLen > 0 {
		buf := make([]byte, 0, 48)
		for _, c := range keyCols[:path.eqLen] {
			buf = value.EncodeKey(buf, bounds[find(c)].v)
		}
		prefix = string(buf)
	}
	if path.kind == pathPoint {
		path.lo = prefix
		return path, nil
	}
	var err error
	path.lo, path.hi, err = ex.rangeKeyBounds(s, keyCols, path.eqLen, prefix)
	return path, err
}

// order reports whether walking the path yields rows sorted by cols, all
// ascending or, with desc, all descending, and which way to walk for it.
//
// A walk yields its key order: the primary key, or the index columns
// followed (for a non-unique index) by the primary key. Columns pinned by
// the equality prefix, or repeated from earlier in the key, never break a
// tie, so cols must match the key columns that remain, from the first on.
// A reverse walk would also reverse the order of rows that tie on cols,
// which the sort keeps in forward scan order; it is taken only when cols
// run to the end of the key, where no two rows tie. A point lookup yields
// at most one row, and so any order.
func (p accessPath) order(tbl *schema.Table, cols []int, desc bool) (storage.Direction, bool) {
	if p.kind == pathPoint {
		return storage.Ascending, true
	}
	key := make([]int, 0, 8)
	if p.kind == pathIndex {
		key = append(key, p.ix.Columns...)
		if !p.ix.Unique {
			key = append(key, tbl.PKCols...)
		}
	} else {
		key = append(key, tbl.PKCols...)
	}
	n := 0 // cols matched so far
	for i, c := range key {
		if i < p.eqLen || slices.Contains(key[:i], c) {
			continue
		}
		if n == len(cols) {
			// The key goes on past cols: rows may tie on cols.
			return storage.Ascending, !desc
		}
		if cols[n] != c {
			return 0, false
		}
		n++
	}
	if n < len(cols) {
		return 0, false
	}
	if desc {
		return storage.Descending, true
	}
	return storage.Ascending, true
}

// walk streams the rows of the path that pass the source's pushed filters
// into fn, in dir's key order, reporting each to read provenance. fn
// receives the physical row and returns false to stop.
func (ex *Executor) walk(s *planSource, slots map[*sqlparse.ColumnRef]int, path accessPath, dir storage.Direction, fn func(value.Row) (bool, error)) error {
	fe := env{cols: s.cols, args: ex.Args, slots: slots}
	emit := func(row value.Row) (bool, error) {
		if len(s.residual) > 0 {
			fe.vals = row
			for _, f := range s.residual {
				ok, err := evalPredicate(&fe, f)
				if err != nil {
					return false, err
				}
				if !ok {
					return true, nil
				}
			}
		}
		ex.observeRead(s.tbl.Name, row)
		return fn(row)
	}
	if path.kind == pathPoint {
		row, found, err := ex.Tx.Get(s.tbl.Name, path.lo)
		if err != nil || !found {
			return err
		}
		_, err = emit(row)
		return err
	}
	var innerErr error
	visit := func(_ string, row value.Row) bool {
		cont, err := emit(row)
		if err != nil {
			innerErr = err
			return false
		}
		return cont
	}
	var err error
	if path.kind == pathIndex {
		err = ex.Tx.IndexScanDir(s.tbl, path.ix, path.lo, path.hi, dir, visit)
	} else {
		err = ex.Tx.ScanDir(s.tbl.Name, path.lo, path.hi, dir, visit)
	}
	if innerErr != nil {
		return innerErr
	}
	return err
}

// scanPlanSource streams the source's rows (after pushed filters) into fn
// along the path chosen for this execution, in its forward key order.
func (ex *Executor) scanPlanSource(s *planSource, slots map[*sqlparse.ColumnRef]int, fn func(value.Row) (bool, error)) error {
	path, err := ex.choosePath(s)
	if err != nil {
		return err
	}
	return ex.walk(s, slots, path, storage.Ascending, fn)
}

// hasRangeOn reports whether a range bound was planned on column col.
func (s *planSource) hasRangeOn(col int) bool {
	for _, r := range s.ranges {
		if r.col == col {
			return true
		}
	}
	return false
}

// hasEqOn reports whether an equality bound was planned on column col.
func (s *planSource) hasEqOn(col int) bool {
	for _, b := range s.eqBounds {
		if b.col == col {
			return true
		}
	}
	return false
}

// rangeKeyBounds computes the [lo, hi) key interval for a scan over keyCols
// with an encoded equality prefix of prefixLen columns, narrowing it with any
// range bounds planned on the next key column. hi == "" means unbounded.
// Bounds are conservative: every row matching the source predicates lies
// inside the interval (the residual filters decide exactly).
func (ex *Executor) rangeKeyBounds(s *planSource, keyCols []int, prefixLen int, prefix string) (string, string, error) {
	lo := prefix
	hi := ""
	if prefix != "" {
		hi = prefix + "\xff"
	}
	if prefixLen >= len(keyCols) {
		return lo, hi, nil
	}
	next := keyCols[prefixLen]
	for _, r := range s.ranges {
		if r.col != next {
			continue
		}
		v, err := eval(&env{args: ex.Args}, r.expr)
		if err != nil {
			return "", "", err
		}
		coerced, err := schema.Coerce(v, s.tbl.Columns[next].Type)
		if err != nil || coerced.IsNull() {
			continue // residual filter decides; no narrowing possible
		}
		if coerced.Kind() == value.KindFloat && math.IsNaN(coerced.AsFloat()) {
			continue // NaN does not order; leave the interval alone
		}
		enc := prefix + string(value.EncodeKey(nil, coerced))
		switch r.op {
		case sqlparse.OpGt:
			// Every key whose column equals the bound starts with enc and
			// continues with a tag byte < 0xff, so enc+"\xff" skips them all.
			if cand := enc + "\xff"; cand > lo {
				lo = cand
			}
		case sqlparse.OpGe:
			if enc > lo {
				lo = enc
			}
		case sqlparse.OpLt:
			if hi == "" || enc < hi {
				hi = enc
			}
		case sqlparse.OpLe:
			if cand := enc + "\xff"; hi == "" || cand < hi {
				hi = cand
			}
		}
	}
	return lo, hi, nil
}

// pickPlanIndex chooses the secondary index with the longest equality
// prefix, falling back to an index whose first column carries a range bound.
func pickPlanIndex(s *planSource, bound func(col int) bool) (*schema.Index, int) {
	var best *schema.Index
	bestLen := 0
	for _, ix := range s.indexes {
		n := 0
		for _, c := range ix.Columns {
			if !bound(c) {
				break
			}
			n++
		}
		if n > bestLen {
			best, bestLen = ix, n
		}
	}
	if best != nil {
		return best, bestLen
	}
	for _, ix := range s.indexes {
		if s.hasRangeOn(ix.Columns[0]) {
			return ix, 0
		}
	}
	return nil, 0
}
