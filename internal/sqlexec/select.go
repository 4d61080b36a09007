package sqlexec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// Result is the output of a statement.
type Result struct {
	Columns      []string
	Rows         []value.Row
	RowsAffected int
}

// ReadFn observes read provenance: it is invoked once per base-table row
// that a statement actually read (i.e. that survived the filters pushed to
// that table's scan). The TROD interposition layer installs it.
type ReadFn func(table string, row value.Row)

// Executor runs statements inside one transaction.
type Executor struct {
	Tx     *txn.Txn
	Store  *storage.Store
	Args   []value.Value
	OnRead ReadFn

	// keyBuf is reused scratch for join key encoding; it keeps the hot loops
	// free of per-row string concatenation. A partition's worker has an
	// executor, and so a keyBuf, of its own.
	keyBuf []byte
	// parts is how many partitions the last select read its first source
	// in.
	parts int
}

func (ex *Executor) observeRead(table string, row value.Row) {
	if ex.OnRead != nil {
		ex.OnRead(table, row)
	}
}

// errStopIteration is the sink's signal that enough rows were produced
// (LIMIT reached); it stops the pipeline without reporting an error.
var errStopIteration = errors.New("sqlexec: stop iteration")

// splitConjuncts flattens an AND tree.
func splitConjuncts(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == sqlparse.OpAnd {
		out = splitConjuncts(b.Left, out)
		return splitConjuncts(b.Right, out)
	}
	if e != nil {
		out = append(out, e)
	}
	return out
}

// --- joins -----------------------------------------------------------------------

// equiPair is a hash-joinable condition left.col = right.col.
type equiPair struct {
	leftPos  int  // slot in accumulated tuple
	rightPos int  // column in right source row
	exactInt bool // both columns are INTEGER: keys are the exact integers
}

// extractEquiPairs finds hash-joinable conds among joinConds; the remainder
// are residual conditions.
func extractEquiPairs(conds []sqlparse.Expr, leftCols []colInfo, s *planSource) ([]equiPair, []sqlparse.Expr) {
	var pairs []equiPair
	var residual []sqlparse.Expr
	findLeft := func(ref *sqlparse.ColumnRef) int {
		tbl := strings.ToLower(ref.Table)
		col := strings.ToLower(ref.Column)
		found := -1
		for i, c := range leftCols {
			if c.column == col && (tbl == "" || c.source == tbl) {
				if found >= 0 {
					return -1 // ambiguous
				}
				found = i
			}
		}
		return found
	}
	findRight := func(ref *sqlparse.ColumnRef) int {
		if ref.Table != "" && strings.ToLower(ref.Table) != s.alias {
			return -1
		}
		return s.tbl.ColumnIndex(ref.Column)
	}
	for _, c := range conds {
		b, ok := c.(*sqlparse.BinaryExpr)
		if !ok || b.Op != sqlparse.OpEq {
			residual = append(residual, c)
			continue
		}
		lr, lok := b.Left.(*sqlparse.ColumnRef)
		rr, rok := b.Right.(*sqlparse.ColumnRef)
		if !lok || !rok {
			residual = append(residual, c)
			continue
		}
		// Try (left=accumulated, right=new source) then the reverse.
		pair := func(lp, rp int) equiPair {
			exact := leftCols[lp].kind == value.KindInt && s.tbl.Columns[rp].Type == value.KindInt
			return equiPair{leftPos: lp, rightPos: rp, exactInt: exact}
		}
		if lp, rp := findLeft(lr), findRight(rr); lp >= 0 && rp >= 0 {
			pairs = append(pairs, pair(lp, rp))
			continue
		}
		if lp, rp := findLeft(rr), findRight(lr); lp >= 0 && rp >= 0 {
			pairs = append(pairs, pair(lp, rp))
			continue
		}
		residual = append(residual, c)
	}
	return pairs, residual
}

// lookupJoinThreshold caps the driving-side size for index-nested-loop
// joins; beyond it a hash join's single scan wins.
const lookupJoinThreshold = 1024

// pkLookupPlan returns, when the equi-join pairs cover the right table's
// full primary key, the PK column positions in pair order; otherwise nil.
func pkLookupPlan(pairs []equiPair, s *planSource) []equiPair {
	if len(pairs) == 0 {
		return nil
	}
	covered := make(map[int]bool, len(pairs))
	for _, p := range pairs {
		covered[p.rightPos] = true
	}
	if len(covered) != len(s.tbl.PKCols) {
		return nil
	}
	// Order pairs to match PK column order for key encoding.
	ordered := make([]equiPair, 0, len(s.tbl.PKCols))
	for _, pkCol := range s.tbl.PKCols {
		found := false
		for _, p := range pairs {
			if p.rightPos == pkCol {
				ordered = append(ordered, p)
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	// Two conjuncts targeting the same PK column (a.x = t.id AND a.y = t.id)
	// would leave one unevaluated on the lookup path; fall back to the hash
	// join, which checks every pair.
	if len(ordered) != len(pairs) {
		return nil
	}
	return ordered
}

// encodePairKey appends the hash-join key for row's pair columns into buf;
// left selects leftPos (accumulated tuple) vs rightPos (right-source row).
// ok is false when any key value is NULL (NULL never equi-joins).
//
// Two values share a key exactly when value.Compare calls them equal. An
// INTEGER = INTEGER pair keys the exact integers. Any other pair keys a
// number by the float image Compare compares, so the INTEGER 1 meets the
// REAL 1.0; EncodeKey gives both zeros one key and every NaN one key.
func encodePairKey(buf []byte, row value.Row, pairs []equiPair, left bool) ([]byte, bool) {
	for _, p := range pairs {
		pos := p.rightPos
		if left {
			pos = p.leftPos
		}
		v := row[pos]
		if v.IsNull() {
			return buf, false
		}
		if v.Kind() == value.KindInt && !p.exactInt {
			v = value.Float(v.AsFloat())
		}
		buf = value.EncodeKey(buf, v)
	}
	return buf, true
}

// joinTuple concatenates left and right into one exactly-sized tuple.
func joinTuple(left, right value.Row) value.Row {
	tup := make(value.Row, 0, len(left)+len(right))
	return append(append(tup, left...), right...)
}

// sourceWalk is the first source's access path and walk direction, when
// they were chosen before the pipeline ran.
type sourceWalk struct {
	path accessPath
	dir  storage.Direction
}

// runPlan executes the compiled join/filter pipeline, folding its final
// tuples into out. out may return errStopIteration to end the pipeline
// early (LIMIT).
//
// The first source is read along w, or along the path chosen for it here,
// forward, when w is nil, in up to n key-range partitions (see splitKeys
// and scanParts). A single-source select folds each partition into a sink
// of out's kind. A join collects its left side from the partitions, then
// joins it and folds the joined tuples into out.
func (ex *Executor) runPlan(p *selectPlan, w *sourceWalk, n int, out sink) error {
	if p.fromless {
		// FROM-less SELECT: a single empty tuple.
		ex.parts = 1
		if err := out.add(&env{args: ex.Args, slots: p.slots}); err != nil && err != errStopIteration {
			return err
		}
		return nil
	}
	s0 := p.sources[0]
	var path0 accessPath
	dir0 := storage.Ascending
	if w != nil {
		path0, dir0 = w.path, w.dir
	} else {
		var err error
		if path0, err = ex.choosePath(s0); err != nil {
			return err
		}
	}
	keys := ex.splitKeys(s0, path0, n)
	ex.parts = len(keys) + 1

	if len(p.joins) == 0 {
		return ex.scanParts(p, path0, dir0, keys, out)
	}

	// Materialise the left side progressively. Starting tuples: source 0
	// rows.
	left := &tupleSink{}
	if err := ex.scanParts(p, path0, dir0, keys, left); err != nil {
		return err
	}
	tuples := left.tuples

	for _, step := range p.joins {
		var err error
		if step.src.joinKind == sqlparse.JoinLeft {
			tuples, err = ex.leftJoinStep(step, tuples, p.slots)
		} else {
			tuples, err = ex.innerJoinStep(step, tuples, p.slots)
		}
		if err != nil {
			return err
		}
		if len(step.post) > 0 {
			pe := env{cols: step.newCols, args: ex.Args, slots: p.slots}
			kept := tuples[:0]
			for _, tup := range tuples {
				pe.vals = tup
				keep := true
				for _, f := range step.post {
					ok, err := evalPredicate(&pe, f)
					if err != nil {
						return err
					}
					if !ok {
						keep = false
						break
					}
				}
				if keep {
					kept = append(kept, tup)
				}
			}
			tuples = kept
		}
	}

	fe := env{cols: p.cols, args: ex.Args, slots: p.slots}
	for _, tup := range tuples {
		fe.vals = tup
		if err := out.add(&fe); err != nil {
			if err == errStopIteration {
				return nil
			}
			return err
		}
	}
	return nil
}

func (ex *Executor) innerJoinStep(step *joinStep, tuples []value.Row, slots map[*sqlparse.ColumnRef]int) ([]value.Row, error) {
	s := step.src

	// Index-nested-loop join: when the accumulated side is small and the
	// join key is the right table's primary key, fetch matches with point
	// lookups instead of scanning the right table (this is what makes the
	// paper's provenance queries independent of log size).
	if step.pkLookup != nil &&
		len(tuples) <= lookupJoinThreshold &&
		len(tuples)*4 < ex.Store.ApproxRows(s.tbl.Name) &&
		len(s.residual) == 0 {
		return ex.lookupJoinStep(step, tuples, slots)
	}

	re := env{cols: step.newCols, args: ex.Args, slots: slots}
	evalResidual := func(tup value.Row) (bool, error) {
		re.vals = tup
		for _, f := range step.residual {
			ok, err := evalPredicate(&re, f)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}

	var out []value.Row
	if len(step.pairs) > 0 {
		// Hash join: build on the right source, probe with the accumulated
		// tuples. Keys are encoded into a reused buffer; map lookups with
		// string(buf) do not allocate.
		build := make(map[string][]value.Row)
		buf := ex.keyBuf
		if err := ex.scanPlanSource(s, slots, func(row value.Row) (bool, error) {
			var ok bool
			buf, ok = encodePairKey(buf[:0], row, step.pairs, false)
			if !ok {
				return true, nil // NULL never equi-joins
			}
			k := string(buf)
			build[k] = append(build[k], row)
			return true, nil
		}); err != nil {
			return nil, err
		}
		for _, left := range tuples {
			var ok bool
			buf, ok = encodePairKey(buf[:0], left, step.pairs, true)
			if !ok {
				continue
			}
			for _, right := range build[string(buf)] {
				tup := joinTuple(left, right)
				ok, err := evalResidual(tup)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, tup)
				}
			}
		}
		ex.keyBuf = buf
		return out, nil
	}

	// Nested loop: materialise right side once.
	var rights []value.Row
	if err := ex.scanPlanSource(s, slots, func(row value.Row) (bool, error) {
		rights = append(rights, row)
		return true, nil
	}); err != nil {
		return nil, err
	}
	for _, left := range tuples {
		for _, right := range rights {
			tup := joinTuple(left, right)
			ok, err := evalResidual(tup)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, tup)
			}
		}
	}
	return out, nil
}

// lookupJoinStep probes the right table by primary key for each accumulated
// tuple. The right source must have no pushed-down filters (they would
// otherwise be skipped); residual conditions still apply.
func (ex *Executor) lookupJoinStep(step *joinStep, tuples []value.Row, slots map[*sqlparse.ColumnRef]int) ([]value.Row, error) {
	s := step.src
	var out []value.Row
	keyVals := make(value.Row, len(step.pkLookup))
	re := env{cols: step.newCols, args: ex.Args, slots: slots}
	buf := ex.keyBuf
	for _, left := range tuples {
		null := false
		for i, p := range step.pkLookup {
			v := left[p.leftPos]
			if v.IsNull() {
				null = true
				break
			}
			coerced, err := schema.Coerce(v, s.tbl.Columns[p.rightPos].Type)
			if err != nil {
				null = true // incompatible type can never equi-match
				break
			}
			keyVals[i] = coerced
		}
		if null {
			continue
		}
		buf = value.EncodeKeyRow(buf[:0], keyVals)
		row, found, err := ex.Tx.Get(s.tbl.Name, string(buf))
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		ex.observeRead(s.tbl.Name, row)
		tup := joinTuple(left, row)
		re.vals = tup
		keep := true
		for _, f := range step.residual {
			ok, err := evalPredicate(&re, f)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, tup)
		}
	}
	ex.keyBuf = buf
	return out, nil
}

func (ex *Executor) leftJoinStep(step *joinStep, tuples []value.Row, slots map[*sqlparse.ColumnRef]int) ([]value.Row, error) {
	// LEFT JOIN: the ON conjuncts decide matching; unmatched left tuples are
	// null-extended. WHERE conjuncts that became ready here (step.post) are
	// applied by the caller after null extension.
	s := step.src

	var rights []value.Row
	var build map[string][]value.Row
	buf := ex.keyBuf
	if len(step.pairs) > 0 {
		build = make(map[string][]value.Row)
	}
	if err := ex.scanPlanSource(s, slots, func(row value.Row) (bool, error) {
		if len(step.pairs) > 0 {
			var ok bool
			buf, ok = encodePairKey(buf[:0], row, step.pairs, false)
			if ok {
				k := string(buf)
				build[k] = append(build[k], row)
			}
			return true, nil
		}
		rights = append(rights, row)
		return true, nil
	}); err != nil {
		return nil, err
	}

	nulls := make(value.Row, len(s.cols))
	for i := range nulls {
		nulls[i] = value.Null
	}

	re := env{cols: step.newCols, args: ex.Args, slots: slots}
	matchResidual := func(tup value.Row) (bool, error) {
		re.vals = tup
		for _, f := range step.residual {
			ok, err := evalPredicate(&re, f)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}

	var joined []value.Row
	for _, left := range tuples {
		matched := false
		candidates := rights
		if len(step.pairs) > 0 {
			var ok bool
			buf, ok = encodePairKey(buf[:0], left, step.pairs, true)
			if !ok {
				candidates = nil
			} else {
				candidates = build[string(buf)]
			}
		}
		for _, right := range candidates {
			tup := joinTuple(left, right)
			ok, err := matchResidual(tup)
			if err != nil {
				return nil, err
			}
			if ok {
				joined = append(joined, tup)
				matched = true
			}
		}
		if !matched {
			joined = append(joined, joinTuple(left, nulls))
		}
	}
	ex.keyBuf = buf
	return joined, nil
}

// --- SELECT top level ---------------------------------------------------------

// Select executes a SELECT statement, compiling a transient plan. Callers
// with a plan cache use Run instead.
func (ex *Executor) Select(sel *sqlparse.Select) (*Result, error) {
	p, err := compileSelect(sel, ex.Store)
	if err != nil {
		return nil, err
	}
	return ex.runSelectPlan(p)
}

// runSelectPlan runs a select, reading its first source in as many
// partitions as it is worth splitting into (see partitions).
func (ex *Executor) runSelectPlan(p *selectPlan) (*Result, error) {
	return ex.runSelect(p, ex.partitions(p))
}

// runSelect runs a select, reading its first source in up to n partitions.
//
// A plan with no ORDER BY, grouping or DISTINCT streams. So does one whose
// ORDER BY the first source's access path yields (accessPath.order): it
// walks the path in that direction. A streamed LIMIT or OFFSET stops the
// walk, so it and a yielded order read one partition. Any other plan
// projects or groups its rows as they come, then sorts them and applies
// OFFSET and LIMIT. Aggregates whose partition states would not merge
// exactly (foldsInParts) read one partition.
func (ex *Executor) runSelect(p *selectPlan, n int) (*Result, error) {
	stream := p.streamable()
	var w *sourceWalk
	if !stream && p.orderCols != nil {
		path, err := ex.choosePath(p.sources[0])
		if err != nil {
			return nil, err
		}
		w = &sourceWalk{path: path}
		if dir, ok := path.order(p.sources[0].tbl, p.orderCols, p.orderDesc); ok {
			w.dir = dir
			stream = true
			n = 1
		}
	}

	if stream {
		off, lim, err := ex.evalLimitOffset(p.sel)
		if err != nil {
			return nil, err
		}
		if lim == 0 {
			return &Result{Columns: p.names}, nil
		}
		if off > 0 || lim > 0 {
			n = 1
		}
		out := &rowSink{p: p, off: off, lim: lim}
		if err := ex.runPlan(p, w, n, out); err != nil {
			return nil, err
		}
		return &Result{Columns: p.names, Rows: out.out}, nil
	}

	var out sink = &rowSink{p: p, sortKeys: true, lim: -1}
	if p.grouped {
		if !p.foldsInParts() {
			n = 1
		}
		out = newGroupSink(p)
	}
	if err := ex.runPlan(p, w, n, out); err != nil {
		return nil, err
	}
	rows, err := out.rows(ex.Args)
	if err != nil {
		return nil, err
	}
	if p.sel.Distinct {
		rows = distinctRows(rows, len(p.items))
	}
	if len(p.orderBy) > 0 {
		orderRows(p, rows)
	}
	off, lim, err := ex.evalLimitOffset(p.sel)
	if err != nil {
		return nil, err
	}
	if off >= len(rows) {
		rows = nil
	} else {
		rows = rows[off:]
	}
	if lim >= 0 && lim < len(rows) {
		rows = rows[:lim]
	}
	if len(p.sortItems) > 0 {
		for i, r := range rows {
			rows[i] = r[:len(p.items):len(p.items)]
		}
	}
	return &Result{Columns: p.names, Rows: rows}, nil
}

// expandItems resolves stars and computes output column names.
func expandItems(sel *sqlparse.Select, cols []colInfo) ([]sqlparse.Expr, []string, error) {
	var items []sqlparse.Expr
	var names []string
	for _, it := range sel.Items {
		if it.Star {
			starTbl := strings.ToLower(it.StarTable)
			matched := false
			for _, c := range cols {
				if starTbl != "" && c.source != starTbl {
					continue
				}
				items = append(items, &sqlparse.ColumnRef{Table: c.source, Column: c.column})
				names = append(names, c.column)
				matched = true
			}
			if !matched {
				return nil, nil, fmt.Errorf("sql: %s.* matches no table", it.StarTable)
			}
			continue
		}
		items = append(items, it.Expr)
		switch {
		case it.Alias != "":
			names = append(names, it.Alias)
		default:
			if ref, ok := it.Expr.(*sqlparse.ColumnRef); ok {
				names = append(names, ref.Column)
			} else {
				names = append(names, it.Expr.String())
			}
		}
	}
	return items, names, nil
}

// collectAggregates gathers aggregate FuncCall nodes from the projection,
// HAVING, and ORDER BY.
func collectAggregates(sel *sqlparse.Select, items []sqlparse.Expr) []*sqlparse.FuncCall {
	var aggs []*sqlparse.FuncCall
	visit := func(e sqlparse.Expr) {
		sqlparse.Walk(e, func(n sqlparse.Expr) {
			if fc, ok := n.(*sqlparse.FuncCall); ok && sqlparse.AggregateFuncs[fc.Name] {
				aggs = append(aggs, fc)
			}
		})
	}
	for _, it := range items {
		visit(it)
	}
	visit(sel.Having)
	for _, o := range sel.OrderBy {
		visit(o.Expr)
	}
	return aggs
}

// distinctRows keeps the first of the rows that agree on their first n
// columns, the select items, keyed as GROUP BY keys them.
func distinctRows(rows []value.Row, n int) []value.Row {
	seen := make(map[string]struct{}, len(rows))
	var buf []byte
	out := rows[:0]
	for _, r := range rows {
		buf = buf[:0]
		for _, v := range r[:n] {
			buf = appendGroupKey(buf, v)
		}
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// orderRows sorts projected rows in place, stably, by the compiled order
// keys: each reads its column of the row (orderPlan.col).
func orderRows(p *selectPlan, rows []value.Row) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, op := range p.orderBy {
			c := value.Compare(rows[a][op.col], rows[b][op.col])
			if c == 0 {
				continue
			}
			if op.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// evalLimitOffset evaluates the LIMIT and OFFSET expressions: offset is
// clamped at 0; limit -1 means unbounded.
func (ex *Executor) evalLimitOffset(sel *sqlparse.Select) (int, int, error) {
	off := 0
	lim := -1
	if sel.Offset != nil {
		v, err := ex.evalIntArg(sel.Offset)
		if err != nil {
			return 0, 0, err
		}
		if v > 0 {
			off = v
		}
	}
	if sel.Limit != nil {
		v, err := ex.evalIntArg(sel.Limit)
		if err != nil {
			return 0, 0, err
		}
		if v >= 0 {
			lim = v
		}
	}
	return off, lim, nil
}

func (ex *Executor) evalIntArg(e sqlparse.Expr) (int, error) {
	v, err := eval(&env{args: ex.Args}, e)
	if err != nil {
		return 0, err
	}
	if v.Kind() != value.KindInt {
		return 0, fmt.Errorf("sql: LIMIT/OFFSET must be an integer")
	}
	return int(v.AsInt()), nil
}
