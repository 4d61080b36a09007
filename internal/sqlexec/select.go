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

	// keyBuf is reused scratch for hash-join, grouping, and distinct key
	// encoding; it keeps the hot loops free of per-row string concatenation.
	keyBuf []byte
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
	leftPos  int // slot in accumulated tuple
	rightPos int // column in right source row
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
		if lp, rp := findLeft(lr), findRight(rr); lp >= 0 && rp >= 0 {
			pairs = append(pairs, equiPair{leftPos: lp, rightPos: rp})
			continue
		}
		if lp, rp := findLeft(rr), findRight(lr); lp >= 0 && rp >= 0 {
			pairs = append(pairs, equiPair{leftPos: lp, rightPos: rp})
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

// runPlan executes the compiled join/filter pipeline, streaming final tuples
// into sink. sink may return errStopIteration to end the pipeline early
// (LIMIT); the env passed to sink is valid only for the duration of the call.
// The first source is read along w, or along the path chosen for it here,
// forward, when w is nil.
func (ex *Executor) runPlan(p *selectPlan, w *sourceWalk, sink func(e *env) error) error {
	if p.fromless {
		// FROM-less SELECT: a single empty tuple.
		e := &env{args: ex.Args, slots: p.slots}
		if err := sink(e); err != nil && err != errStopIteration {
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
	stage0 := func(e *env) (bool, error) {
		for _, f := range p.stage0 {
			ok, err := evalPredicate(e, f)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}

	if len(p.joins) == 0 {
		// Single-source select: stream rows straight through the sink; LIMIT
		// can stop the scan itself.
		se := env{cols: s0.cols, args: ex.Args, slots: p.slots}
		return ex.walk(s0, p.slots, path0, dir0, func(row value.Row) (bool, error) {
			se.vals = row
			ok, err := stage0(&se)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
			if err := sink(&se); err != nil {
				if err == errStopIteration {
					return false, nil
				}
				return false, err
			}
			return true, nil
		})
	}

	// Materialise the left side progressively. Starting tuples: source 0 rows.
	var tuples []value.Row
	se := env{cols: s0.cols, args: ex.Args, slots: p.slots}
	if err := ex.walk(s0, p.slots, path0, dir0, func(row value.Row) (bool, error) {
		if len(p.stage0) > 0 {
			se.vals = row
			ok, err := stage0(&se)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
		}
		tuples = append(tuples, row)
		return true, nil
	}); err != nil {
		return err
	}

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
			out := tuples[:0]
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
					out = append(out, tup)
				}
			}
			tuples = out
		}
	}

	fe := env{cols: p.cols, args: ex.Args, slots: p.slots}
	for _, tup := range tuples {
		fe.vals = tup
		if err := sink(&fe); err != nil {
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

// runSelectPlan runs a select. A plan with no ORDER BY, grouping or
// DISTINCT streams. So does one whose ORDER BY the first source's access
// path yields (accessPath.order): it walks the path in that direction and
// LIMIT stops the walk. Any other plan buffers its rows, then sorts them
// and applies OFFSET and LIMIT.
func (ex *Executor) runSelectPlan(p *selectPlan) (*Result, error) {
	if p.streamable() {
		return ex.runStreaming(p, nil)
	}
	var w *sourceWalk
	if p.orderCols != nil {
		path, err := ex.choosePath(p.sources[0])
		if err != nil {
			return nil, err
		}
		w = &sourceWalk{path: path}
		if dir, ok := path.order(p.sources[0].tbl, p.orderCols, p.orderDesc); ok {
			w.dir = dir
			return ex.runStreaming(p, w)
		}
	}

	var tuples []*env
	if err := ex.runPlan(p, w, func(e *env) error {
		// Copy: the env backing is reused between sink calls.
		tuples = append(tuples, &env{cols: e.cols, vals: e.vals, args: e.args, slots: e.slots})
		return nil
	}); err != nil {
		return nil, err
	}

	var outRows []value.Row
	var outEnvs []*env // environment per output row, for ORDER BY fallback
	var err error

	if p.grouped {
		outRows, outEnvs, err = ex.aggregate(p, tuples)
		if err != nil {
			return nil, err
		}
	} else {
		for _, e := range tuples {
			row := make(value.Row, len(p.items))
			for i, it := range p.items {
				v, err := eval(e, it)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			outRows = append(outRows, row)
			outEnvs = append(outEnvs, e)
		}
	}

	if p.sel.Distinct {
		outRows, outEnvs = ex.distinct(outRows, outEnvs)
	}

	if len(p.orderBy) > 0 {
		if err := ex.orderRows(p, outRows, outEnvs); err != nil {
			return nil, err
		}
	}

	outRows, err = ex.applyLimitOffset(p.sel, outRows)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: p.names, Rows: outRows}, nil
}

// runStreaming projects rows as the pipeline produces them (no sort,
// grouping, or distinct pass), applying OFFSET/LIMIT incrementally so LIMIT
// can stop the underlying scan early. w is passed on to runPlan.
func (ex *Executor) runStreaming(p *selectPlan, w *sourceWalk) (*Result, error) {
	off, lim, err := ex.evalLimitOffset(p.sel)
	if err != nil {
		return nil, err
	}
	if lim == 0 {
		return &Result{Columns: p.names}, nil
	}
	var outRows []value.Row
	err = ex.runPlan(p, w, func(e *env) error {
		if off > 0 {
			off-- // skip before projecting: OFFSET rows are never evaluated
			return nil
		}
		row := make(value.Row, len(p.items))
		for i, it := range p.items {
			v, err := eval(e, it)
			if err != nil {
				return err
			}
			row[i] = v
		}
		outRows = append(outRows, row)
		if lim > 0 && len(outRows) >= lim {
			return errStopIteration
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Columns: p.names, Rows: outRows}, nil
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

// aggAccum is one aggregate's running state.
type aggAccum struct {
	count   int64
	sum     float64
	sumInt  int64
	allInt  bool
	min     value.Value
	max     value.Value
	seen    map[string]struct{} // DISTINCT
	started bool
}

// aggregate groups tuples and evaluates aggregate projections.
func (ex *Executor) aggregate(p *selectPlan, tuples []*env) ([]value.Row, []*env, error) {
	sel := p.sel
	type group struct {
		first  *env
		accums []*aggAccum
	}
	groups := make(map[string]*group)
	var order []string

	buf := ex.keyBuf
	for _, e := range tuples {
		buf = buf[:0]
		for _, g := range sel.GroupBy {
			v, err := eval(e, g)
			if err != nil {
				return nil, nil, err
			}
			buf = value.EncodeKey(buf, v)
		}
		grp, ok := groups[string(buf)]
		if !ok {
			k := string(buf)
			grp = &group{first: e, accums: make([]*aggAccum, len(p.aggNodes))}
			for i := range grp.accums {
				grp.accums[i] = &aggAccum{allInt: true}
			}
			groups[k] = grp
			order = append(order, k)
		}
		for i, node := range p.aggNodes {
			if err := accumulate(grp.accums[i], node, e); err != nil {
				return nil, nil, err
			}
		}
	}
	ex.keyBuf = buf

	// A grouped query with no GROUP BY and no input rows still yields one
	// row of aggregates over the empty set.
	if len(groups) == 0 && len(sel.GroupBy) == 0 {
		grp := &group{first: &env{cols: p.cols, vals: nullRow(len(p.cols)), args: ex.Args, slots: p.slots}, accums: make([]*aggAccum, len(p.aggNodes))}
		for i := range grp.accums {
			grp.accums[i] = &aggAccum{allInt: true}
		}
		groups[""] = grp
		order = append(order, "")
	}

	var outRows []value.Row
	var outEnvs []*env
	for _, k := range order {
		grp := groups[k]
		aggVals := make(map[*sqlparse.FuncCall]value.Value, len(p.aggNodes))
		for i, node := range p.aggNodes {
			aggVals[node] = finalize(grp.accums[i], node)
		}
		ge := &env{cols: grp.first.cols, vals: grp.first.vals, args: ex.Args, aggs: aggVals, slots: p.slots}
		if sel.Having != nil {
			ok, err := evalPredicate(ge, sel.Having)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		row := make(value.Row, len(p.items))
		for i, it := range p.items {
			v, err := eval(ge, it)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		outRows = append(outRows, row)
		outEnvs = append(outEnvs, ge)
	}
	return outRows, outEnvs, nil
}

func nullRow(n int) value.Row {
	r := make(value.Row, n)
	for i := range r {
		r[i] = value.Null
	}
	return r
}

func accumulate(a *aggAccum, node *sqlparse.FuncCall, e *env) error {
	if node.Star { // COUNT(*)
		a.count++
		return nil
	}
	if len(node.Args) != 1 {
		return fmt.Errorf("sql: %s expects one argument", node.Name)
	}
	v, err := eval(e, node.Args[0])
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	if node.Distinct {
		if a.seen == nil {
			a.seen = make(map[string]struct{})
		}
		k := string(value.EncodeKey(nil, v))
		if _, dup := a.seen[k]; dup {
			return nil
		}
		a.seen[k] = struct{}{}
	}
	a.count++
	switch node.Name {
	case "SUM", "AVG":
		switch v.Kind() {
		case value.KindInt:
			a.sumInt += v.AsInt()
			a.sum += float64(v.AsInt())
		case value.KindFloat:
			a.allInt = false
			a.sum += v.AsFloat()
		default:
			return fmt.Errorf("sql: %s over non-numeric %s", node.Name, v.Kind())
		}
	case "MIN":
		if !a.started || value.Compare(v, a.min) < 0 {
			a.min = v
		}
	case "MAX":
		if !a.started || value.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.started = true
	return nil
}

func finalize(a *aggAccum, node *sqlparse.FuncCall) value.Value {
	switch node.Name {
	case "COUNT":
		return value.Int(a.count)
	case "SUM":
		if a.count == 0 {
			return value.Null
		}
		if a.allInt {
			return value.Int(a.sumInt)
		}
		return value.Float(a.sum)
	case "AVG":
		if a.count == 0 {
			return value.Null
		}
		return value.Float(a.sum / float64(a.count))
	case "MIN":
		if !a.started {
			return value.Null
		}
		return a.min
	case "MAX":
		if !a.started {
			return value.Null
		}
		return a.max
	default:
		return value.Null
	}
}

func (ex *Executor) distinct(rows []value.Row, envs []*env) ([]value.Row, []*env) {
	seen := make(map[string]struct{}, len(rows))
	buf := ex.keyBuf
	outR := rows[:0]
	var outE []*env
	for i, r := range rows {
		buf = value.EncodeKeyRow(buf[:0], r)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		outR = append(outR, r)
		if envs != nil {
			outE = append(outE, envs[i])
		}
	}
	ex.keyBuf = buf
	return outR, outE
}

// orderRows sorts rows in place using the compiled order keys: an output
// column position where the spec named one (or was positional), otherwise an
// expression evaluated against the row's source environment.
func (ex *Executor) orderRows(p *selectPlan, rows []value.Row, envs []*env) error {
	type keyed struct {
		row  value.Row
		env  *env
		keys value.Row
	}
	ks := make([]keyed, len(rows))
	for i := range rows {
		keys := make(value.Row, len(p.orderBy))
		for j, op := range p.orderBy {
			if op.outIdx >= 0 {
				keys[j] = rows[i][op.outIdx]
				continue
			}
			e := envs[i]
			if e == nil {
				return fmt.Errorf("sql: cannot resolve ORDER BY expression %q", op.expr)
			}
			v, err := eval(e, op.expr)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		ks[i] = keyed{row: rows[i], env: envs[i], keys: keys}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, op := range p.orderBy {
			c := value.Compare(ks[a].keys[j], ks[b].keys[j])
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
	for i := range ks {
		rows[i] = ks[i].row
		if envs != nil {
			envs[i] = ks[i].env
		}
	}
	return nil
}

// evalLimitOffset evaluates LIMIT/OFFSET expressions up front for the
// streaming path: offset is clamped at 0; limit -1 means unbounded.
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

func (ex *Executor) applyLimitOffset(sel *sqlparse.Select, rows []value.Row) ([]value.Row, error) {
	if sel.Offset != nil {
		off, err := ex.evalIntArg(sel.Offset)
		if err != nil {
			return nil, err
		}
		if off < 0 {
			off = 0
		}
		if off >= len(rows) {
			rows = nil
		} else {
			rows = rows[off:]
		}
	}
	if sel.Limit != nil {
		lim, err := ex.evalIntArg(sel.Limit)
		if err != nil {
			return nil, err
		}
		if lim >= 0 && lim < len(rows) {
			rows = rows[:lim]
		}
	}
	return rows, nil
}
