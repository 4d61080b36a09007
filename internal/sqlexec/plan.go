package sqlexec

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file implements the physical-plan layer. Compile turns a parsed
// statement into a Plan: resolved table handles, classified conjuncts, scan
// bounds (equality and range), join order and strategy, expanded projections,
// and column references pre-resolved to tuple slots. Plans are immutable and
// safe for concurrent execution; the db facade caches them keyed by
// (query text, storage.SchemaEpoch), so DDL invalidates cleanly.
//
// Compilation deliberately mirrors what the executor previously re-derived on
// every call: the split into Compile + Run removes per-execution parsing,
// conjunct classification, catalog lookups, and per-row column resolution
// from the hot path without changing statement semantics.

// Plan is a compiled, reusable physical plan for one statement.
type Plan struct {
	sel *selectPlan
	ins *insertPlan
	upd *updatePlan
	del *deletePlan
}

// boundExpr is a planned equality bound: column col equals the (constant or
// placeholder) expression. The value is evaluated per execution — placeholder
// bounds depend on statement arguments.
type boundExpr struct {
	col  int
	expr sqlparse.Expr
}

// rangeBound is a planned range constraint col OP expr with the column
// normalised to the left side. Used to narrow scan key bounds; the original
// conjunct is always kept as a residual filter, so bounds only have to be
// conservative (never exclude a matching row).
type rangeBound struct {
	col  int
	op   sqlparse.BinaryOp // OpLt, OpLe, OpGt, OpGe
	expr sqlparse.Expr
}

// planSource is one FROM source with its resolved schema and scan plan.
type planSource struct {
	tbl      *schema.Table
	alias    string    // lowercased effective name
	cols     []colInfo // this source's slot layout
	joinKind sqlparse.JoinKind
	leftOn   []sqlparse.Expr // ON conjuncts for LEFT joins

	// filters holds pushed-down conjuncts during compilation; extractBounds
	// distributes them into residual/eqBounds/ranges and clears it.
	filters  []sqlparse.Expr
	residual []sqlparse.Expr // every pushed conjunct (re-checked per row)
	eqBounds []boundExpr
	ranges   []rangeBound
	indexes  []*schema.Index // catalog snapshot for index selection
}

// joinStep is one join in the pipeline: the right source, the accumulated
// layout after the join, hash-join pairs, residual conditions, an optional
// primary-key lookup strategy, and WHERE conjuncts applied after the join.
type joinStep struct {
	src      *planSource
	newCols  []colInfo
	pairs    []equiPair
	residual []sqlparse.Expr
	pkLookup []equiPair // non-nil when the pairs cover the right table's PK
	post     []sqlparse.Expr
}

// orderPlan is one compiled ORDER BY key: either an output-column position or
// an expression evaluated against the row's source environment. Either way
// the sort reads column col of the projected row: an expression's value is
// projected after the select items (selectPlan.sortItems).
type orderPlan struct {
	outIdx int // >= 0: sort on the projected value at this position
	expr   sqlparse.Expr
	desc   bool
	col    int
}

// selectPlan is the compiled form of a SELECT.
type selectPlan struct {
	sel      *sqlparse.Select
	fromless bool
	sources  []*planSource   // in (possibly reordered) execution order
	stage0   []sqlparse.Expr // filters ready after source 0 (constant conjuncts)
	joins    []*joinStep
	cols     []colInfo // final tuple layout

	items    []sqlparse.Expr
	names    []string
	aggNodes []*sqlparse.FuncCall
	grouped  bool
	orderBy  []orderPlan
	// sortItems are the ORDER BY expressions that are not select items. A
	// row that will be sorted projects them after the items, and they are
	// cut off once it is.
	sortItems []sqlparse.Expr

	// orderCols and orderDesc restate the ORDER BY as columns of the single
	// source, in one direction, when it can be one (see compileScanOrder);
	// orderCols is nil otherwise. An access path that yields this order
	// replaces the sort.
	orderCols []int
	orderDesc bool

	// slots maps each column-reference node to its tuple slot in the layout
	// where the expression containing it is evaluated. Read-only after
	// compilation; unresolved references fall back to dynamic resolution.
	slots map[*sqlparse.ColumnRef]int
}

// streamable reports whether rows can be emitted as they are produced (no
// global ordering or grouping pass needed).
func (p *selectPlan) streamable() bool {
	return !p.grouped && len(p.sel.OrderBy) == 0 && !p.sel.Distinct
}

// insertPlan is the compiled form of an INSERT.
type insertPlan struct {
	tbl       *schema.Table
	positions []int // physical column position per value expression
	rows      [][]sqlparse.Expr
}

// updatePlan is the compiled form of an UPDATE.
type updatePlan struct {
	tbl       *schema.Table
	src       *planSource
	cols      []colInfo
	targets   []int
	pkChanged bool
	set       []sqlparse.Assignment
	slots     map[*sqlparse.ColumnRef]int
}

// deletePlan is the compiled form of a DELETE.
type deletePlan struct {
	tbl   *schema.Table
	src   *planSource
	slots map[*sqlparse.ColumnRef]int
}

// Compile builds a physical plan for stmt against the store's current
// catalog. The plan bakes in schema state (table handles, column offsets,
// index definitions): callers must discard it when the store's SchemaEpoch
// changes.
func Compile(stmt sqlparse.Statement, store *storage.Store) (*Plan, error) {
	p := &Plan{}
	var err error
	switch s := stmt.(type) {
	case *sqlparse.Select:
		p.sel, err = compileSelect(s, store)
	case *sqlparse.Insert:
		p.ins, err = compileInsert(s, store)
	case *sqlparse.Update:
		p.upd, err = compileUpdate(s, store)
	case *sqlparse.Delete:
		p.del, err = compileDelete(s, store)
	default:
		err = fmt.Errorf("sql: statement %T not executable inside a transaction", stmt)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// --- SELECT compilation -----------------------------------------------------

func compileSelect(sel *sqlparse.Select, store *storage.Store) (*selectPlan, error) {
	p := &selectPlan{sel: sel, slots: make(map[*sqlparse.ColumnRef]int)}
	if sel.From == nil {
		p.fromless = true
		return p, p.compileOutput(nil)
	}

	sources, err := buildPlanSources(sel, store)
	if err != nil {
		return nil, err
	}
	pending, err := classifyPlanConjuncts(sel, sources)
	if err != nil {
		return nil, err
	}
	reorderPlanSources(sel, sources)
	for _, s := range sources {
		extractBounds(s)
		s.indexes = store.Indexes(s.tbl.Name)
		for _, f := range s.residual {
			p.registerExpr(f, s.cols)
		}
		// leftOn conjuncts are NOT registered here: the ones that survive as
		// residuals evaluate against the joined-tuple layout, which the join
		// step below registers (registering against s.cols would pin wrong
		// slots, since first registration wins).
	}
	p.sources = sources

	// Simulate the join pipeline to assign each pending filter to the stage
	// where it first becomes evaluable.
	have := map[string]bool{sources[0].alias: true}
	ready := func(pf pendingFilter) bool {
		for a := range pf.need {
			if !have[a] {
				return false
			}
		}
		return true
	}
	var rest []pendingFilter
	for _, pf := range pending {
		if ready(pf) {
			p.stage0 = append(p.stage0, pf.expr)
			p.registerExpr(pf.expr, sources[0].cols)
		} else {
			rest = append(rest, pf)
		}
	}
	pending = rest

	cols := sources[0].cols
	for si := 1; si < len(sources); si++ {
		s := sources[si]
		step := &joinStep{src: s}
		step.newCols = make([]colInfo, 0, len(cols)+len(s.cols))
		step.newCols = append(append(step.newCols, cols...), s.cols...)
		have[s.alias] = true

		var joinConds []sqlparse.Expr
		rest = nil
		for _, pf := range pending {
			switch {
			case ready(pf) && pf.need[s.alias]:
				joinConds = append(joinConds, pf.expr)
			case ready(pf):
				step.post = append(step.post, pf.expr)
			default:
				rest = append(rest, pf)
			}
		}
		pending = rest

		if s.joinKind == sqlparse.JoinLeft {
			step.pairs, step.residual = extractEquiPairs(s.leftOn, cols, s)
			step.post = append(step.post, joinConds...)
		} else {
			step.pairs, step.residual = extractEquiPairs(joinConds, cols, s)
			step.pkLookup = pkLookupPlan(step.pairs, s)
		}
		for _, f := range step.residual {
			p.registerExpr(f, step.newCols)
		}
		for _, f := range step.post {
			p.registerExpr(f, step.newCols)
		}
		p.joins = append(p.joins, step)
		cols = step.newCols
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("sql: filter %q references unavailable sources", pending[0].expr)
	}
	return p, p.compileOutput(cols)
}

// compileOutput expands the projection and compiles aggregation and ordering
// against the final tuple layout.
func (p *selectPlan) compileOutput(cols []colInfo) error {
	p.cols = cols
	items, names, err := expandItems(p.sel, cols)
	if err != nil {
		return err
	}
	p.items, p.names = items, names
	p.aggNodes = collectAggregates(p.sel, items)
	p.grouped = len(p.sel.GroupBy) > 0 || len(p.aggNodes) > 0
	for _, it := range items {
		p.registerExpr(it, cols)
	}
	for _, g := range p.sel.GroupBy {
		p.registerExpr(g, cols)
	}
	p.registerExpr(p.sel.Having, cols)

	for _, spec := range p.sel.OrderBy {
		op := orderPlan{outIdx: -1, desc: spec.Desc}
		if ref, ok := spec.Expr.(*sqlparse.ColumnRef); ok && ref.Table == "" {
			for i, n := range names {
				if strings.EqualFold(n, ref.Column) {
					op.outIdx = i
					break
				}
			}
		}
		if op.outIdx < 0 {
			if lit, ok := spec.Expr.(*sqlparse.Literal); ok && lit.Val.Kind() == value.KindInt {
				if pos := int(lit.Val.AsInt()); pos >= 1 && pos <= len(items) {
					op.outIdx = pos - 1
				}
			}
		}
		op.col = op.outIdx
		if op.outIdx < 0 {
			op.expr = spec.Expr
			op.col = len(items) + len(p.sortItems)
			p.sortItems = append(p.sortItems, spec.Expr)
			p.registerExpr(spec.Expr, cols)
		}
		p.orderBy = append(p.orderBy, op)
	}
	p.compileScanOrder()
	return nil
}

// compileScanOrder sets orderCols when the select reads one source with no
// grouping, aggregate or DISTINCT, and its ORDER BY terms are plain columns
// of that source, all in the same direction. Only such an ORDER BY can be
// yielded by a scan instead of a sort.
func (p *selectPlan) compileScanOrder() {
	if len(p.sources) != 1 || p.grouped || p.sel.Distinct || len(p.orderBy) == 0 {
		return
	}
	cols := make([]int, len(p.orderBy))
	for i, op := range p.orderBy {
		e := op.expr
		if op.outIdx >= 0 {
			e = p.items[op.outIdx]
		}
		ref, ok := e.(*sqlparse.ColumnRef)
		if !ok || op.desc != p.orderBy[0].desc {
			return
		}
		if cols[i], ok = p.slots[ref]; !ok {
			return
		}
	}
	p.orderCols, p.orderDesc = cols, p.orderBy[0].desc
}

// foldsInParts reports whether aggregate states folded per partition merge
// into exactly the state one partition reaches. COUNT, MIN and MAX do, and so
// do SUM and AVG over an INTEGER column, whose sums are exact. Float addition
// is not associative, and DISTINCT counts do not add.
func (p *selectPlan) foldsInParts() bool {
	for _, node := range p.aggNodes {
		if node.Distinct {
			return false
		}
		if node.Name != "SUM" && node.Name != "AVG" {
			continue
		}
		if len(node.Args) != 1 {
			return false
		}
		ref, ok := node.Args[0].(*sqlparse.ColumnRef)
		if !ok {
			return false
		}
		if slot, ok := p.slots[ref]; !ok || p.cols[slot].kind != value.KindInt {
			return false
		}
	}
	return true
}

// registerExpr records the tuple slot of every column reference in expr that
// resolves unambiguously against cols. Unresolvable references are left for
// dynamic resolution (which reports the error only if the expression is
// actually evaluated, preserving pre-plan behaviour on empty inputs).
func (p *selectPlan) registerExpr(expr sqlparse.Expr, cols []colInfo) {
	registerSlots(p.slots, expr, cols)
}

func registerSlots(slots map[*sqlparse.ColumnRef]int, expr sqlparse.Expr, cols []colInfo) {
	if expr == nil {
		return
	}
	sqlparse.Walk(expr, func(n sqlparse.Expr) {
		ref, ok := n.(*sqlparse.ColumnRef)
		if !ok {
			return
		}
		if _, done := slots[ref]; done {
			return
		}
		if i, ok := resolveIn(ref, cols); ok {
			slots[ref] = i
		}
	})
}

// resolveIn resolves ref against a layout; ambiguous or unknown names report
// false (dynamic resolution handles the error path). Shares lookupSlot with
// env.resolve so plan-time and runtime resolution always agree.
func resolveIn(ref *sqlparse.ColumnRef, cols []colInfo) (int, bool) {
	idx, matches := lookupSlot(ref, cols)
	return idx, matches == 1
}

// buildPlanSources resolves the FROM clause against the catalog.
func buildPlanSources(sel *sqlparse.Select, store *storage.Store) ([]*planSource, error) {
	var sources []*planSource
	add := func(ref sqlparse.TableRef, kind sqlparse.JoinKind) error {
		tbl := store.Table(ref.Table)
		if tbl == nil {
			return fmt.Errorf("sql: unknown table %q", ref.Table)
		}
		alias := strings.ToLower(ref.EffectiveName())
		for _, s := range sources {
			if s.alias == alias {
				return fmt.Errorf("sql: duplicate table alias %q", ref.EffectiveName())
			}
		}
		sources = append(sources, &planSource{tbl: tbl, alias: alias, cols: layoutCols(tbl, alias), joinKind: kind})
		return nil
	}
	if err := add(*sel.From, sqlparse.JoinInner); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := add(j.Table, j.Kind); err != nil {
			return nil, err
		}
	}
	return sources, nil
}

// layoutCols is the slot layout contributed by one source.
func layoutCols(tbl *schema.Table, alias string) []colInfo {
	cols := make([]colInfo, len(tbl.Columns))
	for i, c := range tbl.Columns {
		cols[i] = colInfo{source: alias, column: strings.ToLower(c.Name), kind: c.Type}
	}
	return cols
}

// pendingFilter is a conjunct waiting for all its sources to be joined.
type pendingFilter struct {
	expr sqlparse.Expr
	need map[string]bool
}

// classifyPlanConjuncts distributes WHERE and inner-join ON conjuncts: a
// conjunct referencing exactly one source is pushed to that source's scan
// (unless that source is the nullable side of a LEFT join); everything else
// becomes a join/post filter evaluated once its sources are all available.
func classifyPlanConjuncts(sel *sqlparse.Select, sources []*planSource) ([]pendingFilter, error) {
	var all []sqlparse.Expr
	all = splitConjuncts(sel.Where, all)
	for i, j := range sel.Joins {
		if j.On == nil {
			continue
		}
		if j.Kind == sqlparse.JoinLeft {
			sources[i+1].leftOn = splitConjuncts(j.On, nil)
			continue
		}
		all = splitConjuncts(j.On, all)
	}
	var pending []pendingFilter
	for _, c := range all {
		refs, err := refPlanSources(c, sources)
		if err != nil {
			return nil, err
		}
		pushed := false
		if len(refs) == 1 {
			for alias := range refs {
				for _, s := range sources {
					if s.alias == alias && s.joinKind != sqlparse.JoinLeft {
						s.filters = append(s.filters, c)
						pushed = true
					}
				}
			}
		}
		if !pushed {
			pending = append(pending, pendingFilter{expr: c, need: refs})
		}
	}
	return pending, nil
}

// refPlanSources returns the set of source aliases an expression references.
// Unqualified columns resolve against the sources' schemas.
func refPlanSources(e sqlparse.Expr, sources []*planSource) (map[string]bool, error) {
	out := make(map[string]bool)
	var walkErr error
	sqlparse.Walk(e, func(n sqlparse.Expr) {
		ref, ok := n.(*sqlparse.ColumnRef)
		if !ok || walkErr != nil {
			return
		}
		if ref.Table != "" {
			alias := strings.ToLower(ref.Table)
			found := false
			for _, s := range sources {
				if s.alias == alias {
					found = true
					break
				}
			}
			if !found {
				walkErr = fmt.Errorf("sql: unknown table alias %q", ref.Table)
				return
			}
			out[alias] = true
			return
		}
		matches := 0
		var matchAlias string
		for _, s := range sources {
			if s.tbl.ColumnIndex(ref.Column) >= 0 {
				matches++
				matchAlias = s.alias
			}
		}
		switch matches {
		case 0:
			walkErr = fmt.Errorf("sql: unknown column %q", ref.Column)
		case 1:
			out[matchAlias] = true
		default:
			walkErr = fmt.Errorf("sql: ambiguous column %q", ref.Column)
		}
	})
	return out, walkErr
}

// reorderPlanSources moves the most selective source (most pushed-down
// filters) to the front so joins can drive from the small side. Reordering is
// skipped when any join is LEFT (not symmetric) or the projection contains a
// star (column order is user-visible).
func reorderPlanSources(sel *sqlparse.Select, sources []*planSource) {
	if len(sources) < 2 {
		return
	}
	for _, it := range sel.Items {
		if it.Star {
			return
		}
	}
	for _, s := range sources {
		if s.joinKind == sqlparse.JoinLeft {
			return
		}
	}
	best := 0
	for i, s := range sources {
		if len(s.filters) > len(sources[best].filters) {
			best = i
		}
	}
	if best == 0 {
		return
	}
	picked := sources[best]
	copy(sources[1:best+1], sources[0:best])
	sources[0] = picked
	for _, s := range sources {
		s.joinKind = sqlparse.JoinInner
	}
}

// extractBounds distributes a source's pushed filters into scan bounds. Every
// filter is also kept as a residual predicate: bounds only narrow the scanned
// key interval, so coercion edge cases and duplicate constraints stay correct.
func extractBounds(s *planSource) {
	seenEq := make(map[int]bool)
	for _, f := range s.filters {
		s.residual = append(s.residual, f)
		b, ok := f.(*sqlparse.BinaryExpr)
		if !ok {
			continue
		}
		col, constE, op, ok := colConstForm(b, s.tbl)
		if !ok {
			continue
		}
		switch op {
		case sqlparse.OpEq:
			if seenEq[col] {
				continue // contradictory or duplicate; residual handles it
			}
			seenEq[col] = true
			s.eqBounds = append(s.eqBounds, boundExpr{col: col, expr: constE})
		case sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			s.ranges = append(s.ranges, rangeBound{col: col, op: op, expr: constE})
		}
	}
	s.filters = nil
}

// colConstForm matches col OP const / const OP col, normalising the column to
// the left (flipping the comparison for the reversed form).
func colConstForm(b *sqlparse.BinaryExpr, tbl *schema.Table) (int, sqlparse.Expr, sqlparse.BinaryOp, bool) {
	switch b.Op {
	case sqlparse.OpEq, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
	default:
		return 0, nil, 0, false
	}
	if cr, ok := b.Left.(*sqlparse.ColumnRef); ok && isConstExpr(b.Right) {
		if pos := tbl.ColumnIndex(cr.Column); pos >= 0 {
			return pos, b.Right, b.Op, true
		}
	}
	if cr, ok := b.Right.(*sqlparse.ColumnRef); ok && isConstExpr(b.Left) {
		if pos := tbl.ColumnIndex(cr.Column); pos >= 0 {
			return pos, b.Left, flipOp(b.Op), true
		}
	}
	return 0, nil, 0, false
}

func flipOp(op sqlparse.BinaryOp) sqlparse.BinaryOp {
	switch op {
	case sqlparse.OpLt:
		return sqlparse.OpGt
	case sqlparse.OpLe:
		return sqlparse.OpGe
	case sqlparse.OpGt:
		return sqlparse.OpLt
	case sqlparse.OpGe:
		return sqlparse.OpLe
	default:
		return op
	}
}

func isConstExpr(e sqlparse.Expr) bool {
	switch e.(type) {
	case *sqlparse.Literal, *sqlparse.Placeholder:
		return true
	default:
		return false
	}
}

// --- DML compilation ---------------------------------------------------------

func compileInsert(ins *sqlparse.Insert, store *storage.Store) (*insertPlan, error) {
	tbl := store.Table(ins.Table)
	if tbl == nil {
		return nil, fmt.Errorf("sql: unknown table %q", ins.Table)
	}
	var positions []int
	if len(ins.Columns) == 0 {
		positions = make([]int, len(tbl.Columns))
		for i := range positions {
			positions[i] = i
		}
	} else {
		positions = make([]int, len(ins.Columns))
		seen := make(map[int]bool, len(ins.Columns))
		for i, name := range ins.Columns {
			pos := tbl.ColumnIndex(name)
			if pos < 0 {
				return nil, fmt.Errorf("sql: table %q has no column %q", ins.Table, name)
			}
			if seen[pos] {
				return nil, fmt.Errorf("sql: column %q listed twice", name)
			}
			seen[pos] = true
			positions[i] = pos
		}
	}
	for _, exprs := range ins.Rows {
		if len(exprs) != len(positions) {
			return nil, fmt.Errorf("sql: INSERT expects %d values, got %d", len(positions), len(exprs))
		}
	}
	return &insertPlan{tbl: tbl, positions: positions, rows: ins.Rows}, nil
}

// compileDMLSource builds the single-table WHERE scan plan shared by UPDATE
// and DELETE.
func compileDMLSource(table string, where sqlparse.Expr, store *storage.Store, slots map[*sqlparse.ColumnRef]int) (*schema.Table, *planSource, error) {
	tbl := store.Table(table)
	if tbl == nil {
		return nil, nil, fmt.Errorf("sql: unknown table %q", table)
	}
	s := &planSource{tbl: tbl, alias: strings.ToLower(tbl.Name), cols: layoutCols(tbl, strings.ToLower(tbl.Name))}
	for _, c := range splitConjuncts(where, nil) {
		if _, err := refPlanSources(c, []*planSource{s}); err != nil {
			return nil, nil, err
		}
		s.filters = append(s.filters, c)
	}
	extractBounds(s)
	s.indexes = store.Indexes(tbl.Name)
	for _, f := range s.residual {
		registerSlots(slots, f, s.cols)
	}
	return tbl, s, nil
}

func compileUpdate(upd *sqlparse.Update, store *storage.Store) (*updatePlan, error) {
	slots := make(map[*sqlparse.ColumnRef]int)
	tbl, src, err := compileDMLSource(upd.Table, upd.Where, store, slots)
	if err != nil {
		return nil, err
	}
	p := &updatePlan{tbl: tbl, src: src, set: upd.Set, slots: slots, cols: src.cols}
	p.targets = make([]int, len(upd.Set))
	for i, a := range upd.Set {
		pos := tbl.ColumnIndex(a.Column)
		if pos < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", upd.Table, a.Column)
		}
		p.targets[i] = pos
		if tbl.IsPKColumn(pos) {
			p.pkChanged = true
		}
		registerSlots(slots, a.Value, p.cols)
	}
	return p, nil
}

func compileDelete(del *sqlparse.Delete, store *storage.Store) (*deletePlan, error) {
	slots := make(map[*sqlparse.ColumnRef]int)
	tbl, src, err := compileDMLSource(del.Table, del.Where, store, slots)
	if err != nil {
		return nil, err
	}
	return &deletePlan{tbl: tbl, src: src, slots: slots}, nil
}
