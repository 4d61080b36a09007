package sqlexec

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file reads a select's first source as key-range partitions and folds
// each partition's tuples into a sink state of its own. A large read-only
// full scan runs one partition per core; every other read is the same code
// with one partition. The states merge in key order, so the result is the
// one a single partition gives, row for row (morsel-driven parallelism,
// Leis et al., SIGMOD 2014).

const (
	// partitionMinRows is the table size from which a full scan is split.
	partitionMinRows = 32768
	// maxPartitions caps the partitions, and so the goroutines, of one scan.
	maxPartitions = 8
)

// partitions is how many partitions a select asks for: one per GOMAXPROCS
// worker when its first source is a full scan of a table large enough to
// be worth splitting, else one. runPlan may still read fewer (see
// splitKeys).
func (ex *Executor) partitions(p *selectPlan) int {
	if p.fromless {
		return 1
	}
	s := p.sources[0]
	if pickPath(s, s.hasEqOn).kind != pathFull || ex.Store.ApproxRows(s.tbl.Name) < partitionMinRows {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), maxPartitions)
}

// splitKeys returns the keys at which the walk along path is cut into
// partitions. A full scan in a read-only transaction with no read observer
// is cut into up to n key ranges at the table's split keys. Any other read
// is one range: a read-write transaction records its scanned range for OCC
// and merges its buffered writes, and a read observer sees rows in scan
// order.
func (ex *Executor) splitKeys(s *planSource, path accessPath, n int) []string {
	if n < 2 || path.kind != pathFull || !ex.Tx.ReadOnly() || ex.OnRead != nil {
		return nil
	}
	return ex.Store.SplitKeys(s.tbl.Name, n)
}

// scanParts reads the first source along path in the key ranges keys cut it
// into, folding the first range into out on the calling goroutine and each
// other into an empty sink of its own, on a goroutine and with an executor
// of its own. Once every range is read it merges those sinks into out in
// key order, or returns the error of the earliest range that failed, which
// is the first error in key order. A panic in any range is re-raised here.
func (ex *Executor) scanParts(p *selectPlan, path accessPath, dir storage.Direction, keys []string, out sink) error {
	if len(keys) == 0 {
		return ex.scanPart(p, path, dir, out)
	}
	n := len(keys) + 1
	sinks := make([]sink, n)
	errs := make([]error, n)
	panics := make([]any, n)
	run := func(ex *Executor, i int) {
		defer func() { panics[i] = recover() }()
		part := path
		if i > 0 {
			part.lo = keys[i-1]
			// Made here, on the worker, the sink comes from memory of the
			// worker's own: sinks made side by side by the caller share cache
			// lines, and their writes on every row stall each other.
			sinks[i] = out.empty()
		}
		if i < len(keys) {
			part.hi = keys[i]
		}
		errs[i] = ex.scanPart(p, part, dir, sinks[i])
	}
	sinks[0] = out
	tx, store, args := ex.Tx, ex.Store, ex.Args
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(&Executor{Tx: tx, Store: store, Args: args}, i)
		}(i)
	}
	run(ex, 0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, next := range sinks[1:] {
		out.merge(next)
	}
	return nil
}

// scanPart folds into out each row of one key range of the first source
// that passes the source's filters and the filters ready after it
// (stage0).
func (ex *Executor) scanPart(p *selectPlan, path accessPath, dir storage.Direction, out sink) error {
	s0 := p.sources[0]
	se := env{cols: s0.cols, args: ex.Args, slots: p.slots}
	return ex.walk(s0, p.slots, path, dir, func(row value.Row) (bool, error) {
		se.vals = row
		for _, f := range p.stage0 {
			ok, err := evalPredicate(&se, f)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
		}
		if err := out.add(&se); err != nil {
			if err == errStopIteration {
				return false, nil
			}
			return false, err
		}
		return true, nil
	})
}

// sink folds one partition's tuples. add may return errStopIteration to
// end the walk (LIMIT); the env is valid only for the call. empty makes a
// sink of the same kind with no state, merge folds the state of the next
// partition, in key order, into this one, and rows renders its rows.
type sink interface {
	add(e *env) error
	empty() sink
	merge(next sink)
	rows(args []value.Value) ([]value.Row, error)
}

// tupleSink collects the first source's rows: the left side of a join.
type tupleSink struct{ tuples []value.Row }

func (s *tupleSink) add(e *env) error {
	s.tuples = append(s.tuples, e.vals)
	return nil
}

func (s *tupleSink) empty() sink { return &tupleSink{} }

func (s *tupleSink) merge(next sink) { s.tuples = append(s.tuples, next.(*tupleSink).tuples...) }

func (s *tupleSink) rows([]value.Value) ([]value.Row, error) { return s.tuples, nil }

// rowSink projects each tuple to an output row. It skips the first off
// tuples and stops after lim rows (-1: no limit).
type rowSink struct {
	p        *selectPlan
	sortKeys bool
	off, lim int
	out      []value.Row
}

func (s *rowSink) add(e *env) error {
	if s.off > 0 {
		s.off-- // skip before projecting: OFFSET rows are never evaluated
		return nil
	}
	row, err := s.p.project(e, s.sortKeys)
	if err != nil {
		return err
	}
	s.out = append(s.out, row)
	if s.lim >= 0 && len(s.out) >= s.lim {
		return errStopIteration
	}
	return nil
}

func (s *rowSink) empty() sink { return &rowSink{p: s.p, sortKeys: s.sortKeys, off: s.off, lim: s.lim} }

func (s *rowSink) merge(next sink) { s.out = append(s.out, next.(*rowSink).out...) }

func (s *rowSink) rows([]value.Value) ([]value.Row, error) { return s.out, nil }

// project evaluates a select's output row over one tuple or group: its
// items and, with sortKeys, the ORDER BY expressions after them.
func (p *selectPlan) project(e *env, sortKeys bool) (value.Row, error) {
	var keys []sqlparse.Expr
	if sortKeys {
		keys = p.sortItems
	}
	row := make(value.Row, 0, len(p.items)+len(keys))
	for _, exprs := range [2][]sqlparse.Expr{p.items, keys} {
		for _, it := range exprs {
			v, err := eval(e, it)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
	}
	return row, nil
}

// appendGroupKey appends v's key for GROUP BY, DISTINCT and COUNT(DISTINCT):
// two values share a key when Compare calls them equal. An INTEGER whose
// float image is exact is keyed by that image, as the hash join keys a
// number (encodePairKey), so it meets the REAL of the same value. Compare
// is not transitive past 2^53, where an INTEGER with no exact float image
// keeps its exact key, so distinct integers never share a group.
func appendGroupKey(buf []byte, v value.Value) []byte {
	if v.Kind() == value.KindInt {
		if f := float64(v.AsInt()); f < 1<<63 && int64(f) == v.AsInt() {
			v = value.Float(f)
		}
	}
	return value.EncodeKey(buf, v)
}

// groupSink folds tuples into groups of aggregate accumulators, keyed by
// their GROUP BY values (appendGroupKey). Groups keep the order they first
// appeared in, and each keeps its earliest tuple for its non-aggregate
// columns.
type groupSink struct {
	p      *selectPlan
	index  map[string]*group
	groups []*group
	buf    []byte
}

type group struct {
	key    string
	first  value.Row
	accums []aggAccum
}

func newGroupSink(p *selectPlan) *groupSink {
	return &groupSink{p: p, index: make(map[string]*group)}
}

func (s *groupSink) add(e *env) error {
	s.buf = s.buf[:0]
	for _, g := range s.p.sel.GroupBy {
		v, err := eval(e, g)
		if err != nil {
			return err
		}
		s.buf = appendGroupKey(s.buf, v)
	}
	grp, ok := s.index[string(s.buf)]
	if !ok {
		grp = &group{key: string(s.buf), first: e.vals, accums: make([]aggAccum, len(s.p.aggNodes))}
		s.index[grp.key] = grp
		s.groups = append(s.groups, grp)
	}
	for i, node := range s.p.aggNodes {
		if err := grp.accums[i].add(node, e); err != nil {
			return err
		}
	}
	return nil
}

func (s *groupSink) empty() sink { return newGroupSink(s.p) }

// merge appends the next partition's new groups after this one's, and
// folds a group both saw into this one's, which came first.
func (s *groupSink) merge(next sink) {
	for _, g := range next.(*groupSink).groups {
		mine, ok := s.index[g.key]
		if !ok {
			s.index[g.key] = g
			s.groups = append(s.groups, g)
			continue
		}
		for i := range mine.accums {
			mine.accums[i].merge(&g.accums[i])
		}
	}
}

// rows finalizes the groups in order, filters them by HAVING and projects
// them. A grouped query with no GROUP BY and no input rows still yields one
// row of aggregates over the empty set.
func (s *groupSink) rows(args []value.Value) ([]value.Row, error) {
	p := s.p
	groups := s.groups
	if len(groups) == 0 && len(p.sel.GroupBy) == 0 {
		groups = []*group{{first: nullRow(len(p.cols)), accums: make([]aggAccum, len(p.aggNodes))}}
	}
	var out []value.Row
	for _, g := range groups {
		aggs := make(map[*sqlparse.FuncCall]value.Value, len(p.aggNodes))
		for i, node := range p.aggNodes {
			aggs[node] = g.accums[i].result(node)
		}
		ge := &env{cols: p.cols, vals: g.first, args: args, aggs: aggs, slots: p.slots}
		if p.sel.Having != nil {
			ok, err := evalPredicate(ge, p.sel.Having)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		row, err := p.project(ge, true)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func nullRow(n int) value.Row {
	r := make(value.Row, n)
	for i := range r {
		r[i] = value.Null
	}
	return r
}

// aggAccum is one aggregate's running state. Integer arguments are summed
// exactly, in 128 bits: sumInt is the low word (and, wrapping, SUM's
// result) and sumHi the high word, so integer sums are the same in any
// grouping. sum adds every argument as a float, in order.
type aggAccum struct {
	count   int64
	sum     float64
	sumInt  int64
	sumHi   int64
	float   bool // a REAL argument was summed
	min     value.Value
	max     value.Value
	seen    map[string]struct{} // DISTINCT
	started bool
}

func (a *aggAccum) add(node *sqlparse.FuncCall, e *env) error {
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
		k := string(appendGroupKey(nil, v))
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
			a.addInt(v.AsInt(), v.AsInt()>>63) // sign-extended
			a.sum += float64(v.AsInt())
		case value.KindFloat:
			a.float = true
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

// addInt adds the 128-bit integer hi·2^64 + uint64(lo) to the exact sum.
func (a *aggAccum) addInt(lo, hi int64) {
	sum, carry := bits.Add64(uint64(a.sumInt), uint64(lo), 0)
	a.sumInt = int64(sum)
	a.sumHi += hi + int64(carry)
}

// merge folds b, the state of a later partition, into a. MIN and MAX keep
// a's value on a tie, as one partition would. It is exact only for the
// aggregates foldsInParts admits.
func (a *aggAccum) merge(b *aggAccum) {
	a.count += b.count
	a.addInt(b.sumInt, b.sumHi)
	a.sum += b.sum
	a.float = a.float || b.float
	if b.started {
		if !a.started || value.Compare(b.min, a.min) < 0 {
			a.min = b.min
		}
		if !a.started || value.Compare(b.max, a.max) > 0 {
			a.max = b.max
		}
		a.started = true
	}
}

// intSum is the exact integer sum as a float.
func (a *aggAccum) intSum() float64 {
	if a.sumHi == a.sumInt>>63 {
		return float64(a.sumInt) // fits in 64 bits
	}
	return float64(a.sumHi)*0x1p64 + float64(uint64(a.sumInt))
}

func (a *aggAccum) result(node *sqlparse.FuncCall) value.Value {
	switch node.Name {
	case "COUNT":
		return value.Int(a.count)
	case "SUM":
		if a.count == 0 {
			return value.Null
		}
		if !a.float {
			return value.Int(a.sumInt)
		}
		return value.Float(a.sum)
	case "AVG":
		if a.count == 0 {
			return value.Null
		}
		if !a.float {
			return value.Float(a.intSum() / float64(a.count))
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
