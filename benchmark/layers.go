package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/schema"
	"repro/internal/span"
	"repro/internal/sqlexec"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// layerReport collects one traced run's per-layer metrics. Every name in
// perLayer is reported; a layer the workload does not reach stays 0.
type layerReport struct {
	ops               int // operations in the traced segment
	values            map[string]float64
	budget            []budgetRow
	attempted, failed int
	carved            []carve
	// counts are exact counts a single caller produced; with one seed they
	// repeat from run to run, which bench_test.go relies on.
	counts map[string]float64
}

// carve moves part of one layer's self time to a layer that has no spans of
// its own: the tracer's request-path cost is a difference between two runs,
// not a call the benchmark can wrap.
type carve struct {
	from, to   string
	usPerOp    float64
	callsPerOp float64
}

func newLayerReport(ops int) *layerReport {
	return &layerReport{ops: ops, values: map[string]float64{}, counts: map[string]float64{}}
}

// did counts one replayed call and whether it failed.
func (r *layerReport) did(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

// planCache reports plan reuse between two readings of db.PlanCacheStats.
func (r *layerReport) planCache(before, after db.PlanCacheStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		r.values["plan_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	r.values["plan_cache_resets"] = float64(after.Resets - before.Resets)
}

// finish derives the budget from the spans and closes it against the
// untraced segment's mean latency.
func (r *layerReport) finish(t *tracer, untracedMeanUs, untracedOpsS, tracedOpsS float64) {
	rows, sum := t.budget(r.ops, untracedMeanUs)
	for _, c := range r.carved {
		for i := range rows {
			if rows[i].Layer == c.from {
				rows[i].SelfUsOp -= c.usPerOp
				rows[i].Share = rows[i].SelfUsOp / untracedMeanUs
			}
		}
		rows = append(rows, budgetRow{Layer: c.to, CallsPerOp: c.callsPerOp, SelfUsOp: c.usPerOp, Share: c.usPerOp / untracedMeanUs})
	}
	for _, b := range rows {
		if b.Layer == "db" {
			r.values["facade_self_us"] = b.SelfUsOp
		}
	}
	r.budget = rows
	r.values["unattributed_us"] = untracedMeanUs - sum
	r.values["tracing_overhead_pct"] = (untracedOpsS - tracedOpsS) / untracedOpsS * 100
}

// unitCosts reads the per-call costs off the spans: the mean duration of
// each wrapped call.
func (r *layerReport) unitCosts(t *tracer) {
	tot := t.totals()
	for metric, n := range map[string]spanName{
		"codec_us": spanCodec, "run_us": spanRun, "run_needle_us": spanRunNeedle, "run_agg_us": spanRunAgg,
		"point_us": spanPoint, "index_scan_us": spanIndexScan, "rmw_us": spanRMW,
		"append_us": spanWALAppend, "sync_wait_us": spanWALSync,
	} {
		if tot[n].calls > 0 {
			r.values[metric] = tot[n].meanUs()
		}
	}
	perOp := func(ns int64) float64 { return float64(ns) / float64(r.ops) / 1e3 }
	r.values["row_codec_us"] = perOp(tot[spanRowCodec].ns + tot[spanKeyCodec].ns)
	if tot[spanRoundTrip].calls > 0 {
		r.values["wire_self_us"] = perOp(tot[spanRoundTrip].ns - tot[spanDBCall].ns)
	}
}

// timeCall wraps fn in a span.
func (t *tracer) timeCall(name, parent spanName, op int, fn func() error) error {
	id := t.begin(0, name, parent, op)
	err := fn()
	t.end(0, id)
	return err
}

// sensorCosts times the two always-on sensors every server request pays:
// a histogram observation and a span record, plus the disabled (nil buffer)
// span path.
func (r *layerReport) sensorCosts() {
	const calls = 1 << 18
	h := metrics.NewHistogram("benchmark_observe_seconds", "benchmark probe", metrics.DefLatencyBuckets)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		h.Observe(float64(i&1023) * 1e-5)
	}
	r.values["observe_ns"] = float64(time.Since(t0)) / calls

	bufs := make([]*span.Buf, calls/span.BufCap)
	for i := range bufs {
		bufs[i] = span.NewBuf(uint64(i+1), 0)
	}
	at := time.Now()
	t0 = time.Now()
	for _, b := range bufs {
		for k := 0; k < span.BufCap; k++ {
			b.Record(span.StageExecute, span.RootID, at, time.Microsecond)
		}
	}
	r.values["record_ns"] = float64(time.Since(t0)) / calls

	var disabled *span.Buf
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		disabled.Record(span.StageExecute, span.RootID, at, time.Microsecond)
	}
	r.values["record_nil_ns"] = float64(time.Since(t0)) / calls
}

// provenanceCosts loads synthetic forum provenance into a fresh provenance
// database at the tracer's default batch size and at E2's load batch size.
func (r *layerReport) provenanceCosts(e *env) error {
	events := genProvStream(e, min(60_000, e.sz.provEvents)).events
	for _, batch := range []int{1024, 2000} {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		p, err := loadProvenance(events, batch)
		d := time.Since(t0)
		r.did(err)
		if err != nil {
			return err
		}
		perEvent := float64(d) / float64(len(events)) / 1e3
		if batch == 1024 {
			runtime.GC()
			runtime.ReadMemStats(&m1)
			r.values["apply_us_per_event_1024"] = perEvent
			r.values["apply_events_s"] = float64(len(events)) / d.Seconds()
			r.values["heap_bytes_per_event"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(events))
		} else {
			r.values["apply_us_per_event_2000"] = perEvent
		}
		if err := p.close(); err != nil {
			return err
		}
	}
	return nil
}

// storageCensus reports MVCC residency and what vacuum has dropped so far.
func (r *layerReport) storageCensus(s *storage.Store) {
	r.values["resident_versions"] = float64(s.VersionCensus().ResidentRowVersions)
	v := s.VacuumTotals()
	r.values["vacuum_dropped"] = float64(v.DroppedRowVersions + v.DroppedIndexVersions)
}

// sqlCosts accumulates sqlparse.Parse and sqlexec.Compile unit costs. Every
// text is timed so the unit cost is known even when the plan cache hides it;
// only a text the facade actually missed on gets spans, since only then did
// the operation pay for them.
type sqlCosts struct {
	parseNs, compileNs int64
	calls              int
}

func (c *sqlCosts) compile(t *tracer, store *storage.Store, sql string, op int, missed bool) (*sqlexec.Plan, error) {
	t0 := time.Now()
	stmt, err := sqlparse.Parse(sql)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	plan, err := sqlexec.Compile(stmt, store)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	c.parseNs += int64(t1.Sub(t0))
	c.compileNs += int64(t2.Sub(t1))
	c.calls++
	if missed {
		base := int64(t0.Sub(t.t0))
		t.lanes[0] = append(t.lanes[0],
			spanRec{name: spanParse, parent: spanDBCall, op: int32(op), start: base, end: base + int64(t1.Sub(t0))},
			spanRec{name: spanCompile, parent: spanDBCall, op: int32(op), start: base + int64(t1.Sub(t0)), end: base + int64(t2.Sub(t0))})
	}
	return plan, nil
}

func (c *sqlCosts) report(r *layerReport) {
	if c.calls > 0 {
		r.values["parse_us"] = float64(c.parseNs) / float64(c.calls) / 1e3
		r.values["compile_us"] = float64(c.compileNs) / float64(c.calls) / 1e3
	}
}

// inTxn runs fn inside a transaction of its own on store and commits it, the
// way the facade runs an auto-commit statement.
func inTxn(store *storage.Store, readOnly bool, fn func(tx *txn.Txn) error) error {
	var tx *txn.Txn
	if readOnly {
		tx = txn.BeginReadOnly(store)
	} else {
		tx = txn.Begin(store)
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	_, err := tx.Commit()
	return err
}

// runPlan is sqlexec.Executor.Run on tx.
func runPlan(tx *txn.Txn, store *storage.Store, plan *sqlexec.Plan, args ...value.Value) (*sqlexec.Result, error) {
	ex := &sqlexec.Executor{Tx: tx, Store: store, Args: args}
	return ex.Run(plan)
}

// indexNamed finds one of a table's secondary indexes.
func indexNamed(store *storage.Store, table, name string) (*schema.Index, error) {
	for _, ix := range store.Indexes(table) {
		if ix.Name == name {
			return ix, nil
		}
	}
	return nil, fmt.Errorf("index %s on %s not found", name, table)
}
