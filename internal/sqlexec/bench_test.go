package sqlexec

// Executor microbenchmarks for the hot loops the plan layer optimises:
// hash-join key encoding, lookup join vs. hash join vs. nested loop, index
// range scans, ORDER BY … LIMIT along an index, plan compilation itself, and
// the E2 provenance queries over 100k events. Benchstat these directly
// instead of going through the end-to-end E1/E2 harness; run the E2 pair
// with -cpu 1,2 to see single-core cost and the partitioned speed-up apart.

import (
	"fmt"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// benchStore builds events (id PK, txnid, userid TEXT) with nEvents rows and
// executions (txnid PK, handler TEXT) with nEvents/2 rows, mirroring the E2
// provenance shape. needleEvery marks every k-th event row with
// userid='needle' so filtered joins have a small driving side.
func benchStore(b *testing.B, nEvents, needleEvery int) *storage.Store {
	b.Helper()
	store := storage.NewStore()
	ev, err := schema.NewTable("events", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "txnid", Type: value.KindInt},
		{Name: "userid", Type: value.KindText},
	}, []string{"id"})
	if err != nil {
		b.Fatal(err)
	}
	exec, err := schema.NewTable("executions", []schema.Column{
		{Name: "txnid", Type: value.KindInt},
		{Name: "handler", Type: value.KindText},
	}, []string{"txnid"})
	if err != nil {
		b.Fatal(err)
	}
	if err := store.CreateTable(ev, false, nil); err != nil {
		b.Fatal(err)
	}
	if err := store.CreateTable(exec, false, nil); err != nil {
		b.Fatal(err)
	}
	err = txn.Run(store, func(t *txn.Txn) error {
		for i := 0; i < nEvents; i++ {
			user := fmt.Sprintf("U%d", i%97)
			if needleEvery > 0 && i%needleEvery == 0 {
				user = "needle"
			}
			if err := t.Insert(ev, value.Row{value.Int(int64(i)), value.Int(int64(i / 2)), value.Text(user)}); err != nil {
				return err
			}
		}
		for i := 0; i < nEvents/2; i++ {
			if err := t.Insert(exec, value.Row{value.Int(int64(i)), value.Text("handler")}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return store
}

// runPlanBench compiles the query once and measures repeated execution,
// which is exactly what the db-level plan cache buys.
func runPlanBench(b *testing.B, store *storage.Store, query string, wantRows int) {
	b.Helper()
	runPlanBenchIn(b, store, query, wantRows, txn.Begin)
}

// runPlanBenchIn is runPlanBench with each execution in a transaction that
// begin starts.
func runPlanBenchIn(b *testing.B, store *storage.Store, query string, wantRows int, begin func(*storage.Store) *txn.Txn) {
	b.Helper()
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Compile(stmt, store)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &Executor{Tx: begin(store), Store: store}
		res, err := ex.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		if wantRows >= 0 && len(res.Rows) != wantRows {
			b.Fatalf("got %d rows, want %d", len(res.Rows), wantRows)
		}
	}
}

// BenchmarkHashJoinKeyEncode measures the allocation-lean join-key encoder
// (append into a reused buffer; replaces per-tuple string concatenation).
func BenchmarkHashJoinKeyEncode(b *testing.B) {
	row := value.Row{value.Int(123456), value.Text("subscribeUser"), value.Float(3.5)}
	pairs := []equiPair{{rightPos: 0}, {rightPos: 1}, {rightPos: 2}}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		buf, ok = encodePairKey(buf[:0], row, pairs, false)
		if !ok || len(buf) == 0 {
			b.Fatal("unexpected null key")
		}
	}
}

// BenchmarkLookupJoin: small filtered driving side joined on the right
// table's full PK — executes as point lookups, independent of log size.
func BenchmarkLookupJoin(b *testing.B) {
	store := benchStore(b, 20_000, 2_000) // 10 needle rows
	runPlanBench(b, store,
		`SELECT x.handler FROM events AS e, executions AS x
		 WHERE e.userid = 'needle' AND e.txnid = x.txnid`, 10)
}

// BenchmarkHashJoin: unfiltered equi-join, so the accumulated side exceeds
// the lookup threshold and the executor builds a hash table on the right.
func BenchmarkHashJoin(b *testing.B) {
	store := benchStore(b, 4_096, 0)
	runPlanBench(b, store,
		`SELECT COUNT(*) FROM events AS e, executions AS x ON e.txnid = x.txnid`, 1)
}

// BenchmarkNestedLoopJoin: a non-equi condition forces the quadratic path
// (kept small); the baseline the other strategies are measured against.
func BenchmarkNestedLoopJoin(b *testing.B) {
	store := benchStore(b, 256, 0)
	runPlanBench(b, store,
		`SELECT COUNT(*) FROM events AS e, executions AS x ON e.id < x.txnid`, 1)
}

// BenchmarkIndexRangeScan measures a pushed-down range predicate on a
// secondary index (lo <= k < hi encoded into the index scan bounds).
func BenchmarkIndexRangeScan(b *testing.B) {
	store := benchStore(b, 50_000, 0)
	tbl := store.Table("events")
	if err := store.CreateIndex(&schema.Index{Name: "ev_txn", Table: tbl.Name, Columns: []int{1}}, nil); err != nil {
		b.Fatal(err)
	}
	runPlanBench(b, store,
		`SELECT COUNT(*) FROM events WHERE txnid >= 1000 AND txnid < 1100`, 1)
}

// BenchmarkPKRangeScan measures a range predicate pushed into primary-key
// scan bounds (no index needed).
func BenchmarkPKRangeScan(b *testing.B) {
	store := benchStore(b, 50_000, 0)
	runPlanBench(b, store,
		`SELECT COUNT(*) FROM events WHERE id >= 40000 AND id < 40200`, 1)
}

// BenchmarkFilteredScanStream measures the streaming single-source path (no
// materialisation) with a pushed residual filter over every row.
func BenchmarkFilteredScanStream(b *testing.B) {
	store := benchStore(b, 50_000, 5_000)
	runPlanBench(b, store,
		`SELECT id FROM events WHERE userid = 'needle'`, 10)
}

// BenchmarkPlanCompile measures what a plan-cache hit saves per statement.
func BenchmarkPlanCompile(b *testing.B) {
	store := benchStore(b, 16, 0)
	stmt, err := sqlparse.Parse(
		`SELECT x.handler FROM events AS e, executions AS x
		 WHERE e.userid = 'needle' AND e.txnid = x.txnid ORDER BY x.handler`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(stmt, store); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexOrderByLimit measures the newest-first read the app
// workload's timeline makes: an index equality prefix with 1,000 matches,
// ordered by primary key descending, LIMIT 5. When the walk supplies the
// order, LIMIT stops it after five rows instead of reading and sorting every
// match.
func BenchmarkIndexOrderByLimit(b *testing.B) {
	store := benchStore(b, 50_000, 50) // 1,000 needle rows
	tbl := store.Table("events")
	if err := store.CreateIndex(&schema.Index{Name: "ev_user", Table: tbl.Name, Columns: []int{2}}, nil); err != nil {
		b.Fatal(err)
	}
	runPlanBench(b, store,
		`SELECT id FROM events WHERE userid = 'needle' ORDER BY id DESC LIMIT 5`, 5)
}

// BenchmarkE2Needle is the section 3.3 needle query on the E2 shape at 100k
// events: a filtered full scan of the events table, which no index covers,
// joined to executions by primary key, in a read-only transaction as
// db.Query runs it. The scan runs in key-range partitions, one per
// GOMAXPROCS worker.
func BenchmarkE2Needle(b *testing.B) {
	store := benchStore(b, 100_000, 50_000) // 2 needle rows
	runPlanBenchIn(b, store,
		`SELECT x.handler FROM events AS e, executions AS x
		 WHERE e.userid = 'needle' AND e.txnid = x.txnid`, 2, txn.BeginReadOnly)
}

// BenchmarkE2GroupBy is E2's aggregate on the same shape: GROUP BY over a
// full scan of 100k events, folded per partition, then sorted by count.
func BenchmarkE2GroupBy(b *testing.B) {
	store := benchStore(b, 100_000, 0)
	runPlanBenchIn(b, store,
		`SELECT userid, COUNT(*) AS c FROM events GROUP BY userid ORDER BY c DESC`, 97, txn.BeginReadOnly)
}
