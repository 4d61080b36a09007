package sqlexec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// partitionCase is one select the partition tests run, and whether its
// aggregates keep it to one partition (foldsInParts is false).
type partitionCase struct {
	sql     string
	oneScan bool
}

// partitionCases cover full scans with and without filters, DISTINCT,
// sorts (on items and on expressions that are not items), GROUP BY with
// every aggregate, HAVING and a projected non-grouped column, hash, PK-lookup
// and LEFT joins driven by the partitioned table, and rows that fail
// partway through the walk, the projection, the fold, the sort and a join.
var partitionCases = []partitionCase{
	{sql: `SELECT * FROM t`},
	{sql: `SELECT id, i, r, s FROM t WHERE i > 0 OR r < 1`},
	{sql: `SELECT id FROM t WHERE s LIKE 'a%' AND r IS NOT NULL`},
	{sql: `SELECT DISTINCT g, s FROM t`},
	{sql: `SELECT DISTINCT r FROM t`},
	{sql: `SELECT id, r FROM t ORDER BY r DESC, s`},
	{sql: `SELECT id, s FROM t WHERE i IS NOT NULL ORDER BY i * 2, r`},
	{sql: `SELECT id FROM t ORDER BY s LIMIT 7 OFFSET 3`},
	{sql: `SELECT g, COUNT(*), COUNT(i), SUM(i), AVG(i), MIN(i), MAX(i), MIN(r), MAX(r), MIN(s), MAX(s), s, r FROM t GROUP BY g`},
	{sql: `SELECT r, COUNT(*), MIN(id), MAX(id), SUM(i) FROM t GROUP BY r`},
	{sql: `SELECT s, g, COUNT(*) AS c FROM t GROUP BY s, g HAVING COUNT(*) > 2 ORDER BY c DESC`},
	{sql: `SELECT g, MIN(COALESCE(i, r)), MAX(COALESCE(r, i)), MIN(COALESCE(r, i)) FROM t GROUP BY g`},
	{sql: `SELECT g, MIN(z), MAX(z), MIN(COALESCE(n, z)), MAX(COALESCE(n, z)) FROM t GROUP BY g`},
	{sql: `SELECT MIN(z), MAX(z), MIN(COALESCE(n, z)), MAX(COALESCE(z, n)) FROM t`},
	{sql: `SELECT COUNT(*), SUM(i), AVG(i), MIN(r), MAX(s) FROM t`},
	{sql: `SELECT COUNT(*), MAX(r), SUM(i) FROM t WHERE i > 100`},
	{sql: `SELECT g, SUM(f), AVG(f), SUM(r) FROM t GROUP BY g`, oneScan: true},
	{sql: `SELECT SUM(f), AVG(f) FROM t`, oneScan: true},
	{sql: `SELECT g, COUNT(DISTINCT i), COUNT(DISTINCT r) FROM t GROUP BY g`, oneScan: true},
	{sql: `SELECT SUM(i * 2) FROM t`, oneScan: true},
	{sql: `SELECT t.id, u.x FROM t JOIN u ON t.i = u.k`},
	{sql: `SELECT t.id, u.id FROM t JOIN u ON t.r = u.x`},
	{sql: `SELECT t.id, u.id FROM t JOIN u ON t.i = u.x`},
	{sql: lookupCase},
	{sql: `SELECT t.id, u.w FROM t LEFT JOIN u ON t.i = u.id`},
	{sql: `SELECT t.g, COUNT(*), MIN(u.x) FROM t JOIN u ON t.i = u.k GROUP BY t.g`},
	{sql: `SELECT id, 1 / e FROM t`},
	{sql: `SELECT id FROM t WHERE COALESCE(eb, et) + 1 > 0`},
	{sql: `SELECT id, COALESCE(eb, et) + 1 FROM t`},
	{sql: `SELECT g, MAX(COALESCE(eb, et) + 1) FROM t GROUP BY g`},
	{sql: `SELECT id FROM t ORDER BY COALESCE(et, eb) + 1`},
	{sql: `SELECT t.id FROM t JOIN u ON t.i = u.k WHERE 1 / t.e > 0`},
}

// lookupCase joins few rows of t to u by u's primary key.
const lookupCase = `SELECT t.id, u.w FROM t, u WHERE t.s = 'a' AND t.i = u.id`

// seedPartitionTables builds t, the table the cases partition, and u, the
// table they join. t mixes INTEGER, REAL and TEXT columns with NULLs, NaN,
// both zeros, floats whose sums depend on their order (0.1, 0.2, ±1e308),
// and floats equal to integers. z holds only the two zeros and n only the
// integer 0, so their MIN and MAX tie on values that print differently. f
// holds finite floats whose sum depends on the order they are added in. A
// few rows hold e = 0, which 1 / e fails
// on, or a BOOL or TEXT in eb or et, which + 1 fails on with a message
// naming the kind, so the first failing row in key order decides the error.
func seedPartitionTables(t *testing.T, rng *rand.Rand, rows int) *harness {
	t.Helper()
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, i INTEGER, r REAL, s TEXT, e INTEGER, eb BOOL, et TEXT, z REAL, n INTEGER, f REAL);
	       CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER, x REAL, w TEXT)`)
	reals := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, 2, 2.5, -1.5, 0.1, 0.2, 0.3, 1e308, -1e308}
	sums := []float64{0.1, 0.2, 0.3, 1, 3.3, 1e16, -1e16}
	maybe := func(pNull float64, v value.Value) value.Value {
		if rng.Float64() < pNull {
			return value.Null
		}
		return v
	}
	tt, ut := h.store.Table("t"), h.store.Table("u")
	err := txn.Run(h.store, func(tx *txn.Txn) error {
		for id := 0; id < rows; id++ {
			e := value.Int(1)
			if rng.Intn(150) == 0 {
				e = value.Int(0)
			}
			eb, et := value.Null, value.Null
			switch rng.Intn(200) {
			case 0:
				eb = value.Bool(rng.Intn(2) == 0)
			case 1:
				et = value.Text("x")
			}
			row := value.Row{
				value.Int(int64(id)),
				value.Int(int64(rng.Intn(6))),
				maybe(0.1, value.Int(int64(rng.Intn(9)-3))),
				maybe(0.1, value.Float(reals[rng.Intn(len(reals))])),
				maybe(0.1, value.Text([]string{"a", "b", "ab", "ba", ""}[rng.Intn(5)])),
				maybe(0.05, e),
				eb, et,
				maybe(0.1, value.Float(reals[1+rng.Intn(2)])),
				maybe(0.5, value.Int(0)),
				maybe(0.1, value.Float(sums[rng.Intn(len(sums))])),
			}
			if err := tx.Insert(tt, row); err != nil {
				return err
			}
		}
		for id := 0; id < 1000; id++ {
			row := value.Row{
				value.Int(int64(id - 3)),
				value.Int(int64(rng.Intn(120) - 3)),
				maybe(0.9, value.Float(reals[rng.Intn(len(reals))])),
				value.Text(fmt.Sprintf("w%d", id)),
			}
			if err := tx.Insert(ut, row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runInParts runs src as a select in tx, reading its first source in up to
// n partitions, and reports how many it read. The result is rendered with
// its columns and each value's kind, and an error as its text.
func runInParts(t *testing.T, store *storage.Store, tx *txn.Txn, onRead ReadFn, src string, n int) (string, int) {
	t.Helper()
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	plan, err := Compile(stmt, store)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	ex := &Executor{Tx: tx, Store: store, OnRead: onRead}
	res, err := ex.runSelect(plan.sel, n)
	if err != nil {
		return "error: " + err.Error(), ex.parts
	}
	return strings.Join(res.Columns, ",") + " → " + renderRows(res.Rows), ex.parts
}

// TestPartitionDifferential runs every case in one partition and in 2 to 8,
// and requires the same columns, the same rows in the same order and the
// same error. A full scan in a read-only transaction must read exactly n
// partitions unless its aggregates forbid it; in a read-write transaction
// with buffered writes, or under a read observer, it must read one.
func TestPartitionDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := seedPartitionTables(t, rng, 200+rng.Intn(400))
		if shape := planShape(t, h.store, lookupCase); !strings.Contains(shape, "join-pk(u") {
			t.Fatalf("%q plans %s, want a PK-lookup join", lookupCase, shape)
		}
		for _, c := range partitionCases {
			tx := txn.BeginReadOnly(h.store)
			want, parts := runInParts(t, h.store, tx, nil, c.sql, 1)
			if parts != 1 {
				t.Fatalf("seed %d %q: n=1 read %d partitions", seed, c.sql, parts)
			}
			for n := 2; n <= 8; n++ {
				got, parts := runInParts(t, h.store, tx, nil, c.sql, n)
				if got != want {
					t.Fatalf("seed %d %q in %d partitions:\n got %s\nwant %s", seed, c.sql, n, got, want)
				}
				wantParts := n
				if c.oneScan {
					wantParts = 1
				}
				if parts != wantParts {
					t.Fatalf("seed %d %q: asked for %d partitions, read %d, want %d", seed, c.sql, n, parts, wantParts)
				}
			}
			var reads int
			got, parts := runInParts(t, h.store, tx, func(string, value.Row) { reads++ }, c.sql, 8)
			if got != want || parts != 1 {
				t.Fatalf("seed %d %q under a read observer: %d partitions, result %s, want 1 and %s", seed, c.sql, parts, got, want)
			}
			tx.Abort()
		}

		// A read-write transaction with buffered inserts, updates and
		// deletes in the scanned table reads one partition and sees them.
		tx := txn.Begin(h.store)
		execIn(t, h, tx, `INSERT INTO t (id, g, i, r, s, e) VALUES (-1, 2, 4, 2.5, 'zz', 1), (100000, 9, 0, 0.1, 'a', 1)`)
		execIn(t, h, tx, `UPDATE t SET s = 'ab', r = 1e308 WHERE g = 3`)
		execIn(t, h, tx, `DELETE FROM t WHERE i = 1`)
		for _, c := range partitionCases {
			want, _ := runInParts(t, h.store, tx, nil, c.sql, 1)
			got, parts := runInParts(t, h.store, tx, nil, c.sql, 8)
			if got != want || parts != 1 {
				t.Fatalf("seed %d %q in a read-write transaction: %d partitions, result\n got %s\nwant %s", seed, c.sql, parts, got, want)
			}
			if !strings.Contains(want, "zz") && c.sql == `SELECT * FROM t` {
				t.Fatalf("seed %d: the scan missed the buffered insert: %s", seed, want)
			}
		}
		tx.Abort()
	}
}

func planShape(t *testing.T, store *storage.Store, src string) string {
	t.Helper()
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, store)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Shape()
}

// TestPartitionedScanUnderConcurrentWrites runs partitioned scans while a
// writer inserts, updates and deletes rows of the scanned table and a loop
// vacuums the store. Each result must equal a one-partition scan at the
// same snapshot. A query one of whose partitions fails must leave no worker
// running.
func TestPartitionedScanUnderConcurrentWrites(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE c (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER, s TEXT)`)
	const rows = 2000
	ct := h.store.Table("c")
	if err := txn.Run(h.store, func(tx *txn.Txn) error {
		for id := 0; id < rows; id++ {
			if err := tx.Insert(ct, value.Row{value.Int(int64(id)), value.Int(int64(id % 7)), value.Int(int64(id)), value.Text(fmt.Sprintf("s%d", id%13))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		next := rows
		for {
			select {
			case <-stop:
				return
			default:
			}
			stmts := []struct {
				sql  string
				args []any
			}{
				{`INSERT INTO c VALUES (?, ?, ?, ?)`, []any{next, next % 7, next, "new"}},
				{`UPDATE c SET v = v + 1, s = 'upd' WHERE id = ?`, []any{rng.Intn(next)}},
				{`DELETE FROM c WHERE id = ?`, []any{rng.Intn(next)}},
			}
			next++
			for _, st := range stmts {
				if _, err := h.tryExec(st.sql, st.args...); err != nil {
					writeErr = err
					return
				}
			}
		}
	}()
	go func() { // vacuum
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.store.Vacuum(h.store.CurrentSeq())
			time.Sleep(100 * time.Microsecond)
		}
	}()

	queries := []string{
		`SELECT * FROM c`,
		`SELECT g, COUNT(*), SUM(v), AVG(v), MIN(s), MAX(id) FROM c GROUP BY g`,
		`SELECT id, s FROM c WHERE v % 3 = 0`,
		`SELECT DISTINCT s FROM c`,
	}
	for iter := 0; iter < 12; iter++ {
		tx := txn.BeginReadOnly(h.store)
		for _, q := range queries {
			want, _ := runInParts(t, h.store, tx, nil, q, 1)
			got, parts := runInParts(t, h.store, tx, nil, q, 4)
			if got != want || parts != 4 {
				close(stop)
				wg.Wait()
				t.Fatalf("iteration %d %q: %d partitions, result differs from one partition at snapshot %d", iter, q, parts, tx.Snapshot())
			}
		}
		tx.Abort()
	}
	close(stop)
	wg.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}

	// Only the first partition fails, on its first row, id = -1; the call
	// must return its error only once the other partitions are done, and
	// leave no worker behind.
	h.exec(`INSERT INTO c VALUES (-1, 0, 0, 'first')`)
	baseline := runtime.NumGoroutine()
	tx := txn.BeginReadOnly(h.store)
	got, parts := runInParts(t, h.store, tx, nil, `SELECT id, 1 / (id + 1) FROM c`, 4)
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	tx.Abort()
	if parts != 4 || got != "error: value: division by zero" {
		t.Fatalf("failing query: %d partitions, %s", parts, got)
	}
	// The frame of scanPart itself, with its argument list: a worker that
	// finished its range can still be in the deferred wg.Done of its
	// goroutine, scanParts.func2, when Wait returns.
	if strings.Contains(string(stacks), "sqlexec.(*Executor).scanPart(") {
		t.Fatalf("a partition is still scanning after the query returned:\n%s", stacks)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a failed partitioned query, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupByFoldAllocations pins the GROUP BY fold: grouping 50,000 rows
// into four groups allocates per group and per partition, not per row, in
// one partition and in four.
func TestGroupByFoldAllocations(t *testing.T) {
	store := storage.NewStore()
	ev, err := schema.NewTable("ev", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "Type", Type: value.KindText},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CreateTable(ev, false, nil); err != nil {
		t.Fatal(err)
	}
	types := []string{"Insert", "Read", "Update", "Delete"}
	const rows = 50_000
	if err := txn.Run(store, func(tx *txn.Txn) error {
		for i := 0; i < rows; i++ {
			if err := tx.Insert(ev, value.Row{value.Int(int64(i)), value.Text(types[i%len(types)])}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparse.Parse(`SELECT Type, COUNT(*) FROM ev GROUP BY Type`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, store)
	if err != nil {
		t.Fatal(err)
	}
	// The bound leaves room for the per-group state (key, accumulators,
	// output row), each partition's sink and worker, and the transaction;
	// buffering one tuple per row, as a fold does not, costs 50,000.
	const bound = 200
	for _, n := range []int{1, 4} {
		var parts int
		allocs := testing.AllocsPerRun(3, func() {
			tx := txn.BeginReadOnly(store)
			ex := &Executor{Tx: tx, Store: store}
			res, err := ex.runSelect(plan.sel, n)
			if err != nil || len(res.Rows) != len(types) {
				t.Fatalf("%v %v", res, err)
			}
			parts = ex.parts
			tx.Abort()
		})
		t.Logf("%d partitions: %.0f allocations", parts, allocs)
		if parts != n || allocs > bound {
			t.Fatalf("%d partitions: %.0f allocations grouping %d rows, want %d partitions and at most %d", parts, allocs, rows, n, bound)
		}
	}
}

// TestJoinStrategiesAgreeOnMixedNumerics checks that the hash join, the
// nested-loop join and the PK-lookup join find the same pairs as
// value.Compare, over INTEGER and REAL columns holding NULL, NaN, both
// zeros and floats equal to integers: an INTEGER 1 joins a REAL 1.0.
func TestJoinStrategiesAgreeOnMixedNumerics(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE a (id INTEGER PRIMARY KEY, i INTEGER, x REAL);
	       CREATE TABLE bi (k INTEGER PRIMARY KEY, k2 INTEGER, id INTEGER);
	       CREATE TABLE bx (k REAL PRIMARY KEY, k2 REAL, id INTEGER)`)
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	aRows := []value.Row{}
	for id, x := range []float64{nan, negZero, 0, 1, 1.5, 2, -1, 3, 7, nan} {
		i := value.Int(int64(id%5 - 1))
		if id == 6 {
			i = value.Null
		}
		xv := value.Float(x)
		if id == 8 {
			xv = value.Null
		}
		aRows = append(aRows, value.Row{value.Int(int64(id)), i, xv})
	}
	var biRows, bxRows []value.Row
	for k := -2; k < 60; k++ {
		biRows = append(biRows, value.Row{value.Int(int64(k)), value.Int(int64(k)), value.Int(int64(100 + k))})
	}
	for n, k := range append([]float64{nan, 0, 1, 1.5, 2, -1, 3}, func() []float64 {
		var fill []float64
		for f := 10.5; f < 60; f++ {
			fill = append(fill, f)
		}
		return fill
	}()...) {
		bxRows = append(bxRows, value.Row{value.Float(k), value.Float(k), value.Int(int64(200 + n))})
	}
	if err := txn.Run(h.store, func(tx *txn.Txn) error {
		for tbl, rows := range map[string][]value.Row{"a": aRows, "bi": biRows, "bx": bxRows} {
			for _, r := range rows {
				if err := tx.Insert(h.store.Table(tbl), r); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, col := range []int{1, 2} { // a.i, a.x
		for _, b := range []struct {
			name string
			rows []value.Row
		}{{"bi", biRows}, {"bx", bxRows}} {
			var want []string
			for _, ar := range aRows {
				for _, br := range b.rows {
					if !ar[col].IsNull() && value.Compare(ar[col], br[0]) == 0 {
						want = append(want, fmt.Sprintf("%d|%d", ar[0].AsInt(), br[2].AsInt()))
					}
				}
			}
			acol := []string{"", "i", "x"}[col]
			for _, q := range []struct{ sql, shape string }{
				{fmt.Sprintf(`SELECT a.id, %[1]s.id FROM a JOIN %[1]s ON a.%[2]s = %[1]s.k2 ORDER BY a.id, %[1]s.id`, b.name, acol), "join-hash"},
				{fmt.Sprintf(`SELECT a.id, %[1]s.id FROM a JOIN %[1]s ON a.%[2]s + 0 = %[1]s.k2 ORDER BY a.id, %[1]s.id`, b.name, acol), "join-nested"},
				{fmt.Sprintf(`SELECT a.id, %[1]s.id FROM a JOIN %[1]s ON a.%[2]s = %[1]s.k ORDER BY a.id, %[1]s.id`, b.name, acol), "join-pk"},
			} {
				if shape := planShape(t, h.store, q.sql); !strings.Contains(shape, q.shape) {
					t.Fatalf("%q plans %s, want %s", q.sql, shape, q.shape)
				}
				got := rows(h.exec(q.sql))
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("%s: %q\n got %v\nwant %v", q.shape, q.sql, got, want)
				}
			}
		}
	}
}
