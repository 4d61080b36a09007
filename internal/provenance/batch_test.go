package provenance

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/crashtest"
	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestEventSize pins what one queued event costs the tracer's chunks: the
// transaction trace and the CDC change inline, everything the runtime
// reports behind one pointer. (448 bytes when all five payloads were inline.)
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 304 {
		t.Fatalf("Event is %d bytes, want at most 304", got)
	}
}

// thingsFixture traces a table with a column of every kind.
func thingsFixture(t *testing.T) (*Writer, *db.DB, *db.DB) {
	t.Helper()
	prov, appDB := db.MustOpenMemory(), db.MustOpenMemory()
	t.Cleanup(func() { prov.Close(); appDB.Close() })
	if err := appDB.ExecScript(`CREATE TABLE things (id INTEGER PRIMARY KEY, name TEXT, score FLOAT, live BOOL, raw BYTES)`); err != nil {
		t.Fatal(err)
	}
	w, err := Setup(prov, appDB, TableMap{"things": "ThingEvents"})
	if err != nil {
		t.Fatal(err)
	}
	return w, prov, appDB
}

func thing(id int64, name string) value.Row {
	return value.Row{value.Int(id), value.Text(name), value.Float(float64(id) / 4), value.Bool(id%2 == 0), value.Bytes([]byte{byte(id), 0})}
}

// mixedEvents is n requests' worth of provenance: every event kind, reads
// with full, missing and short rows and of an untraced table, every write
// operation, an aborted transaction.
func mixedEvents(n int) []Event {
	var out []Event
	logical := uint64(0)
	next := func() uint64 { logical++; return logical }
	for r := 1; r <= n; r++ {
		req, id := fmt.Sprintf("R%d", r), int64(r)
		name := "kept"
		if r%3 == 0 {
			name = "doomed"
		}
		read := txnEvent(uint64(2*r), next(), req, "handle", "lookup", r%5 != 0, 7)
		read.Txn.Snapshot = uint64(r)
		read.Txn.Stmts = []db.StmtTrace{{
			Query: "SELECT * FROM things WHERE name = ?",
			Reads: []db.ReadEvent{
				{Table: "things", Row: thing(id, name)},
				{Table: "things"},                                // scanned, matched nothing
				{Table: "Things", Row: value.Row{value.Int(id)}}, // another spelling, a short row
				{Table: "untraced", Row: value.Row{value.Int(9)}},
			},
		}}
		out = append(out, read, txnEvent(uint64(2*r+1), next(), req, "handle", "store", true, 11))
		ch := storage.Change{Table: "things", Op: storage.Op(r % 3)}
		if ch.Op != storage.OpInsert {
			ch.Before = thing(id, name)
		}
		if ch.Op != storage.OpDelete {
			ch.After = thing(id, name+"'")
		}
		out = append(out,
			Event{Kind: KindWrite, Seq: uint64(r), TxnID: uint64(2*r + 1), Change: ch, Logical: next()},
			Event{Kind: KindWrite, Seq: uint64(r), TxnID: uint64(2*r + 1), Change: storage.Change{Table: "untraced", After: value.Row{value.Int(1)}}, Logical: next()},
			Event{Kind: KindEdge, Call: &Call{ReqID: req, Child: req + "/0", Handler: "handle"}, Logical: next()},
			Event{Kind: KindExternal, Call: &Call{ReqID: req, Service: "smtp", Payload: name}, Logical: next()},
			requestEvent(req, "handle", next(), 40, "ok"))
	}
	return out
}

// TestApplyBatchStoresWhatSQLInsertWould is the oracle for writing batches
// without a per-row schema check: every row ApplyBatch stored is inserted
// into a second provenance database through the general SQL path, which
// validates and coerces it, and the two stores must then be identical — rows,
// value kinds, keys and index postings. Forget behaves the same on both, and
// the forgotten rows are still there for a BeginAt read before it.
func TestApplyBatchStoresWhatSQLInsertWould(t *testing.T) {
	w, prov, appDB := thingsFixture(t)
	events := mixedEvents(60)
	for len(events) > 0 { // several batches, so that slabs and scratch are reused
		n := min(97, len(events))
		if err := w.ApplyBatch(events[:n]); err != nil {
			t.Fatal(err)
		}
		events = events[n:]
	}

	viaSQL := db.MustOpenMemory()
	defer viaSQL.Close()
	w2, err := Setup(viaSQL, appDB, TableMap{"things": "ThingEvents"})
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, tbl := range prov.Store().Tables() {
		res, err := prov.Query(`SELECT * FROM ` + tbl)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			args, marks := make([]any, len(row)), ""
			for i, v := range row {
				args[i] = v
				marks += ", ?"
			}
			if _, err := viaSQL.Exec(`INSERT INTO `+tbl+` VALUES (`+marks[2:]+`)`, args...); err != nil {
				t.Fatalf("the SQL path refuses a row ApplyBatch stored in %s: %v\n%v", tbl, err, row)
			}
			stored++
		}
	}
	// 60 requests: 2 executions, 3 reads, 1 write, 1 edge, 1 external, 1 request.
	if stored != 60*9 {
		t.Fatalf("ApplyBatch stored %d rows, want %d", stored, 60*9)
	}
	same := func(when string) {
		t.Helper()
		if d := crashtest.StoreDiff(prov.Store(), viaSQL.Store()); d != "" {
			t.Fatalf("%s: ApplyBatch and SQL INSERT stored different things: %s", when, d)
		}
		for _, tbl := range prov.Store().Tables() {
			var kinds [2][]value.Kind
			for i, s := range []*storage.Store{prov.Store(), viaSQL.Store()} {
				s.ScanRange(tbl, "", "", s.CurrentSeq(), storage.Ascending, func(_ string, row value.Row) bool {
					for _, v := range row {
						kinds[i] = append(kinds[i], v.Kind())
					}
					return true
				})
			}
			if fmt.Sprint(kinds[0]) != fmt.Sprint(kinds[1]) {
				t.Fatalf("%s: %s holds values of different kinds on the two paths", when, tbl)
			}
		}
	}
	same("after load")

	doomed := func(d *db.DB) int64 {
		res, err := d.Query(`SELECT COUNT(*) FROM ThingEvents WHERE name = 'doomed'`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].AsInt()
	}
	before, seq := doomed(prov), prov.Store().CurrentSeq()
	if before == 0 {
		t.Fatal("nothing to forget")
	}
	n1, err1 := w.Forget("name", "doomed")
	n2, err2 := w2.Forget("name", "doomed")
	if err1 != nil || err2 != nil || n1 != n2 || int64(n1) != before {
		t.Fatalf("Forget removed %d (%v) and %d (%v) rows, want %d from both", n1, err1, n2, err2, before)
	}
	same("after Forget")
	if got := doomed(prov); got != 0 {
		t.Fatalf("%d forgotten rows still visible", got)
	}
	tx, err := prov.BeginAt(seq)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	res, err := tx.Query(`SELECT COUNT(*) FROM ThingEvents WHERE name = 'doomed'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != before {
		t.Fatalf("BeginAt(%d) sees %d of the %d rows forgotten later", seq, got, before)
	}
}

// TestStoredRowsLieInTableOrder pins where ApplyBatch puts the rows it
// stores. Batches interleave transactions, reads, writes, edges, external
// calls and requests, yet in every table whose key rises as rows are stored
// each row starts where the one before it in key order ended, except where
// a block filled up, so a scan reads one table's rows in sequence. Every
// row is exactly as long as its capacity, so no append can write into its
// neighbour.
func TestStoredRowsLieInTableOrder(t *testing.T) {
	w, prov, _ := thingsFixture(t)
	events := mixedEvents(1000)
	for len(events) > 0 {
		n := min(1024, len(events))
		if err := w.ApplyBatch(events[:n]); err != nil {
			t.Fatal(err)
		}
		events = events[n:]
	}
	store := prov.Store()
	for _, tbl := range []string{"ThingEvents", "Executions", "trod_rpc_edges", "trod_externals"} {
		var prev value.Row
		rows, breaks := 0, 0
		store.ScanRange(tbl, "", "", store.CurrentSeq(), storage.Ascending, func(_ string, row value.Row) bool {
			if cap(row) != len(row) {
				t.Fatalf("%s: a stored row has %d values and capacity %d", tbl, len(row), cap(row))
			}
			if prev != nil && unsafe.Pointer(&row[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*unsafe.Sizeof(row[0])) {
				breaks++
			}
			prev = row
			rows++
			return true
		})
		if rows < 1000 {
			t.Fatalf("%s holds %d rows, want at least one per request", tbl, rows)
		}
		if perBlock := valueBlock / len(prev); breaks > rows/perBlock {
			t.Errorf("%s: %d of %d rows do not follow the row before them; %d blocks of %d rows hold them all",
				tbl, breaks, rows, rows/perBlock+1, perBlock)
		}
	}
}

// TestSetupRefusesForeignEventTable: ApplyBatch relies on the event table
// mirroring the traced table, so Setup must refuse one that does not.
func TestSetupRefusesForeignEventTable(t *testing.T) {
	prov, appDB := db.MustOpenMemory(), db.MustOpenMemory()
	defer prov.Close()
	defer appDB.Close()
	if err := appDB.ExecScript(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if err := prov.ExecScript(`CREATE TABLE TEvents (EvId INTEGER PRIMARY KEY, TxnId INTEGER, Seq INTEGER, Type TEXT, Query TEXT, id INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := Setup(prov, appDB, TableMap{"t": "TEvents"}); err == nil {
		t.Fatal("Setup accepted an event table with a column missing")
	}
}

// TestApplyBatchAllocsPerStoredRow pins the flusher's allocation rate at the
// tracer's default batch size: a batch allocates its slabs (values, keys,
// version chains, index postings) and the B-tree nodes it splits, not
// something per row. The parent of this change made 17.6 allocations per
// stored row on the same batches (31,480 per batch: row, checked copy, key
// tuple, key bytes, key string, lowercased table names, entry, version
// slice, and the same again for the index); this one makes about 0.1.
func TestApplyBatchAllocsPerStoredRow(t *testing.T) {
	w, _ := writerFixture(t)
	const runs, requests = 5, 256 // 4 events and 7 stored rows per request
	batches := make([][]Event, runs+1)
	id := uint64(0)
	for b := range batches {
		for r := 0; r < requests; r++ {
			id++
			req := fmt.Sprintf("R%d", id)
			txn := txnEvent(id, id, req, "getItem", "DB.select", true, 50)
			row := value.Row{value.Int(int64(id)), value.Text("widget"), value.Int(5)}
			txn.Txn.Stmts = []db.StmtTrace{{Query: "SELECT * FROM items WHERE id < ?",
				Reads: []db.ReadEvent{{Table: "items", Row: row}, {Table: "items", Row: row}, {Table: "items", Row: row}}}}
			batches[b] = append(batches[b], txn, writeEvent(id, id, int64(id), "widget", 5), requestEvent(req, "getItem", id, 300, "ok"),
				Event{Kind: KindEdge, Call: &Call{ReqID: req, Child: req + "/0", Handler: "getItem"}, Logical: id})
		}
	}
	if len(batches[0]) != 1024 {
		t.Fatalf("batch holds %d events, want the tracer's 1024", len(batches[0]))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := w.ApplyBatch(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perRow := allocs / (7 * requests); perRow > 2 {
		t.Fatalf("ApplyBatch makes %.2f allocations per stored row (%.0f per batch), want at most 2", perRow, allocs)
	} else {
		t.Logf("%.2f allocations per stored row, %.0f per 1024-event batch", perRow, allocs)
	}
}
