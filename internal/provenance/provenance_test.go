package provenance

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/value"
)

// writerFixture builds a Writer over an in-memory provenance DB tracing one
// app table, plus helpers for feeding events directly (bypassing the
// tracer, which has its own tests).
func writerFixture(t *testing.T) (*Writer, *db.DB) {
	t.Helper()
	prov := db.MustOpenMemory()
	appDB := db.MustOpenMemory()
	t.Cleanup(func() { prov.Close(); appDB.Close() })
	if err := appDB.ExecScript(`CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, price INTEGER)`); err != nil {
		t.Fatal(err)
	}
	w, err := Setup(prov, appDB, TableMap{"items": "ItemEvents"})
	if err != nil {
		t.Fatal(err)
	}
	return w, prov
}

func txnEvent(txnID, logical uint64, reqID, handler, fn string, committed bool, latUs int64) Event {
	start := time.Now()
	return Event{
		Kind: KindTxn,
		Txn: db.TxnTrace{
			TxnID:     txnID,
			CommitSeq: txnID,
			Meta:      db.TxMeta{ReqID: reqID, Handler: handler, Func: fn},
			Committed: committed,
			Start:     start,
			End:       start.Add(time.Duration(latUs) * time.Microsecond),
		},
		Logical: logical,
	}
}

func writeEvent(txnID, logical uint64, id int64, name string, price int64) Event {
	return Event{
		Kind:  KindWrite,
		Seq:   txnID,
		TxnID: txnID,
		Change: storage.Change{
			Table: "items",
			Op:    storage.OpInsert,
			After: value.Row{value.Int(id), value.Text(name), value.Int(price)},
		},
		Logical: logical,
	}
}

func requestEvent(reqID, handler string, logical uint64, latUs int64, status string) Event {
	return Event{
		Kind: KindRequest, Logical: logical,
		Call: &Call{ReqID: reqID, Handler: handler, ArgsText: "{}", ResultText: "null", LatencyUs: latUs, Status: status},
	}
}

func TestSetupIsIdempotentOnReattach(t *testing.T) {
	prov := db.MustOpenMemory()
	appDB := db.MustOpenMemory()
	defer prov.Close()
	defer appDB.Close()
	if err := appDB.ExecScript(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := Setup(prov, appDB, TableMap{"t": "TEvents"}); err != nil {
		t.Fatal(err)
	}
	// Re-attaching to the same provenance DB must not fail on existing
	// tables or indexes.
	if _, err := Setup(prov, appDB, TableMap{"t": "TEvents"}); err != nil {
		t.Fatalf("re-setup: %v", err)
	}
}

func TestApplyBatchRoundTrip(t *testing.T) {
	w, prov := writerFixture(t)
	batch := []Event{
		txnEvent(1, 10, "R1", "addItem", "DB.insert", true, 120),
		writeEvent(1, 11, 1, "widget", 999),
		requestEvent("R1", "addItem", 12, 300, "ok"),
		{Kind: KindEdge, Call: &Call{ReqID: "R1", Parent: "", Child: "R1/0", Handler: "addItem"}, Logical: 13},
		{Kind: KindExternal, Call: &Call{ReqID: "R1", Service: "smtp", Payload: "x"}, Logical: 14},
	}
	if err := w.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Executions row.
	ex, err := w.ExecutionByTxn(1)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ReqID != "R1" || ex.Func != "DB.insert" || !ex.Committed || ex.LatencyUs != 120 {
		t.Errorf("execution = %+v", ex)
	}
	// Event row with app columns.
	rows, err := prov.Query(`SELECT Type, id, name, price FROM ItemEvents`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0][2].AsText() != "widget" || rows.Rows[0][3].AsInt() != 999 {
		t.Errorf("item events = %v", rows.Rows)
	}
	// Request, edge, external rows.
	req, err := w.RequestByID("R1")
	if err != nil || req.LatencyUs != 300 {
		t.Errorf("request = %+v, %v", req, err)
	}
	edges, err := w.WorkflowEdges("R1")
	if err != nil || len(edges) != 1 || edges[0][1] != "R1/0" {
		t.Errorf("edges = %v, %v", edges, err)
	}
	ext, _ := prov.Query(`SELECT Service FROM trod_externals`)
	if len(ext.Rows) != 1 || ext.Rows[0][0].AsText() != "smtp" {
		t.Errorf("externals = %v", ext.Rows)
	}
	// Empty batch is a no-op.
	if err := w.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadEventsWithStatementTraces(t *testing.T) {
	w, prov := writerFixture(t)
	ev := txnEvent(5, 20, "R2", "getItem", "DB.select", true, 50)
	ev.Txn.Stmts = []db.StmtTrace{{
		Query: "SELECT * FROM items WHERE id = ?",
		Reads: []db.ReadEvent{
			{Table: "items", Row: value.Row{value.Int(1), value.Text("w"), value.Int(5)}},
			{Table: "items"}, // no-match marker
			{Table: "untraced", Row: value.Row{value.Int(9)}},
		},
	}}
	if err := w.ApplyBatch([]Event{ev}); err != nil {
		t.Fatal(err)
	}
	rows, err := prov.Query(`SELECT Type, Query, id FROM ItemEvents ORDER BY EvId`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 {
		t.Fatalf("read events = %v", rows.Rows)
	}
	if rows.Rows[0][2].AsInt() != 1 || !rows.Rows[1][2].IsNull() {
		t.Errorf("read rows = %v", rows.Rows)
	}
	if !strings.Contains(rows.Rows[0][1].AsText(), "SELECT") {
		t.Errorf("query text = %v", rows.Rows[0][1])
	}
}

func TestHandlerLatencyStats(t *testing.T) {
	w, _ := writerFixture(t)
	batch := []Event{
		requestEvent("R1", "fast", 1, 100, "ok"),
		requestEvent("R2", "fast", 2, 300, "ok"),
		requestEvent("R3", "slow", 3, 9000, "ok"),
		requestEvent("R4", "slow", 4, 11000, "error: boom"),
	}
	if err := w.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	stats, err := w.HandlerLatencyStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Handler != "slow" {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Requests != 2 || stats[0].MaxUs != 11000 || stats[0].AvgUs != 10000 || stats[0].Errors != 1 {
		t.Errorf("slow stats = %+v", stats[0])
	}
	if stats[1].Errors != 0 || stats[1].AvgUs != 200 {
		t.Errorf("fast stats = %+v", stats[1])
	}
	rendered := FormatHandlerStats(stats)
	if !strings.Contains(rendered, "slow") || !strings.Contains(rendered, "11000") {
		t.Errorf("rendered = %q", rendered)
	}
}

func TestSlowRequestsDrilldown(t *testing.T) {
	w, _ := writerFixture(t)
	batch := []Event{
		txnEvent(1, 1, "R1", "h", "step1", true, 40),
		txnEvent(2, 2, "R1", "h", "step2", true, 400),
		requestEvent("R1", "h", 3, 500, "ok"),
		requestEvent("R2", "h", 4, 90, "ok"),
	}
	if err := w.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	slow, err := w.SlowRequests(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) != 1 || slow[0].Request.ReqID != "R1" {
		t.Fatalf("slow = %+v", slow)
	}
	if len(slow[0].TxnLatencies) != 2 || slow[0].TxnLatencies[1].Func != "step2" || slow[0].TxnLatencies[1].LatencyUs != 400 {
		t.Errorf("txn breakdown = %+v", slow[0].TxnLatencies)
	}
}

func TestCheckDataQuality(t *testing.T) {
	w, _ := writerFixture(t)
	batch := []Event{
		txnEvent(1, 1, "R1", "addItem", "DB.insert", true, 10),
		writeEvent(1, 2, 1, "good", 100),
		txnEvent(2, 3, "R2", "addItem", "DB.insert", true, 10),
		writeEvent(2, 4, 2, "bad", -5), // negative price: bad data
	}
	if err := w.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	violations, err := w.CheckDataQuality("items", func(appRow value.Row) string {
		if appRow[2].AsInt() < 0 {
			return "negative price"
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Fatalf("violations = %+v", violations)
	}
	v := violations[0]
	if v.ReqID != "R2" || v.Reason != "negative price" || v.TxnID != 2 {
		t.Errorf("violation = %+v", v)
	}
	if _, err := w.CheckDataQuality("ghost", func(value.Row) string { return "" }); err == nil {
		t.Error("untraced table should error")
	}
}

func TestForgetAndExpire(t *testing.T) {
	w, prov := writerFixture(t)
	batch := []Event{
		txnEvent(1, 1, "R1", "h", "f", true, 10),
		writeEvent(1, 2, 1, "alice-data", 1),
		requestEvent("R1", "h", 3, 10, "ok"),
		txnEvent(2, 100, "R2", "h", "f", true, 10),
		writeEvent(2, 101, 2, "bob-data", 2),
		requestEvent("R2", "h", 102, 10, "ok"),
	}
	if err := w.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Forget by column value.
	n, err := w.Forget("name", "alice-data")
	if err != nil || n != 1 {
		t.Fatalf("Forget = %d, %v", n, err)
	}
	// Forget with a column no traced table has.
	if n, err := w.Forget("nosuchcolumn", "x"); err != nil || n != 0 {
		t.Errorf("Forget missing column = %d, %v", n, err)
	}
	// Expire everything before logical 50: removes R1's exec + request (and
	// its event row is already gone via Forget).
	n, err = w.Expire(50)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Errorf("Expire removed %d rows", n)
	}
	rows, _ := prov.Query(`SELECT COUNT(*) FROM Executions`)
	if rows.Rows[0][0].AsInt() != 1 {
		t.Errorf("executions after expire = %v", rows.Rows[0][0])
	}
	rows, _ = prov.Query(`SELECT COUNT(*) FROM ItemEvents`)
	if rows.Rows[0][0].AsInt() != 1 {
		t.Errorf("events after expire = %v", rows.Rows[0][0])
	}
	// The surviving data is R2's.
	req, err := w.RequestByID("R2")
	if err != nil || req.ReqID != "R2" {
		t.Errorf("survivor = %+v, %v", req, err)
	}
	if _, err := w.RequestByID("R1"); err == nil {
		t.Error("expired request still present")
	}
}

func TestRequestsListing(t *testing.T) {
	w, _ := writerFixture(t)
	if err := w.ApplyBatch([]Event{
		requestEvent("R2", "h", 5, 10, "ok"),
		requestEvent("R1", "h", 2, 10, "ok"),
	}); err != nil {
		t.Fatal(err)
	}
	reqs, err := w.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[0].ReqID != "R1" || reqs[1].ReqID != "R2" {
		t.Errorf("requests = %+v", reqs)
	}
}

func TestUnknownEventKind(t *testing.T) {
	w, _ := writerFixture(t)
	if err := w.ApplyBatch([]Event{{Kind: Kind(99)}}); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestEventTableSchemaMirrorsAppColumns(t *testing.T) {
	w, prov := writerFixture(t)
	_ = w
	tbl := prov.Store().Table("ItemEvents")
	if tbl == nil {
		t.Fatal("event table missing")
	}
	names := tbl.ColumnNames()
	want := []string{"EvId", "TxnId", "Seq", "Type", "Query", "id", "name", "price"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("event table columns = %v, want %v", names, want)
	}
}
