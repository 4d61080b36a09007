package server

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/span"
	"repro/internal/wal"
)

// findTrace reads a request's kept trace back from the trod_spans table, as
// an operator does (trod-query -trace), polling until the spans store's
// writer has inserted it. The fallback allocator numbers a server's requests
// S1, S2, ... in arrival order.
func findTrace(t *testing.T, c *client.Client, reqID string) *span.Trace {
	t.Helper()
	tr := &span.Trace{ReqID: reqID}
	waitFor(t, "a kept trace for "+reqID, func() bool {
		res, err := c.Query(`SELECT trace_id, kind, status, span_id, parent_id, stage, start_us, dur_us, seq
			FROM trod_spans WHERE req_id = ?`, reqID)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			stage, ok := span.ParseStage(row[5].AsText())
			if !ok {
				t.Fatalf("unknown stage %q in trod_spans", row[5].AsText())
			}
			sp := span.Span{ID: uint32(row[3].AsInt()), Parent: uint32(row[4].AsInt()), Stage: stage,
				Start: row[6].AsInt() * 1000, Dur: row[7].AsInt() * 1000, Seq: uint64(row[8].AsInt())}
			if sp.ID == span.RootID {
				tr.TraceID, tr.Kind, tr.Status = uint64(row[0].AsInt()), row[1].AsText(), row[2].AsText()
				tr.Wall, tr.Seq = time.Duration(sp.Dur), sp.Seq
				tr.Spans = append([]span.Span{sp}, tr.Spans...)
			} else {
				tr.Spans = append(tr.Spans, sp)
			}
		}
		return len(res.Rows) > 0
	})
	return tr
}

func stages(tr *span.Trace) map[string]int {
	out := map[string]int{}
	for _, s := range tr.Spans {
		out[s.Stage.String()]++
	}
	return out
}

// TestSpansEndToEnd drives traced requests through a live server and reads
// their span trees back from the trod_spans system table over normal SQL.
func TestSpansEndToEnd(t *testing.T) {
	col := span.NewCollector(span.CollectorOptions{Sample: 1})
	_, addr := memServer(t, Config{Spans: col})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1, 'a')`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT v FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}

	ins := findTrace(t, c, "S2")
	if ins.Kind != "exec" || ins.Status != "ok" || ins.Seq == 0 {
		t.Fatalf("insert trace malformed: %+v", ins)
	}
	st := stages(ins)
	for _, want := range []string{"request", "frame_read", "parse_plan", "execute", "occ_validate"} {
		if st[want] == 0 {
			t.Fatalf("insert trace missing %s stage (have %v)", want, st)
		}
	}
	q := findTrace(t, c, "S3")
	if q.Kind != "query" || stages(q)["execute"] == 0 || stages(q)["parse_plan"] == 0 {
		t.Fatalf("query trace malformed: kind %q, stages %v", q.Kind, stages(q))
	}
	// The rows form one tree: every span hangs under a span of its trace.
	for _, tr := range []*span.Trace{ins, q} {
		ids := map[uint32]bool{}
		for _, sp := range tr.Spans {
			ids[sp.ID] = true
		}
		for _, sp := range tr.Spans[1:] {
			if !ids[sp.Parent] {
				t.Fatalf("%s: span %d (%s) has no parent %d in trod_spans", tr.ReqID, sp.ID, sp.Stage, sp.Parent)
			}
		}
	}
}

// TestSpansTailSamplingKeepsErrors: with the probabilistic sampler
// effectively off, error traces are still always kept.
func TestSpansTailSamplingKeepsErrors(t *testing.T) {
	col := span.NewCollector(span.CollectorOptions{KeepOver: time.Hour})
	_, addr := memServer(t, Config{Spans: col})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query(`SELECT broken syntax here`); err == nil {
		t.Fatal("broken SQL succeeded")
	}
	tr := findTrace(t, c, "S1")
	if tr.Status != "error" {
		t.Fatalf("kept trace status = %q, want error", tr.Status)
	}
	if _, err := c.Query(`SELECT 1 WHERE 1 = 1`); err != nil {
		// fine either way; the point is below
		_ = err
	}
	st := col.Stats()
	if st.Kept == 0 || st.Kept > 1 {
		t.Fatalf("tail sampler kept %d traces, want exactly the error trace", st.Kept)
	}
}

// TestSpanStageCoverage pins the acceptance bar: for a slow (fsync-bound)
// write, the recorded stage spans must account for at least 90% of the
// request's wall time — the trace is an explanation, not a sample of one.
func TestSpanStageCoverage(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "w.wal"), Sync: wal.SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	d.Log().SetSyncDelay(2 * time.Millisecond)

	col := span.NewCollector(span.CollectorOptions{Sample: 1})
	_, addr := startServer(t, d, Config{Spans: col})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}
	ins := findTrace(t, c, "S2")
	if ins.Kind != "exec" || ins.Seq == 0 {
		t.Fatalf("S2 is not a committed exec trace: %+v", ins)
	}
	sum, wall := span.StageSumNs(ins.Spans), int64(ins.Wall)
	if wall <= 0 {
		t.Fatalf("trace wall = %d", wall)
	}
	if cov := float64(sum) / float64(wall); cov < 0.9 {
		t.Fatalf("stage spans cover %.1f%% of a %.2fms request, want >= 90%% (spans: %v)",
			100*cov, float64(wall)/1e6, span.BreakdownMs(ins.Spans))
	}
	st := stages(ins)
	if st["wal_fsync"] == 0 && st["group_commit_wait"] == 0 {
		t.Fatalf("fsync-bound commit shows neither wal_fsync nor group_commit_wait: %v", st)
	}
}

// TestClientTracePropagation: a client-originated trace context rides the
// wire, so the server-side trace carries the client's trace ID and the
// client records its own pool/rtt spans under the same trace.
func TestClientTracePropagation(t *testing.T) {
	scol := span.NewCollector(span.CollectorOptions{Sample: 1})
	_, addr := memServer(t, Config{Spans: scol})
	ccol := span.NewCollector(span.CollectorOptions{Sample: 1})
	ccol.SeedTraceIDs(1 << 40) // disjoint from the server's allocator
	var mu sync.Mutex
	var kept []*span.Trace
	ccol.SetOnKeep(func(tr *span.Trace) {
		mu.Lock()
		kept = append(kept, tr)
		mu.Unlock()
	})
	c, err := client.Dial(addr, client.Options{Collector: ccol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	ctr := kept[len(kept)-1] // the client offers its trace before Exec returns
	mu.Unlock()
	if ctr.Kind != "exec" || ctr.TraceID <= 1<<40 {
		t.Fatalf("client trace ID %d not from the seeded range", ctr.TraceID)
	}
	cst := stages(ctr)
	if cst["rtt"] == 0 || cst["pool_checkout"] == 0 {
		t.Fatalf("client trace missing rtt/pool_checkout: %v", cst)
	}
	str := findTrace(t, c, "S1")
	if str.TraceID != ctr.TraceID {
		t.Fatalf("server trace ID %d != client trace ID %d: context did not propagate", str.TraceID, ctr.TraceID)
	}
	// The server's root span parents under the client's root, so a merged
	// tree renders the server stages inside the client's rtt window.
	if root := str.Spans[0]; root.Parent != span.RootID {
		t.Fatalf("server root parent = %d, want the client's root span ID %d", root.Parent, span.RootID)
	}
}

// TestSpanTableRoutedByTableReference: only a statement that names the
// trod_spans table goes to the spans store; the same text inside a string
// literal or a comment is application data.
func TestSpanTableRoutedByTableReference(t *testing.T) {
	_, addr := memServer(t, Config{Spans: span.NewCollector(span.CollectorOptions{Sample: 1})})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, stmt := range []string{
		`CREATE TABLE notes (id INTEGER PRIMARY KEY, v TEXT)`,
		`INSERT INTO notes VALUES (1, 'see trod_spans')`,
		`INSERT INTO notes VALUES (2, 'x') -- not trod_spans`,
	} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	res, err := c.Query(`SELECT v FROM notes WHERE v = 'see trod_spans'`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("application read of trod_spans text = %v, %v", res, err)
	}
	if _, err := c.Query(`SELECT COUNT(*) FROM TROD_SPANS WHERE stage = 'notes'`); err != nil {
		t.Fatalf("system table read: %v", err)
	}
}

// TestSpansDisabledNoStore: without a collector the server must not build
// the trod_spans store, and trod_spans queries fail like any unknown table.
func TestSpansDisabledNoStore(t *testing.T) {
	srv, addr := memServer(t, Config{})
	if srv.spanStore != nil {
		t.Fatal("span store built with tracing disabled")
	}
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(`SELECT * FROM trod_spans`); err == nil {
		t.Fatal("trod_spans query succeeded with tracing disabled")
	}
}
