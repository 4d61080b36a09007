package server

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/span"
	"repro/internal/wal"
)

// findTrace polls the collector for the newest kept trace of a request kind.
func findTrace(t *testing.T, col *span.Collector, kind string) *span.Trace {
	t.Helper()
	var got *span.Trace
	waitFor(t, "a kept "+kind+" trace", func() bool {
		for _, tr := range col.Traces() {
			if tr.Kind == kind {
				got = tr
			}
		}
		return got != nil
	})
	return got
}

func stages(tr *span.Trace) map[string]int {
	out := map[string]int{}
	for _, s := range tr.Spans {
		out[s.Stage.String()]++
	}
	return out
}

// TestSpansEndToEnd drives traced requests through a live server and follows
// the whole observability path: collector capture, the trod_spans system
// table served over normal SQL, and agreement between the two.
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

	ins := findTrace(t, col, "exec")
	if ins.Status != "ok" || ins.ReqID == "" {
		t.Fatalf("insert trace malformed: %+v", ins)
	}
	st := stages(ins)
	for _, want := range []string{"request", "frame_read", "parse_plan", "execute", "occ_validate"} {
		if st[want] == 0 {
			t.Fatalf("insert trace missing %s stage (have %v)", want, st)
		}
	}
	q := findTrace(t, col, "query")
	if stages(q)["execute"] == 0 || stages(q)["parse_plan"] == 0 {
		t.Fatalf("query trace missing stages: %v", stages(q))
	}

	// The same spans must be queryable over plain SQL against the trod_spans
	// system table (the store writer is async: poll).
	var rows int
	waitFor(t, "trod_spans rows for the insert", func() bool {
		res, err := c.Query(`SELECT stage, dur_us FROM trod_spans WHERE req_id = ?`, ins.ReqID)
		if err != nil {
			t.Fatal(err)
		}
		rows = len(res.Rows)
		return rows > 0
	})
	if rows != len(ins.Spans) {
		t.Fatalf("trod_spans has %d rows for %s, collector trace has %d spans", rows, ins.ReqID, len(ins.Spans))
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
	tr := findTrace(t, col, "query")
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
	settle(t, c)

	var ins *span.Trace
	for _, tr := range col.Traces() {
		if tr.Kind == "exec" && tr.Seq != 0 {
			ins = tr
		}
	}
	if ins == nil {
		t.Fatal("no committed exec trace kept")
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
	c, err := client.Dial(addr, client.Options{Collector: ccol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}

	ctr := findTrace(t, ccol, "exec")
	if ctr.TraceID <= 1<<40 {
		t.Fatalf("client trace ID %d not from the seeded range", ctr.TraceID)
	}
	cst := stages(ctr)
	if cst["rtt"] == 0 || cst["pool_checkout"] == 0 {
		t.Fatalf("client trace missing rtt/pool_checkout: %v", cst)
	}
	str := findTrace(t, scol, "exec")
	if str.TraceID != ctr.TraceID {
		t.Fatalf("server trace ID %d != client trace ID %d: context did not propagate", str.TraceID, ctr.TraceID)
	}
	// The server's root span parents under the client's root, so a merged
	// tree renders the server stages inside the client's rtt window.
	if root := str.Spans[0]; root.Parent != span.RootID {
		t.Fatalf("server root parent = %d, want the client's root span ID %d", root.Parent, span.RootID)
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
