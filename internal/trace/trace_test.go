package trace

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
	"repro/internal/value"
)

// moodleApp builds the paper's Moodle-like forum service with tracing.
func moodleApp(t *testing.T, cfg Config) (*runtime.App, *Tracer) {
	t.Helper()
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	t.Cleanup(func() { prod.Close(); prov.Close() })
	// Like Moodle's mdl_forum_subscriptions: a surrogate auto-id primary key
	// and NO uniqueness on (userId, forum) — that is what makes MDL-59854
	// possible.
	if err := prod.ExecScript(`CREATE TABLE forum_sub (id INTEGER PRIMARY KEY, userId TEXT, forum TEXT)`); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(prod)
	if cfg.Tables == nil {
		cfg.Tables = provenance.TableMap{"forum_sub": "ForumEvents"}
	}
	tr, err := Attach(app, prov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	// The buggy two-transaction subscribeUser from Figure 1.
	app.Register("subscribeUser", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		user, forum := args.String("userId"), args.String("forum")
		var exists bool
		if err := c.Txn("isSubscribed", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT * FROM forum_sub WHERE userId = ? AND forum = ?`, user, forum)
			if err != nil {
				return err
			}
			exists = len(rows.Rows) > 0
			return nil
		}); err != nil {
			return nil, err
		}
		if exists {
			return true, nil
		}
		// Auto-increment id computed transactionally (deterministic per P3:
		// a function of database state). Concurrent id collisions are
		// resolved by OCC retry — but the (userId, forum) duplicate from the
		// TOCTOU race persists, exactly like MDL-59854.
		err := c.Txn("DB.insert", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT COALESCE(MAX(id), 0) FROM forum_sub`)
			if err != nil {
				return err
			}
			_, err = tx.Exec(`INSERT INTO forum_sub VALUES (?, ?, ?)`, rows.Rows[0][0].AsInt()+1, user, forum)
			return err
		})
		return err == nil, err
	})
	app.Register("fetchSubscribers", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		rows, err := c.Query("DB.executeQuery", `SELECT userId FROM forum_sub WHERE forum = ?`, args.String("forum"))
		if err != nil {
			return nil, err
		}
		var users []string
		seen := map[string]bool{}
		for _, r := range rows.Rows {
			u := r[0].AsText()
			if seen[u] {
				return nil, fmt.Errorf("duplicated values in column userId")
			}
			seen[u] = true
			users = append(users, u)
		}
		return users, nil
	})
	return app, tr
}

func TestExecutionsTableFilled(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	if _, err := app.InvokeWithReqID("R1", "subscribeUser", runtime.Args{"userId": "U1", "forum": "F2"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Prov().Query(`SELECT HandlerName, ReqId, Func FROM Executions ORDER BY Timestamp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("executions = %d rows", len(res.Rows))
	}
	if res.Rows[0][2].AsText() != "isSubscribed" || res.Rows[1][2].AsText() != "DB.insert" {
		t.Errorf("funcs = %v, %v", res.Rows[0][2], res.Rows[1][2])
	}
	for _, r := range res.Rows {
		if r[0].AsText() != "subscribeUser" || r[1].AsText() != "R1" {
			t.Errorf("row = %v", r)
		}
	}
}

func TestDataProvenanceReadAndWriteEvents(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	if _, err := app.InvokeWithReqID("R1", "subscribeUser", runtime.Args{"userId": "U1", "forum": "F2"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Prov().Query(`SELECT Type, UserId, Forum FROM ForumEvents ORDER BY EvId`)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: two Reads with NULLs (isSubscribed found nothing; the
	// MAX(id) scan over the empty table) and one Insert with (U1, F2) —
	// the paper's Table 2 rows for TXN1/TXN3.
	if len(res.Rows) != 3 {
		t.Fatalf("forum events = %v", res.Rows)
	}
	var nullReads, inserts int
	for _, r := range res.Rows {
		switch r[0].AsText() {
		case "Read":
			if r[1].IsNull() && r[2].IsNull() {
				nullReads++
			}
		case "Insert":
			if r[1].AsText() == "U1" && r[2].AsText() == "F2" {
				inserts++
			}
		}
	}
	if nullReads != 2 || inserts != 1 {
		t.Errorf("events = %v (nullReads=%d inserts=%d)", res.Rows, nullReads, inserts)
	}
	var last value.Row

	// Second subscribe: the Read now matches and carries the row values.
	if _, err := app.InvokeWithReqID("R2", "subscribeUser", runtime.Args{"userId": "U1", "forum": "F2"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	res, _ = tr.Prov().Query(`SELECT Type, UserId FROM ForumEvents ORDER BY EvId`)
	last = res.Rows[len(res.Rows)-1]
	if last[0].AsText() != "Read" || last[1].AsText() != "U1" {
		t.Errorf("matched read event = %v", last)
	}
}

func TestPaperDebuggingQueryFindsDuplicates(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	// Force the MDL-59854 interleaving with a barrier between the check and
	// insert transactions of two concurrent requests.
	gate := make(chan struct{})
	release := make(chan struct{})
	var phase sync.WaitGroup
	phase.Add(2)
	app.SetTxnInterceptor(gatedInterceptor{
		beforeInsert: func() {
			phase.Done()
			<-release
		},
	})
	var wg sync.WaitGroup
	for _, req := range []string{"R1", "R2"} {
		wg.Add(1)
		go func(r string) {
			defer wg.Done()
			if _, err := app.InvokeWithReqID(r, "subscribeUser", runtime.Args{"userId": "U1", "forum": "F2"}); err != nil {
				t.Errorf("%s: %v", r, err)
			}
		}(req)
	}
	go func() { phase.Wait(); close(release); close(gate) }()
	wg.Wait()

	// The bug manifests: both requests inserted a (U1, F2) row. The §3.3
	// debugging query must return both inserting requests, ordered by time.
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	dup, err := tr.Prov().Query(`SELECT COUNT(*) FROM ForumEvents WHERE Type = 'Insert' AND UserId = 'U1' AND Forum = 'F2'`)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Rows[0][0].AsInt() != 2 {
		t.Fatalf("duplicate did not reproduce: %v inserts", dup.Rows[0][0])
	}
	res, err := tr.Prov().Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("debug query rows = %d, want 2", len(res.Rows))
	}
	reqs := map[string]bool{}
	for _, r := range res.Rows {
		reqs[r[1].AsText()] = true
		if r[2].AsText() != "subscribeUser" {
			t.Errorf("handler = %v", r[2])
		}
	}
	if !reqs["R1"] || !reqs["R2"] {
		t.Errorf("both requests should appear: %v", res.Rows)
	}
}

// gatedInterceptor blocks the DB.insert transaction until released.
type gatedInterceptor struct {
	beforeInsert func()
}

func (g gatedInterceptor) Before(c *runtime.Ctx, label string) error {
	if label == "DB.insert" && g.beforeInsert != nil {
		g.beforeInsert()
	}
	return nil
}
func (g gatedInterceptor) After(*runtime.Ctx, string, error) {}

func TestRequestAndEdgeAndExternalTables(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	app.Register("workflow", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		c.External("email", "notify")
		return c.Call("fetchSubscribers", runtime.Args{"forum": "F2"})
	})
	if _, err := app.InvokeWithReqID("R5", "workflow", nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	res, _ := tr.Prov().Query(`SELECT ReqId, HandlerName, Status FROM trod_requests`)
	if len(res.Rows) != 1 || res.Rows[0][2].AsText() != "ok" {
		t.Errorf("requests = %v", res.Rows)
	}
	res, _ = tr.Prov().Query(`SELECT Parent, Child FROM trod_rpc_edges WHERE ReqId = 'R5' ORDER BY EdgeId`)
	if len(res.Rows) != 2 {
		t.Fatalf("edges = %v", res.Rows)
	}
	if res.Rows[1][0].AsText() != "R5/0" || res.Rows[1][1].AsText() != "R5/0.1" {
		t.Errorf("rpc edge = %v", res.Rows[1])
	}
	res, _ = tr.Prov().Query(`SELECT Service FROM trod_externals WHERE ReqId = 'R5'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "email" {
		t.Errorf("externals = %v", res.Rows)
	}
}

func TestRequestErrorStatusRecorded(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	app.Register("boom", func(*runtime.Ctx, runtime.Args) (any, error) {
		return nil, fmt.Errorf("kaboom")
	})
	app.Invoke("boom", nil)
	tr.Flush()
	res, _ := tr.Prov().Query(`SELECT Status FROM trod_requests WHERE HandlerName = 'boom'`)
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].AsText(), "kaboom") {
		t.Errorf("error status = %v", res.Rows)
	}
}

func TestLatenciesRecorded(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	app.InvokeWithReqID("R1", "subscribeUser", runtime.Args{"userId": "U", "forum": "F"})
	tr.Flush()
	res, _ := tr.Prov().Query(`SELECT LatencyUs FROM trod_requests WHERE ReqId = 'R1'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() < 0 {
		t.Errorf("latency = %v", res.Rows)
	}
	res, _ = tr.Prov().Query(`SELECT LatencyUs FROM Executions WHERE ReqId = 'R1'`)
	for _, r := range res.Rows {
		if r[0].AsInt() < 0 {
			t.Errorf("txn latency negative: %v", r)
		}
	}
}

func TestAsyncFlushOnTimer(t *testing.T) {
	app, tr := moodleApp(t, Config{FlushBatch: 1 << 20, FlushInterval: 2 * time.Millisecond})
	app.InvokeWithReqID("R1", "subscribeUser", runtime.Args{"userId": "U1", "forum": "F1"})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		res, err := tr.Prov().Query(`SELECT COUNT(*) FROM Executions`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].AsInt() == 2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Error("timer flush never happened")
}

func TestAbortedTxnsTraced(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	app.Register("failing", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		return nil, c.Txn("willAbort", func(tx *db.Tx) error {
			if _, err := tx.Query(`SELECT * FROM forum_sub`); err != nil {
				return err
			}
			return fmt.Errorf("giving up")
		})
	})
	app.Invoke("failing", nil)
	tr.Flush()
	res, _ := tr.Prov().Query(`SELECT Committed FROM Executions WHERE Func = 'willAbort'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsBool() {
		t.Errorf("aborted txn trace = %v", res.Rows)
	}
}

func TestForgetRemovesUserData(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	app.InvokeWithReqID("R1", "subscribeUser", runtime.Args{"userId": "U1", "forum": "F1"})
	app.InvokeWithReqID("R2", "subscribeUser", runtime.Args{"userId": "U2", "forum": "F1"})
	tr.Flush()
	n, err := tr.Writer().Forget("userId", "U1")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("Forget removed nothing")
	}
	res, _ := tr.Prov().Query(`SELECT COUNT(*) FROM ForumEvents WHERE UserId = 'U1'`)
	if res.Rows[0][0].AsInt() != 0 {
		t.Error("U1 events remain after Forget")
	}
	res, _ = tr.Prov().Query(`SELECT COUNT(*) FROM ForumEvents WHERE UserId = 'U2'`)
	if res.Rows[0][0].AsInt() == 0 {
		t.Error("Forget deleted unrelated user data")
	}
}

func TestAttachRejectsSharedDatabase(t *testing.T) {
	d := db.MustOpenMemory()
	defer d.Close()
	app := runtime.New(d)
	if _, err := Attach(app, d, Config{}); err == nil {
		t.Error("Attach with prod == prov should fail")
	}
}

func TestAttachRejectsUnknownTracedTable(t *testing.T) {
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	defer prod.Close()
	defer prov.Close()
	app := runtime.New(prod)
	_, err := Attach(app, prov, Config{Tables: provenance.TableMap{"ghost": "GhostEvents"}})
	if err == nil {
		t.Error("tracing a missing table should fail")
	}
}

func TestStatsAndDoubleClose(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	app.InvokeWithReqID("R1", "subscribeUser", runtime.Args{"userId": "U", "forum": "F"})
	tr.Flush()
	events, _, _ := tr.Counters()
	if events == 0 {
		t.Error("no events counted")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal("double close should be clean")
	}
}

func TestProvenanceQueryHelpers(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	app.InvokeWithReqID("R1", "subscribeUser", runtime.Args{"userId": "U1", "forum": "F2"})
	app.InvokeWithReqID("R2", "fetchSubscribers", runtime.Args{"forum": "F2"})
	tr.Flush()
	w := tr.Writer()

	execs, err := w.ExecutionsForRequest("R1")
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) != 2 || execs[0].Func != "isSubscribed" || execs[1].Func != "DB.insert" {
		t.Errorf("executions = %+v", execs)
	}
	one, err := w.ExecutionByTxn(execs[0].TxnID)
	if err != nil || one.ReqID != "R1" {
		t.Errorf("by txn = %+v, %v", one, err)
	}
	if _, err := w.ExecutionByTxn(999999); err == nil {
		t.Error("missing txn should error")
	}
	reqs, err := w.RequestsTouchingTable("forum_sub")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(reqs) != "[R1 R2]" {
		t.Errorf("touching = %v", reqs)
	}
	if _, err := w.RequestsTouchingTable("untraced"); err == nil {
		t.Error("untraced table should error")
	}
	if w.EventTable("forum_sub") != "ForumEvents" || w.EventTable("nope") != "" {
		t.Error("EventTable mapping wrong")
	}
}

// externals counts the rows of trod_externals.
func externals(t *testing.T, tr *Tracer) int64 {
	t.Helper()
	res, err := tr.Prov().Query(`SELECT COUNT(*) FROM trod_externals`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].AsInt()
}

// TestFlushWaitsForBatchInFlight pins Flush's contract: everything pushed
// before the call is queryable when it returns. With a four-event batch the
// background flusher takes each batch as soon as it fills; Flush must then
// wait for that batch to be applied, not return because the buffer it looks
// at is empty. (Before the chunk queue it returned at once in that case.)
func TestFlushWaitsForBatchInFlight(t *testing.T) {
	_, tr := moodleApp(t, Config{FlushBatch: 4, FlushInterval: time.Hour})
	const rounds = 5000
	for i := 1; i <= rounds; i++ {
		for k := 0; k < 4; k++ {
			tr.External(runtime.ExternalCall{ReqID: "R", Service: "svc", Payload: "p"})
		}
		goruntime.Gosched() // let the flusher take the batch first
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		// Batches are applied in push order, so the round's last event
		// being stored means all of them are.
		res, err := tr.Prov().Query(`SELECT CallId FROM trod_externals WHERE CallId = ?`, 4*i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("round %d: Flush returned before event %d was queryable", i, 4*i)
		}
	}
}

// TestConcurrentPushFlushClose: pushers, Flush callers and the background
// flusher all drain the same queue; every pushed event must be stored
// exactly once, in push order per pusher, also across Close.
func TestConcurrentPushFlushClose(t *testing.T) {
	_, tr := moodleApp(t, Config{FlushBatch: 8, FlushInterval: time.Millisecond})
	const pushers, each = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				if err := tr.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.External(runtime.ExternalCall{ReqID: fmt.Sprintf("P%d", p), Service: "svc", Payload: fmt.Sprint(i)})
			}
		}(p)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-flushed
	// Pushes after Close are still applied by an explicit Flush.
	tr.External(runtime.ExternalCall{ReqID: "late", Service: "svc", Payload: "0"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := tr.Prov().Query(`SELECT ReqId, Payload FROM trod_externals ORDER BY CallId`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != pushers*each+1 {
		t.Fatalf("stored %d events, pushed %d", len(res.Rows), pushers*each+1)
	}
	next := map[string]int{}
	for _, r := range res.Rows {
		req := r[0].AsText()
		if got, want := r[1].AsText(), fmt.Sprint(next[req]); got != want {
			t.Fatalf("pusher %s: stored payload %s where %s was pushed next", req, got, want)
		}
		next[req]++
	}
	events, drops, _ := tr.Counters()
	if events != pushers*each+1 || drops != 0 {
		t.Errorf("counters: %d events, %d drops", events, drops)
	}
}

// TestMaxBufferedDropsAndCounts: with the flusher held up, pushes beyond the
// bound are dropped and counted, never queued; what was accepted is stored.
func TestMaxBufferedDropsAndCounts(t *testing.T) {
	_, tr := moodleApp(t, Config{FlushBatch: 1 << 10, FlushInterval: time.Hour, MaxBuffered: 10})
	tr.drainMu.Lock() // a drop wakes the flusher; keep it from making room
	for i := 0; i < 25; i++ {
		tr.External(runtime.ExternalCall{ReqID: "R", Service: "svc", Payload: fmt.Sprint(i)})
	}
	tr.drainMu.Unlock()
	events, drops, _ := tr.Counters()
	if events != 10 || drops != 15 {
		t.Fatalf("accepted %d, dropped %d; want 10 and 15", events, drops)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := externals(t, tr); got != 10 {
		t.Fatalf("stored %d events, want the 10 accepted", got)
	}
	// Flushing made room again.
	tr.External(runtime.ExternalCall{ReqID: "R", Service: "svc", Payload: "again"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := externals(t, tr); got != 11 {
		t.Fatalf("stored %d events after the buffer drained, want 11", got)
	}
}
