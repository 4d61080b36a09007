package server

import (
	"context"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/repl"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/wal"
)

// startServer boots a server over d on a loopback port and tears it down
// with the test.
func startServer(t *testing.T, d *db.DB, cfg Config) (*Server, string) {
	t.Helper()
	cfg.DB = d
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.draining.Load() {
			return // test already shut it down
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func memServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	d := db.MustOpenMemory()
	t.Cleanup(func() { d.Close() })
	return startServer(t, d, cfg)
}

// settle returns once the server has published everything about the requests
// cl was answered before the call. A session records a request's latency,
// completes its trace and writes its slow-log line after sending the reply
// but before reading its next frame, and a client used from one goroutine
// stays on one connection, so one more round trip on it happens after all of
// that. The ping's own records are not covered.
func settle(t *testing.T, cl *client.Client) {
	t.Helper()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerBasicRoundTrips(t *testing.T) {
	srv, addr := memServer(t, Config{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec(`INSERT INTO t VALUES (?, ?)`, 1, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("rows affected = %d, want 1", res.RowsAffected)
	}
	got, err := cl.Query(`SELECT v FROM t WHERE id = ?`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].AsText() != "hello" {
		t.Fatalf("query result: %+v", got.Rows)
	}

	// Interactive transaction: read-your-writes, then commit, then visible.
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2, 'txn')`); err != nil {
		t.Fatal(err)
	}
	mine, err := tx.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if mine.Rows[0][0].AsInt() != 2 {
		t.Fatalf("read-your-writes count = %v", mine.Rows[0][0])
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0].AsInt() != 2 {
		t.Fatalf("post-commit count = %v", after.Rows[0][0])
	}

	// A SQL failure is a typed protocol error and the session survives it.
	if _, err := cl.Query(`SELECT nope FROM missing`); !protocol.IsCode(err, protocol.CodeSQL) {
		t.Fatalf("bad query error = %v, want CodeSQL", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("session after SQL error: %v", err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 || st.Commits == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
	// The MVCC census rides the same response: rows exist, so versions do.
	if st.ResidentVersions == 0 || st.MaxChainLength == 0 {
		t.Fatalf("stats missing version census: %+v", st)
	}
	_ = srv
}

// TestConcurrentSessionsInterleavedTxns is the -race satellite: many clients
// run interleaved interactive transactions over the same keys; OCC aborts
// must surface as typed conflict errors, every success must be exactly once,
// and after all clients disconnect no session or transaction stays live.
func TestConcurrentSessionsInterleavedTxns(t *testing.T) {
	srv, addr := memServer(t, Config{MaxConns: 32})
	boot, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Exec(`CREATE TABLE c (id INTEGER PRIMARY KEY, n INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Exec(`INSERT INTO c VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}
	boot.Close()

	const workers = 12
	const increments = 8
	var applied atomic.Int64
	var conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{PoolSize: 1})
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer cl.Close()
			for done := 0; done < increments; {
				tx, err := cl.Begin()
				if err != nil {
					t.Errorf("worker %d begin: %v", w, err)
					return
				}
				cur, err := tx.Query(`SELECT n FROM c WHERE id = 1`)
				if err != nil {
					t.Errorf("worker %d read: %v", w, err)
					tx.Rollback()
					return
				}
				n := cur.Rows[0][0].AsInt()
				if _, err := tx.Exec(`UPDATE c SET n = ? WHERE id = 1`, n+1); err != nil {
					t.Errorf("worker %d write: %v", w, err)
					tx.Rollback()
					return
				}
				_, err = tx.Commit()
				switch {
				case err == nil:
					applied.Add(1)
					done++
				case protocol.IsConflict(err):
					conflicts.Add(1) // typed OCC abort: retry from Begin
				default:
					t.Errorf("worker %d commit: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	check, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.Query(`SELECT n FROM c WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != workers*increments {
		t.Fatalf("counter = %d, want %d (applied %d, conflicts %d)",
			got, workers*increments, applied.Load(), conflicts.Load())
	}
	st, err := check.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Conflicts != uint64(conflicts.Load()) {
		t.Fatalf("server counted %d conflicts, clients saw %d", st.Conflicts, conflicts.Load())
	}
	check.Close()

	// No leaks: all sessions unwind, no transaction stays live.
	waitFor(t, "sessions to drain", func() bool {
		st := srv.Stats()
		return st.ActiveSessions == 0 && st.ActiveTxns == 0
	})
}

// TestDisconnectMidTxnLeavesNothingLive is the acceptance-criteria test: a
// client that vanishes mid-transaction leaves no session and no transaction
// behind, and its buffered writes never commit.
func TestDisconnectMidTxnLeavesNothingLive(t *testing.T) {
	srv, addr := memServer(t, Config{})
	boot, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	if _, err := boot.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}

	// Drive the protocol by hand so the connection can be severed abruptly.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteMessage(nc, &protocol.Message{Type: protocol.MsgBegin}); err != nil {
		t.Fatal(err)
	}
	if m, err := protocol.ReadMessage(nc, 0); err != nil || m.Type != protocol.MsgTxState {
		t.Fatalf("begin: %v %+v", err, m)
	}
	if err := protocol.WriteMessage(nc, &protocol.Message{Type: protocol.MsgExec, SQL: `INSERT INTO t VALUES (42)`}); err != nil {
		t.Fatal(err)
	}
	if m, err := protocol.ReadMessage(nc, 0); err != nil || m.Type != protocol.MsgResult {
		t.Fatalf("insert: %v %+v", err, m)
	}
	waitFor(t, "transaction to register", func() bool { return srv.Stats().ActiveTxns == 1 })

	nc.Close() // vanish mid-transaction

	waitFor(t, "session and txn teardown", func() bool {
		st := srv.Stats()
		return st.ActiveSessions == 1 && st.ActiveTxns == 0 // 1 = boot's pooled conn
	})
	res, err := boot.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 0 {
		t.Fatalf("abandoned transaction committed %d rows", got)
	}
}

// TestTxnDeadlineExpiresAsTypedError: an interactive transaction held past
// the server's txn timeout is rolled back server-side and the client sees a
// typed txn-expired error; the session itself stays usable.
func TestTxnDeadlineExpiresAsTypedError(t *testing.T) {
	srv, addr := memServer(t, Config{TxnTimeout: 30 * time.Millisecond})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deadline abort", func() bool { return srv.Stats().ExpiredTxns >= 1 })
	if _, err := tx.Exec(`INSERT INTO t VALUES (2)`); !protocol.IsTxnExpired(err) {
		t.Fatalf("statement after expiry = %v, want CodeTxnExpired", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback of expired txn: %v", err)
	}
	waitFor(t, "txn gauge to clear", func() bool { return srv.Stats().ActiveTxns == 0 })

	// The session (and a fresh transaction on it) still works.
	tx2, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`INSERT INTO t VALUES (3)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 1 {
		t.Fatalf("count = %d, want 1 (only the fresh txn's row)", got)
	}
}

// TestBackpressureTypedBusy: with one slot and an empty queue, a second
// connection is rejected immediately with a typed busy error; with a queue,
// it waits and then succeeds when the slot frees.
func TestBackpressureTypedBusy(t *testing.T) {
	_, addr := memServer(t, Config{MaxConns: 1, QueueDepth: 1, QueueWait: 300 * time.Millisecond})

	hold, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if err := hold.Ping(); err != nil { // session now occupies the only slot
		t.Fatal(err)
	}

	// One waiter fits in the queue and times out with a typed busy error.
	if _, err := client.Dial(addr, client.Options{}); !protocol.IsBusy(err) {
		t.Fatalf("queued dial past QueueWait = %v, want CodeBusy", err)
	}

	// Overflowing the queue rejects instantly. Park one connection as the
	// queued waiter first (raw dial; Dial would block in Ping).
	parked, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer parked.Close()
	if err := protocol.WriteMessage(parked, &protocol.Message{Type: protocol.MsgPing}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let it enqueue
	t0 := time.Now()
	_, err = client.Dial(addr, client.Options{})
	if !protocol.IsBusy(err) {
		t.Fatalf("overflow dial = %v, want CodeBusy", err)
	}
	if time.Since(t0) > 200*time.Millisecond {
		t.Fatalf("overflow rejection must not wait out QueueWait, took %v", time.Since(t0))
	}
}

// TestGracefulShutdownDrainsAndCheckpoints: shutdown lets the in-flight
// request finish, new connections are refused with a typed shutdown error,
// and the WAL is checkpointed so the next open recovers from the snapshot.
func TestGracefulShutdownDrainsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "srv.wal")
	d, err := db.Open(db.Options{Mode: db.Disk, Path: path, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, d, Config{})

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := cl.Exec(`INSERT INTO t VALUES (?, 'x')`, i); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := client.Dial(addr, client.Options{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := db.Open(db.Options{Mode: db.Disk, Path: path, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovery().SnapshotLoaded {
		t.Fatalf("shutdown must checkpoint: recovery = %+v", re.Recovery())
	}
	res, err := re.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 20 {
		t.Fatalf("recovered %d rows, want 20", got)
	}
}

// TestRemoteRequestsLandInProvenance: with a runtime App attached, remote
// executions get first-class request IDs and show up in the provenance
// Executions log like in-process ones.
func TestRemoteRequestsLandInProvenance(t *testing.T) {
	prod := db.MustOpenMemory()
	defer prod.Close()
	prov := db.MustOpenMemory()
	defer prov.Close()
	app := runtime.New(prod)
	if err := prod.ExecScript(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Attach(app, prov, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	_, addr := startServer(t, prod, Config{App: app})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(`INSERT INTO t VALUES (1, 'remote')`); err != nil {
		t.Fatal(err)
	}
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2, 'txn')`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	rows, err := prov.Query(`SELECT ReqId, HandlerName FROM Executions WHERE HandlerName = 'remote'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) < 2 {
		t.Fatalf("remote executions missing from provenance: %+v", rows.Rows)
	}
	for _, r := range rows.Rows {
		reqID := r[0].AsText()
		if len(reqID) < 2 || reqID[0] != 'R' {
			t.Fatalf("remote request ID %q not from the app allocator", reqID)
		}
	}
	reqs, err := prov.Query(`SELECT ReqId, HandlerName, Status FROM trod_requests`)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs.Rows) < 2 {
		t.Fatalf("remote requests missing from trod_requests: %+v", reqs.Rows)
	}
}

// TestConcurrentAutocommitLoad exercises autocommit statements from many
// sessions under -race; the engine's internal retry absorbs conflicts.
func TestConcurrentAutocommitLoad(t *testing.T) {
	srv, addr := memServer(t, Config{MaxConns: 16})
	boot, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Exec(`CREATE TABLE c (id INTEGER PRIMARY KEY, n INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Exec(`INSERT INTO c VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}

	const workers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{PoolSize: 1})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer cl.Close()
			for i := 0; i < each; i++ {
				if _, err := cl.Exec(`UPDATE c SET n = n + 1 WHERE id = 1`); err != nil {
					t.Errorf("worker %d update: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res, err := boot.Query(`SELECT n FROM c WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	boot.Close()
	waitFor(t, "sessions to drain", func() bool { return srv.Stats().ActiveSessions == 0 })
}

// TestReplicaServerRefusesBeginUntilPromoted: the server reads the node's
// read-only flag from its database, so Begin on a replica is refused with
// the typed read-only error and accepted once Promote clears the flag.
func TestReplicaServerRefusesBeginUntilPromoted(t *testing.T) {
	pd := db.MustOpenMemory()
	t.Cleanup(func() { pd.Close() })
	_, paddr := startServer(t, pd, Config{Source: repl.NewSource(pd, repl.SourceOptions{})})

	rd := db.MustOpenMemory()
	t.Cleanup(func() { rd.Close() })
	rd.SetReadOnly(true)
	r := repl.StartReplica(rd, paddr, repl.ReplicaOptions{MinBackoff: 5 * time.Millisecond})
	t.Cleanup(r.Stop)
	_, raddr := startServer(t, rd, Config{Replica: r})
	cl, err := client.Dial(raddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Begin(); !protocol.IsCode(err, protocol.CodeReadOnly) {
		t.Fatalf("Begin on a replica = %v, want the typed read-only error", err)
	}
	if _, _, err := cl.Promote(); err != nil {
		t.Fatal(err)
	}
	tx, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin after Promote = %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
