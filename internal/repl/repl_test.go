package repl_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/crashtest"
	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// fastSource/fastReplica shrink the replication intervals so tests observe
// heartbeats, reconnects, and catch-up in milliseconds.
func fastSource() repl.SourceOptions {
	return repl.SourceOptions{Heartbeat: 20 * time.Millisecond}
}

func fastReplica() repl.ReplicaOptions {
	return repl.ReplicaOptions{
		DialTimeout: 2 * time.Second,
		MinBackoff:  5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		StaleAfter:  5 * time.Second,
	}
}

// primary is a disk-backed database fronted by a server with a replication
// source.
type primary struct {
	t    *testing.T
	db   *db.DB
	src  *repl.Source
	srv  *server.Server
	addr string
	done chan error
}

func startPrimary(t *testing.T, opts db.Options) *primary {
	return startPrimaryOpts(t, opts, fastSource())
}

func startPrimaryOpts(t *testing.T, opts db.Options, srcOpts repl.SourceOptions) *primary {
	t.Helper()
	d, err := db.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	src := repl.NewSource(d, srcOpts)
	srv, err := server.New(server.Config{DB: d, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &primary{t: t, db: d, src: src, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- srv.Serve(ln) }()
	t.Cleanup(func() { p.stop() })
	return p
}

func (p *primary) stop() {
	if p.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = p.srv.Shutdown(ctx)
		<-p.done
		p.srv = nil
		p.db.Close()
	}
}

// replicaNode is a read-only replica database with its own WAL and server.
type replicaNode struct {
	t    *testing.T
	db   *db.DB
	r    *repl.Replica
	srv  *server.Server
	addr string
	done chan error
}

func startReplicaNode(t *testing.T, walPath, primaryAddr string) *replicaNode {
	t.Helper()
	d, err := db.Open(db.Options{Mode: db.Disk, Path: walPath})
	if err != nil {
		t.Fatal(err)
	}
	d.SetReadOnly(true)
	r := repl.StartReplica(d, primaryAddr, fastReplica())
	srv, err := server.New(server.Config{DB: d, Replica: r})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &replicaNode{t: t, db: d, r: r, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ln) }()
	t.Cleanup(func() { n.stop() })
	return n
}

func (n *replicaNode) stop() {
	if n.r != nil {
		n.r.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = n.srv.Shutdown(ctx)
		<-n.done
		n.db.Close()
		n.r = nil
	}
}

// waitCaughtUp blocks until the replica applied the primary's current seq.
func waitCaughtUp(t *testing.T, p *primary, r *repl.Replica) {
	t.Helper()
	seq := p.db.Store().CurrentSeq()
	if !r.WaitForSeq(seq, 10*time.Second) {
		t.Fatalf("replica stuck at %d, want %d (lastErr=%v)", r.AppliedSeq(), seq, r.LastErr())
	}
}

func mustExec(t *testing.T, d *db.DB, sql string, args ...any) {
	t.Helper()
	if _, err := d.Exec(sql, args...); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func assertClean(t *testing.T, p *primary, n *replicaNode) {
	t.Helper()
	if diff := crashtest.StoreDiff(n.db.Store(), p.db.Store()); diff != "" {
		t.Fatalf("replica state diverges from primary:\n%s", diff)
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "primary.wal")})
	mustExec(t, p.db, `CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, karma INTEGER)`)
	for i := 0; i < 20; i++ {
		mustExec(t, p.db, `INSERT INTO users VALUES (?, ?, ?)`, i, fmt.Sprintf("u%d", i), i*10)
	}

	n := startReplicaNode(t, filepath.Join(dir, "replica.wal"), p.addr)
	waitCaughtUp(t, p, n.r)

	// Reads on the replica see the replicated rows at a consistent snapshot.
	cl, err := client.Dial(n.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(`SELECT COUNT(*) FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 20 {
		t.Fatalf("replica sees %d rows, want 20", got)
	}

	// Writes and transactions on the replica fail with the typed read-only
	// error; the session survives them.
	if _, err := cl.Exec(`INSERT INTO users VALUES (99, 'x', 0)`); !protocol.IsReadOnly(err) {
		t.Fatalf("replica write: %v, want read-only error", err)
	}
	if _, err := cl.Exec(`CREATE TABLE sneaky (id INTEGER PRIMARY KEY)`); !protocol.IsReadOnly(err) {
		t.Fatalf("replica DDL: %v, want read-only error", err)
	}
	if _, err := cl.Begin(); !protocol.IsReadOnly(err) {
		t.Fatalf("replica begin: %v, want read-only error", err)
	}
	if _, err := cl.Query(`SELECT name FROM users WHERE id = 3`); err != nil {
		t.Fatalf("replica read after rejected write: %v", err)
	}

	// DDL created after the replica connected replicates in order with the
	// data that follows it — including a secondary index and a drop.
	mustExec(t, p.db, `CREATE TABLE posts (id INTEGER PRIMARY KEY, author INTEGER, title TEXT)`)
	mustExec(t, p.db, `CREATE INDEX posts_author ON posts (author)`)
	for i := 0; i < 10; i++ {
		mustExec(t, p.db, `INSERT INTO posts VALUES (?, ?, ?)`, i, i%3, fmt.Sprintf("t%d", i))
	}
	mustExec(t, p.db, `UPDATE users SET karma = 1000 WHERE id = 7`)
	mustExec(t, p.db, `DELETE FROM users WHERE id = 11`)
	waitCaughtUp(t, p, n.r)

	res, err = cl.Query(`SELECT title FROM posts WHERE author = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("replica indexed scan found %d rows, want 3", len(res.Rows))
	}
	assertClean(t, p, n)

	// Stats surface the replication state on both sides.
	pst := p.srv.Stats()
	if pst.Subscribers != 1 {
		t.Fatalf("primary subscribers = %d, want 1", pst.Subscribers)
	}
	rst := n.srv.Stats()
	if rst.IsReplica != 1 || rst.ReplConnected != 1 {
		t.Fatalf("replica stats not marked replica/connected: %+v", rst)
	}
	if rst.AppliedSeq != p.db.Store().CurrentSeq() {
		t.Fatalf("replica applied %d, primary at %d", rst.AppliedSeq, p.db.Store().CurrentSeq())
	}
	if rst.ReplLag != 0 {
		t.Fatalf("caught-up replica reports lag %d", rst.ReplLag)
	}
}

func TestReplicaCrashRestartResumesFromPersistedSeq(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "primary.wal")})
	mustExec(t, p.db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 50; i++ {
		mustExec(t, p.db, `INSERT INTO kv VALUES (?, ?)`, i, fmt.Sprintf("v%d", i))
	}

	walPath := filepath.Join(dir, "replica.wal")
	n := startReplicaNode(t, walPath, p.addr)
	waitCaughtUp(t, p, n.r)

	// Kill the replica mid-stream: more writes land while it is down.
	n.stop()
	resumeFrom := p.db.Store().CurrentSeq()
	for i := 50; i < 100; i++ {
		mustExec(t, p.db, `INSERT INTO kv VALUES (?, ?)`, i, fmt.Sprintf("v%d", i))
	}
	mustExec(t, p.db, `UPDATE kv SET v = 'rewritten' WHERE k = 10`)

	// Restart from the same WAL: recovery must land on the persisted applied
	// sequence, and the new subscription resumes from there — not from zero
	// and not via snapshot bootstrap. Recovery is checked on a plain reopen:
	// a started replica may already have streamed past it.
	d, err := db.Open(db.Options{Mode: db.Disk, Path: walPath})
	if err != nil {
		t.Fatal(err)
	}
	got := d.Store().CurrentSeq()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got != resumeFrom {
		t.Fatalf("replica recovered at seq %d, want persisted %d", got, resumeFrom)
	}
	n2 := startReplicaNode(t, walPath, p.addr)
	waitCaughtUp(t, p, n2.r)
	if n2.r.Bootstraps() != 0 {
		t.Fatalf("restart used %d snapshot bootstraps, want log catch-up", n2.r.Bootstraps())
	}
	assertClean(t, p, n2)
}

func TestReplicaSurvivesPrimaryRestart(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	p := startPrimary(t, db.Options{Mode: db.Disk, Path: walPath})
	addr := p.addr
	mustExec(t, p.db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 30; i++ {
		mustExec(t, p.db, `INSERT INTO kv VALUES (?, ?)`, i, "a")
	}

	n := startReplicaNode(t, filepath.Join(dir, "replica.wal"), addr)
	waitCaughtUp(t, p, n.r)

	// Restart the primary on the same address; the replica reconnects with
	// backoff and resumes via log catch-up (same lineage, no trailing DDL).
	p.stop()
	d2, err := db.Open(db.Options{Mode: db.Disk, Path: walPath})
	if err != nil {
		t.Fatal(err)
	}
	src2 := repl.NewSource(d2, fastSource())
	srv2, err := server.New(server.Config{DB: d2, Source: src2})
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
		<-done2
		d2.Close()
	}()

	for i := 30; i < 60; i++ {
		if _, err := d2.Exec(`INSERT INTO kv VALUES (?, ?)`, i, "b"); err != nil {
			t.Fatal(err)
		}
	}
	if !n.r.WaitForSeq(d2.Store().CurrentSeq(), 10*time.Second) {
		t.Fatalf("replica did not reconnect/catch up: applied=%d want=%d lastErr=%v",
			n.r.AppliedSeq(), d2.Store().CurrentSeq(), n.r.LastErr())
	}
	if n.r.Bootstraps() != 0 {
		t.Fatalf("reconnect used %d bootstraps, want pure log catch-up", n.r.Bootstraps())
	}
	if diff := crashtest.StoreDiff(n.db.Store(), d2.Store()); diff != "" {
		t.Fatalf("post-restart divergence:\n%s", diff)
	}
}

func TestDetachedReplicaFallsBackToBootstrap(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, db.Options{
		Mode: db.Disk, Path: filepath.Join(dir, "primary.wal"),
		Sync: wal.SyncNever, HistoryRetention: 4,
	})
	mustExec(t, p.db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, p.db, `INSERT INTO kv VALUES (?, ?)`, i, "a")
	}

	walPath := filepath.Join(dir, "replica.wal")
	n := startReplicaNode(t, walPath, p.addr)
	waitCaughtUp(t, p, n.r)
	n.stop() // detach
	// Wait for the source to notice the dead stream: until it does, the
	// subscriber's pin (correctly) clamps the log cut.
	for i := 0; p.src.Subscribers() > 0; i++ {
		if i > 5000 {
			t.Fatal("source never released the detached subscriber")
		}
		time.Sleep(time.Millisecond)
	}

	// The primary moves on far past the retained window and checkpoints,
	// whose vacuum cuts the in-memory change log down to HistoryRetention
	// commits.
	for i := 20; i < 120; i++ {
		mustExec(t, p.db, `INSERT INTO kv VALUES (?, ?)`, i, "b")
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := p.db.Store().LogRetainedFrom(); got <= 20 {
		t.Fatalf("checkpoint did not truncate the CDC log (retained from %d)", got)
	}

	// The restarted replica's position predates the window: it must receive
	// the typed log-truncated error and re-bootstrap from a snapshot.
	n2 := startReplicaNode(t, walPath, p.addr)
	waitCaughtUp(t, p, n2.r)
	if n2.r.Bootstraps() != 1 {
		t.Fatalf("detached replica bootstraps = %d, want 1", n2.r.Bootstraps())
	}
	assertClean(t, p, n2)

	// After the bootstrap it tails the live log again.
	mustExec(t, p.db, `INSERT INTO kv VALUES (?, ?)`, 999, "live")
	waitCaughtUp(t, p, n2.r)
	assertClean(t, p, n2)
}

func TestOversizedCommitRedirectsToBootstrap(t *testing.T) {
	// A single commit too large for the stream's frame cap cannot be
	// log-shipped; the source must redirect the subscriber to a snapshot
	// bootstrap (typed log-truncated) instead of silently wedging the
	// stream. The frame limit is lowered so a ~3KB row triggers the path.
	dir := t.TempDir()
	srcOpts := fastSource()
	srcOpts.FrameLimit = 2048
	srcOpts.ChunkBytes = 512
	p := startPrimaryOpts(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "primary.wal")}, srcOpts)
	mustExec(t, p.db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, p.db, `INSERT INTO kv VALUES (1, 'small')`)

	n := startReplicaNode(t, filepath.Join(dir, "replica.wal"), p.addr)
	waitCaughtUp(t, p, n.r)

	big := strings.Repeat("x", 3000)
	mustExec(t, p.db, `INSERT INTO kv VALUES (2, ?)`, big)
	mustExec(t, p.db, `INSERT INTO kv VALUES (3, 'after')`)
	waitCaughtUp(t, p, n.r)
	if n.r.Bootstraps() == 0 {
		t.Fatal("oversized commit did not trigger a bootstrap redirect")
	}
	assertClean(t, p, n)

	cl, err := client.Dial(n.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(`SELECT v FROM kv WHERE k = 2`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsText() != big {
		t.Fatalf("oversized row not served by replica: err=%v rows=%d", err, len(res.Rows))
	}
}

func TestPoolSplitsReadsAndWrites(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "primary.wal")})
	mustExec(t, p.db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, p.db, `INSERT INTO kv VALUES (1, 'seed')`)
	n1 := startReplicaNode(t, filepath.Join(dir, "r1.wal"), p.addr)
	n2 := startReplicaNode(t, filepath.Join(dir, "r2.wal"), p.addr)
	waitCaughtUp(t, p, n1.r)
	waitCaughtUp(t, p, n2.r)

	pool, err := client.NewPool(p.addr, []string{n1.addr, n2.addr}, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Writes go to the primary; queries round-robin across the replicas.
	if _, err := pool.Exec(`INSERT INTO kv VALUES (2, 'via-pool')`); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, n1.r)
	waitCaughtUp(t, p, n2.r)
	before1 := n1.srv.Stats().Requests
	before2 := n2.srv.Stats().Requests
	for i := 0; i < 10; i++ {
		res, err := pool.Query(`SELECT v FROM kv WHERE k = 2`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "via-pool" {
			t.Fatalf("pool read %d: %+v", i, res.Rows)
		}
	}
	got1 := n1.srv.Stats().Requests - before1
	got2 := n2.srv.Stats().Requests - before2
	if got1 == 0 || got2 == 0 {
		t.Fatalf("reads not spread across replicas: r1=%d r2=%d", got1, got2)
	}

	// A write mis-sent through Query bounces off the replica's read-only
	// error and lands on the primary.
	if _, err := pool.Query(`UPDATE kv SET v = 'rerouted' WHERE k = 1`); err != nil {
		t.Fatalf("pool write-via-query: %v", err)
	}
	res, err := pool.QueryPrimary(`SELECT v FROM kv WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsText() != "rerouted" {
		t.Fatalf("rerouted write missing on primary: %+v", res.Rows)
	}

	// Transactions run on the primary.
	tx, err := pool.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE kv SET v = 'txn' WHERE k = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A dead replica degrades reads to the surviving servers, not to errors.
	n1.stop()
	for i := 0; i < 6; i++ {
		if _, err := pool.Query(`SELECT COUNT(*) FROM kv`); err != nil {
			t.Fatalf("pool read with a dead replica: %v", err)
		}
	}
}

func TestSlowSubscriberPinsLogWindow(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Options{
		Mode: db.Disk, Path: filepath.Join(dir, "primary.wal"), HistoryRetention: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	src := repl.NewSource(d, repl.SourceOptions{Heartbeat: time.Hour, BatchEntries: 4})
	mustExec(t, d, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 8; i++ {
		mustExec(t, d, `INSERT INTO kv VALUES (?, ?)`, i, "x")
	}
	subscribedAt := d.Store().CurrentSeq()

	// A subscriber over an unbuffered pipe that reads exactly one frame and
	// then stalls: the source blocks mid-stream with its pin at most one
	// batch ahead of the subscriber.
	srvEnd, clEnd := net.Pipe()
	drain := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		src.Serve(protocol.NewConn(srvEnd), &protocol.Message{Type: protocol.MsgSubscribe, FromSeq: subscribedAt}, drain)
	}()

	// One commit, and read its batch on the client end: once the frame
	// arrived, the subscriber's pin is established (pins always precede
	// stream writes) — from here on the client stalls.
	mustExec(t, d, `INSERT INTO kv VALUES (?, ?)`, 8, "x")
	clEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := protocol.ReadMessage(clEnd, protocol.MaxReplFrame); err != nil {
		t.Fatalf("first batch: %v", err)
	}

	// Commit far past the retention window, then checkpoint: the vacuum's
	// log cut must clamp to the stalled subscriber's pin instead of dropping
	// records it still needs.
	for i := 9; i < 48; i++ {
		mustExec(t, d, `INSERT INTO kv VALUES (?, ?)`, i, "y")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The pin sits wherever the stalled stream got to — at or only slightly
	// past the subscribe position, far before the no-pin truncation target.
	if got := d.Store().LogRetainedFrom(); got > subscribedAt+2 {
		t.Fatalf("retained from %d: a live (slow) subscriber at %d lost its window", got, subscribedAt)
	}

	// Kill the subscriber: the pin releases, and the next checkpoint may
	// truncate the full window down to the retention setting.
	clEnd.Close()
	srvEnd.Close()
	<-served
	mustExec(t, d, `INSERT INTO kv VALUES (?, ?)`, 999, "z")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cur := d.Store().CurrentSeq()
	if got := d.Store().LogRetainedFrom(); got <= subscribedAt {
		t.Fatalf("retained from %d after unpin, want truncation near %d", got, cur)
	}
}
