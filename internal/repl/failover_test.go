package repl_test

import (
	"errors"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/crashtest"
	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/repl"
	"repro/internal/server"
)

// startReplicaNodeOpts is startReplicaNode with explicit replica options and
// a Source attached to the node (so it can be promoted and then feed peers).
func startReplicaNodeOpts(t *testing.T, walPath, primaryAddr string, ropts repl.ReplicaOptions) *replicaNode {
	t.Helper()
	d, err := db.Open(db.Options{Mode: db.Disk, Path: walPath})
	if err != nil {
		t.Fatal(err)
	}
	d.SetReadOnly(true)
	if ropts.Epoch == nil {
		// One epoch per node, shared by its Replica and Source.
		if ropts.Epoch, err = repl.OpenEpoch(""); err != nil {
			t.Fatal(err)
		}
	}
	r := repl.StartReplica(d, primaryAddr, ropts)
	srcOpts := fastSource()
	srcOpts.Epoch = ropts.Epoch
	src := repl.NewSource(d, srcOpts)
	srv, err := server.New(server.Config{DB: d, Replica: r, Source: src})
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

// TestPromoteReplica: a promoted replica becomes a writable primary at the
// next epoch, in place, and a second promotion attempt is refused.
func TestPromoteReplica(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")})
	mustExec(t, p.db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, p.db, `INSERT INTO t VALUES (1, 'a')`)

	ropts := fastReplica()
	n := startReplicaNodeOpts(t, filepath.Join(dir, "r.wal"), p.addr, ropts)
	waitCaughtUp(t, p, n.r)
	p.stop()

	c, err := client.Dial(n.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`INSERT INTO t VALUES (2, 'b')`); !protocol.IsReadOnly(err) {
		t.Fatalf("pre-promotion write = %v, want read-only refusal", err)
	}
	epoch, seq, err := c.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("promoted epoch = %d, want 1", epoch)
	}
	if want := n.db.Store().CurrentSeq(); seq != want {
		t.Fatalf("promotion point = %d, want applied seq %d", seq, want)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (2, 'b')`); err != nil {
		t.Fatalf("post-promotion write: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IsReplica != 0 || st.Epoch != 1 || st.Fenced != 0 {
		t.Fatalf("promoted stats: isReplica=%d epoch=%d fenced=%d", st.IsReplica, st.Epoch, st.Fenced)
	}
	if _, _, err := c.Promote(); err == nil {
		t.Fatal("second promotion accepted")
	}
}

// TestPromotedReplicaFeedsSubscribers: after promotion the new primary's
// Source serves catch-up to a peer replica re-pointed at it.
func TestPromotedReplicaFeedsSubscribers(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")})
	mustExec(t, p.db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, p.db, `INSERT INTO t VALUES (1, 'a')`)

	a := startReplicaNodeOpts(t, filepath.Join(dir, "a.wal"), p.addr, fastReplica())
	b := startReplicaNodeOpts(t, filepath.Join(dir, "b.wal"), p.addr, fastReplica())
	waitCaughtUp(t, p, a.r)
	waitCaughtUp(t, p, b.r)
	p.stop()

	if _, _, err := a.r.Promote(0); err != nil {
		t.Fatalf("promote: %v", err)
	}
	mustExec(t, a.db, `INSERT INTO t VALUES (2, 'b')`)
	mustExec(t, a.db, `CREATE TABLE t2 (id INTEGER PRIMARY KEY)`)
	mustExec(t, a.db, `INSERT INTO t2 VALUES (7)`)

	b.r.Redirect(a.addr)
	if !b.r.WaitForSeq(a.db.Store().CurrentSeq(), 10*time.Second) {
		t.Fatalf("peer stuck at %d, want %d (lastErr=%v)", b.r.AppliedSeq(), a.db.Store().CurrentSeq(), b.r.LastErr())
	}
	if b.r.Epoch().Current() != a.r.Epoch().Current() {
		t.Fatalf("peer epoch = %d, want %d", b.r.Epoch().Current(), a.r.Epoch().Current())
	}
	rows, err := b.db.Query(`SELECT id FROM t2`)
	if err != nil || len(rows.Rows) != 1 {
		t.Fatalf("replicated post-promotion DDL+write: rows=%v err=%v", rows, err)
	}
}

// TestFencedOldPrimary: the acceptance property — a deposed primary that
// hears of the new epoch can neither feed subscribers nor ack writes, and
// the fencing survives its restart via the persisted epoch file.
func TestFencedOldPrimary(t *testing.T) {
	dir := t.TempDir()
	pEpochPath := filepath.Join(dir, "p.epoch")
	pEpoch, err := repl.OpenEpoch(pEpochPath)
	if err != nil {
		t.Fatal(err)
	}
	srcOpts := fastSource()
	srcOpts.Epoch = pEpoch
	p := startPrimaryOpts(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")}, srcOpts)
	mustExec(t, p.db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, p.db, `INSERT INTO t VALUES (1, 'a')`)

	ropts := fastReplica()
	rEpoch, err := repl.OpenEpoch(filepath.Join(dir, "r.epoch"))
	if err != nil {
		t.Fatal(err)
	}
	ropts.Epoch = rEpoch
	n := startReplicaNodeOpts(t, filepath.Join(dir, "r.wal"), p.addr, ropts)
	waitCaughtUp(t, p, n.r)

	// Promote the replica while the old primary is still alive — the
	// classic zombie scenario.
	newEpoch, _, err := n.r.Promote(0)
	if err != nil {
		t.Fatal(err)
	}

	c := assertFencedByNewEpoch(t, p, newEpoch, `INSERT INTO t VALUES (2, 'b')`)
	if _, err := p.db.Exec(`INSERT INTO t VALUES (3, 'c')`); !errors.Is(err, db.ErrFenced) {
		t.Fatalf("zombie in-process write = %v, want ErrFenced", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fenced != 1 {
		t.Fatalf("zombie stats fenced = %d, want 1", st.Fenced)
	}

	// Restart the zombie: the epoch file keeps it fenced with no new
	// contact needed.
	p.stop()
	reEpoch, err := repl.OpenEpoch(pEpochPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reEpoch.Fenced() || reEpoch.FencedBy() != newEpoch {
		t.Fatalf("epoch file after restart: current=%d fencedBy=%d, want fencedBy=%d",
			reEpoch.Current(), reEpoch.FencedBy(), newEpoch)
	}
	d2, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	srcOpts2 := fastSource()
	srcOpts2.Epoch = reEpoch
	_ = repl.NewSource(d2, srcOpts2) // boot-fences the database
	if _, err := d2.Exec(`INSERT INTO t VALUES (4, 'd')`); !errors.Is(err, db.ErrFenced) {
		t.Fatalf("restarted zombie write = %v, want ErrFenced", err)
	}
}

// TestQuorumAcks: with SyncReplicas=1 a commit is only acknowledged once a
// replica confirms it; with no replica connected the ack fails with the
// typed quorum-unavailable error (and the load-facing write with it).
func TestQuorumAcks(t *testing.T) {
	dir := t.TempDir()
	srcOpts := fastSource()
	srcOpts.SyncReplicas = 1
	srcOpts.QuorumTimeout = 100 * time.Millisecond
	p := startPrimaryOpts(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")}, srcOpts)

	// DDL at commit seq 0 clears the barrier trivially (the quorum
	// watermark starts at 0), so schema setup works on a bare primary.
	if _, err := p.db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatalf("seq-0 DDL: %v", err)
	}

	// No subscribers: the first real commit applies locally but its
	// acknowledgement must fail, typed, after the quorum timeout.
	start := time.Now()
	_, err := p.db.Exec(`INSERT INTO t VALUES (1, 'a')`)
	if !errors.Is(err, db.ErrQuorumUnavailable) {
		t.Fatalf("quorum-less commit = %v, want ErrQuorumUnavailable", err)
	}
	if d := time.Since(start); d < 80*time.Millisecond || d > 2*time.Second {
		t.Fatalf("quorum timeout fired after %v, want ~100ms", d)
	}

	// Over the wire the same failure is the typed protocol error, and DDL
	// past seq 0 is gated exactly like a commit.
	c, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`INSERT INTO t VALUES (2, 'b')`); !protocol.IsQuorumUnavailable(err) {
		t.Fatalf("quorum-less remote write = %v, want quorum-unavailable", err)
	}
	if _, err := p.db.Exec(`CREATE TABLE t2 (id INTEGER PRIMARY KEY)`); !errors.Is(err, db.ErrQuorumUnavailable) {
		t.Fatalf("quorum-less DDL past seq 0 = %v, want ErrQuorumUnavailable", err)
	}

	// Attach a replica: commits are confirmed and acks flow again.
	n := startReplicaNodeOpts(t, filepath.Join(dir, "r.wal"), p.addr, fastReplica())
	waitCaughtUp(t, p, n.r)
	if _, err := c.Exec(`INSERT INTO t VALUES (3, 'c')`); err != nil {
		t.Fatalf("quorate write: %v", err)
	}
	waitCaughtUp(t, p, n.r)
	assertClean(t, p, n)

	// The primary's stats expose the subscriber's acked position.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SubscriberLags) != 1 {
		t.Fatalf("subscriber lags = %+v, want one entry", st.SubscriberLags)
	}
	if got, want := st.SubscriberLags[0].AckedSeq, p.db.Store().CurrentSeq(); got != want {
		t.Fatalf("subscriber acked seq = %d, want %d", got, want)
	}
}

// TestReplicaRejectsStaleEpochFrames: a replica that has followed a newer
// epoch must refuse stream frames stamped with an older one — the zombie
// feed — with a typed fenced error, applying nothing from them.
func TestReplicaRejectsStaleEpochFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// A hand-rolled primary: serve one subscription, feed a DDL batch at
	// epoch 5, then a second batch claiming epoch 3.
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := protocol.ReadMessage(conn, protocol.MaxReplFrame); err != nil {
				return err
			}
			fresh := &protocol.Message{Type: protocol.MsgLogBatch, PrimarySeq: 1, Epoch: 5,
				Entries: []protocol.LogEntry{{DDL: `CREATE TABLE fresh (id INTEGER PRIMARY KEY)`}}}
			if err := protocol.WriteMessage(conn, fresh); err != nil {
				return err
			}
			if _, err := protocol.ReadMessage(conn, protocol.MaxReplFrame); err != nil {
				return err // the ack for the first batch
			}
			stale := &protocol.Message{Type: protocol.MsgLogBatch, PrimarySeq: 2, Epoch: 3,
				Entries: []protocol.LogEntry{{DDL: `CREATE TABLE stale (id INTEGER PRIMARY KEY)`}}}
			return protocol.WriteMessage(conn, stale)
		}()
	}()

	d, err := db.Open(db.Options{Mode: db.Memory})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetReadOnly(true)
	ropts := fastReplica()
	ropts.MaxBackoff = 24 * time.Hour // one session is all this test wants
	r := repl.StartReplica(d, ln.Addr().String(), ropts)
	defer r.Stop()
	if err := <-served; err != nil {
		t.Fatalf("fake primary: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r.LastErr(); protocol.IsFenced(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica error = %v, want fenced", r.LastErr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.Epoch().Current(); got != 5 {
		t.Fatalf("replica epoch = %d, want 5", got)
	}
	tables := d.Store().Tables()
	if len(tables) != 1 || tables[0] != "fresh" {
		t.Fatalf("tables after stale frame = %v, want only [fresh]", tables)
	}
}

// assertFencedByNewEpoch delivers news of newEpoch to the deposed primary
// the way a real cluster would — a subscriber from the new epoch contacts it
// — and checks both fencing obligations over the wire: the subscriber gets
// a typed fenced refusal, and the write statement fails with the typed
// fenced error. It returns the client it wrote with.
func assertFencedByNewEpoch(t *testing.T, p *primary, newEpoch uint64, write string) *client.Client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	sub := &protocol.Message{Type: protocol.MsgSubscribe, FromSeq: p.db.Store().CurrentSeq(), Epoch: newEpoch}
	if err := protocol.WriteMessage(conn, sub); err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.ReadMessage(conn, protocol.MaxReplFrame)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != protocol.MsgError || resp.Code != protocol.CodeFenced {
		t.Fatalf("zombie subscribe response = %+v, want fenced error", resp)
	}
	c, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Exec(write); !protocol.IsFenced(err) {
		t.Fatalf("zombie write = %v, want fenced", err)
	}
	return c
}

// waitUntil polls cond until it holds, failing the test after 20s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailoverAudit kills the primary of a 1 primary + 2 replica cluster
// under write load and audits what survived against what clients were told.
// Writers insert unique keys through a failover-aware pool and never retry:
// a success is an acked write, any error leaves the write's fate unknown.
// Before the kill both replicas are partitioned from the primary (re-pointed
// at a listener that never answers) while the writers keep going. Then the
// primary's server dies without draining, the most caught-up replica is
// promoted, the other follows it, and the writers find it.
//
// In both modes the new primary must hold no row nobody wrote, its rows
// must equal an oracle rebuilt from the clients' own write records, and the
// restarted old primary must be fenced. Quorum mode (SyncReplicas=1) must
// lose no acked write. Async mode must lose some: the partition really cut
// off acked commits, so the quorum assertion is not vacuous.
func TestFailoverAudit(t *testing.T) {
	for _, mode := range []struct {
		name         string
		syncReplicas int
	}{{"quorum", 1}, {"async", 0}} {
		t.Run(mode.name, func(t *testing.T) { runFailoverAudit(t, mode.syncReplicas) })
	}
}

func runFailoverAudit(t *testing.T, syncReplicas int) {
	const (
		writers = 4
		schema  = `CREATE TABLE failover_writes (id INTEGER PRIMARY KEY, writer INTEGER, n INTEGER)`
		insert  = `INSERT INTO failover_writes VALUES (?, ?, ?)`
	)
	dir := t.TempDir()
	pEpoch, err := repl.OpenEpoch(filepath.Join(dir, "p.epoch"))
	if err != nil {
		t.Fatal(err)
	}
	srcOpts := fastSource()
	srcOpts.Epoch = pEpoch
	srcOpts.SyncReplicas = syncReplicas
	srcOpts.QuorumTimeout = 100 * time.Millisecond
	p := startPrimaryOpts(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")}, srcOpts)
	mustExec(t, p.db, schema) // seq 0: clears the quorum barrier with no replica attached
	nodes := []*replicaNode{
		startReplicaNodeOpts(t, filepath.Join(dir, "a.wal"), p.addr, fastReplica()),
		startReplicaNodeOpts(t, filepath.Join(dir, "b.wal"), p.addr, fastReplica()),
	}
	for _, n := range nodes {
		waitCaughtUp(t, p, n.r)
	}

	pool, err := client.NewPool(p.addr, []string{nodes[0].addr, nodes[1].addr}, client.Options{PoolSize: 2 * writers})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	type write struct{ id, writer, n int64 }
	var (
		killed       atomic.Bool
		acks         atomic.Int64 // all acked writes
		postKillAcks atomic.Int64 // acked writes issued after the kill
		stop         = make(chan struct{})
		wg           sync.WaitGroup
		acked        = make([][]write, writers)
		unknown      = make([][]write, writers)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := int64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				afterKill := killed.Load()
				rec := write{id: int64(w)*1_000_000 + n, writer: int64(w), n: n}
				if _, err := pool.Exec(insert, rec.id, rec.writer, rec.n); err != nil {
					unknown[w] = append(unknown[w], rec)
					pool.AwaitPrimary(time.Second)
					continue
				}
				acked[w] = append(acked[w], rec)
				acks.Add(1)
				if afterKill {
					postKillAcks.Add(1)
				}
			}
		}(w)
	}
	stopWriters := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWriters()
	waitUntil(t, "acked writes before the partition", func() bool { return acks.Load() >= 50 })

	// The partition: once both replicas' streams from the primary are gone,
	// nothing past cut can reach them. The kill waits for more commits past
	// cut than there are writers; a writer issues its next write only after
	// the last one is answered, so some post-cut commit has been answered:
	// acked in async mode, refused by the quorum barrier's timeout in quorum
	// mode.
	blackhole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blackhole.Close()
	for _, n := range nodes {
		n.r.Redirect(blackhole.Addr().String())
	}
	waitUntil(t, "the partition", func() bool {
		return p.src.Subscribers() == 0 && !nodes[0].r.Connected() && !nodes[1].r.Connected()
	})
	cut := max(nodes[0].r.AppliedSeq(), nodes[1].r.AppliedSeq())
	waitUntil(t, "commits past the partition", func() bool {
		return p.db.Store().CurrentSeq() > cut+writers
	})

	// The kill: listener and every session closed with no drain.
	p.srv.Kill()
	<-p.done
	killed.Store(true)

	best, other := nodes[0], nodes[1]
	if other.r.AppliedSeq() > best.r.AppliedSeq() {
		best, other = other, best
	}
	bc, err := client.Dial(best.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	newEpoch, _, err := bc.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	other.r.Redirect(best.addr)
	waitUntil(t, "acked writes on the new primary", func() bool { return postKillAcks.Load() >= 2*writers })
	stopWriters()
	if !other.r.WaitForSeq(best.db.Store().CurrentSeq(), 20*time.Second) {
		t.Fatalf("redirected replica stuck at %d, want %d (lastErr=%v)",
			other.r.AppliedSeq(), best.db.Store().CurrentSeq(), other.r.LastErr())
	}

	// The audit: survivors on the new primary against the clients' records.
	ackedByID, unknownByID := map[int64]write{}, map[int64]write{}
	for w := 0; w < writers; w++ {
		for _, rec := range acked[w] {
			ackedByID[rec.id] = rec
		}
		for _, rec := range unknown[w] {
			unknownByID[rec.id] = rec
		}
	}
	rows, err := best.db.Query(`SELECT id FROM failover_writes`)
	if err != nil {
		t.Fatal(err)
	}
	oracle := db.MustOpenMemory()
	defer oracle.Close()
	mustExec(t, oracle, schema)
	survived := map[int64]bool{}
	for _, row := range rows.Rows {
		id := row[0].AsInt()
		survived[id] = true
		rec, ok := ackedByID[id]
		if !ok {
			if rec, ok = unknownByID[id]; !ok {
				t.Errorf("phantom row %d: no client wrote it", id)
				continue
			}
		}
		mustExec(t, oracle, insert, rec.id, rec.writer, rec.n)
	}
	if diff := crashtest.StoreDiff(best.db.Store(), oracle.Store()); diff != "" {
		t.Errorf("new primary differs from the clients' write records:\n%s", diff)
	}
	lost := 0
	for id := range ackedByID {
		if !survived[id] {
			lost++
		}
	}
	t.Logf("acked %d, unknown %d, survivors %d, acked lost %d", len(ackedByID), len(unknownByID), len(survived), lost)
	if syncReplicas > 0 && lost != 0 {
		t.Errorf("quorum mode lost %d acked writes", lost)
	}
	if syncReplicas == 0 && lost == 0 {
		t.Error("async mode lost no acked write: the partition did not cut off acked commits")
	}

	// The zombie: the old primary's server comes back on its database and
	// epoch state; told of the new epoch, it must refuse to feed or write.
	zsrv, err := server.New(server.Config{DB: p.db, Source: p.src})
	if err != nil {
		t.Fatal(err)
	}
	zln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.srv, p.addr, p.done = zsrv, zln.Addr().String(), make(chan error, 1)
	go func() { p.done <- zsrv.Serve(zln) }()
	assertFencedByNewEpoch(t, p, newEpoch, `INSERT INTO failover_writes VALUES (-1, -1, -1)`)
}
