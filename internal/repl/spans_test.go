package repl_test

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/span"
	"repro/internal/value"
)

// TestReplicaTraceIDPropagation follows one traced write across the cluster:
// the primary's server assigns the trace ID, the db commit path stamps it on
// the commit record, the replication source ships it with the log entry,
// and the replica's span sink reports apply/WAL-append timings under the
// originating request's trace ID.
func TestReplicaTraceIDPropagation(t *testing.T) {
	dir := t.TempDir()

	col := span.NewCollector(span.CollectorOptions{Sample: 1})
	d, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	src := repl.NewSource(d, fastSource())
	srv, err := server.New(server.Config{DB: d, Source: src, Spans: col})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	p := &primary{t: t, db: d, src: src, srv: srv, addr: ln.Addr().String(), done: done}
	t.Cleanup(func() { p.stop() })

	type applied struct {
		traceID, seq   uint64
		applyNs, walNs int64
	}
	var mu sync.Mutex
	var sunk []applied
	rd, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "r.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	rd.SetReadOnly(true)
	ropts := fastReplica()
	ropts.SpanSink = func(b *span.Buf) {
		a := applied{traceID: b.TraceID, seq: b.CommitSeq()}
		for _, s := range b.Spans() {
			switch s.Stage {
			case span.StageReplApply:
				a.applyNs = s.Dur
			case span.StageReplWALAppend:
				a.walNs = s.Dur
			}
		}
		mu.Lock()
		sunk = append(sunk, a)
		mu.Unlock()
	}
	r := repl.StartReplica(rd, p.addr, ropts)
	t.Cleanup(r.Stop)

	c, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1, 7)`); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, r)

	// The primary kept the insert's trace (sample rate 1, request S2) with
	// its commit seq; read it back from trod_spans as an operator would.
	var insTrace, insSeq uint64
	for deadline := time.Now().Add(5 * time.Second); insTrace == 0; time.Sleep(2 * time.Millisecond) {
		res, err := c.Query(`SELECT trace_id, seq FROM trod_spans WHERE req_id = 'S2' AND stage = 'request'`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 1 {
			insTrace, insSeq = uint64(res.Rows[0][0].AsInt()), uint64(res.Rows[0][1].AsInt())
		} else if time.Now().After(deadline) {
			t.Fatal("primary kept no trace for the insert")
		}
	}
	if insSeq == 0 {
		t.Fatal("the insert's kept trace carries no commit seq")
	}

	mu.Lock()
	defer mu.Unlock()
	var got *applied
	for i := range sunk {
		if sunk[i].seq == insSeq {
			got = &sunk[i]
		}
	}
	if got == nil {
		t.Fatalf("replica sink never saw seq %d (sunk: %+v)", insSeq, sunk)
	}
	if got.traceID != insTrace {
		t.Fatalf("replica apply for seq %d carries trace %d, primary request was trace %d",
			got.seq, got.traceID, insTrace)
	}
	if got.applyNs <= 0 || got.walNs <= 0 {
		t.Fatalf("replica apply timings not split: apply=%dns wal=%dns", got.applyNs, got.walNs)
	}
	// DDL ships as a DDL entry and never reaches the sink, so every sunk
	// entry must carry a nonzero trace ID.
	for _, a := range sunk {
		if a.traceID == 0 {
			t.Fatalf("sink received an untraced entry: %+v", a)
		}
	}
}

// TestCatchUpShipsTraceIDOfOldCommits: a replica that subscribes late catches
// up from the primary's CDC log, and a traced commit with more than 8,192
// later traced commits behind it still ships with its trace ID. The ID
// travels on the commit record, so how far back the catch-up starts does
// not matter.
func TestCatchUpShipsTraceIDOfOldCommits(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")})
	mustExec(t, p.db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	const later = 8192 + 100
	var firstSeq uint64
	for i := 0; i <= later; i++ {
		meta := db.TxMeta{Spans: span.NewBuf(uint64(1000+i), 0)}
		if _, err := p.db.ExecMeta(meta, `INSERT INTO t VALUES (?, ?)`, value.Row{value.Int(int64(i)), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstSeq = p.db.Store().CurrentSeq()
		}
	}

	var mu sync.Mutex
	var firstTrace uint64
	ropts := fastReplica()
	ropts.SpanSink = func(b *span.Buf) {
		mu.Lock()
		defer mu.Unlock()
		if b.CommitSeq() == firstSeq {
			firstTrace = b.TraceID
		}
	}
	rd, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "r.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	rd.SetReadOnly(true)
	r := repl.StartReplica(rd, p.addr, ropts)
	t.Cleanup(r.Stop)
	waitCaughtUp(t, p, r)
	if r.Bootstraps() != 0 {
		t.Fatal("replica bootstrapped from a snapshot instead of catching up from the log")
	}
	mu.Lock()
	defer mu.Unlock()
	if firstTrace != 1000 {
		t.Fatalf("catch-up shipped seq %d with trace %d, want 1000", firstSeq, firstTrace)
	}
}
