package repl_test

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/repl"
	"repro/internal/wal"
)

// pipeSubscribe subscribes to src at from over net.Pipe and collects what
// it ships until the first heartbeat, which the source sends only once it
// has drained everything up to its head. A typed refusal is returned as
// the message it arrived in.
func pipeSubscribe(t *testing.T, src *repl.Source, from uint64) ([]protocol.LogEntry, *protocol.Message) {
	t.Helper()
	srvEnd, clEnd := net.Pipe()
	drain := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		src.Serve(protocol.NewConn(srvEnd), &protocol.Message{Type: protocol.MsgSubscribe, FromSeq: from}, drain)
	}()
	defer func() {
		clEnd.Close()
		close(drain)
		<-served
		srvEnd.Close()
	}()
	var got []protocol.LogEntry
	for {
		clEnd.SetReadDeadline(time.Now().Add(10 * time.Second))
		msg, err := protocol.ReadMessage(clEnd, protocol.MaxReplFrame)
		if err != nil {
			t.Fatalf("subscribe at %d: %v", from, err)
		}
		if msg.Type == protocol.MsgError {
			return got, msg
		}
		if len(msg.Entries) == 0 {
			return got, nil
		}
		got = append(got, msg.Entries...)
	}
}

// stepName renders a stream entry for comparison: DDL by its text, a
// commit by its sequence.
func stepName(ddl string, seq uint64) string {
	if ddl != "" {
		return ddl
	}
	return fmt.Sprintf("commit %d", seq)
}

// TestCatchUpAfterRestartResendsDDLAtSnapshotSeq: a DDL statement positioned
// at the seq a checkpoint captured is folded into the snapshot, and a
// subscriber catching up from exactly that seq after a restart must still
// receive it before the commits that use it.
func TestCatchUpAfterRestartResendsDDLAtSnapshotSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "primary.wal")
	d, err := db.Open(db.Options{Mode: db.Disk, Path: path, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, d, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, d, `INSERT INTO kv VALUES (1, 'a')`)
	mustExec(t, d, `CREATE TABLE t2 (k INTEGER PRIMARY KEY)`)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = db.Open(db.Options{Mode: db.Disk, Path: path, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	src := repl.NewSource(d, repl.SourceOptions{Heartbeat: 20 * time.Millisecond})
	mustExec(t, d, `INSERT INTO t2 VALUES (1)`)

	got, refusal := pipeSubscribe(t, src, 1)
	if refusal != nil {
		t.Fatalf("catch-up from the snapshot seq refused: %s", refusal.Err)
	}
	var names []string
	for _, e := range got {
		names = append(names, stepName(e.DDL, e.Commit.Seq))
	}
	want := []string{"CREATE TABLE t2 (k INTEGER, PRIMARY KEY (k))", "commit 2"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("catch-up from seq 1 shipped %q, want %q", names, want)
	}
}

// TestSourceShipsTheOracleSelection interleaves random DDL (CREATE TABLE,
// CREATE INDEX, DROP TABLE) and commits on a Disk primary across a
// checkpoint and a restart, then subscribes at every position from the
// catch-up boundary to the head. Each stream must be exactly the commits
// after the position and the DDL at or after it, in execution order;
// positions below the boundary must be refused.
func TestSourceShipsTheOracleSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	path := filepath.Join(t.TempDir(), "primary.wal")
	open := func() *db.DB {
		d, err := db.Open(db.Options{Mode: db.Disk, Path: path, Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	type step struct {
		seq uint64
		ddl string
	}
	var oracle []step
	var tables []string
	nextTable, nextIndex, nextID := 0, 0, 0
	ddl := func(d *db.DB, sql string, logged func() string) {
		at := d.Store().CurrentSeq()
		mustExec(t, d, sql)
		oracle = append(oracle, step{seq: at, ddl: logged()})
	}
	createTable := func(d *db.DB) {
		name := fmt.Sprintf("t%d", nextTable)
		nextTable++
		ddl(d, fmt.Sprintf(`CREATE TABLE %s (id INTEGER PRIMARY KEY, v INTEGER)`, name),
			func() string { return d.Store().Table(name).String() })
		tables = append(tables, name)
	}
	randomOps := func(d *db.DB, n int) {
		for i := 0; i < n; i++ {
			switch r := rng.Intn(10); {
			case len(tables) == 0 || r == 0:
				createTable(d)
			case r == 1:
				stmt := fmt.Sprintf("CREATE INDEX i%d ON %s (v)", nextIndex, tables[rng.Intn(len(tables))])
				nextIndex++
				ddl(d, stmt, func() string { return stmt })
			case r == 2 && len(tables) > 1:
				k := rng.Intn(len(tables))
				stmt := "DROP TABLE " + tables[k]
				ddl(d, stmt, func() string { return stmt })
				tables = append(tables[:k], tables[k+1:]...)
			default:
				mustExec(t, d, fmt.Sprintf(`INSERT INTO %s VALUES (?, ?)`, tables[rng.Intn(len(tables))]), nextID, rng.Intn(5))
				nextID++
				oracle = append(oracle, step{seq: d.Store().CurrentSeq()})
			}
		}
	}

	d := open()
	randomOps(d, 40)
	createTable(d) // a DDL positioned at the snapshot seq
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	boundary := d.Store().CurrentSeq()
	randomOps(d, 20) // the WAL tail
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = open()
	defer d.Close()
	src := repl.NewSource(d, repl.SourceOptions{Heartbeat: 20 * time.Millisecond, BatchEntries: 4})
	randomOps(d, 30)
	head := d.Store().CurrentSeq()

	if boundary > 0 {
		if _, refusal := pipeSubscribe(t, src, boundary-1); refusal == nil || refusal.Code != protocol.CodeLogTruncated {
			t.Fatalf("catch-up below the boundary %d was not refused: %+v", boundary, refusal)
		}
	}
	for pos := boundary; pos <= head; pos++ {
		var want []string
		for _, s := range oracle {
			if s.ddl != "" && s.seq >= pos || s.ddl == "" && s.seq > pos {
				want = append(want, stepName(s.ddl, s.seq))
			}
		}
		shipped, refusal := pipeSubscribe(t, src, pos)
		if refusal != nil {
			t.Fatalf("catch-up from %d refused: %s", pos, refusal.Err)
		}
		var got []string
		for _, e := range shipped {
			got = append(got, stepName(e.DDL, e.Commit.Seq))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("from %d shipped\n%q\nwant\n%q", pos, got, want)
		}
	}
}
