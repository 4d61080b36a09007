package db

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
)

func memDB(t *testing.T) *DB {
	t.Helper()
	d := MustOpenMemory()
	t.Cleanup(func() { d.Close() })
	return d
}

func TestAutocommitExecAndQuery(t *testing.T) {
	d := memDB(t)
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO t VALUES (1, 'a'), (2, 'b')`); err != nil {
		t.Fatal(err)
	}
	res, err := d.Query(`SELECT v FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].AsText() != "a" {
		t.Errorf("query = %+v", res.Rows)
	}
}

func TestExecScript(t *testing.T) {
	d := memDB(t)
	err := d.ExecScript(`
		CREATE TABLE a (id INTEGER PRIMARY KEY);
		CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER);
		INSERT INTO a VALUES (1);
		INSERT INTO b VALUES (10, 1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Query(`SELECT COUNT(*) FROM a JOIN b ON a.id = b.aid`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1 {
		t.Errorf("script result = %v", res.Rows)
	}
	if err := d.ExecScript(`NOT SQL`); err == nil {
		t.Error("bad script should fail")
	}
}

func TestExplicitTransaction(t *testing.T) {
	d := memDB(t)
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tx := d.Begin()
	if _, err := tx.Exec(`INSERT INTO t VALUES (1, 10)`); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Query(`SELECT v FROM t WHERE id = 1`)
	if err != nil || res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("in-txn read: %v %v", res, err)
	}
	// Not yet visible outside.
	out, _ := d.Query(`SELECT COUNT(*) FROM t`)
	if out.Rows[0][0].AsInt() != 0 {
		t.Error("uncommitted write visible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	out, _ = d.Query(`SELECT COUNT(*) FROM t`)
	if out.Rows[0][0].AsInt() != 1 {
		t.Error("commit not visible")
	}
}

func TestRollback(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	tx := d.Begin()
	if _, err := tx.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	out, _ := d.Query(`SELECT COUNT(*) FROM t`)
	if out.Rows[0][0].AsInt() != 0 {
		t.Error("rollback leaked")
	}
}

func TestDDLInsideTxnRejected(t *testing.T) {
	d := memDB(t)
	tx := d.Begin()
	defer tx.Rollback()
	if _, err := tx.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err == nil {
		t.Error("DDL inside txn should fail")
	}
}

func TestTransactionControlViaSQLRejected(t *testing.T) {
	d := memDB(t)
	for _, q := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if _, err := d.Exec(q); err == nil {
			t.Errorf("%s via Exec should fail", q)
		}
	}
}

func TestBadArgsAndQueries(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	if _, err := d.Exec(`INSERT INTO t VALUES (?)`, struct{}{}); err == nil {
		t.Error("unsupported arg type should fail")
	}
	if _, err := d.Exec(`SELECT FROM WHERE`); err == nil {
		t.Error("parse error should surface")
	}
	if _, err := d.Exec(`SELECT * FROM missing`); err == nil {
		t.Error("unknown table should surface")
	}
}

func TestStatementCache(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	for i := 0; i < 10; i++ {
		if _, err := d.Exec(`INSERT INTO t VALUES (?)`, i); err != nil {
			t.Fatal(err)
		}
	}
	// Statements and plans share one cache: two distinct query texts.
	if n := d.plans.size(); n != 2 { // CREATE + INSERT
		t.Errorf("stmt/plan cache size = %d, want 2", n)
	}
}

func TestConcurrentAutocommitRetries(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE c (id INTEGER PRIMARY KEY, n INTEGER)`)
	d.Exec(`INSERT INTO c VALUES (1, 0)`)
	const workers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := d.Exec(`UPDATE c SET n = n + 1 WHERE id = 1`); err != nil {
					t.Errorf("update: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	res, _ := d.Query(`SELECT n FROM c WHERE id = 1`)
	if got := res.Rows[0][0].AsInt(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
}

func TestRunTxRetriesConflicts(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE c (id INTEGER PRIMARY KEY, n INTEGER)`)
	d.Exec(`INSERT INTO c VALUES (1, 0)`)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				err := d.RunTx(TxMeta{Handler: "inc"}, func(tx *Tx) error {
					res, err := tx.Query(`SELECT n FROM c WHERE id = 1`)
					if err != nil {
						return err
					}
					_, err = tx.Exec(`UPDATE c SET n = ? WHERE id = 1`, res.Rows[0][0].AsInt()+1)
					return err
				})
				if err != nil {
					t.Errorf("RunTx: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	res, _ := d.Query(`SELECT n FROM c WHERE id = 1`)
	if got := res.Rows[0][0].AsInt(); got != 30 {
		t.Errorf("counter = %d, want 30", got)
	}
}

func TestHooksFireWithTraces(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE forum_sub (userId TEXT, forum TEXT, PRIMARY KEY (userId, forum))`)
	var mu sync.Mutex
	var commits []TxnTrace
	var aborts []TxnTrace
	d.SetHook(func(tr TxnTrace) {
		mu.Lock()
		defer mu.Unlock()
		if tr.Committed {
			commits = append(commits, tr)
		} else {
			aborts = append(aborts, tr)
		}
	})

	meta := TxMeta{ReqID: "R1", Handler: "subscribeUser", Func: "isSubscribed"}
	tx := d.BeginMeta(meta)
	res, err := tx.Query(`SELECT * FROM forum_sub WHERE userId = 'U1' AND forum = 'F2'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("table should be empty")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := d.BeginMeta(TxMeta{ReqID: "R1", Handler: "subscribeUser", Func: "DB.insert"})
	if _, err := tx2.Exec(`INSERT INTO forum_sub VALUES ('U1', 'F2')`); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	tx3 := d.Begin()
	tx3.Rollback()

	if len(commits) != 2 {
		t.Fatalf("commits = %d", len(commits))
	}
	first := commits[0]
	if first.Meta != meta || !first.Committed || first.TxnID == 0 {
		t.Errorf("first trace = %+v", first)
	}
	// The empty read must be traced as a no-match marker (nil Row).
	if len(first.Stmts) != 1 || len(first.Stmts[0].Reads) != 1 {
		t.Fatalf("first stmts = %+v", first.Stmts)
	}
	if first.Stmts[0].Reads[0].Row != nil || !strings.EqualFold(first.Stmts[0].Reads[0].Table, "forum_sub") {
		t.Errorf("no-match read marker = %+v", first.Stmts[0].Reads[0])
	}
	if len(aborts) != 1 {
		t.Errorf("aborts = %d", len(aborts))
	}
	if first.End.Before(first.Start) {
		t.Error("trace timestamps out of order")
	}
}

func TestReadProvenanceRowsCaptured(t *testing.T) {
	d := memDB(t)
	d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT);
		INSERT INTO t VALUES (1, 'x'), (2, 'y');
	`)
	var got []ReadEvent
	d.SetHook(func(tr TxnTrace) {
		for _, s := range tr.Stmts {
			got = append(got, s.Reads...)
		}
	})
	tx := d.Begin()
	if _, err := tx.Query(`SELECT * FROM t WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Row == nil || got[0].Row[1].AsText() != "y" {
		t.Errorf("read events = %+v", got)
	}
}

func TestDiskModePersistenceAndRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trod.wal")
	d, err := Open(Options{Mode: Disk, Path: path, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT);
		CREATE INDEX by_v ON t (v);
		INSERT INTO t VALUES (1, 'hello');
		INSERT INTO t VALUES (2, 'world');
		UPDATE t SET v = 'HELLO' WHERE id = 1;
		DELETE FROM t WHERE id = 2;
	`); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(Options{Mode: Disk, Path: path, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	res, err := d2.Query(`SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].AsText() != "HELLO" {
		t.Errorf("recovered = %+v", res.Rows)
	}
	// Index survived recovery (used for equality scan).
	res, err = d2.Query(`SELECT id FROM t WHERE v = 'HELLO'`)
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("index after recovery: %v %v", res, err)
	}
	// And the recovered DB accepts new writes that persist again.
	if _, err := d2.Exec(`INSERT INTO t VALUES (3, 'new')`); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(Options{Mode: Disk, Path: path, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	res, _ = d3.Query(`SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].AsInt() != 2 {
		t.Errorf("second recovery count = %v", res.Rows)
	}
}

func TestDiskModeRequiresPath(t *testing.T) {
	if _, err := Open(Options{Mode: Disk}); err == nil {
		t.Error("Disk without path should fail")
	}
}

func TestBeginAtTimeTravel(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	d.Exec(`INSERT INTO t VALUES (1, 10)`)
	seq := d.Store().CurrentSeq()
	d.Exec(`UPDATE t SET v = 20 WHERE id = 1`)

	tx, err := d.BeginAt(seq)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	res, err := tx.Query(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 10 {
		t.Errorf("time travel read = %v", res.Rows)
	}
}

func TestTableFromASTValidation(t *testing.T) {
	if _, err := Open(Options{Mode: Memory}); err != nil {
		t.Fatal(err)
	}
	d := memDB(t)
	// Both inline and table-level PK.
	_, err := d.Exec(`CREATE TABLE bad (id INTEGER PRIMARY KEY, x INTEGER, PRIMARY KEY (x))`)
	if err == nil {
		t.Error("double PK spec should fail")
	}
	// No PK at all.
	if _, err := d.Exec(`CREATE TABLE bad2 (id INTEGER)`); err == nil {
		t.Error("missing PK should fail")
	}
}

func TestErrorsAreErrorsNotPanics(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	bad := []string{
		`INSERT INTO t VALUES (1, 2, 3)`,
		`UPDATE t SET id = 'text' WHERE id = 1`,
		`SELECT 1 / 0 FROM t`,
	}
	d.Exec(`INSERT INTO t VALUES (1)`)
	for _, q := range bad {
		if _, err := d.Exec(q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
}

func TestConflictErrorTypePreserved(t *testing.T) {
	d := memDB(t)
	d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	d.Exec(`INSERT INTO t VALUES (1, 0)`)
	tx1 := d.Begin()
	tx2 := d.Begin()
	if _, err := tx1.Exec(`UPDATE t SET v = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`UPDATE t SET v = 2 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := tx2.Commit()
	if err == nil {
		t.Fatal("second commit should conflict")
	}
	var conflict interface{ Error() string }
	if !errors.As(err, &conflict) {
		t.Errorf("conflict type lost: %v", err)
	}
	if !strings.Contains(err.Error(), "conflict") {
		t.Errorf("error text = %q", err)
	}
}

func TestManyTablesAndJoinsThroughFacade(t *testing.T) {
	d := memDB(t)
	if err := d.ExecScript(`
		CREATE TABLE Executions (TxnId INTEGER PRIMARY KEY, Timestamp INTEGER, HandlerName TEXT, ReqId TEXT);
		CREATE TABLE ForumEvents (EvId INTEGER PRIMARY KEY, TxnId INTEGER, Type TEXT, UserId TEXT, Forum TEXT);
		INSERT INTO Executions VALUES (1, 100, 'subscribeUser', 'R1'), (2, 101, 'subscribeUser', 'R2'),
			(3, 102, 'subscribeUser', 'R2'), (4, 103, 'subscribeUser', 'R1');
		INSERT INTO ForumEvents VALUES (1, 3, 'Insert', 'U1', 'F2'), (2, 4, 'Insert', 'U1', 'F2');
	`); err != nil {
		t.Fatal(err)
	}
	// The paper's §3.3 debugging query, verbatim shape.
	res, err := d.Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F
		ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("debug query rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].AsText() != "R2" || res.Rows[1][1].AsText() != "R1" {
		t.Errorf("debug query = %v %v", res.Rows[0], res.Rows[1])
	}
}

func fmtRows(res *Rows) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&sb, r)
	}
	return sb.String()
}
