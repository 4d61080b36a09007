package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// TestCommitDoesNotHoldStoreLockForTracer: write provenance travels with the
// transaction's trace, after the commit left the store, so a tracer whose
// queue lock is held cannot stall the store. A traced commit runs while the
// test holds Tracer.mu; the store must still answer CurrentSeq at the new
// sequence.
func TestCommitDoesNotHoldStoreLockForTracer(t *testing.T) {
	app, tr := moodleApp(t, Config{})
	store := app.DB().Store()
	want := store.CurrentSeq() + 1

	tr.mu.Lock()
	held := true
	defer func() {
		if held {
			tr.mu.Unlock()
		}
	}()
	committed := make(chan error, 1)
	go func() {
		tx := app.DB().Begin()
		if _, err := tx.Exec(`INSERT INTO forum_sub VALUES (1, 'U1', 'F1')`); err != nil {
			tx.Rollback()
			committed <- err
			return
		}
		committed <- tx.Commit()
	}()
	seen := make(chan struct{})
	go func() {
		for store.CurrentSeq() < want {
			time.Sleep(time.Millisecond)
		}
		close(seen)
	}()
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatalf("Store.CurrentSeq did not reach %d within 2s while Tracer.mu was held: the commit holds the store lock while it waits for the tracer", want)
	}
	tr.mu.Unlock()
	held = false
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	<-seen
}

// TestWriteEventsMatchCommitLog is the oracle for write provenance:
// concurrent writers insert, update and delete rows of a traced table, some
// of them conflict or roll back, and after a flush the write-event rows are
// exactly the changes of the commit entries the store's log holds, with the
// committing transaction's ID and commit sequence. Transactions that aborted
// or rolled back leave no write rows.
func TestWriteEventsMatchCommitLog(t *testing.T) {
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	t.Cleanup(func() { prod.Close(); prov.Close() })
	if err := prod.ExecScript(`CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tr, err := Attach(runtime.New(prod), prov, Config{Tables: provenance.TableMap{"kv": "KvEvents"}, FlushBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	const hot = 4 // keys every writer updates, so commits conflict
	for id := 0; id < hot; id++ {
		if _, err := prod.Exec(`INSERT INTO kv VALUES (?, 0)`, id); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu     sync.Mutex
		failed []uint64 // transactions that conflicted or rolled back
	)
	fail := func(tx *db.Tx) {
		mu.Lock()
		failed = append(failed, tx.ID())
		mu.Unlock()
	}

	// One conflict for certain: two transactions read and rewrite the same
	// row, and the second to commit loses.
	a, b := prod.Begin(), prod.Begin()
	for i, tx := range []*db.Tx{a, b} {
		if _, err := tx.Query(`SELECT v FROM kv WHERE id = 0`); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(`UPDATE kv SET v = ? WHERE id = 0`, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	var conflict *storage.ConflictError
	if err := b.Commit(); !errors.As(err, &conflict) {
		t.Fatalf("second writer of row 0 = %v, want a conflict", err)
	}
	fail(b)

	const writers, perWriter = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []int // rows this writer inserted and has not deleted
			for i := 0; i < perWriter; i++ {
				tx := prod.Begin()
				var err error
				switch op := rng.Intn(4); {
				case op == 0 || len(mine) == 0:
					id := hot + w*perWriter + i
					_, err = tx.Exec(`INSERT INTO kv VALUES (?, ?)`, id, i)
					mine = append(mine, id)
				case op == 1:
					id := rng.Intn(hot)
					if _, err = tx.Query(`SELECT v FROM kv WHERE id = ?`, id); err == nil {
						_, err = tx.Exec(`UPDATE kv SET v = v + 1 WHERE id = ?`, id)
					}
				case op == 2:
					_, err = tx.Exec(`UPDATE kv SET v = ? WHERE id = ?`, -i, mine[rng.Intn(len(mine))])
				default:
					k := rng.Intn(len(mine))
					_, err = tx.Exec(`DELETE FROM kv WHERE id = ?`, mine[k])
					mine = append(mine[:k], mine[k+1:]...)
				}
				if err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if rng.Intn(5) == 0 {
					tx.Rollback()
					fail(tx)
					continue
				}
				if err := tx.Commit(); err != nil {
					if !errors.As(err, &conflict) {
						errs <- err
						return
					}
					fail(tx)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	store := prod.Store()
	entries, err := store.ReadLog(0, store.CurrentSeq())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		for _, ch := range e.Changes {
			row := ch.After
			if ch.Op == storage.OpDelete {
				row = ch.Before
			}
			want = append(want, fmt.Sprintf("txn %d seq %d %s %v", e.TxnID, e.Seq, ch.Op, row))
		}
	}
	res, err := prov.Query(`SELECT TxnId, Seq, Type, id, v FROM KvEvents WHERE Type <> 'Read'`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	written := map[uint64]bool{}
	for _, r := range res.Rows {
		txnID := uint64(r[0].AsInt())
		written[txnID] = true
		got = append(got, fmt.Sprintf("txn %d seq %d %s %v", txnID, r[1].AsInt(), r[2].AsText(), r[3:]))
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("write events differ from the commit log:\n got %d rows %q\nwant %d rows %q", len(got), got, len(want), want)
	}
	if len(failed) == 0 {
		t.Fatal("no transaction conflicted or rolled back")
	}
	for _, id := range failed {
		if written[id] {
			t.Errorf("transaction %d did not commit but has write events", id)
		}
	}
}

// TestReplicatedCommitsAreNotTraced: a traced node's provenance holds only
// the transactions it executed. A commit it applies from a replication
// primary has no Executions row on this node, so it records no write
// events either; every event's transaction is one of the node's own.
func TestReplicatedCommitsAreNotTraced(t *testing.T) {
	const ddl = `CREATE TABLE forum_sub (id INTEGER PRIMARY KEY, userId TEXT, forum TEXT)`
	primary := db.MustOpenMemory()
	node := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	t.Cleanup(func() { primary.Close(); node.Close(); prov.Close() })
	for _, d := range []*db.DB{primary, node} {
		if err := d.ExecScript(ddl); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Attach(runtime.New(node), prov, Config{Tables: provenance.TableMap{"forum_sub": "ForumEvents"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	if _, err := primary.Exec(`INSERT INTO forum_sub VALUES (1, 'U1', 'F1')`); err != nil {
		t.Fatal(err)
	}
	head := primary.Store().CurrentSeq()
	entries, err := primary.Store().ReadLog(head-1, head)
	if err != nil {
		t.Fatal(err)
	}
	var rec storage.CommitRecord
	for _, e := range entries {
		if e.DDL == "" {
			rec = e.CommitRecord
		}
	}
	if err := node.ApplyReplicatedCommit(rec, nil); err != nil {
		t.Fatal(err)
	}
	// One transaction of the node's own, so the event table is not empty.
	if _, err := node.Exec(`INSERT INTO forum_sub VALUES (2, 'U2', 'F1')`); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := prov.Query(`SELECT TxnId, Type FROM ForumEvents`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no events recorded for the node's own transaction")
	}
	for _, r := range res.Rows {
		txnID := uint64(r[0].AsInt())
		if _, err := tr.Writer().ExecutionByTxn(txnID); err != nil {
			t.Errorf("%s event of transaction %d has no Executions row: %v", r[1].AsText(), txnID, err)
		}
	}
}
