package db

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// TestBeginAtRejectsWrites is the time-travel write-hole regression: BeginAt
// used to hand out an ordinary read-write transaction whose snapshot
// predated the head, so a blind insert (no reads => empty read set => OCC
// validation vacuously passes) would commit on top of the present and
// silently rewrite history. Time-travel transactions are now declared
// read-only and refuse writes with a typed error.
func TestBeginAtRejectsWrites(t *testing.T) {
	d := memDB(t)
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO t VALUES (1, 10)`); err != nil {
		t.Fatal(err)
	}
	seq := d.Store().CurrentSeq()
	if _, err := d.Exec(`UPDATE t SET v = 20 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}

	tx, err := d.BeginAt(seq)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	// The blind insert: touches no existing rows, so the old code's OCC
	// validation had nothing to conflict on.
	_, err = tx.Exec(`INSERT INTO t VALUES (99, 99)`)
	if !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("blind insert through BeginAt: err = %v, want ErrReadOnlyTxn", err)
	}
	for _, stmt := range []string{`UPDATE t SET v = 0 WHERE id = 1`, `DELETE FROM t WHERE id = 1`} {
		if _, err := tx.Exec(stmt); !errors.Is(err, ErrReadOnlyTxn) {
			t.Fatalf("%s through BeginAt: err = %v, want ErrReadOnlyTxn", stmt, err)
		}
	}
	// Reads still work at the requested snapshot.
	res, err := tx.Query(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("time-travel read = %v, want 10", res.Rows)
	}
	// And the present is untouched.
	res, _ = d.Query(`SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("head row count = %v, want 1", res.Rows)
	}
}

// TestBeginReadOnlySnapshotIsolation: a declared read-only transaction holds
// a stable snapshot, never conflicts, and its Commit reports no commit
// sequence (there is nothing it committed).
func TestBeginReadOnlySnapshotIsolation(t *testing.T) {
	d := memDB(t)
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO t VALUES (1, 10)`); err != nil {
		t.Fatal(err)
	}
	tx := d.BeginReadOnly()
	if !tx.inner.ReadOnly() {
		t.Fatal("BeginReadOnly transaction not marked read-only")
	}
	if _, err := d.Exec(`UPDATE t SET v = 20 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Query(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("snapshot read = %v, want pre-update 10", res.Rows)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	// Satellite regression: the old empty-commit path reported commitSeq ==
	// snapshot, claiming a commit position the transaction never owned.
	if got := tx.inner.CommitSeq(); got != 0 {
		t.Fatalf("read-only CommitSeq = %d, want 0", got)
	}
}

// TestBeginAtBelowFloor: time travel below the vacuumed history floor fails
// loudly with the typed error, naming the floor.
func TestBeginAtBelowFloor(t *testing.T) {
	d, err := Open(Options{Mode: Memory, HistoryRetention: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Exec(`INSERT INTO t VALUES (?, ?)`, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Vacuum(); st.Runs != 1 {
		t.Fatalf("explicit Vacuum did not run: %+v", st)
	}
	floor := d.Store().HistoryRetainedFrom()
	if floor == 0 {
		t.Fatal("vacuum left the history floor at 0")
	}
	if _, err := d.BeginAt(floor - 1); !errors.Is(err, storage.ErrHistoryTruncated) {
		t.Fatalf("BeginAt below floor: err = %v, want ErrHistoryTruncated", err)
	}
	tx, err := d.BeginAt(floor)
	if err != nil {
		t.Fatalf("BeginAt at floor: %v", err)
	}
	tx.Rollback()
}

// TestCheckpointVacuumAndRestartFloor is the checkpointed-restart
// history-loss regression: a restart from a checkpoint snapshot only has
// single-version images, so its history floor is the checkpoint sequence —
// and the store must say so instead of serving empty pre-checkpoint reads.
func TestCheckpointVacuumAndRestartFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	d := openDisk(t, path, func(o *Options) { o.HistoryRetention = 4 })
	if _, err := d.Exec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 20)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint triggered a vacuum: floor = head - retention.
	head := d.Store().CurrentSeq()
	if got, want := d.Store().HistoryRetainedFrom(), head-4; got != want {
		t.Fatalf("post-checkpoint floor = %d, want %d", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, path)
	defer re.Close()
	if !re.Recovery().SnapshotLoaded {
		t.Fatal("restart did not recover from the checkpoint snapshot")
	}
	// After restart the snapshot seq IS the floor: every pre-checkpoint
	// version lives only in the WAL's .old generation, not in memory.
	snapSeq := re.Recovery().SnapshotSeq
	if got := re.Store().HistoryRetainedFrom(); got != snapSeq {
		t.Fatalf("post-restart floor = %d, want snapshot seq %d", got, snapSeq)
	}
	if _, err := re.BeginAt(snapSeq - 1); !errors.Is(err, storage.ErrHistoryTruncated) {
		t.Fatalf("BeginAt below restart floor: err = %v, want ErrHistoryTruncated", err)
	}
	// At or above the floor, time travel still works and reads real data.
	tx, err := re.BeginAt(snapSeq)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	res, err := tx.Query(`SELECT COUNT(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 20 {
		t.Fatalf("time travel at restart floor sees %v rows, want 20", res.Rows)
	}
}

// TestHistoryRetentionBoundsResidency: sustained updates with retention
// configured keep version chains bounded (checkpoints fire the vacuum).
func TestHistoryRetentionBoundsResidency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	d := openDisk(t, path, func(o *Options) {
		o.HistoryRetention = 8
		o.CheckpointRecords = 32
	})
	defer d.Close()
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO t VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := d.Exec(`UPDATE t SET v = ? WHERE id = 1`, i); err != nil {
			t.Fatal(err)
		}
	}
	waitCheckpointerIdle(t, d)
	totals := d.Store().VacuumTotals()
	if totals.Runs == 0 || totals.DroppedRowVersions == 0 {
		t.Fatalf("checkpoints never vacuumed: %+v", totals)
	}
	census := d.Store().VersionCensus()
	// 301 versions written to one row; the chain must stay near the
	// retention+checkpoint window, nowhere near the unbounded total.
	if census.MaxChainLength > 100 {
		t.Fatalf("version chain grew to %d despite retention: %+v", census.MaxChainLength, census)
	}
}

// TestReadOnlyScansUnderConcurrentTransfers: read-modify-write transfer
// writers run beside full-table scanners in declared read-only transactions,
// on a disk database whose checkpoints vacuum behind a short
// HistoryRetention. No scan may abort (a read-only transaction has no read
// set to validate), every scan must see the balance sum of a single commit
// point even when a vacuum runs mid-scan (it clamps to the scanner's
// snapshot pin), and the vacuum must actually run and drop versions.
func TestReadOnlyScansUnderConcurrentTransfers(t *testing.T) {
	const (
		rows     = 64
		writers  = 2
		readers  = 2
		transfer = 600
	)
	d := openDisk(t, filepath.Join(t.TempDir(), "db.wal"), func(o *Options) {
		o.HistoryRetention = 8
		o.CheckpointRecords = 64
	})
	defer d.Close()
	if _, err := d.Exec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := d.Exec(`INSERT INTO acct VALUES (?, 100)`, i); err != nil {
			t.Fatal(err)
		}
	}
	const wantTotal = rows * 100

	var (
		budget     atomic.Int64
		writesDone atomic.Bool
		scans      atomic.Int64
		writerWG   sync.WaitGroup
		readerWG   sync.WaitGroup
		errs       = make(chan error, writers+readers)
	)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for budget.Add(1) <= transfer {
				from := rng.Intn(rows)
				to := (from + 1 + rng.Intn(rows-1)) % rows
				err := d.RunTx(TxMeta{}, func(tx *Tx) error {
					if _, err := tx.Exec(`UPDATE acct SET bal = bal - 1 WHERE id = ?`, from); err != nil {
						return err
					}
					_, err := tx.Exec(`UPDATE acct SET bal = bal + 1 WHERE id = ?`, to)
					return err
				})
				if err != nil {
					errs <- fmt.Errorf("transfer: %w", err)
					return
				}
			}
		}(int64(w) + 1)
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			// At least one scan per reader, however fast the writers are.
			for first := true; first || !writesDone.Load(); first = false {
				// The scan is two statements, so only the transaction's
				// snapshot makes the halves add up: a transfer across them
				// committing in between would break the sum.
				tx := d.BeginReadOnly()
				var seen, total int64
				for _, q := range []string{`SELECT bal FROM acct WHERE id < ?`, `SELECT bal FROM acct WHERE id >= ?`} {
					res, err := tx.Query(q, rows/2)
					if err != nil {
						tx.Rollback()
						errs <- fmt.Errorf("read-only scan aborted: %w", err)
						return
					}
					for _, row := range res.Rows {
						seen++
						total += row[0].AsInt()
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("read-only commit aborted: %w", err)
					return
				}
				if seen != rows || total != wantTotal {
					errs <- fmt.Errorf("inconsistent snapshot: %d rows summing to %d, want %d rows summing to %d",
						seen, total, rows, wantTotal)
					return
				}
				scans.Add(1)
			}
		}()
	}
	writerWG.Wait()
	writesDone.Store(true)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitCheckpointerIdle(t, d)

	vac := d.Store().VacuumTotals()
	if vac.Runs == 0 {
		t.Fatalf("vacuum never ran over %d transfers (checkpoints every 64 records)", transfer)
	}
	if vac.DroppedRowVersions+vac.DroppedIndexVersions == 0 {
		t.Fatalf("vacuum ran %d times but dropped nothing: %+v", vac.Runs, vac)
	}
	t.Logf("%d scans beside %d transfers; vacuum %+v", scans.Load(), transfer, vac)
}

// TestAutoCommitSelectLeavesNoPins: the auto-commit SELECT path runs in a
// declared read-only transaction and must release its snapshot pin — a
// leaked pin would clamp every future vacuum horizon and defeat GC.
func TestAutoCommitSelectLeavesNoPins(t *testing.T) {
	d := memDB(t)
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO t VALUES (1, 1)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := d.Query(`SELECT * FROM t`); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Query(`SELECT bogus FROM t`); err == nil {
			t.Fatal("bad column should error")
		}
	}
	if pin, ok := d.Store().OldestPin(); ok {
		t.Fatalf("auto-commit SELECTs leaked a snapshot pin at seq %d", pin)
	}
}
