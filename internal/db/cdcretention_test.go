package db

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

func openRetentionDB(t *testing.T, retain int) *DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cdc.wal")
	d, err := Open(Options{Mode: Disk, Path: path, Sync: wal.SyncNever, HistoryRetention: retain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestCDCRetentionReleasesPrefix: after a checkpoint the in-memory change
// log keeps only the HistoryRetention window, time travel answers correctly
// inside it and refuses typed below it (the log and the version chains are
// cut at one horizon), and ReadLog stays complete inside the window.
func TestCDCRetentionReleasesPrefix(t *testing.T) {
	const retain = 8
	d := openRetentionDB(t, retain)
	if err := d.ExecScript(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO t VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}
	// Build 40 commits of history on one row so every sequence has a
	// distinct visible value.
	for i := 1; i <= 40; i++ {
		if _, err := d.Exec(`UPDATE t SET v = ? WHERE id = 1`, i); err != nil {
			t.Fatal(err)
		}
	}
	seqBefore := d.Store().CurrentSeq()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The prefix is gone from memory...
	all := logCommits(t, d.Store(), d.Store().LogRetainedFrom()-1, seqBefore)
	if len(all) > retain {
		t.Fatalf("retention %d left %d records in memory", retain, len(all))
	}
	// ...but the retained suffix is complete and contiguous up to the head.
	if len(all) == 0 || all[len(all)-1].Seq != seqBefore {
		t.Fatalf("retained window must reach the checkpoint head: %+v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Fatalf("retained window has a gap: %d -> %d", all[i-1].Seq, all[i].Seq)
		}
	}

	// Time travel inside the retained window still works.
	for _, seq := range []uint64{seqBefore, seqBefore - uint64(retain)/2} {
		tx, err := d.BeginAt(seq)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tx.Query(`SELECT v FROM t WHERE id = 1`)
		if err != nil {
			t.Fatal(err)
		}
		// Commit seq N (N >= 2) wrote v = N-1 (seq 1 is the insert of v=0).
		want := int64(seq - 1)
		if got := res.Rows[0][0].AsInt(); got != want {
			t.Fatalf("time travel at seq %d: v = %d, want %d", seq, got, want)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Below it the versions went with the log, and time travel says so.
	if _, err := d.BeginAt(seqBefore - 20); !errors.Is(err, storage.ErrHistoryTruncated) {
		t.Fatalf("time travel below the retained window: err = %v, want ErrHistoryTruncated", err)
	}

	// Recovery is unaffected: the WAL (not the in-memory CDC log) feeds it.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Mode: Disk, Path: d.walPath, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Query(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 40 {
		t.Fatalf("recovered v = %d, want 40", got)
	}
}

// TestCDCRetentionPinsActiveTxn asserts OCC soundness under retention: a
// transaction that spans a checkpoint pins its snapshot, the conflicting
// commit record survives the release, and the late commit still aborts with
// a serialization conflict instead of silently succeeding.
func TestCDCRetentionPinsActiveTxn(t *testing.T) {
	d := openRetentionDB(t, 1)
	if err := d.ExecScript(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO t VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}

	// T1 reads row 1 at its snapshot and stays open across the checkpoint.
	t1 := d.Begin()
	if _, err := t1.Query(`SELECT v FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}

	// A conflicting commit lands, then lots of filler history, then a
	// checkpoint that would (retention 1) release everything — except T1's
	// pinned validation window.
	if _, err := d.Exec(`UPDATE t SET v = 99 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := d.Exec(`INSERT INTO t VALUES (?, 0)`, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// T1 now writes the row it read and must observe the conflict.
	if _, err := t1.Exec(`UPDATE t SET v = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	err := t1.Commit()
	var conflict *storage.ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("commit spanning a retention checkpoint = %v, want ConflictError", err)
	}

	// With T1 finished the pin is gone; the next checkpoint releases fully.
	for i := 0; i < 4; i++ {
		if _, err := d.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 0)`, 200+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	head := d.Store().CurrentSeq()
	if got := logCommits(t, d.Store(), d.Store().LogRetainedFrom()-1, head); len(got) > 1 {
		t.Fatalf("post-pin checkpoint should retain 1 record, kept %d", len(got))
	}
}
