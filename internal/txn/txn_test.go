package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func setup(t *testing.T) (*storage.Store, *schema.Table) {
	t.Helper()
	s := storage.NewStore()
	tbl, err := schema.NewTable("kv", []schema.Column{
		{Name: "k", Type: value.KindText},
		{Name: "v", Type: value.KindInt},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func row(k string, v int64) value.Row { return value.Row{value.Text(k), value.Int(v)} }

func keyOf(tbl *schema.Table, k string) string {
	return tbl.EncodePrimaryKey(value.Row{value.Text(k), value.Null})
}

func TestInsertCommitGet(t *testing.T) {
	s, tbl := setup(t)
	tx := Begin(s)
	if tx.ID() == 0 {
		t.Error("txn ID should be nonzero")
	}
	if err := tx.Insert(tbl, row("a", 1)); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes before commit.
	got, found, err := tx.Get("kv", keyOf(tbl, "a"))
	if err != nil || !found || got[1].AsInt() != 1 {
		t.Fatalf("read-your-writes failed: %v %v %v", got, found, err)
	}
	// Invisible to other transactions.
	other := Begin(s)
	if _, found, _ := other.Get("kv", keyOf(tbl, "a")); found {
		t.Error("uncommitted write visible to other txn")
	}
	seq, err := tx.Commit()
	if err != nil || seq == 0 {
		t.Fatalf("commit: %v", err)
	}
	if tx.State() != StateCommitted || tx.CommitSeq() != seq {
		t.Error("commit state wrong")
	}
	// Visible to new transactions.
	tx3 := Begin(s)
	if _, found, _ := tx3.Get("kv", keyOf(tbl, "a")); !found {
		t.Error("committed write invisible")
	}
}

func TestSnapshotStability(t *testing.T) {
	s, tbl := setup(t)
	if err := Run(s, func(tx *Txn) error { return tx.Insert(tbl, row("a", 1)) }); err != nil {
		t.Fatal(err)
	}
	reader := Begin(s)
	// Concurrent writer updates a.
	if err := Run(s, func(tx *Txn) error { return tx.Update(tbl, row("a", 99)) }); err != nil {
		t.Fatal(err)
	}
	got, _, _ := reader.Get("kv", keyOf(tbl, "a"))
	if got[1].AsInt() != 1 {
		t.Errorf("snapshot read = %d, want 1", got[1].AsInt())
	}
}

func TestUpdateDeleteLifecycle(t *testing.T) {
	s, tbl := setup(t)
	if err := Run(s, func(tx *Txn) error { return tx.Insert(tbl, row("a", 1)) }); err != nil {
		t.Fatal(err)
	}
	tx := Begin(s)
	if err := tx.Update(tbl, row("a", 2)); err != nil {
		t.Fatal(err)
	}
	found, err := tx.Delete(tbl, keyOf(tbl, "a"))
	if err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if _, found, _ := tx.Get("kv", keyOf(tbl, "a")); found {
		t.Error("locally deleted row still visible")
	}
	// Delete of absent key is a clean no-op.
	if found, err := tx.Delete(tbl, keyOf(tbl, "zz")); err != nil || found {
		t.Errorf("absent delete = %v, %v", found, err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := Begin(s)
	if _, found, _ := tx2.Get("kv", keyOf(tbl, "a")); found {
		t.Error("deleted row visible after commit")
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	s, tbl := setup(t)
	if err := Run(s, func(tx *Txn) error { return tx.Insert(tbl, row("a", 1)) }); err != nil {
		t.Fatal(err)
	}
	tx := Begin(s)
	if err := tx.Insert(tbl, row("a", 2)); err == nil {
		t.Error("duplicate insert should fail")
	}
	// Local duplicate too.
	tx2 := Begin(s)
	if err := tx2.Insert(tbl, row("b", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert(tbl, row("b", 2)); err == nil {
		t.Error("local duplicate insert should fail")
	}
}

func TestUpdateMissingFails(t *testing.T) {
	s, tbl := setup(t)
	tx := Begin(s)
	if err := tx.Update(tbl, row("ghost", 1)); err == nil {
		t.Error("update of missing row should fail")
	}
}

func TestInsertAfterLocalDelete(t *testing.T) {
	s, tbl := setup(t)
	if err := Run(s, func(tx *Txn) error { return tx.Insert(tbl, row("a", 1)) }); err != nil {
		t.Fatal(err)
	}
	tx := Begin(s)
	if _, err := tx.Delete(tbl, keyOf(tbl, "a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, row("a", 7)); err != nil {
		t.Fatalf("insert after local delete: %v", err)
	}
	changes := tx.PendingChanges()
	if len(changes) != 1 || changes[0].Op != storage.OpUpdate {
		t.Errorf("delete+insert should collapse to update, got %+v", changes)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := Begin(s)
	got, _, _ := tx2.Get("kv", keyOf(tbl, "a"))
	if got[1].AsInt() != 7 {
		t.Errorf("value = %d, want 7", got[1].AsInt())
	}
}

func TestNoOpWritesElided(t *testing.T) {
	s, tbl := setup(t)
	if err := Run(s, func(tx *Txn) error { return tx.Insert(tbl, row("a", 1)) }); err != nil {
		t.Fatal(err)
	}
	// Insert then delete locally: nothing.
	tx := Begin(s)
	if err := tx.Insert(tbl, row("tmp", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(tbl, keyOf(tbl, "tmp")); err != nil {
		t.Fatal(err)
	}
	// Update back to the original image: nothing.
	if err := tx.Update(tbl, row("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, row("a", 1)); err != nil {
		t.Fatal(err)
	}
	if changes := tx.PendingChanges(); len(changes) != 0 {
		t.Errorf("no-op writes not elided: %+v", changes)
	}
	seqBefore := s.CurrentSeq()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.CurrentSeq() != seqBefore {
		t.Error("no-op commit advanced the sequence")
	}
}

func TestScanMergesLocalWrites(t *testing.T) {
	s, tbl := setup(t)
	if err := Run(s, func(tx *Txn) error {
		for _, k := range []string{"b", "d", "f"} {
			if err := tx.Insert(tbl, row(k, 0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tx := Begin(s)
	if err := tx.Insert(tbl, row("a", 0)); err != nil { // before all
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, row("c", 0)); err != nil { // interleaved
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, row("z", 0)); err != nil { // after all
		t.Fatal(err)
	}
	if err := tx.Update(tbl, row("d", 9)); err != nil { // shadowed
		t.Fatal(err)
	}
	if _, err := tx.Delete(tbl, keyOf(tbl, "f")); err != nil { // hidden
		t.Fatal(err)
	}
	var got []string
	if err := tx.Scan("kv", "", "", func(_ string, r value.Row) bool {
		got = append(got, fmt.Sprintf("%s=%d", r[0].AsText(), r[1].AsInt()))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := "[a=0 b=0 c=0 d=9 z=0]"
	if fmt.Sprint(got) != want {
		t.Errorf("merged scan = %v, want %v", got, want)
	}
	// Early stop works across the merge.
	count := 0
	if err := tx.Scan("kv", "", "", func(string, value.Row) bool {
		count++
		return count < 2
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestScanRangeBounds(t *testing.T) {
	s, tbl := setup(t)
	tx := Begin(s)
	for i := 0; i < 5; i++ {
		if err := tx.Insert(tbl, row(fmt.Sprintf("k%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	lo := keyOf(tbl, "k1")
	hi := keyOf(tbl, "k4")
	var got []string
	if err := tx.Scan("kv", lo, hi, func(_ string, r value.Row) bool {
		got = append(got, r[0].AsText())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[k1 k2 k3]" {
		t.Errorf("bounded local scan = %v", got)
	}
}

func TestWriteConflictAbortsAndRunRetries(t *testing.T) {
	s, tbl := setup(t)
	if err := Run(s, func(tx *Txn) error { return tx.Insert(tbl, row("a", 0)) }); err != nil {
		t.Fatal(err)
	}

	// Manual conflict: two txns read-modify-write the same key.
	t1 := Begin(s)
	t2 := Begin(s)
	r1, _, _ := t1.Get("kv", keyOf(tbl, "a"))
	r2, _, _ := t2.Get("kv", keyOf(tbl, "a"))
	if err := t1.Update(tbl, value.Row{r1[0], value.Int(r1[1].AsInt() + 1)}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(tbl, value.Row{r2[0], value.Int(r2[1].AsInt() + 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err := t2.Commit()
	var conflict *storage.ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
	if t2.State() != StateAborted {
		t.Error("conflicted txn should be aborted")
	}

	// Run retries until success: concurrent increments never lose updates.
	const workers, n = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				err := Run(s, func(tx *Txn) error {
					cur, _, err := tx.Get("kv", keyOf(tbl, "a"))
					if err != nil {
						return err
					}
					return tx.Update(tbl, value.Row{cur[0], value.Int(cur[1].AsInt() + 1)})
				})
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	final := Begin(s)
	got, _, _ := final.Get("kv", keyOf(tbl, "a"))
	if got[1].AsInt() != workers*n+1 {
		t.Errorf("counter = %d, want %d", got[1].AsInt(), workers*n+1)
	}
}

func TestRunPropagatesUserError(t *testing.T) {
	s, _ := setup(t)
	sentinel := errors.New("boom")
	if err := Run(s, func(*Txn) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Run error = %v", err)
	}
}

func TestOperationsAfterDone(t *testing.T) {
	s, tbl := setup(t)
	tx := Begin(s)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx.Get("kv", "k"); !errors.Is(err, ErrDone) {
		t.Error("Get after commit should be ErrDone")
	}
	if err := tx.Insert(tbl, row("a", 1)); !errors.Is(err, ErrDone) {
		t.Error("Insert after commit should be ErrDone")
	}
	if err := tx.Update(tbl, row("a", 1)); !errors.Is(err, ErrDone) {
		t.Error("Update after commit should be ErrDone")
	}
	if _, err := tx.Delete(tbl, "k"); !errors.Is(err, ErrDone) {
		t.Error("Delete after commit should be ErrDone")
	}
	if err := tx.Scan("kv", "", "", nil); !errors.Is(err, ErrDone) {
		t.Error("Scan after commit should be ErrDone")
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Error("double commit should be ErrDone")
	}
	tx.Abort() // no-op on finished txn
	if tx.State() != StateCommitted {
		t.Error("Abort flipped a committed txn")
	}
}

func TestBeginAtHistoricalSnapshot(t *testing.T) {
	s, tbl := setup(t)
	if err := Run(s, func(tx *Txn) error { return tx.Insert(tbl, row("a", 1)) }); err != nil {
		t.Fatal(err)
	}
	seq1 := s.CurrentSeq()
	if err := Run(s, func(tx *Txn) error { return tx.Update(tbl, row("a", 2)) }); err != nil {
		t.Fatal(err)
	}
	old := BeginAt(s, seq1)
	got, _, _ := old.Get("kv", keyOf(tbl, "a"))
	if got[1].AsInt() != 1 {
		t.Errorf("historical read = %d, want 1", got[1].AsInt())
	}
	if old.Snapshot() != seq1 {
		t.Error("Snapshot() wrong")
	}
}

func TestPhantomProtectionThroughTxnAPI(t *testing.T) {
	s, tbl := setup(t)
	// T scans the (empty) table, then another txn inserts, then T writes.
	tScan := Begin(s)
	count := 0
	if err := tScan.Scan("kv", "", "", func(string, value.Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatal("table should be empty")
	}
	if err := Run(s, func(tx *Txn) error { return tx.Insert(tbl, row("phantom", 1)) }); err != nil {
		t.Fatal(err)
	}
	if err := tScan.Insert(tbl, row("mine", 1)); err != nil {
		t.Fatal(err)
	}
	_, err := tScan.Commit()
	var conflict *storage.ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("phantom should abort the scanner, got %v", err)
	}
}

func TestHasWrites(t *testing.T) {
	s, tbl := setup(t)
	tx := Begin(s)
	if tx.HasWrites("kv") {
		t.Error("fresh txn should have no writes")
	}
	if err := tx.Insert(tbl, row("a", 1)); err != nil {
		t.Fatal(err)
	}
	if !tx.HasWrites("kv") || !tx.HasWrites("KV") {
		t.Error("HasWrites should be true (case-insensitive)")
	}
}
