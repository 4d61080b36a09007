package storage

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// Helpers for a table with a secondary index on its second column.

func emailTable(t *testing.T) (*Store, *schema.Table) {
	t.Helper()
	s := NewStore()
	tbl := mustTable(t, "emails", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "email", Type: value.KindText},
	}, []string{"id"})
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(&schema.Index{Name: "u_email", Table: "emails", Columns: []int{1}, Unique: true}, nil); err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func emailRow(id int64, email string) value.Row {
	return value.Row{value.Int(id), value.Text(email)}
}

// TestUniqueIndexIntraCommitDuplicate is the confirmed repro from the issue:
// two inserts of the same unique key inside one commit used to pass, because
// each change was validated against committed state only — corrupting the
// index (index lookup found 1 row, full scan 2).
func TestUniqueIndexIntraCommitDuplicate(t *testing.T) {
	s, tbl := emailTable(t)
	r1, r2 := emailRow(1, "dup@x"), emailRow(2, "dup@x")
	_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
		Changes: []Change{
			{Table: "emails", Key: tbl.EncodePrimaryKey(r1), Op: OpInsert, After: r1},
			{Table: "emails", Key: tbl.EncodePrimaryKey(r2), Op: OpInsert, After: r2},
		}}, nil)
	if err == nil {
		t.Fatal("intra-commit duplicate unique key must be rejected")
	}
	if !strings.Contains(err.Error(), "unique") {
		t.Errorf("want unique-violation error, got %v", err)
	}
	// The rejected commit must leave no trace: neither rows nor postings.
	if n := s.RowCount("emails", s.CurrentSeq()); n != 0 {
		t.Errorf("rejected commit left %d rows", n)
	}
	found := 0
	if err := s.IndexScanRange("emails", "u_email", "", "", s.CurrentSeq(), func(_, _ string) bool {
		found++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if found != 0 {
		t.Errorf("rejected commit left %d index postings", found)
	}
}

// TestUniqueIndexDeleteReinsertSameCommit pins the dual bug: freeing a unique
// key and re-claiming it within one commit is legal, but the old per-change
// check still saw the stale posting visible at s.seq and rejected it.
func TestUniqueIndexDeleteReinsertSameCommit(t *testing.T) {
	s, tbl := emailTable(t)
	old := emailRow(1, "move@x")
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
		Changes: []Change{{Table: "emails", Key: tbl.EncodePrimaryKey(old), Op: OpInsert, After: old}}}, nil); err != nil {
		t.Fatal(err)
	}
	repl := emailRow(2, "move@x")
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
		Changes: []Change{
			{Table: "emails", Key: tbl.EncodePrimaryKey(old), Op: OpDelete, Before: old},
			{Table: "emails", Key: tbl.EncodePrimaryKey(repl), Op: OpInsert, After: repl},
		}}, nil); err != nil {
		t.Fatalf("delete+reinsert of a unique key in one commit must pass: %v", err)
	}
	// The posting must now reference the new row.
	var gotPK string
	if err := s.IndexScanRange("emails", "u_email", "", "", s.CurrentSeq(), func(_, pk string) bool {
		gotPK = pk
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if gotPK != tbl.EncodePrimaryKey(repl) {
		t.Errorf("posting references %x, want the re-inserted row", gotPK)
	}
}

// TestUniqueIndexReclaimOrderIndependent: when a commit frees and re-claims
// the same unique key, the index must net out to the new posting no matter
// how the changes are ordered. The claiming change sorting *before* the
// freeing one (txn.PendingChanges sorts by primary key) used to leave the
// old key's tombstone on top of the new posting — index scans then missed a
// row that full scans returned.
func TestUniqueIndexReclaimOrderIndependent(t *testing.T) {
	for name, order := range map[string]bool{"insert-first": true, "delete-first": false} {
		t.Run(name, func(t *testing.T) {
			s, tbl := emailTable(t)
			old := emailRow(5, "k@x")
			if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
				Changes: []Change{{Table: "emails", Key: tbl.EncodePrimaryKey(old), Op: OpInsert, After: old}}}, nil); err != nil {
				t.Fatal(err)
			}
			repl := emailRow(2, "k@x")
			del := Change{Table: "emails", Key: tbl.EncodePrimaryKey(old), Op: OpDelete, Before: old}
			ins := Change{Table: "emails", Key: tbl.EncodePrimaryKey(repl), Op: OpInsert, After: repl}
			changes := []Change{del, ins}
			if order {
				changes = []Change{ins, del}
			}
			if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(), Changes: changes}, nil); err != nil {
				t.Fatal(err)
			}
			var pks []string
			if err := s.IndexScanRange("emails", "u_email", "", "", s.CurrentSeq(), func(_, pk string) bool {
				pks = append(pks, pk)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(pks) != 1 || pks[0] != tbl.EncodePrimaryKey(repl) {
				t.Fatalf("index postings after re-claim = %x, want exactly the new row (index/full-scan divergence)", pks)
			}
			if n := s.RowCount("emails", s.CurrentSeq()); n != 1 {
				t.Errorf("row count = %d, want 1", n)
			}
		})
	}
}

// TestApplyCommittedReclaimOrderIndependent: WAL recovery replays the same
// change lists through ApplyCommitted and must preserve the same net index
// state.
func TestApplyCommittedReclaimOrderIndependent(t *testing.T) {
	s, tbl := emailTable(t)
	old := emailRow(5, "k@x")
	repl := emailRow(2, "k@x")
	if err := s.ApplyCommitted(CommitRecord{Seq: 1, TxnID: 1,
		Changes: []Change{{Table: "emails", Key: tbl.EncodePrimaryKey(old), Op: OpInsert, After: old}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyCommitted(CommitRecord{Seq: 2, TxnID: 2, Changes: []Change{
		{Table: "emails", Key: tbl.EncodePrimaryKey(repl), Op: OpInsert, After: repl},
		{Table: "emails", Key: tbl.EncodePrimaryKey(old), Op: OpDelete, Before: old},
	}}, nil); err != nil {
		t.Fatal(err)
	}
	var pks []string
	if err := s.IndexScanRange("emails", "u_email", "", "", s.CurrentSeq(), func(_, pk string) bool {
		pks = append(pks, pk)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pks) != 1 || pks[0] != tbl.EncodePrimaryKey(repl) {
		t.Fatalf("recovered index postings = %x, want exactly the new row", pks)
	}
}

// TestUniqueIndexSwapWithinCommit: two rows exchanging unique values in one
// commit is a net no-op on the key space and must pass.
func TestUniqueIndexSwapWithinCommit(t *testing.T) {
	s, tbl := emailTable(t)
	a0, b0 := emailRow(1, "a@x"), emailRow(2, "b@x")
	for _, r := range []value.Row{a0, b0} {
		if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
			Changes: []Change{{Table: "emails", Key: tbl.EncodePrimaryKey(r), Op: OpInsert, After: r}}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	a1, b1 := emailRow(1, "b@x"), emailRow(2, "a@x")
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
		Changes: []Change{
			{Table: "emails", Key: tbl.EncodePrimaryKey(a1), Op: OpUpdate, Before: a0, After: a1},
			{Table: "emails", Key: tbl.EncodePrimaryKey(b1), Op: OpUpdate, Before: b0, After: b1},
		}}, nil); err != nil {
		t.Fatalf("unique-value swap within one commit must pass: %v", err)
	}
	row, ok := s.Get("emails", tbl.EncodePrimaryKey(a1), s.CurrentSeq())
	if !ok || row[1].AsText() != "b@x" {
		t.Errorf("swap not applied: %v", row)
	}
}

// TestUniqueIndexUpdateOntoLiveKeyStillFails: an update claiming a key that
// another committed row still holds must keep failing (the net-effect fix
// must not weaken the existing guarantee).
func TestUniqueIndexUpdateOntoLiveKeyStillFails(t *testing.T) {
	s, tbl := emailTable(t)
	a, b := emailRow(1, "a@x"), emailRow(2, "b@x")
	for _, r := range []value.Row{a, b} {
		if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
			Changes: []Change{{Table: "emails", Key: tbl.EncodePrimaryKey(r), Op: OpInsert, After: r}}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	b1 := emailRow(2, "a@x")
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
		Changes: []Change{{Table: "emails", Key: tbl.EncodePrimaryKey(b1), Op: OpUpdate, Before: b, After: b1}}}, nil); err == nil {
		t.Fatal("updating onto a live unique key must fail")
	}
}

// TestReadSetCaseNormalization: reads recorded with any table-name casing
// must still collide with commits using the canonical name.
func TestReadSetCaseNormalization(t *testing.T) {
	rs := NewReadSet()
	rs.AddKey("KV", "k1")
	rs.AddRange("Kv", "a", "c")
	if !rs.Contains("kv", "k1") || !rs.Contains("KV", "k1") {
		t.Error("point read should match regardless of case")
	}
	if !rs.Contains("kV", "b") {
		t.Error("range read should match regardless of case")
	}
	if rs.Contains("kv", "zzz") {
		t.Error("unrelated key should not match")
	}

	// End to end: a read set recorded with odd casing must abort on a
	// conflicting commit that uses the canonical table name.
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "k1", 1)
	snap := s.CurrentSeq()
	reads := NewReadSet()
	reads.AddKey("KV", tbl.EncodePrimaryKey(value.Row{value.Text("k1"), value.Int(1)}))
	// Concurrent writer updates k1.
	row := value.Row{value.Text("k1"), value.Int(2)}
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
		Changes: []Change{{Table: "kv", Key: tbl.EncodePrimaryKey(row), Op: OpUpdate, After: row}}}, nil); err != nil {
		t.Fatal(err)
	}
	other := value.Row{value.Text("x"), value.Int(9)}
	_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap, Reads: reads,
		Changes: []Change{{Table: "kv", Key: tbl.EncodePrimaryKey(other), Op: OpInsert, After: other}}}, nil)
	if err == nil {
		t.Fatal("mixed-case read set must still detect the conflict")
	}
}

// indexKeyBounds encodes the index-key interval covering exactly one value
// of a single-column index (non-unique keys carry a PK suffix, so the
// interval is [enc(v), enc(v)+0xff)).
func indexKeyBounds(v value.Value) (string, string) {
	enc := string(value.EncodeKey(nil, v))
	return enc, enc + "\xff"
}

// TestIndexRangeOCCPrecision: commits whose index keys stay outside every
// scanned index range do not conflict; entering (phantom) or leaving
// (update-out) a scanned range does.
func TestIndexRangeOCCPrecision(t *testing.T) {
	s := NewStore()
	tbl := mustTable(t, "t", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "v", Type: value.KindInt},
	}, []string{"id"})
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(&schema.Index{Name: "iv", Table: "t", Columns: []int{1}}, nil); err != nil {
		t.Fatal(err)
	}
	mkRow := func(id, v int64) value.Row { return value.Row{value.Int(id), value.Int(v)} }
	commit := func(snap uint64, reads *ReadSet, ch ...Change) error {
		_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap, Reads: reads, Changes: ch}, nil)
		return err
	}
	seed := mkRow(1, 5)
	if err := commit(s.CurrentSeq(), nil, Change{Table: "t", Key: tbl.EncodePrimaryKey(seed), Op: OpInsert, After: seed}); err != nil {
		t.Fatal(err)
	}

	lo5, hi5 := indexKeyBounds(value.Int(5))

	// Reader scanned v=5; writer inserts v=9: disjoint, no conflict.
	snap := s.CurrentSeq()
	reads := NewReadSet()
	reads.AddIndexRange("t", "iv", lo5, hi5)
	w1 := mkRow(2, 9)
	if err := commit(s.CurrentSeq(), nil, Change{Table: "t", Key: tbl.EncodePrimaryKey(w1), Op: OpInsert, After: w1}); err != nil {
		t.Fatal(err)
	}
	me := mkRow(100, 50)
	if err := commit(snap, reads, Change{Table: "t", Key: tbl.EncodePrimaryKey(me), Op: OpInsert, After: me}); err != nil {
		t.Fatalf("writer outside the scanned index range must not conflict: %v", err)
	}

	// Phantom: writer inserts v=5 into the scanned range -> conflict.
	snap = s.CurrentSeq()
	reads = NewReadSet()
	reads.AddIndexRange("t", "iv", lo5, hi5)
	w2 := mkRow(3, 5)
	if err := commit(s.CurrentSeq(), nil, Change{Table: "t", Key: tbl.EncodePrimaryKey(w2), Op: OpInsert, After: w2}); err != nil {
		t.Fatal(err)
	}
	me = mkRow(101, 50)
	err := commit(snap, reads, Change{Table: "t", Key: tbl.EncodePrimaryKey(me), Op: OpInsert, After: me})
	var conflict *ConflictError
	if err == nil {
		t.Fatal("phantom insert into the scanned index range must conflict")
	} else if !errors.As(err, &conflict) {
		t.Fatalf("want *ConflictError, got %v", err)
	}

	// Update-out: writer moves a v=5 row to v=7, leaving the scanned range.
	snap = s.CurrentSeq()
	reads = NewReadSet()
	reads.AddIndexRange("t", "iv", lo5, hi5)
	moved := mkRow(1, 7)
	if err := commit(s.CurrentSeq(), nil, Change{Table: "t", Key: tbl.EncodePrimaryKey(moved), Op: OpUpdate, Before: seed, After: moved}); err != nil {
		t.Fatal(err)
	}
	me = mkRow(102, 50)
	if err := commit(snap, reads, Change{Table: "t", Key: tbl.EncodePrimaryKey(me), Op: OpInsert, After: me}); err == nil {
		t.Fatal("update moving a row out of the scanned index range must conflict")
	}

	// Unrelated-table writer never conflicts with an index range.
	tbl2 := kvTable(t, "other")
	if err := s.CreateTable(tbl2, false, nil); err != nil {
		t.Fatal(err)
	}
	snap = s.CurrentSeq()
	reads = NewReadSet()
	reads.AddIndexRange("t", "iv", lo5, hi5)
	or := value.Row{value.Text("o"), value.Int(1)}
	if err := commit(s.CurrentSeq(), nil, Change{Table: "other", Key: tbl2.EncodePrimaryKey(or), Op: OpInsert, After: or}); err != nil {
		t.Fatal(err)
	}
	me = mkRow(103, 50)
	if err := commit(snap, reads, Change{Table: "t", Key: tbl.EncodePrimaryKey(me), Op: OpInsert, After: me}); err != nil {
		t.Fatalf("writer on another table must not conflict with an index range: %v", err)
	}
}
