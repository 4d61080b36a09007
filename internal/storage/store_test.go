package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
)

func mustTable(t *testing.T, name string, cols []schema.Column, pk []string) *schema.Table {
	t.Helper()
	tbl, err := schema.NewTable(name, cols, pk)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func kvTable(t *testing.T, name string) *schema.Table {
	return mustTable(t, name, []schema.Column{
		{Name: "k", Type: value.KindText},
		{Name: "v", Type: value.KindInt},
	}, []string{"k"})
}

func newKVStore(t *testing.T) (*Store, *schema.Table) {
	t.Helper()
	s := NewStore()
	tbl := kvTable(t, "kv")
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func insertKV(t *testing.T, s *Store, tbl *schema.Table, k string, v int64) uint64 {
	t.Helper()
	row := value.Row{value.Text(k), value.Int(v)}
	seq, err := s.Commit(CommitRequest{
		TxnID:    s.NextTxnID(),
		Snapshot: s.CurrentSeq(),
		Changes:  []Change{{Table: tbl.Name, Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}},
	}, nil)
	if err != nil {
		t.Fatalf("insert %s=%d: %v", k, v, err)
	}
	return seq
}

// TestLogStepOrder: Commit runs its log step on the record, trace ID
// included, before any CDC subscriber sees it, and an Unlogged commit that
// nobody reads back from the CDC log still reaches the step (a disk-mode
// provenance batch must be written ahead).
func TestLogStepOrder(t *testing.T) {
	s, tbl := newKVStore(t)
	var events []string
	step := func(rec CommitRecord) { events = append(events, fmt.Sprintf("log %d trace %d", rec.Seq, rec.TraceID)) }
	change := func(k string) []Change {
		row := value.Row{value.Text(k), value.Int(1)}
		return []Change{{Table: tbl.Name, Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}}
	}
	if _, err := s.Commit(CommitRequest{Changes: change("a"), Unlogged: true}, step); err != nil {
		t.Fatal(err)
	}
	s.SubscribeCDC(func(rec CommitRecord) { events = append(events, fmt.Sprintf("cdc %d", rec.Seq)) })
	if _, err := s.Commit(CommitRequest{Changes: change("b"), TraceID: 9}, step); err != nil {
		t.Fatal(err)
	}
	want := []string{"log 1 trace 0", "log 2 trace 9", "cdc 2"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events = %q, want %q", events, want)
	}
	if recs := logCommits(t, s, 1, 2); len(recs) != 1 || recs[0].TraceID != 9 {
		t.Fatalf("CDC log lost the trace ID: %+v", recs)
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "Insert" || OpUpdate.String() != "Update" || OpDelete.String() != "Delete" {
		t.Error("Op names wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Error("unknown op name wrong")
	}
}

func TestCreateDropTable(t *testing.T) {
	s := NewStore()
	tbl := kvTable(t, "t1")
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tbl, false, nil); err == nil {
		t.Error("duplicate create should fail")
	}
	if err := s.CreateTable(tbl, true, nil); err != nil {
		t.Error("IF NOT EXISTS should succeed")
	}
	if s.Table("T1") == nil {
		t.Error("lookup should be case-insensitive")
	}
	if got := s.Tables(); len(got) != 1 || got[0] != "t1" {
		t.Errorf("Tables() = %v", got)
	}
	if err := s.DropTable("t1", false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t1", false, nil); err == nil {
		t.Error("dropping missing table should fail")
	}
	if err := s.DropTable("t1", true, nil); err != nil {
		t.Error("DROP IF EXISTS should succeed")
	}
}

func TestInsertGetScan(t *testing.T) {
	s, tbl := newKVStore(t)
	for i := 0; i < 10; i++ {
		insertKV(t, s, tbl, fmt.Sprintf("k%02d", i), int64(i))
	}
	seq := s.CurrentSeq()
	row := value.Row{value.Text("k03"), value.Int(3)}
	got, ok := s.Get("kv", tbl.EncodePrimaryKey(row), seq)
	if !ok || got[1].AsInt() != 3 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	var keys []string
	s.ScanRange("kv", "", "", seq, Ascending, func(k string, r value.Row) bool {
		keys = append(keys, r[0].AsText())
		return true
	})
	if len(keys) != 10 || !sort.StringsAreSorted(keys) {
		t.Errorf("scan = %v", keys)
	}
	// Bounded scan.
	lo := schema.EncodeKeyTuple(value.Row{value.Text("k03")})
	hi := schema.EncodeKeyTuple(value.Row{value.Text("k06")})
	keys = nil
	s.ScanRange("kv", lo, hi, seq, Ascending, func(k string, r value.Row) bool {
		keys = append(keys, r[0].AsText())
		return true
	})
	if fmt.Sprint(keys) != "[k03 k04 k05]" {
		t.Errorf("bounded scan = %v", keys)
	}
	if s.RowCount("kv", seq) != 10 {
		t.Error("RowCount wrong")
	}
}

func TestSnapshotIsolationAndTimeTravel(t *testing.T) {
	s, tbl := newKVStore(t)
	seq1 := insertKV(t, s, tbl, "a", 1)
	key := tbl.EncodePrimaryKey(value.Row{value.Text("a"), value.Int(1)})

	// Update a=2.
	after := value.Row{value.Text("a"), value.Int(2)}
	seq2, err := s.Commit(CommitRequest{
		TxnID: s.NextTxnID(), Snapshot: seq1,
		Changes: []Change{{Table: "kv", Key: key, Op: OpUpdate, Before: value.Row{value.Text("a"), value.Int(1)}, After: after}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Delete a.
	seq3, err := s.Commit(CommitRequest{
		TxnID: s.NextTxnID(), Snapshot: seq2,
		Changes: []Change{{Table: "kv", Key: key, Op: OpDelete, Before: after}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	if r, ok := s.Get("kv", key, seq1); !ok || r[1].AsInt() != 1 {
		t.Error("time travel to seq1 failed")
	}
	if r, ok := s.Get("kv", key, seq2); !ok || r[1].AsInt() != 2 {
		t.Error("time travel to seq2 failed")
	}
	if _, ok := s.Get("kv", key, seq3); ok {
		t.Error("row should be deleted at seq3")
	}
	if _, ok := s.Get("kv", key, 0); ok {
		t.Error("row should not exist at seq 0")
	}
}

func TestOCCReadValidationConflict(t *testing.T) {
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "a", 1)
	key := tbl.EncodePrimaryKey(value.Row{value.Text("a"), value.Int(1)})

	// Txn T reads key at snapshot, then another txn updates it, then T commits.
	snap := s.CurrentSeq()
	reads := NewReadSet()
	reads.AddKey("kv", key)

	after := value.Row{value.Text("a"), value.Int(5)}
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap,
		Changes: []Change{{Table: "kv", Key: key, Op: OpUpdate, After: after}}}, nil); err != nil {
		t.Fatal(err)
	}

	_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap, Reads: reads,
		Changes: []Change{{Table: "kv", Key: tbl.EncodePrimaryKey(value.Row{value.Text("b"), value.Int(9)}), Op: OpInsert, After: value.Row{value.Text("b"), value.Int(9)}}}}, nil)
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("expected ConflictError, got %v", err)
	}
	if conflict.Table != "kv" {
		t.Errorf("conflict = %+v", conflict)
	}
	if conflict.Error() == "" {
		t.Error("empty error text")
	}
}

func TestOCCPhantomValidation(t *testing.T) {
	s, tbl := newKVStore(t)
	// Txn T scans the whole table (sees nothing), then another txn inserts,
	// then T tries to commit: phantom — must conflict.
	snap := s.CurrentSeq()
	reads := NewReadSet()
	reads.AddRange("kv", "", "")

	insertKV(t, s, tbl, "ghost", 1)

	row := value.Row{value.Text("x"), value.Int(1)}
	_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap, Reads: reads,
		Changes: []Change{{Table: "kv", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}}}, nil)
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("expected phantom conflict, got %v", err)
	}
}

func TestOCCReadOnlyRangeNoFalseConflict(t *testing.T) {
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "a", 1)
	snap := s.CurrentSeq()
	reads := NewReadSet()
	lo := schema.EncodeKeyTuple(value.Row{value.Text("m")})
	reads.AddRange("kv", lo, "") // scanned [m, ∞)

	insertKV(t, s, tbl, "b", 2) // outside scanned range

	row := value.Row{value.Text("zz"), value.Int(3)}
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap, Reads: reads,
		Changes: []Change{{Table: "kv", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}}}, nil); err != nil {
		t.Fatalf("disjoint write should not conflict: %v", err)
	}
}

func TestDuplicateInsertConflicts(t *testing.T) {
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "a", 1)
	row := value.Row{value.Text("a"), value.Int(2)}
	_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
		Changes: []Change{{Table: "kv", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}}}, nil)
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("duplicate insert should conflict, got %v", err)
	}
}

func TestUpdateVanishedRowConflicts(t *testing.T) {
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "a", 1)
	key := tbl.EncodePrimaryKey(value.Row{value.Text("a"), value.Int(1)})
	snap := s.CurrentSeq()
	// Delete it.
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap,
		Changes: []Change{{Table: "kv", Key: key, Op: OpDelete}}}, nil); err != nil {
		t.Fatal(err)
	}
	// Now try updating from the stale snapshot (blind write, no read set).
	_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap,
		Changes: []Change{{Table: "kv", Key: key, Op: OpUpdate, After: value.Row{value.Text("a"), value.Int(9)}}}}, nil)
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("update of vanished row should conflict, got %v", err)
	}
}

func TestCommitUnknownTable(t *testing.T) {
	s := NewStore()
	_, err := s.Commit(CommitRequest{Changes: []Change{{Table: "nope", Key: "k", Op: OpInsert, After: value.Row{value.Int(1)}}}}, nil)
	if err == nil {
		t.Error("commit to unknown table should fail")
	}
}

// logCommits returns the commit entries ReadLog(from, to) reads, failing
// the test if the window is not retained.
func logCommits(t *testing.T, s *Store, from, to uint64) []CommitRecord {
	t.Helper()
	entries, err := s.ReadLog(from, to)
	if err != nil {
		t.Fatal(err)
	}
	var out []CommitRecord
	for _, e := range entries {
		if e.DDL == "" {
			out = append(out, e.CommitRecord)
		}
	}
	return out
}

func TestCDCSubscriptionAndReadLog(t *testing.T) {
	s, tbl := newKVStore(t)
	var got []CommitRecord
	s.SubscribeCDC(func(rec CommitRecord) { got = append(got, rec) })
	seqA := insertKV(t, s, tbl, "a", 1)
	seqB := insertKV(t, s, tbl, "b", 2)
	if len(got) != 2 || got[0].Seq != seqA || got[1].Seq != seqB {
		t.Fatalf("CDC records = %+v", got)
	}
	if got[0].Changes[0].Op != OpInsert || got[0].Changes[0].After[1].AsInt() != 1 {
		t.Error("CDC change payload wrong")
	}
	recs := logCommits(t, s, seqA, seqB)
	if len(recs) != 1 || recs[0].Seq != seqB {
		t.Errorf("ReadLog = %+v", recs)
	}
	if n := len(logCommits(t, s, 0, seqB)); n != 2 {
		t.Errorf("ReadLog(0,seqB) = %d commits", n)
	}
}

func TestTruncateLog(t *testing.T) {
	s, tbl := newKVStore(t)
	var seqs []uint64
	for i := 0; i < 5; i++ {
		seqs = append(seqs, insertKV(t, s, tbl, fmt.Sprintf("k%d", i), int64(i)))
	}
	s.Vacuum(seqs[2])
	recs := logCommits(t, s, s.LogRetainedFrom()-1, seqs[4])
	if len(recs) != 2 || recs[0].Seq != seqs[3] {
		t.Errorf("after truncate, ReadLog = %+v", recs)
	}
	// OCC validation across truncated history must still work for new snaps.
	insertKV(t, s, tbl, "post", 9)
	// Truncating again with a too-small bound is a no-op.
	s.Vacuum(1)
	if len(logCommits(t, s, s.LogRetainedFrom()-1, s.CurrentSeq())) != 3 {
		t.Error("second truncate should be a no-op")
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	s := NewStore()
	tbl := mustTable(t, "users", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "city", Type: value.KindText},
	}, []string{"id"})
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	mkRow := func(id int64, city string) value.Row {
		return value.Row{value.Int(id), value.Text(city)}
	}
	commit := func(op Op, before, after value.Row) error {
		keyRow := after
		if keyRow == nil {
			keyRow = before
		}
		key := tbl.EncodePrimaryKey(keyRow)
		_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
			Changes: []Change{{Table: "users", Key: key, Op: op, Before: before, After: after}}}, nil)
		return err
	}
	if err := commit(OpInsert, nil, mkRow(1, "sf")); err != nil {
		t.Fatal(err)
	}
	ix := &schema.Index{Name: "by_city", Table: "users", Columns: []int{1}}
	if err := s.CreateIndex(ix, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(ix, nil); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := commit(OpInsert, nil, mkRow(2, "sf")); err != nil {
		t.Fatal(err)
	}
	if err := commit(OpInsert, nil, mkRow(3, "nyc")); err != nil {
		t.Fatal(err)
	}

	scanCity := func(city string, seq uint64) []string {
		prefix := ix.EncodeIndexPrefix(value.Row{value.Text(city)})
		var pks []string
		if err := s.IndexScanRange("users", "by_city", prefix, prefix+"\xff", seq, func(_, pk string) bool {
			pks = append(pks, pk)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return pks
	}
	if got := scanCity("sf", s.CurrentSeq()); len(got) != 2 {
		t.Errorf("sf index scan = %d entries", len(got))
	}
	seqBefore := s.CurrentSeq()
	// Move user 2 to nyc; index must reflect it, and time travel must not.
	if err := commit(OpUpdate, mkRow(2, "sf"), mkRow(2, "nyc")); err != nil {
		t.Fatal(err)
	}
	if got := scanCity("sf", s.CurrentSeq()); len(got) != 1 {
		t.Errorf("after update, sf scan = %d entries", len(got))
	}
	if got := scanCity("nyc", s.CurrentSeq()); len(got) != 2 {
		t.Errorf("after update, nyc scan = %d entries", len(got))
	}
	if got := scanCity("sf", seqBefore); len(got) != 2 {
		t.Errorf("time-travel index scan = %d entries, want 2", len(got))
	}
	// Delete removes from index.
	if err := commit(OpDelete, mkRow(3, "nyc"), nil); err != nil {
		t.Fatal(err)
	}
	if got := scanCity("nyc", s.CurrentSeq()); len(got) != 1 {
		t.Errorf("after delete, nyc scan = %d entries", len(got))
	}
	if err := s.IndexScanRange("users", "nope", "", "", 0, nil); err == nil {
		t.Error("unknown index should error")
	}
	if err := s.IndexScanRange("ghost", "by_city", "", "", 0, nil); err == nil {
		t.Error("unknown table should error")
	}
}

func TestUniqueIndexEnforcement(t *testing.T) {
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
	ins := func(id int64, email string) error {
		row := value.Row{value.Int(id), value.Text(email)}
		_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
			Changes: []Change{{Table: "emails", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}}}, nil)
		return err
	}
	if err := ins(1, "a@x"); err != nil {
		t.Fatal(err)
	}
	if err := ins(2, "a@x"); err == nil {
		t.Error("unique violation should fail")
	}
	if err := ins(3, "b@x"); err != nil {
		t.Errorf("distinct value should insert: %v", err)
	}
	// Backfill failure: create another unique index over duplicated data.
	if err := ins(4, "b@x"); err == nil {
		t.Error("should fail")
	}
}

func TestCreateIndexBackfillUniqueViolation(t *testing.T) {
	s := NewStore()
	tbl := mustTable(t, "t", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "v", Type: value.KindInt},
	}, []string{"id"})
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		row := value.Row{value.Int(i), value.Int(7)}
		if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
			Changes: []Change{{Table: "t", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	err := s.CreateIndex(&schema.Index{Name: "u", Table: "t", Columns: []int{1}, Unique: true}, nil)
	if err == nil {
		t.Error("backfill over duplicates should fail")
	}
	if err := s.CreateIndex(&schema.Index{Name: "u2", Table: "missing", Columns: []int{0}}, nil); err == nil {
		t.Error("index on missing table should fail")
	}
}

func TestApplyCommittedRecovery(t *testing.T) {
	s, tbl := newKVStore(t)
	row := value.Row{value.Text("a"), value.Int(1)}
	rec := CommitRecord{Seq: 1, TxnID: 7, Changes: []Change{{Table: "kv", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}}}
	if err := s.ApplyCommitted(rec, nil); err != nil {
		t.Fatal(err)
	}
	if s.CurrentSeq() != 1 {
		t.Error("seq not advanced")
	}
	if err := s.ApplyCommitted(CommitRecord{Seq: 5}, nil); err == nil {
		t.Error("out-of-order recovery should fail")
	}
	if err := s.ApplyCommitted(CommitRecord{Seq: 2, Changes: []Change{{Table: "ghost", Key: "k", Op: OpInsert}}}, nil); err == nil {
		t.Error("recovery into unknown table should fail")
	}
	// TxnID watermark respected.
	if id := s.NextTxnID(); id <= 7 {
		t.Errorf("NextTxnID after recovery = %d, want > 7", id)
	}
}

func TestCloneAt(t *testing.T) {
	s, tbl := newKVStore(t)
	if err := s.CreateIndex(&schema.Index{Name: "by_v", Table: "kv", Columns: []int{1}}, nil); err != nil {
		t.Fatal(err)
	}
	insertKV(t, s, tbl, "a", 1)
	seqMid := insertKV(t, s, tbl, "b", 2)
	insertKV(t, s, tbl, "c", 3)

	clone, err := s.CloneAt(seqMid)
	if err != nil {
		t.Fatal(err)
	}
	if n := clone.RowCount("kv", clone.CurrentSeq()); n != 2 {
		t.Errorf("clone rows = %d, want 2", n)
	}
	// Mutating the clone must not affect the source.
	insertKV(t, clone, tbl, "z", 9)
	if n := s.RowCount("kv", s.CurrentSeq()); n != 3 {
		t.Error("clone mutation leaked into source")
	}
	// Clone carries indexes.
	if got := clone.Indexes("kv"); len(got) != 1 || got[0].Name != "by_v" {
		t.Errorf("clone indexes = %+v", got)
	}
}

// TestDDLLog: every DDL statement runs its write-ahead step with its
// position and text, and lands in the change log at that position.
func TestDDLLog(t *testing.T) {
	s := NewStore()
	var ddl []string
	var seqs []uint64
	step := func(seq uint64, stmt string) {
		ddl = append(ddl, stmt)
		seqs = append(seqs, seq)
	}
	tbl := kvTable(t, "t")
	if err := s.CreateTable(tbl, false, step); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(&schema.Index{Name: "i", Table: "t", Columns: []int{1}, Unique: true}, step); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t", false, step); err != nil {
		t.Fatal(err)
	}
	if len(ddl) != 3 {
		t.Fatalf("ddl steps = %v", ddl)
	}
	if ddl[1] != "CREATE UNIQUE INDEX i ON t (v)" {
		t.Errorf("index DDL = %q", ddl[1])
	}
	for i, seq := range seqs {
		if seq != 0 {
			t.Errorf("ddl %d ran at seq %d on an empty store, want 0", i, seq)
		}
	}
	entries, err := s.ReadLog(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	for _, e := range entries {
		logged = append(logged, e.DDL)
	}
	if fmt.Sprint(logged) != fmt.Sprint(ddl) {
		t.Errorf("change log DDL = %q, want %q", logged, ddl)
	}
}

func TestConcurrentCommitsSerialize(t *testing.T) {
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "counter", 0)
	key := tbl.EncodePrimaryKey(value.Row{value.Text("counter"), value.Int(0)})

	const workers, increments = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for { // OCC retry loop
					snap := s.CurrentSeq()
					row, ok := s.Get("kv", key, snap)
					if !ok {
						t.Error("counter vanished")
						return
					}
					reads := NewReadSet()
					reads.AddKey("kv", key)
					after := value.Row{value.Text("counter"), value.Int(row[1].AsInt() + 1)}
					_, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: snap, Reads: reads,
						Changes: []Change{{Table: "kv", Key: key, Op: OpUpdate, Before: row, After: after}}}, nil)
					if err == nil {
						break
					}
					var conflict *ConflictError
					if !errors.As(err, &conflict) {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	row, _ := s.Get("kv", key, s.CurrentSeq())
	if got := row[1].AsInt(); got != workers*increments {
		t.Errorf("counter = %d, want %d (lost updates!)", got, workers*increments)
	}
}

// Property: a randomly generated batch of inserts is fully readable at the
// final sequence and invisible before its own commit.
func TestInsertVisibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		tbl, _ := schema.NewTable("p", []schema.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "v", Type: value.KindInt},
		}, []string{"k"})
		if err := s.CreateTable(tbl, false, nil); err != nil {
			return false
		}
		n := 1 + rng.Intn(30)
		seqs := make([]uint64, n)
		for i := 0; i < n; i++ {
			row := value.Row{value.Int(int64(i)), value.Int(rng.Int63n(100))}
			seq, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
				Changes: []Change{{Table: "p", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}}}, nil)
			if err != nil {
				return false
			}
			seqs[i] = seq
		}
		for i := 0; i < n; i++ {
			key := tbl.EncodePrimaryKey(value.Row{value.Int(int64(i)), value.Null})
			if _, ok := s.Get("p", key, seqs[i]); !ok {
				return false // must be visible at its own commit
			}
			if _, ok := s.Get("p", key, seqs[i]-1); ok {
				return false // must be invisible before it
			}
		}
		return s.RowCount("p", s.CurrentSeq()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
