package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func snapshotFixture(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	users, err := schema.NewTable("Users", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindText},
		{Name: "score", Type: value.KindFloat},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(users, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(&schema.Index{Name: "users_name", Table: "Users", Columns: []int{1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(&schema.Index{Name: "users_uniq", Table: "Users", Columns: []int{1, 2}, Unique: true}, nil); err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{
		{value.Int(1), value.Text("alice"), value.Float(1.5)},
		{value.Int(2), value.Text("bob"), value.Null},
		{value.Int(3), value.Text("carol"), value.Float(-2)},
	}
	for _, row := range rows {
		if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Changes: []Change{{
			Table: "Users", Key: users.EncodePrimaryKey(row), Op: OpInsert, After: row,
		}}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A delete so the snapshot must skip tombstones.
	dead := rows[1]
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Changes: []Change{{
		Table: "Users", Key: users.EncodePrimaryKey(dead), Op: OpDelete, Before: dead,
	}}}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := snapshotFixture(t)
	data, seq := s.EncodeSnapshot()
	if seq != s.CurrentSeq() {
		t.Fatalf("snapshot seq %d != store seq %d", seq, s.CurrentSeq())
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.CurrentSeq() != seq {
		t.Errorf("decoded seq = %d, want %d", got.CurrentSeq(), seq)
	}
	if got.RowCount("Users", got.CurrentSeq()) != 2 {
		t.Errorf("decoded rows = %d, want 2 (tombstone must not survive)", got.RowCount("Users", got.CurrentSeq()))
	}
	// Schema and indexes round-trip.
	tbl := got.Table("users")
	if tbl == nil || tbl.Name != "Users" || len(tbl.Columns) != 3 {
		t.Fatalf("decoded table = %+v", tbl)
	}
	ixs := got.Indexes("Users")
	if len(ixs) != 2 || ixs[0].Name != "users_name" || !ixs[1].Unique {
		t.Fatalf("decoded indexes = %+v", ixs)
	}
	// Index contents were rebuilt from rows.
	var postings []string
	if err := got.IndexScanRange("Users", "users_name", "", "", got.CurrentSeq(), func(_, pk string) bool {
		postings = append(postings, pk)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(postings) != 2 {
		t.Errorf("rebuilt index has %d postings, want 2", len(postings))
	}
	// Transaction IDs continue after the snapshot's last issued ID.
	if id := got.NextTxnID(); id <= 4 {
		t.Errorf("NextTxnID after restore = %d, want > 4", id)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	a, _ := snapshotFixture(t).EncodeSnapshot()
	b, _ := snapshotFixture(t).EncodeSnapshot()
	if string(a) != string(b) {
		t.Fatal("same committed state encoded to different snapshot bytes")
	}
	// Decode → encode is also stable.
	dec, err := DecodeSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := dec.EncodeSnapshot()
	if string(a) != string(c) {
		t.Fatal("decode/encode round trip changed the snapshot bytes")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	data, _ := snapshotFixture(t).EncodeSnapshot()
	for _, cut := range []int{0, 4, len(data) / 2, len(data) - 1} {
		if _, err := DecodeSnapshot(data[:cut]); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("truncation at %d: err = %v, want ErrSnapshotCorrupt", cut, err)
		}
	}
	for _, flip := range []int{8, len(data) / 3, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[flip] ^= 0xFF
		if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("flip at %d: err = %v, want ErrSnapshotCorrupt", flip, err)
		}
	}
}

func TestSnapshotRestoreAcceptsWALTail(t *testing.T) {
	s := snapshotFixture(t)
	data, seq := s.EncodeSnapshot()
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	// The restored store must accept the next commit in sequence — the WAL
	// tail a recovery replays on top of the snapshot.
	row := value.Row{value.Int(9), value.Text("dave"), value.Float(0)}
	tbl := got.Table("Users")
	if err := got.ApplyCommitted(CommitRecord{Seq: seq + 1, TxnID: 100, Changes: []Change{{
		Table: "Users", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row,
	}}}, nil); err != nil {
		t.Fatal(err)
	}
	if got.RowCount("Users", got.CurrentSeq()) != 3 {
		t.Errorf("rows after tail replay = %d", got.RowCount("Users", got.CurrentSeq()))
	}
	// And fresh commits (with CDC log indexing over the restored logBase).
	row2 := value.Row{value.Int(10), value.Text("eve"), value.Float(1)}
	if _, err := got.Commit(CommitRequest{TxnID: got.NextTxnID(), Snapshot: got.CurrentSeq(), Changes: []Change{{
		Table: "Users", Key: tbl.EncodePrimaryKey(row2), Op: OpInsert, After: row2,
	}}}, nil); err != nil {
		t.Fatal(err)
	}
	recs := logCommits(t, got, seq, got.CurrentSeq())
	if len(recs) != 2 {
		t.Errorf("ReadLog after restore = %d commits, want 2", len(recs))
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	s := snapshotFixture(t)
	data, seq := s.EncodeSnapshot()
	if err := WriteSnapshotFile(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CurrentSeq() != seq {
		t.Errorf("loaded seq = %d, want %d", got.CurrentSeq(), seq)
	}
}

func TestSnapshotFileIsCompressed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	s := snapshotFixture(t)
	data, _ := s.EncodeSnapshot()
	if err := WriteSnapshotFile(path, data); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[0] != snapFormatGzip {
		t.Fatalf("snapshot file does not start with the gzip format byte: % x", raw[:8])
	}
	// The file form and the raw form decode to the same bytes.
	back, err := DecompressSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(data) {
		t.Fatal("decompressed snapshot differs from the encoded state")
	}
}

func TestLoadSnapshotFileRefusesUncompressed(t *testing.T) {
	// A file holding raw EncodeSnapshot bytes, with no format byte, is not
	// a snapshot file.
	path := filepath.Join(t.TempDir(), "raw.snap")
	data, _ := snapshotFixture(t).EncodeSnapshot()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("raw snapshot image: err = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestDecompressSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecompressSnapshot(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := DecompressSnapshot([]byte{snapFormatGzip, 0xde, 0xad}); err == nil {
		t.Fatal("truncated gzip accepted")
	}
}

func TestCheckpointTail(t *testing.T) {
	s := snapshotFixture(t) // 4 commits
	var tail []CommitRecord
	if err := s.CheckpointTail(2, func(recs []CommitRecord) error {
		tail = recs
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0].Seq != 3 || tail[1].Seq != 4 {
		t.Fatalf("tail after seq 2 = %+v", tail)
	}
	// A truncated CDC log that no longer reaches the snapshot seq must
	// refuse (the caller would otherwise rotate away unpreserved records).
	s.Vacuum(3)
	if err := s.CheckpointTail(2, func([]CommitRecord) error { return nil }); err == nil {
		t.Fatal("CheckpointTail over a truncated log should fail")
	}
	if err := s.CheckpointTail(4, func(recs []CommitRecord) error {
		if len(recs) != 0 {
			t.Errorf("tail after current seq = %+v", recs)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
