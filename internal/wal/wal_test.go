package wal

import (
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func sampleCommit(seq uint64) storage.CommitRecord {
	return storage.CommitRecord{
		Seq:   seq,
		TxnID: seq * 10,
		Changes: []storage.Change{
			{Table: "t", Key: "k1", Op: storage.OpInsert, After: value.Row{value.Int(1), value.Text("a")}},
			{Table: "t", Key: "k1", Op: storage.OpUpdate,
				Before: value.Row{value.Int(1), value.Text("a")},
				After:  value.Row{value.Int(1), value.Text("b")}},
			{Table: "t", Key: "k1", Op: storage.OpDelete, Before: value.Row{value.Int(1), value.Text("b")}},
		},
	}
}

// TestEncodeCommitBytesPinned pins the commit record's WAL encoding. A
// record's TraceID lives only in memory: a traced record must encode to the
// same bytes as an untraced one, and both to the bytes the format has
// always had.
func TestEncodeCommitBytesPinned(t *testing.T) {
	const want = "0746030174026b3100020201020301610174026b3101030201020301610201020301620174026b310201020102030162"
	rec := sampleCommit(7)
	if got := hex.EncodeToString(EncodeCommit(nil, rec)); got != want {
		t.Fatalf("EncodeCommit = %s, want %s", got, want)
	}
	rec.TraceID = 0xdeadbeef
	if got := hex.EncodeToString(EncodeCommit(nil, rec)); got != want {
		t.Fatalf("EncodeCommit with a TraceID = %s, want %s (the trace ID must not be encoded)", got, want)
	}
}

func TestCommitCodecRoundTrip(t *testing.T) {
	rec := sampleCommit(7)
	enc := EncodeCommit(nil, rec)
	got, err := DecodeCommit(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != rec.Seq || got.TxnID != rec.TxnID || len(got.Changes) != 3 {
		t.Fatalf("decode = %+v", got)
	}
	if got.Changes[0].Before != nil || got.Changes[0].After == nil {
		t.Error("insert images wrong")
	}
	if got.Changes[2].After != nil || got.Changes[2].Before == nil {
		t.Error("delete images wrong")
	}
	if !got.Changes[1].After.Equal(rec.Changes[1].After) {
		t.Error("update after image mismatch")
	}
	if got.Changes[0].Table != "t" || got.Changes[0].Key != "k1" {
		t.Error("identity fields mismatch")
	}
}

func TestCommitCodecErrors(t *testing.T) {
	rec := sampleCommit(1)
	enc := EncodeCommit(nil, rec)
	for _, cut := range []int{0, 1, 3, 5, 8, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeCommit(enc[:cut]); err == nil {
			t.Errorf("DecodeCommit of %d-byte prefix should fail", cut)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDDL("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))"); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.AppendCommit(sampleCommit(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Error("double close should be nil")
	}
	if err := l.AppendDDL("x"); err == nil {
		t.Error("append after close should fail")
	}

	var ddl []string
	var seqs []uint64
	err = Replay(path, func(r Record) error {
		switch r.Type {
		case RecordDDL:
			ddl = append(ddl, r.DDL)
		case RecordCommit:
			seqs = append(seqs, r.Commit.Seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ddl) != 1 || len(seqs) != 3 || seqs[2] != 3 {
		t.Errorf("replay: ddl=%v seqs=%v", ddl, seqs)
	}
}

func TestReplayMissingFile(t *testing.T) {
	err := Replay(filepath.Join(t.TempDir(), "absent.wal"), func(Record) error {
		t.Error("callback should not run")
		return nil
	})
	if err != nil {
		t.Errorf("missing file should be empty log: %v", err)
	}
}

func TestReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := Open(path, SyncEachCommit)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(sampleCommit(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(sampleCommit(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the end to simulate a torn final write.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	var count int
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("torn replay recovered %d records, want 1", count)
	}
}

func TestReplayCorruptCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.wal")
	l, _ := Open(path, SyncEachCommit)
	if err := l.AppendCommit(sampleCommit(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF // corrupt payload
	os.WriteFile(path, data, 0o644)
	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("corrupt record replayed (%d)", count)
	}
}

func TestEndToEndRecoveryIntoStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.wal")

	// Build a store wired to the WAL, as the db facade does.
	build := func() (*storage.Store, *Log) {
		s := storage.NewStore()
		l, err := Open(path, SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		return s, l
	}
	s, l := build()
	tbl := mustKV(t)
	if err := s.CreateTable(tbl, false, func(_ uint64, stmt string) {
		if err := l.AppendDDL(stmt); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Text("a"), value.Int(42)}
	if _, err := s.Commit(storage.CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(),
		Changes: []storage.Change{{Table: "kv", Key: tbl.EncodePrimaryKey(row), Op: storage.OpInsert, After: row}}}, func(rec storage.CommitRecord) {
		if err := l.AppendCommit(rec); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover into a fresh store.
	s2 := storage.NewStore()
	err := Replay(path, func(r Record) error {
		switch r.Type {
		case RecordDDL:
			// The facade parses DDL; here we recreate the one known table.
			return s2.CreateTable(mustKV(t), false, nil)
		case RecordCommit:
			return s2.ApplyCommitted(r.Commit, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("kv", tbl.EncodePrimaryKey(row), s2.CurrentSeq())
	if !ok || got[1].AsInt() != 42 {
		t.Errorf("recovered row = %v, %v", got, ok)
	}
}

func mustKV(t *testing.T) *schema.Table {
	t.Helper()
	tbl, err := schema.NewTable("kv", []schema.Column{
		{Name: "k", Type: value.KindText},
		{Name: "v", Type: value.KindInt},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// randomCommit builds an arbitrary CommitRecord for property testing.
func randomCommit(rng *rand.Rand) storage.CommitRecord {
	rec := storage.CommitRecord{Seq: rng.Uint64() >> 1, TxnID: rng.Uint64() >> 1}
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		ch := storage.Change{
			Table: randString(rng, 8),
			Key:   randString(rng, 12),
			Op:    storage.Op(rng.Intn(3)),
		}
		if ch.Op != storage.OpInsert {
			ch.Before = randRow(rng)
		}
		if ch.Op != storage.OpDelete {
			ch.After = randRow(rng)
		}
		rec.Changes = append(rec.Changes, ch)
	}
	return rec
}

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, rng.Intn(n))
	rng.Read(b)
	return string(b)
}

func randRow(rng *rand.Rand) value.Row {
	row := make(value.Row, 1+rng.Intn(4))
	for i := range row {
		switch rng.Intn(5) {
		case 0:
			row[i] = value.Null
		case 1:
			row[i] = value.Int(rng.Int63() - rng.Int63())
		case 2:
			row[i] = value.Float(rng.NormFloat64())
		case 3:
			row[i] = value.Bool(rng.Intn(2) == 0)
		default:
			row[i] = value.Text(randString(rng, 16))
		}
	}
	return row
}

// Property: commit records round-trip the codec exactly, for arbitrary
// contents including zero bytes in tables/keys and NULL-bearing rows.
func TestCommitCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		rec := randomCommit(rng)
		enc := EncodeCommit(nil, rec)
		got, err := DecodeCommit(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got.Seq != rec.Seq || got.TxnID != rec.TxnID || len(got.Changes) != len(rec.Changes) {
			t.Fatalf("trial %d: header mismatch", trial)
		}
		for i := range rec.Changes {
			w, g := rec.Changes[i], got.Changes[i]
			if w.Table != g.Table || w.Key != g.Key || w.Op != g.Op {
				t.Fatalf("trial %d change %d: identity mismatch", trial, i)
			}
			if (w.Before == nil) != (g.Before == nil) || (w.Before != nil && !w.Before.Equal(g.Before)) {
				t.Fatalf("trial %d change %d: before mismatch", trial, i)
			}
			if (w.After == nil) != (g.After == nil) || (w.After != nil && !w.After.Equal(g.After)) {
				t.Fatalf("trial %d change %d: after mismatch", trial, i)
			}
		}
	}
}

// Property: replay after truncation at ANY byte offset never errors and
// recovers a prefix of the appended records.
func TestReplayArbitraryTruncationProperty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.wal")
	l, err := Open(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	var appended []storage.CommitRecord
	for i := 0; i < 10; i++ {
		rec := randomCommit(rng)
		rec.Seq = uint64(i + 1)
		appended = append(appended, rec)
		if err := l.AppendCommit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut += 7 {
		p2 := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p2, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []uint64
		if err := Replay(p2, func(r Record) error {
			got = append(got, r.Commit.Seq)
			return nil
		}); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Recovered records are a prefix 1..k.
		for i, seq := range got {
			if seq != uint64(i+1) {
				t.Fatalf("cut %d: recovered %v, not a prefix", cut, got)
			}
		}
	}
}
