package crashtest

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

func mustTable(t *testing.T, name string) *schema.Table {
	t.Helper()
	tbl, err := schema.NewTable(name, []schema.Column{
		{Name: "k", Type: value.KindText},
		{Name: "v", Type: value.KindInt},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFileCutsWriteAtOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := Create(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.Write(make([]byte, 6))
	if n != 6 || err != nil {
		t.Fatalf("first write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	n, err = f.Write(make([]byte, 6))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("cut write = %d, %v (want 4, ErrInjected)", n, err)
	}
	if !f.Crashed() {
		t.Error("fault did not fire")
	}
	if _, err := f.Write([]byte{1}); !errors.Is(err, ErrInjected) {
		t.Errorf("post-crash write = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Errorf("post-crash sync = %v", err)
	}
	if f.Written() != 10 || f.Durable() != 6 {
		t.Errorf("written=%d durable=%d", f.Written(), f.Durable())
	}
	img, err := f.CrashImage(false)
	if err != nil || len(img) != 6 {
		t.Errorf("pessimistic image = %d bytes, %v", len(img), err)
	}
	img, err = f.CrashImage(true)
	if err != nil || len(img) != 10 {
		t.Errorf("optimistic image = %d bytes, %v", len(img), err)
	}
}

func testCommit(seq uint64) storage.CommitRecord {
	return storage.CommitRecord{
		Seq:   seq,
		TxnID: seq,
		Changes: []storage.Change{{
			Table: "t",
			Key:   string(rune('a' + seq)),
			Op:    storage.OpInsert,
			After: value.Row{value.Int(int64(seq)), value.Text("payload")},
		}},
	}
}

// TestWALCrashAtEveryOffset drives the WAL through the fault-injecting file
// with the crash placed at every byte offset of the log, and asserts the
// durability contract under SyncEachCommit: recovery from the pessimistic
// crash image (unsynced data dropped) yields exactly the acknowledged
// commits, and recovery from the optimistic image (torn tail retained)
// yields a prefix that includes every acknowledged commit.
func TestWALCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	const commits = 6

	// Baseline run to learn the log's total size.
	base, err := Create(filepath.Join(dir, "base.wal"), -1)
	if err != nil {
		t.Fatal(err)
	}
	l := wal.NewLog(base, wal.SyncEachCommit)
	for seq := uint64(1); seq <= commits; seq++ {
		if err := l.AppendCommit(testCommit(seq)); err != nil {
			t.Fatal(err)
		}
	}
	total := base.Written()
	l.Close()

	for cut := int64(0); cut <= total; cut++ {
		f, err := Create(filepath.Join(dir, "cut.wal"), cut)
		if err != nil {
			t.Fatal(err)
		}
		l := wal.NewLog(f, wal.SyncEachCommit)
		var acked []uint64
		for seq := uint64(1); seq <= commits; seq++ {
			if err := l.AppendCommit(testCommit(seq)); err != nil {
				break // crashed: this and later commits are unacknowledged
			}
			acked = append(acked, seq)
		}
		for _, keepUnsynced := range []bool{false, true} {
			img, err := f.CrashImage(keepUnsynced)
			if err != nil {
				t.Fatal(err)
			}
			imgPath := filepath.Join(dir, "img.wal")
			if err := os.WriteFile(imgPath, img, 0o644); err != nil {
				t.Fatal(err)
			}
			var recovered []uint64
			if err := wal.Replay(imgPath, func(r wal.Record) error {
				recovered = append(recovered, r.Commit.Seq)
				return nil
			}); err != nil {
				t.Fatalf("cut %d keepUnsynced=%v: replay: %v", cut, keepUnsynced, err)
			}
			// Always a dense prefix 1..k.
			for i, seq := range recovered {
				if seq != uint64(i+1) {
					t.Fatalf("cut %d keepUnsynced=%v: recovered %v is not a prefix", cut, keepUnsynced, recovered)
				}
			}
			if !keepUnsynced && len(recovered) != len(acked) {
				t.Fatalf("cut %d: pessimistic recovery has %d commits, acked %d", cut, len(recovered), len(acked))
			}
			if keepUnsynced && len(recovered) < len(acked) {
				t.Fatalf("cut %d: optimistic recovery lost acknowledged commits (%d < %d)", cut, len(recovered), len(acked))
			}
		}
		f.Close()
	}
}

// TestWALStickyFailure: after the injected crash fires mid-append, the log
// refuses all further work with the same error instead of silently writing
// records at unpredictable offsets.
func TestWALStickyFailure(t *testing.T) {
	f, err := Create(filepath.Join(t.TempDir(), "w.wal"), 20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l := wal.NewLog(f, wal.SyncEachCommit)
	if err := l.AppendCommit(testCommit(1)); err == nil {
		// First record is larger than 20 bytes, so the append (or its sync)
		// must observe the cut.
		t.Fatal("append across the cut should fail")
	}
	if err := l.AppendCommit(testCommit(2)); !errors.Is(err, ErrInjected) {
		t.Errorf("append after crash = %v, want sticky ErrInjected", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrInjected) {
		t.Errorf("sync after crash = %v, want sticky ErrInjected", err)
	}
}

func TestStoreDiff(t *testing.T) {
	mk := func() *storage.Store {
		s := storage.NewStore()
		tbl := mustTable(t, "kv")
		if err := s.CreateTable(tbl, false, nil); err != nil {
			t.Fatal(err)
		}
		row := value.Row{value.Text("a"), value.Int(1)}
		if _, err := s.Commit(storage.CommitRequest{Changes: []storage.Change{{
			Table: "kv", Key: tbl.EncodePrimaryKey(row), Op: storage.OpInsert, After: row,
		}}}, nil); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	if d := StoreDiff(a, b); d != "" {
		t.Errorf("identical stores diff: %s", d)
	}
	tbl := mustTable(t, "kv")
	row := value.Row{value.Text("b"), value.Int(2)}
	if _, err := b.Commit(storage.CommitRequest{Changes: []storage.Change{{
		Table: "kv", Key: tbl.EncodePrimaryKey(row), Op: storage.OpInsert, After: row,
	}}}, nil); err != nil {
		t.Fatal(err)
	}
	if d := StoreDiff(a, b); d == "" {
		t.Error("diverged stores reported equal")
	}
}
