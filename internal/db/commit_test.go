package db

import (
	"path/filepath"
	"testing"

	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestCommitEntriesShareOneStageSequence runs each entry into the commit
// path — a transaction's commit, a batch writer's pre-built request, a
// record shipped by a replication primary — on a Disk database with a
// commit barrier installed. Every entry logs its record (it survives a
// reopen) and trips the checkpoint trigger; the barrier runs once per
// primary or batch commit and never for a replicated one; db_commits counts
// primary and batch commits only, as it always has. Traced entries record
// their stage spans and stamp the trace ID on the commit record.
func TestCommitEntriesShareOneStageSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	d, err := Open(Options{Mode: Disk, Path: path, Sync: wal.SyncEachCommit, CheckpointRecords: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	var barrierSeqs []uint64
	d.SetCommitBarrier(func(seq uint64) error {
		barrierSeqs = append(barrierSeqs, seq)
		return nil
	})
	tbl := d.Store().Table("t")
	insert := func(id int64) []storage.Change {
		row := value.Row{value.Int(id), value.Text("x")}
		return []storage.Change{{Table: "t", Key: tbl.EncodePrimaryKey(row), Op: storage.OpInsert, After: row}}
	}

	entries := []struct {
		name    string
		commit  func(id int64, sp *span.Buf) error
		traced  bool   // the entry takes a span buffer
		barrier bool   // the barrier runs for it
		counted uint64 // what it adds to db_commits
		stages  []span.Stage
	}{
		{"primary", func(id int64, sp *span.Buf) error {
			_, err := d.ExecMeta(TxMeta{Spans: sp}, `INSERT INTO t VALUES (?, 'x')`, value.Row{value.Int(id)})
			return err
		}, true, true, 1, []span.Stage{span.StageOCCValidate, span.StageWALAppend, span.StageQuorumWait}},
		{"batch", func(id int64, _ *span.Buf) error {
			st := d.Store()
			_, err := d.ApplyCommit(storage.CommitRequest{TxnID: st.NextTxnID(), Snapshot: st.CurrentSeq(), Changes: insert(id)})
			return err
		}, false, true, 1, nil},
		{"replicated", func(id int64, sp *span.Buf) error {
			st := d.Store()
			rec := storage.CommitRecord{Seq: st.CurrentSeq() + 1, TxnID: st.NextTxnID(), Changes: insert(id), TraceID: sp.TraceID}
			return d.ApplyReplicatedCommit(rec, sp)
		}, true, false, 0, []span.Stage{span.StageReplApply, span.StageReplWALAppend}},
	}
	for i, e := range entries {
		id := int64(i + 1)
		var sp *span.Buf
		if e.traced {
			sp = span.NewBuf(uint64(100+i), 0)
		}
		barriers := len(barrierSeqs)
		commits, _ := d.CommitStats()
		ckpts := d.Checkpoints()
		if err := e.commit(id, sp); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		seq := d.Store().CurrentSeq()
		waitCheckpointerIdle(t, d)

		wantBarriers := 0
		if e.barrier {
			wantBarriers = 1
		}
		if got := len(barrierSeqs) - barriers; got != wantBarriers {
			t.Errorf("%s: barrier ran %d times, want %d", e.name, got, wantBarriers)
		} else if e.barrier && barrierSeqs[len(barrierSeqs)-1] != seq {
			t.Errorf("%s: barrier saw seq %d, want %d", e.name, barrierSeqs[len(barrierSeqs)-1], seq)
		}
		if got, _ := d.CommitStats(); got-commits != e.counted {
			t.Errorf("%s: db_commits rose by %d, want %d", e.name, got-commits, e.counted)
		}
		if got := d.Checkpoints() - ckpts; got != 1 {
			t.Errorf("%s: %d checkpoints, want the trigger to fire once", e.name, got)
		}
		if !e.traced {
			continue
		}
		if sp.CommitSeq() != seq {
			t.Errorf("%s: span buffer noted seq %d, want %d", e.name, sp.CommitSeq(), seq)
		}
		recorded := map[span.Stage]bool{}
		for _, s := range sp.Spans() {
			recorded[s.Stage] = true
		}
		for _, st := range e.stages {
			if !recorded[st] {
				t.Errorf("%s: no %s span (spans %+v)", e.name, st, sp.Spans())
			}
		}
		if recorded[span.StageQuorumWait] != e.barrier {
			t.Errorf("%s: quorum_wait span recorded = %v, want %v", e.name, recorded[span.StageQuorumWait], e.barrier)
		}
		if recs := logCommits(t, d.Store(), seq-1, seq); len(recs) != 1 || recs[0].TraceID != sp.TraceID {
			t.Errorf("%s: commit record %+v does not carry trace %d", e.name, recs, sp.TraceID)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Mode: Disk, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, e := range entries {
		res, err := re.Query(`SELECT v FROM t WHERE id = ?`, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("%s: commit not recovered after reopen", e.name)
		}
	}
}

// logCommits returns the commit entries ReadLog(from, to) reads, failing
// the test if the window is not retained.
func logCommits(t *testing.T, s *storage.Store, from, to uint64) []storage.CommitRecord {
	t.Helper()
	entries, err := s.ReadLog(from, to)
	if err != nil {
		t.Fatal(err)
	}
	var out []storage.CommitRecord
	for _, e := range entries {
		if e.DDL == "" {
			out = append(out, e.CommitRecord)
		}
	}
	return out
}
