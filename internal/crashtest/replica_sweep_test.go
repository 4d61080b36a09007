package crashtest

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/wal"
)

// replEntry is one primary log-stream entry in serialization order: a DDL
// statement or a commit record, tagged with its stream position.
type replEntry struct {
	seq uint64
	ddl string
	rec storage.CommitRecord
}

// captureStream runs the sweep workload on a fresh primary and returns its
// replication stream — the exact entries a Subscribe session would ship —
// plus the primary itself for final-state comparison. The primary's change
// log holds DDL and commits in one serialization order; the stream is all
// of it.
func captureStream(t *testing.T) (*db.DB, []replEntry) {
	t.Helper()
	p := db.MustOpenMemory()
	for _, op := range sweepOps() {
		if _, err := p.Exec(op.sql, op.args...); err != nil {
			t.Fatalf("primary op %q: %v", op.sql, err)
		}
	}
	log, err := p.Store().ReadLog(0, p.Store().CurrentSeq())
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]replEntry, len(log))
	for i, e := range log {
		entries[i] = replEntry{seq: e.Seq, ddl: e.DDL, rec: e.CommitRecord}
	}
	return p, entries
}

// apply feeds one stream entry to a replica database through the replicated
// apply path — the same calls a live Subscribe session makes.
func (e replEntry) apply(t *testing.T, d *db.DB) {
	t.Helper()
	if e.ddl != "" {
		if err := d.ApplyReplicatedDDL(e.ddl); err != nil {
			t.Fatalf("replicated DDL %q: %v", e.ddl, err)
		}
		return
	}
	if err := d.ApplyReplicatedCommit(e.rec, nil); err != nil {
		t.Fatalf("replicated commit %d: %v", e.rec.Seq, err)
	}
}

// TestReplicaWALCrashSweep kills a replica at every byte offset of its own
// WAL and asserts both halves of the replica durability contract: (1)
// recovery yields exactly the prefix of stream entries whose records were
// durable below the cut — no torn state; (2) resuming the stream from the
// recovered sequence (commits past it plus the DDL suffix at or after it,
// exactly the selection the source ships for that resume point) converges
// the replica to the primary's final state, StoreDiff-clean. A replica
// crash is therefore never more than a reconnect.
func TestReplicaWALCrashSweep(t *testing.T) {
	prim, entries := captureStream(t)
	defer prim.Close()
	if len(entries) == 0 {
		t.Fatal("captured no stream entries")
	}

	// Build the replica WAL entry by entry, recording the durable file size
	// after each apply (SyncEachCommit: the record is on disk when the apply
	// returns). ack[i] is the WAL size once entries[:i] are applied.
	dir := t.TempDir()
	walPath := filepath.Join(dir, "replica.wal")
	r, err := db.Open(db.Options{Mode: db.Disk, Path: walPath, Sync: wal.SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	r.SetReadOnly(true)
	walSize := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	ack := []int64{walSize()}
	for _, e := range entries {
		e.apply(t, r)
		ack = append(ack, walSize())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(full)); got != ack[len(ack)-1] {
		t.Fatalf("WAL size %d != last durable watermark %d", got, ack[len(ack)-1])
	}

	// Incremental oracle: a memory replica fed the same stream prefix.
	orc := db.MustOpenMemory()
	defer orc.Close()
	applied := 0

	cutDir := filepath.Join(dir, "cut")
	if err := os.Mkdir(cutDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(cutDir, "replica.wal")
	k := 0
	for cut := ack[0]; cut <= int64(len(full)); cut++ {
		for k+1 < len(ack) && ack[k+1] <= cut {
			k++
		}
		for applied < k {
			entries[applied].apply(t, orc)
			applied++
		}
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := db.Open(db.Options{Mode: db.Disk, Path: cutPath, Sync: wal.SyncNever})
		if err != nil {
			t.Fatalf("cut %d: replica recovery failed: %v", cut, err)
		}
		if diff := StoreDiff(rec.Store(), orc.Store()); diff != "" {
			rec.Close()
			t.Fatalf("cut %d (durable entries %d): recovered replica diverges: %s", cut, k, diff)
		}
		pos := rec.Store().CurrentSeq()
		if want := orc.Store().CurrentSeq(); pos != want {
			rec.Close()
			t.Fatalf("cut %d: recovered seq %d, want %d — replica would resume at the wrong position", cut, pos, want)
		}
		// Resume: replay the suffix the source would ship for FromSeq=pos —
		// commits strictly past pos, DDL positioned at or after it (DDL at
		// exactly pos may already be applied; re-application is idempotent).
		for _, e := range entries {
			if e.ddl != "" {
				if e.seq >= pos {
					e.apply(t, rec)
				}
			} else if e.seq > pos {
				e.apply(t, rec)
			}
		}
		if diff := StoreDiff(rec.Store(), prim.Store()); diff != "" {
			rec.Close()
			t.Fatalf("cut %d: replica failed to converge after resume: %s", cut, diff)
		}
		rec.Close()
	}
}
