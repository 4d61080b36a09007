package db

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

func openDisk(t *testing.T, path string, opts ...func(*Options)) *DB {
	t.Helper()
	o := Options{Mode: Disk, Path: path, Sync: wal.SyncNever}
	for _, fn := range opts {
		fn(&o)
	}
	d, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// waitCheckpointerIdle blocks until the background checkpointer has nothing
// left to do: no signal pending, no checkpoint in flight, and the WAL under
// its thresholds. It fails the test after a deadline instead of hanging.
func waitCheckpointerIdle(t testing.TB, d *DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.ckptMu.Lock() // waits out a checkpoint in flight
		idle := len(d.ckptKick) == 0 && !d.checkpointDue()
		d.ckptMu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer still busy after 10s: %+v (last error %v)", d.WALStats(), d.lastCheckpointErr())
		}
		runtime.Gosched()
	}
}

// lastCheckpointErr reads the last automatic checkpoint's error.
func (db *DB) lastCheckpointErr() error {
	db.ckptErrMu.Lock()
	defer db.ckptErrMu.Unlock()
	return db.ckptErr
}

// findSnapshot returns the single snapshot file a checkpoint left next to
// the WAL.
func findSnapshot(t *testing.T, walPath string) string {
	t.Helper()
	snaps, err := filepath.Glob(walPath + ".snap.*")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files = %v, %v (want exactly one)", snaps, err)
	}
	return snaps[0]
}

func seedKV(t *testing.T, d *DB, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if _, err := d.Exec(`INSERT INTO kv VALUES (?, ?)`, i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func countKV(t *testing.T, d *DB) int64 {
	t.Helper()
	rows, err := d.Query(`SELECT COUNT(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	return rows.Rows[0][0].AsInt()
}

// TestCheckpointBoundsRecoveryToTail: after an explicit checkpoint, a
// reopened database recovers from the snapshot and replays only the commits
// that landed after it.
func TestCheckpointBoundsRecoveryToTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	d := openDisk(t, path)
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 20)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 21, 25) // the tail: 5 commits after the checkpoint
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, path)
	defer re.Close()
	info := re.Recovery()
	if !info.SnapshotLoaded {
		t.Fatalf("snapshot not used: %+v", info)
	}
	if info.TailRecords != 5 {
		t.Errorf("tail records = %d, want 5", info.TailRecords)
	}
	if info.TotalRecords != 6 { // checkpoint pointer + 5 tail commits
		t.Errorf("total records = %d, want 6", info.TotalRecords)
	}
	if got := countKV(t, re); got != 25 {
		t.Errorf("recovered rows = %d, want 25", got)
	}
	// The recovered database keeps serving and checkpointing.
	seedKV(t, re, 26, 27)
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := countKV(t, re); got != 27 {
		t.Errorf("post-recovery rows = %d", got)
	}
}

// TestCheckpointPreservesDDLInTailEpoch: schema changes after a checkpoint
// live in the WAL tail and come back on recovery; schema changes before it
// come back through the snapshot.
func TestCheckpointPreservesSchemaAcrossGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	d := openDisk(t, path)
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`CREATE INDEX kv_v ON kv (v)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 5)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint DDL rides in the tail.
	if _, err := d.Exec(`CREATE TABLE extra (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO extra VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	d.Close()

	re := openDisk(t, path)
	defer re.Close()
	if !re.Recovery().SnapshotLoaded {
		t.Fatalf("snapshot not used: %+v", re.Recovery())
	}
	if re.Store().Table("kv") == nil || re.Store().Table("extra") == nil {
		t.Fatal("tables lost across checkpointed recovery")
	}
	if ixs := re.Store().Indexes("kv"); len(ixs) != 1 || ixs[0].Name != "kv_v" {
		t.Fatalf("index lost: %+v", ixs)
	}
	rows, err := re.Query(`SELECT v FROM kv WHERE v = 'v3'`)
	if err != nil || len(rows.Rows) != 1 {
		t.Errorf("index query after recovery: %v, %v", rows, err)
	}
}

// TestCheckpointAutoTrigger: crossing the record threshold rotates the log
// without an explicit Checkpoint call, and recovery uses the snapshot.
func TestCheckpointAutoTrigger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.wal")
	d := openDisk(t, path, func(o *Options) { o.CheckpointRecords = 10 })
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 40)
	waitCheckpointerIdle(t, d)
	st := d.WALStats()
	if st.Rotations == 0 {
		t.Fatalf("no automatic checkpoint after 41 records: %+v", st)
	}
	if st.RecordsSinceCheckpoint > 10 {
		t.Errorf("records since checkpoint = %d, want <= threshold", st.RecordsSinceCheckpoint)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, path)
	defer re.Close()
	if !re.Recovery().SnapshotLoaded {
		t.Fatalf("recovery ignored auto checkpoint: %+v", re.Recovery())
	}
	if got := countKV(t, re); got != 40 {
		t.Errorf("recovered rows = %d, want 40", got)
	}
}

// TestCheckpointByteTriggerAndExplicitNoop covers the byte threshold and the
// Memory-mode no-op.
func TestCheckpointByteTrigger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.wal")
	d := openDisk(t, path, func(o *Options) { o.CheckpointBytes = 512 })
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 60) // well past 512 bytes of records
	waitCheckpointerIdle(t, d)
	if d.WALStats().Rotations == 0 {
		t.Error("byte threshold never triggered")
	}
	d.Close()

	mem := MustOpenMemory()
	defer mem.Close()
	if err := mem.Checkpoint(); err != nil {
		t.Errorf("Memory-mode Checkpoint = %v, want nil no-op", err)
	}
}

// TestCommitDoesNotWaitForCheckpoint: commits that cross the threshold while
// the checkpointer is held off (the test holds the checkpoint lock's read
// side, as a DDL statement does) still return; once the lock is released the
// signal they left is enough to run the checkpoint, with no further commit.
func TestCommitDoesNotWaitForCheckpoint(t *testing.T) {
	d := openDisk(t, filepath.Join(t.TempDir(), "h.wal"), func(o *Options) { o.CheckpointRecords = 10 })
	defer d.Close()
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	d.ckptMu.RLock()
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= 40; i++ {
			if _, err := d.Exec(`INSERT INTO kv VALUES (?, 'x')`, i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			d.ckptMu.RUnlock()
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		d.ckptMu.RUnlock()
		t.Fatal("commits past the checkpoint threshold waited for the checkpoint")
	}
	if rot := d.WALStats().Rotations; rot != 0 {
		d.ckptMu.RUnlock()
		t.Fatalf("%d rotations while the checkpointer was held off", rot)
	}
	d.ckptMu.RUnlock()
	waitCheckpointerIdle(t, d)
	if st := d.WALStats(); st.Rotations == 0 || st.RecordsSinceCheckpoint > 10 {
		t.Fatalf("signalled checkpoint never ran: %+v", st)
	}
}

// TestCheckpointerCatchesUpAfterCommitsStop: concurrent committers cross the
// threshold many times over, mostly while a checkpoint is already running.
// Signals that find one pending are dropped, yet once commits stop the
// checkpointer has brought the log back under its threshold.
func TestCheckpointerCatchesUpAfterCommitsStop(t *testing.T) {
	const threshold = 16
	d := openDisk(t, filepath.Join(t.TempDir(), "u.wal"), func(o *Options) { o.CheckpointRecords = threshold })
	defer d.Close()
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 150
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(base int) {
			for i := 0; i < each; i++ {
				if _, err := d.Exec(`INSERT INTO kv VALUES (?, 'x')`, base+i); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w * each)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitCheckpointerIdle(t, d)
	st := d.WALStats()
	if st.Rotations == 0 {
		t.Fatalf("no checkpoint over %d commits: %+v", writers*each, st)
	}
	if st.RecordsSinceCheckpoint > threshold {
		t.Fatalf("records since checkpoint = %d after commits stopped, want <= %d", st.RecordsSinceCheckpoint, threshold)
	}
	if got := countKV(t, d); got != writers*each {
		t.Fatalf("rows = %d, want %d", got, writers*each)
	}
}

// TestCloseWaitsForCheckpointAndSurfacesItsError: Close called while the
// checkpointer is inside a checkpoint waits for it, the checkpointer exits,
// and the checkpoint's failure comes back from Close. The log the failed
// checkpoint left alone still recovers every commit.
func TestCloseWaitsForCheckpointAndSurfacesItsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	d := openDisk(t, path, func(o *Options) { o.CheckpointRecords = 10 })
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	d.ckptMu.RLock()
	seedKV(t, d, 1, 20)
	// The checkpoint will encode at this sequence; a directory squatting on
	// its snapshot temp file makes the write fail.
	if err := os.Mkdir(fmt.Sprintf("%s.snap.%d.tmp", path, d.Store().CurrentSeq()), 0o755); err != nil {
		d.ckptMu.RUnlock()
		t.Fatal(err)
	}
	// A pending writer makes TryRLock fail: the checkpointer is blocked
	// inside Checkpoint, waiting for the read side this test holds.
	deadline := time.Now().Add(10 * time.Second)
	for d.ckptMu.TryRLock() {
		d.ckptMu.RUnlock()
		if time.Now().After(deadline) {
			d.ckptMu.RUnlock()
			t.Fatal("checkpointer never started the signalled checkpoint")
		}
		runtime.Gosched()
	}
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	// Close holds the database mutex until it returns.
	for d.mu.TryLock() {
		d.mu.Unlock()
		runtime.Gosched()
	}
	d.ckptMu.RUnlock()
	err := <-closed
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("Close = %v, want the failed checkpoint's error", err)
	}
	select {
	case <-d.ckptDone:
	default:
		t.Fatal("checkpointer goroutine still running after Close")
	}

	re := openDisk(t, path)
	defer re.Close()
	if got := countKV(t, re); got != 20 {
		t.Fatalf("recovered rows = %d, want 20", got)
	}
}

// TestRecoveryFallsBackToOldGenerationOnCorruptSnapshot: when the snapshot
// is damaged after a rotation, recovery replays the retained .old generation
// plus the current log's tail — full replay instead of data loss.
func TestRecoveryFallsBackToOldGenerationOnCorruptSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.wal")
	d := openDisk(t, path)
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 10)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 11, 12)
	d.Close()

	// Damage the snapshot.
	snap := findSnapshot(t, path)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, path)
	defer re.Close()
	info := re.Recovery()
	if info.SnapshotLoaded {
		t.Fatalf("corrupt snapshot was trusted: %+v", info)
	}
	if info.SnapshotErr == "" {
		t.Error("fallback reason not recorded")
	}
	if got := countKV(t, re); got != 12 {
		t.Errorf("fallback recovery rows = %d, want 12", got)
	}
}

// TestRecoveryFailsLoudlyWhenHistoryGone: corrupt snapshot AND no .old
// generation means the pre-checkpoint history is unreachable; Open must fail
// with a descriptive error, not return a silently truncated database.
func TestRecoveryFailsLoudlyWhenHistoryGone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.wal")
	d := openDisk(t, path)
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 5)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 6, 7)
	d.Close()

	snap := findSnapshot(t, path)
	data, _ := os.ReadFile(snap)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(snap, data, 0o644)
	os.Remove(path + ".old")

	_, err := Open(Options{Mode: Disk, Path: path, Sync: wal.SyncNever})
	if err == nil {
		t.Fatal("recovery with lost history should fail")
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("error does not explain the snapshot loss: %v", err)
	}
}

// TestRecoveryAfterInterruptedRotation: a crash between the rotation's two
// renames leaves no log but a complete .rotate file; Open repairs the swap
// and recovers normally.
func TestRecoveryAfterInterruptedRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "i.wal")
	d := openDisk(t, path)
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 8)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 9, 10)
	d.Close()

	// Reconstruct the mid-rotation state: the current log becomes the
	// not-yet-renamed .rotate file and the .old generation moves back.
	if err := os.Rename(path, path+".rotate"); err != nil {
		t.Fatal(err)
	}
	// (path is now missing, exactly as between the two renames — the .old
	// file from the real rotation still holds the full history.)

	re := openDisk(t, path)
	defer re.Close()
	if got := countKV(t, re); got != 10 {
		t.Errorf("repaired recovery rows = %d, want 10", got)
	}
}

// TestCrashBetweenSnapshotWriteAndRotation: a checkpoint writes its
// snapshot but crashes before rotating the log. The freshly written snapshot
// must not disturb the one the log head still points to (snapshots are
// uniquely named per sequence), so recovery proceeds normally from the older
// snapshot plus the full tail — even after multiple earlier rotations, when
// no full-history generation exists any more.
func TestCrashBetweenSnapshotWriteAndRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	d := openDisk(t, path)
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 10)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 11, 20)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// After two rotations, .old starts with a checkpoint pointer — there is
	// no full-history generation left.
	seedKV(t, d, 21, 25)
	// Simulate the crash window of a third checkpoint: the snapshot lands on
	// disk, the rotation never happens.
	data, seq := d.Store().EncodeSnapshot()
	orphan := fmt.Sprintf("%s.snap.%d", path, seq)
	if err := os.WriteFile(orphan, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d.Close()

	re := openDisk(t, path)
	defer re.Close()
	info := re.Recovery()
	if !info.SnapshotLoaded {
		t.Fatalf("recovery lost the head snapshot to the orphan: %+v", info)
	}
	if got := countKV(t, re); got != 25 {
		t.Errorf("rows = %d, want 25", got)
	}
	// The next successful checkpoint (at a later sequence) sweeps the orphan.
	seedKV(t, re, 26, 27)
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan snapshot %s not cleaned up", orphan)
	}
}

// TestRecoverySecondCheckpointGeneration: two checkpoints in sequence keep
// recovery bounded (the newest snapshot wins) and the .old generation holds
// the previous rotation's log, not the original full history.
func TestRecoverySecondCheckpointGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	d := openDisk(t, path)
	if _, err := d.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 1, 10)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 11, 20)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seedKV(t, d, 21, 23)
	d.Close()

	re := openDisk(t, path)
	defer re.Close()
	info := re.Recovery()
	if !info.SnapshotLoaded || info.TailRecords != 3 {
		t.Fatalf("second-generation recovery info = %+v", info)
	}
	if got := countKV(t, re); got != 23 {
		t.Errorf("rows = %d, want 23", got)
	}
}
