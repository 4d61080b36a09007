package db

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestDDLNotDurableIsNotAcknowledged: a DDL statement whose WAL append fails
// reports the same "not durable" error a commit does instead of being
// acknowledged.
func TestDDLNotDurableIsNotAcknowledged(t *testing.T) {
	d, err := Open(Options{Mode: Disk, Path: filepath.Join(t.TempDir(), "ddl.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Exec(`CREATE TABLE a (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	d.Log().Close()
	_, err = d.Exec(`CREATE TABLE b (id INTEGER PRIMARY KEY)`)
	if err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("CREATE TABLE on a closed log = %v, want a not-durable error", err)
	}
	if _, err := d.Exec(`INSERT INTO a VALUES (1)`); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("INSERT on a closed log = %v, want a not-durable error", err)
	}
}

// TestVacuumDuringCheckpointKeepsTail: a Vacuum racing the background
// checkpointer cannot cut the log tail a checkpoint is about to rotate in,
// so no checkpoint fails with "commit log truncated".
func TestVacuumDuringCheckpointKeepsTail(t *testing.T) {
	d := openDisk(t, filepath.Join(t.TempDir(), "vac.wal"), func(o *Options) {
		o.CheckpointRecords = 8
		o.HistoryRetention = 1
	})
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.Vacuum()
			}
		}
	}()
	for i := 0; i < 400; i++ {
		if _, err := d.Exec(`INSERT INTO t VALUES (?, ?)`, i, i); err != nil {
			t.Fatal(err)
		}
		if err := d.lastCheckpointErr(); err != nil {
			t.Fatalf("checkpoint after %d commits: %v", i, err)
		}
		if i%50 == 0 {
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("explicit checkpoint after %d commits: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	waitCheckpointerIdle(t, d)
	if d.Checkpoints() == 0 {
		t.Fatal("no checkpoint ran")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close surfaced a checkpoint failure: %v", err)
	}
}
