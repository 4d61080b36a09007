package trod_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	trod "repro"
	"repro/internal/workload"
)

// TestDebuggingStorySurvivesRestart is the full durability arc: production
// and provenance both disk-backed, the bug happens, everything shuts down,
// both databases recover from their WALs, and the entire §3 debugging story
// (declarative query, replay with foreign-write injection, retroactive fix
// validation) still works against the recovered state.
func TestDebuggingStorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	prodPath := filepath.Join(dir, "prod.wal")
	provPath := filepath.Join(dir, "prov.wal")

	// --- life before the crash -------------------------------------------
	{
		prod, err := trod.OpenDiskDBNoSync(prodPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.SetupMoodle(prod); err != nil {
			t.Fatal(err)
		}
		prov, err := trod.OpenDiskDBNoSync(provPath)
		if err != nil {
			t.Fatal(err)
		}
		app := trod.NewApp(prod)
		workload.RegisterMoodle(app)
		tr, err := trod.AttachTracer(app, prov, trod.TraceConfig{Tables: workload.MoodleTables})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Race(app, "subscribeUser", "DB.insert", "R1", "R2", u1f2, u1f2); err != nil {
			t.Fatal(err)
		}
		if _, err := app.InvokeWithReqID("R3", "fetchSubscribers", trod.Args{"forum": "F2"}); err == nil {
			t.Fatal("R3 should fail")
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := prod.Close(); err != nil {
			t.Fatal(err)
		}
		if err := prov.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// --- recovery ----------------------------------------------------------
	prod, err := trod.OpenDiskDBNoSync(prodPath)
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	prov, err := trod.OpenDiskDBNoSync(provPath)
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()

	// Production data recovered, including the duplicate.
	rows, err := prod.Query(`SELECT COUNT(*) FROM forum_sub WHERE userId = 'U1' AND forum = 'F2'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Rows[0][0].AsInt() != 2 {
		t.Fatalf("recovered duplicates = %v", rows.Rows[0][0])
	}

	// Declarative debugging against the recovered provenance.
	dbg, err := prov.Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbg.Rows) != 2 {
		t.Fatalf("recovered debug query rows = %d", len(dbg.Rows))
	}
	lateReq := dbg.Rows[1][1].AsText()

	// Re-attach TROD to the recovered pair (a fresh app process).
	app := trod.NewApp(prod)
	workload.RegisterMoodle(app)
	tr, err := trod.AttachTracer(app, prov, trod.TraceConfig{Tables: workload.MoodleTables})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Replay works from recovered provenance + recovered commit log.
	report, err := trod.NewReplayer(prod, tr).Replay(lateReq, workload.RegisterMoodle, trod.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Diverged {
		t.Fatalf("post-recovery replay diverged: %v", report.Diffs)
	}
	if len(report.ForeignWriters) != 1 {
		t.Fatalf("post-recovery foreign writers = %v", report.ForeignWriters)
	}

	// Retroactive fix validation works too.
	retroReport, err := trod.NewRetro(prod, tr).Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodleFixed, trod.RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !retroReport.AllInvariantsHold() {
		t.Fatal("post-recovery retro run failed")
	}

	// And the recovered system keeps serving + tracing new traffic.
	if _, err := app.InvokeWithReqID("R10", "subscribeUser", trod.Args{"userId": "U9", "forum": "F9"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	post, err := prov.Query(`SELECT COUNT(*) FROM Executions WHERE ReqId = 'R10'`)
	if err != nil {
		t.Fatal(err)
	}
	if post.Rows[0][0].AsInt() == 0 {
		t.Error("post-recovery traffic not traced")
	}
}

// TestCheckpointedDebuggingStorySurvivesRestart is the checkpointed variant
// of the durability arc: production and provenance databases both disk-backed
// with automatic checkpoints, the bug happens, both checkpoint, everything
// restarts — recovery must come from the snapshots plus a short WAL tail
// (not full replay), and the §3 declarative debugging still works.
func TestCheckpointedDebuggingStorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	prodPath := filepath.Join(dir, "prod.wal")
	provPath := filepath.Join(dir, "prov.wal")

	{
		prod, err := trod.OpenDB(trod.DBOptions{Mode: trod.ModeDisk, Path: prodPath, Sync: trod.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.SetupMoodle(prod); err != nil {
			t.Fatal(err)
		}
		prov, err := trod.OpenDB(trod.DBOptions{Mode: trod.ModeDisk, Path: provPath, Sync: trod.SyncNever,
			CheckpointRecords: 8})
		if err != nil {
			t.Fatal(err)
		}
		app := trod.NewApp(prod)
		workload.RegisterMoodle(app)
		tr, err := trod.AttachTracer(app, prov, trod.TraceConfig{Tables: workload.MoodleTables})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Race(app, "subscribeUser", "DB.insert", "R1", "R2", u1f2, u1f2); err != nil {
			t.Fatal(err)
		}
		// Keep serving after the bug so the provenance WAL outgrows its
		// checkpoint threshold and rotates automatically. Flushing the
		// tracer every few requests turns the traffic into several distinct
		// provenance batch commits (WAL records).
		for i := 0; i < 30; i++ {
			if _, err := app.Invoke("subscribeUser", trod.Args{"userId": fmt.Sprintf("U%d", 100+i), "forum": "F1"}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		// An explicit checkpoint on the production side too.
		if err := prod.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Automatic checkpoints run in the background: give the first
		// rotation a bounded window to land instead of reading it once.
		for deadline := time.Now().Add(10 * time.Second); prov.WALStats().Rotations == 0 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if prov.WALStats().Rotations == 0 {
			t.Fatal("provenance WAL never auto-checkpointed")
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		prod.Close()
		prov.Close()
	}

	prod, err := trod.OpenDiskDBNoSync(prodPath)
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	prov, err := trod.OpenDiskDBNoSync(provPath)
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()

	// Both databases recovered through the snapshot fast path.
	if info := prod.Recovery(); !info.SnapshotLoaded {
		t.Errorf("production recovery skipped the snapshot: %+v", info)
	}
	if info := prov.Recovery(); !info.SnapshotLoaded {
		t.Errorf("provenance recovery skipped the snapshot: %+v", info)
	}

	// The duplicate-subscription bug is still visible in recovered data.
	rows, err := prod.Query(`SELECT COUNT(*) FROM forum_sub WHERE userId = 'U1' AND forum = 'F2'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Rows[0][0].AsInt() != 2 {
		t.Fatalf("recovered duplicates = %v", rows.Rows[0][0])
	}
	// And the declarative debugging query still finds both writers.
	dbg, err := prov.Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbg.Rows) != 2 {
		t.Fatalf("debug query over checkpoint-recovered provenance = %d rows, want 2", len(dbg.Rows))
	}
}

// TestProvenanceRecoveryPreservesEventTables checks that the dynamically
// created event tables (whose DDL is WAL-logged) come back with their
// schema and indexes.
func TestProvenanceRecoveryPreservesEventTables(t *testing.T) {
	dir := t.TempDir()
	provPath := filepath.Join(dir, "prov.wal")
	{
		prod := trod.OpenMemoryDB()
		defer prod.Close()
		if err := workload.SetupMoodle(prod); err != nil {
			t.Fatal(err)
		}
		prov, err := trod.OpenDiskDBNoSync(provPath)
		if err != nil {
			t.Fatal(err)
		}
		app := trod.NewApp(prod)
		workload.RegisterMoodle(app)
		tr, err := trod.AttachTracer(app, prov, trod.TraceConfig{Tables: workload.MoodleTables})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Invoke("subscribeUser", trod.Args{"userId": "U1", "forum": "F1"}); err != nil {
			t.Fatal(err)
		}
		tr.Close()
		prov.Close()
	}
	prov, err := trod.OpenDiskDBNoSync(provPath)
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	for _, table := range []string{"Executions", "ForumEvents", "CourseEvents", "trod_requests", "trod_rpc_edges", "trod_externals"} {
		if prov.Store().Table(table) == nil {
			t.Errorf("recovered provenance missing table %s", table)
		}
	}
	// The TxnId index on ForumEvents survived (used via equality lookup).
	found := false
	for _, ix := range prov.Store().Indexes("ForumEvents") {
		if ix.Name == "ForumEvents_txn" {
			found = true
		}
	}
	if !found {
		t.Error("event-table index lost in recovery")
	}
	rows, err := prov.Query(`SELECT COUNT(*) FROM ForumEvents`)
	if err != nil || rows.Rows[0][0].AsInt() == 0 {
		t.Errorf("recovered events = %v, %v", rows, err)
	}
}

// u1f2 is the racing requests' arguments in the MDL-59854 scenario.
var u1f2 = trod.Args{"userId": "U1", "forum": "F2"}
