package replay

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/runtime"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workload"
)

// racedScenario runs the MDL-59854 production scenario (R1 and R2 racing,
// then R3 fetching and failing) with tracing, and returns what replay needs.
func racedScenario(t *testing.T) (*db.DB, *trace.Tracer, *runtime.App) {
	t.Helper()
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	t.Cleanup(func() { prod.Close(); prov.Close() })
	if err := workload.SetupMoodle(prod); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(prod)
	workload.RegisterMoodle(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.MoodleTables})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	if err := workload.Race(app, "subscribeUser", "DB.insert", "R1", "R2", u1f2, u1f2); err != nil {
		t.Fatal(err)
	}
	if _, err := app.InvokeWithReqID("R3", "fetchSubscribers", runtime.Args{"forum": "F2"}); err == nil {
		t.Fatal("R3 should observe the duplication error")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return prod, tr, app
}

// lateReq returns whichever of R1/R2 committed its insert last (that one
// observed the other's write between its transactions).
func lateReq(t *testing.T, tr *trace.Tracer) (late, early string) {
	t.Helper()
	res, err := tr.Prov().Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("debug query rows = %d", len(res.Rows))
	}
	return res.Rows[1][1].AsText(), res.Rows[0][1].AsText()
}

func TestReplayFaithfulWithForeignInjection(t *testing.T) {
	prod, tr, _ := racedScenario(t)
	late, early := lateReq(t, tr)

	rp := New(prod, tr.Writer())
	var breaks []Breakpoint
	var rowsAtBreak []int64 // forum_sub row count observed AT each breakpoint
	var dev *db.DB
	report, err := rp.Replay(late, workload.RegisterMoodle, Options{
		OnBreakpoint: func(bp Breakpoint) {
			breaks = append(breaks, bp)
			dev = bp.Dev
			rows, err := bp.Dev.Query(`SELECT COUNT(*) FROM forum_sub`)
			if err != nil {
				t.Error(err)
				return
			}
			rowsAtBreak = append(rowsAtBreak, rows.Rows[0][0].AsInt())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Diverged {
		t.Fatalf("faithful replay diverged: %+v", report.Diffs)
	}
	if len(report.Steps) != 2 {
		t.Fatalf("steps = %+v", report.Steps)
	}
	if report.Steps[0].Func != "isSubscribed" || report.Steps[1].Func != "DB.insert" {
		t.Errorf("step labels = %v %v", report.Steps[0].Func, report.Steps[1].Func)
	}
	// The foreign write (the early request's insert) must be injected
	// before the late request's second transaction — Figure 3 (top).
	if len(report.Steps[1].Injected) == 0 {
		t.Fatal("no foreign writes injected before DB.insert")
	}
	found := false
	for _, ch := range report.Steps[1].Injected {
		if strings.EqualFold(ch.Table, "forum_sub") && ch.After != nil && ch.After[1].AsText() == "U1" {
			found = true
		}
	}
	if !found {
		t.Errorf("injected changes = %+v", report.Steps[1].Injected)
	}
	if len(report.ForeignWriters) != 1 || report.ForeignWriters[0] != early {
		t.Errorf("foreign writers = %v, want [%s]", report.ForeignWriters, early)
	}
	// Breakpoints fired before each step with the dev DB inspectable:
	// empty at the first (snapshot before the request), exactly the early
	// request's insert at the second (Figure 3 top).
	if len(breaks) != 2 {
		t.Fatalf("breakpoints = %d", len(breaks))
	}
	if rowsAtBreak[0] != 0 || rowsAtBreak[1] != 1 {
		t.Errorf("rows at breakpoints = %v, want [0 1]", rowsAtBreak)
	}
	// Replay reproduced the duplicate in the dev database.
	final, _ := dev.Query(`SELECT COUNT(*) FROM forum_sub WHERE userId = 'U1' AND forum = 'F2'`)
	if final.Rows[0][0].AsInt() != 2 {
		t.Errorf("dev duplicates = %v, want 2", final.Rows[0][0])
	}
}

func TestReplayEarlyRequestSeesNoForeignWrites(t *testing.T) {
	prod, tr, _ := racedScenario(t)
	_, early := lateReq(t, tr)
	rp := New(prod, tr.Writer())
	report, err := rp.Replay(early, workload.RegisterMoodle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Diverged {
		t.Fatalf("early replay diverged: %+v", report.Diffs)
	}
	for _, st := range report.Steps {
		if len(st.Injected) != 0 {
			t.Errorf("early request should see no foreign writes, step %q got %d", st.Func, len(st.Injected))
		}
	}
}

func TestReplayErrorRequestReproducesError(t *testing.T) {
	prod, tr, _ := racedScenario(t)
	rp := New(prod, tr.Writer())
	report, err := rp.Replay("R3", workload.RegisterMoodle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Err == nil || !strings.Contains(report.Err.Error(), "duplicated") {
		t.Errorf("replayed R3 error = %v", report.Err)
	}
	if report.Diverged {
		t.Errorf("R3 replay diverged: %+v", report.Diffs)
	}
}

func TestReplayDetectsModifiedCodeDivergence(t *testing.T) {
	prod, tr, _ := racedScenario(t)
	late, _ := lateReq(t, tr)
	rp := New(prod, tr.Writer())
	// Replaying with the FIXED handler is not a faithful replay: the txn
	// structure changed, and the engine must flag it.
	report, err := rp.Replay(late, workload.RegisterMoodleFixed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Diverged {
		t.Fatal("modified code should diverge from the original trace")
	}
	if len(report.Diffs) == 0 {
		t.Error("divergence reported without diffs")
	}
}

func TestReplayUnknownRequest(t *testing.T) {
	prod, tr, _ := racedScenario(t)
	rp := New(prod, tr.Writer())
	if _, err := rp.Replay("R999", workload.RegisterMoodle, Options{}); err == nil {
		t.Error("unknown request should error")
	}
}

// TestReplayBelowHistoryFloor: once vacuum (or a checkpointed restart)
// raised the production store's history floor past a request's base
// snapshot, replay refuses with the typed error instead of rebuilding the
// base state from compacted — silently wrong — version chains.
func TestReplayBelowHistoryFloor(t *testing.T) {
	prod, tr, _ := racedScenario(t)
	late, _ := lateReq(t, tr)
	prod.Store().Vacuum(prod.Store().CurrentSeq())
	rp := New(prod, tr.Writer())
	_, err := rp.Replay(late, workload.RegisterMoodle, Options{})
	if !errors.Is(err, storage.ErrHistoryTruncated) {
		t.Fatalf("replay below floor: err = %v, want ErrHistoryTruncated", err)
	}
}

func TestReplayDoesNotTouchProduction(t *testing.T) {
	prod, tr, _ := racedScenario(t)
	late, _ := lateReq(t, tr)
	before, _ := prod.Query(`SELECT COUNT(*) FROM forum_sub`)
	rp := New(prod, tr.Writer())
	if _, err := rp.Replay(late, workload.RegisterMoodle, Options{}); err != nil {
		t.Fatal(err)
	}
	after, _ := prod.Query(`SELECT COUNT(*) FROM forum_sub`)
	if before.Rows[0][0].AsInt() != after.Rows[0][0].AsInt() {
		t.Error("replay mutated the production database")
	}
}

func TestDiffChangesUnit(t *testing.T) {
	ins := storage.Change{Table: "t", Key: "k1", Op: storage.OpInsert, After: value.Row{value.Int(1)}}
	upd := storage.Change{Table: "t", Key: "k1", Op: storage.OpUpdate, After: value.Row{value.Int(2)}}
	if diffs := diffChanges([]storage.Change{ins}, []storage.Change{ins}); len(diffs) != 0 {
		t.Errorf("identical sets diff = %v", diffs)
	}
	diffs := diffChanges([]storage.Change{ins}, []storage.Change{upd})
	if len(diffs) != 2 {
		t.Errorf("diff = %v", diffs)
	}
	if diffs := diffChanges(nil, []storage.Change{ins}); len(diffs) != 1 || !strings.HasPrefix(diffs[0], "extra") {
		t.Errorf("extra diff = %v", diffs)
	}
	if diffs := diffChanges([]storage.Change{ins}, nil); len(diffs) != 1 || !strings.HasPrefix(diffs[0], "missing") {
		t.Errorf("missing diff = %v", diffs)
	}
	// Order insensitivity.
	other := storage.Change{Table: "t", Key: "k2", Op: storage.OpInsert, After: value.Row{value.Int(3)}}
	if diffs := diffChanges([]storage.Change{ins, other}, []storage.Change{other, ins}); len(diffs) != 0 {
		t.Errorf("order-insensitive diff = %v", diffs)
	}
}

func TestApplyForeignUpsertSemantics(t *testing.T) {
	dev := storage.NewStore()
	tbl, err := schema.NewTable("t", []schema.Column{
		{Name: "k", Type: value.KindText},
		{Name: "v", Type: value.KindInt},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Text("a"), value.Int(1)}
	key := tbl.EncodePrimaryKey(row)

	// Update of a missing row becomes an insert.
	if err := applyForeign(dev, []storage.Change{{Table: "t", Key: key, Op: storage.OpUpdate, After: row}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := dev.Get("t", key, dev.CurrentSeq()); !ok {
		t.Fatal("upsert did not insert")
	}
	// Insert of an existing row becomes an update.
	row2 := value.Row{value.Text("a"), value.Int(9)}
	if err := applyForeign(dev, []storage.Change{{Table: "t", Key: key, Op: storage.OpInsert, After: row2}}); err != nil {
		t.Fatal(err)
	}
	got, _ := dev.Get("t", key, dev.CurrentSeq())
	if got[1].AsInt() != 9 {
		t.Errorf("upsert value = %v", got[1])
	}
	// Delete of a missing row is skipped; delete of present row works.
	if err := applyForeign(dev, []storage.Change{{Table: "t", Key: "zz", Op: storage.OpDelete}}); err != nil {
		t.Fatal(err)
	}
	if err := applyForeign(dev, []storage.Change{{Table: "t", Key: key, Op: storage.OpDelete, Before: row2}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := dev.Get("t", key, dev.CurrentSeq()); ok {
		t.Error("delete did not apply")
	}
	// Changes to unknown tables are ignored.
	if err := applyForeign(dev, []storage.Change{{Table: "ghost", Key: "k", Op: storage.OpInsert, After: row}}); err != nil {
		t.Fatal(err)
	}
}

// u1f2 is the racing requests' arguments in the MDL-59854 scenario.
var u1f2 = runtime.Args{"userId": "U1", "forum": "F2"}
