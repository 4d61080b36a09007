package replay

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scenario reproduces MDL-59854 in production with tracing: R1 and R2 race
// subscribing (U1, F2), R3 fetches and fails.
func scenario(t *testing.T) (*db.DB, *trace.Tracer) {
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
		t.Fatal("R3 should fail on duplicates")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return prod, tr
}

func TestRetroFixPassesAllInterleavings(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	// Figure 3 (bottom): re-serve R1, R2, R3 with the PATCHED handler.
	report, err := rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodleFixed, RetroOptions{
		Invariant: workload.NoDuplicateSubscription,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phases: {R1, R2} concurrent, then {R3}.
	if len(report.Phases) != 2 || len(report.Phases[0]) != 2 || report.Phases[1][0] != "R3" {
		t.Fatalf("phases = %v", report.Phases)
	}
	if len(report.Schedules) < 2 {
		t.Fatalf("expected at least 2 schedules (R1' first / R2' first), got %d", len(report.Schedules))
	}
	if !report.AllInvariantsHold() {
		for _, s := range report.Schedules {
			t.Logf("order=%v invariant=%v", s.Order, s.InvariantErr)
			for _, rq := range s.Requests {
				t.Logf("  %s err=%v result=%s", rq.ReqID, rq.Err, rq.ResultJSON)
			}
		}
		t.Fatal("patched code should pass every interleaving")
	}
	// R3' (fetchSubscribers) succeeds in every schedule — the error is gone.
	for _, s := range report.Schedules {
		for _, rq := range s.Requests {
			if rq.ReqID == "R3" && rq.Err != nil {
				t.Errorf("R3' failed under order %v: %v", s.Order, rq.Err)
			}
		}
	}
	// Both request orders were actually tested.
	orders := map[string]bool{}
	for _, s := range report.Schedules {
		first := ""
		for _, r := range s.Order {
			if r == "R1" || r == "R2" {
				first = r
				break
			}
		}
		orders[first] = true
	}
	if !orders["R1"] || !orders["R2"] {
		t.Errorf("both R1-first and R2-first orders should be explored: %v", orders)
	}
}

func TestRetroBuggyCodeStillFails(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	// Re-serving with the ORIGINAL buggy handler must reproduce the bug in
	// at least one interleaving (in fact in all explored ones, since the
	// scheduler serialises the two-txn windows against each other).
	report, err := rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodle, RetroOptions{
		Invariant: workload.NoDuplicateSubscription,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.AllInvariantsHold() {
		t.Fatal("buggy code should violate the invariant in some interleaving")
	}
	// At least one schedule shows the duplicate AND R3's error.
	foundDup := false
	for _, s := range report.Schedules {
		if s.InvariantErr != nil && strings.Contains(s.InvariantErr.Error(), "duplicate") {
			foundDup = true
		}
	}
	if !foundDup {
		t.Error("no schedule surfaced the duplicate invariant violation")
	}
}

func TestRetroExploresTxnGranularInterleavings(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	report, err := rt.Run([]string{"R1", "R2"}, workload.RegisterMoodle, RetroOptions{
		Invariant: workload.NoDuplicateSubscription,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The buggy handler has 2 txns per request; interleavings of 2+2 txns
	// = C(4,2) = 6 schedules.
	if len(report.Schedules) != 6 {
		for _, s := range report.Schedules {
			t.Logf("order = %v", s.Order)
		}
		t.Errorf("schedules = %d, want 6", len(report.Schedules))
	}
	// The bad interleaving (check, check, insert, insert) must be among
	// them and must produce the duplicate.
	var badSeen, goodSeen bool
	for _, s := range report.Schedules {
		if s.InvariantErr != nil {
			badSeen = true
		} else {
			goodSeen = true
		}
	}
	if !badSeen {
		t.Error("no interleaving produced the duplicate")
	}
	if !goodSeen {
		t.Error("no interleaving avoided the duplicate (serial orders should)")
	}
}

// TestRetroConflictPruningReducesSchedules: one concurrent phase holding two
// conflicting requests (a subscribe race on the same forum) plus two
// commuting ones (messages into an untraced table, so their footprints are
// empty). Pruning must explore strictly fewer schedules and branch at
// strictly fewer points than naive enumeration.
func TestRetroConflictPruningReducesSchedules(t *testing.T) {
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	defer prod.Close()
	defer prov.Close()
	if err := workload.SetupMoodle(prod); err != nil {
		t.Fatal(err)
	}
	if err := workload.SetupProfiles(prod); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(prod)
	workload.RegisterMoodle(app)
	workload.RegisterProfiles(app)
	// Trace only the forum tables: the messages' outbox writes are untraced.
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.MoodleTables})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Every request's first transaction waits for all the others, so the
	// recorded execution intervals overlap into one phase.
	if err := workload.Overlap(app, []workload.Call{
		{ReqID: "R1", Handler: "subscribeUser", Args: runtime.Args{"userId": "U1", "forum": "F1"}},
		{ReqID: "R2", Handler: "subscribeUser", Args: runtime.Args{"userId": "U1", "forum": "F1"}},
		{ReqID: "R3", Handler: "sendMessage", Args: runtime.Args{"recipient": "u0@x", "body": "hi"}},
		{ReqID: "R4", Handler: "sendMessage", Args: runtime.Args{"recipient": "u1@x", "body": "hi"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	reqIDs := []string{"R1", "R2", "R3", "R4"}
	register := func(a *runtime.App) {
		workload.RegisterMoodle(a)
		workload.RegisterProfiles(a)
	}
	rt := New(prod, tr.Writer())
	pruned, err := rt.Run(reqIDs, register, RetroOptions{MaxSchedules: 256, SinglePhase: true})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := rt.Run(reqIDs, register, RetroOptions{MaxSchedules: 256, SinglePhase: true, DisableConflictPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Schedules) >= len(naive.Schedules) {
		t.Errorf("pruning did not reduce schedules: pruned %d, naive %d", len(pruned.Schedules), len(naive.Schedules))
	}
	if pruned.BranchedPoints >= naive.BranchedPoints {
		t.Errorf("pruning did not reduce branch points: pruned %d, naive %d", pruned.BranchedPoints, naive.BranchedPoints)
	}
}

func TestRetroMaxSchedulesBound(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	report, err := rt.Run([]string{"R1", "R2"}, workload.RegisterMoodle, RetroOptions{MaxSchedules: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Schedules) > 2 {
		t.Errorf("bound ignored: %d schedules", len(report.Schedules))
	}
	// Two of the six interleavings explored: the report must say the search
	// was cut, and an incomplete search cannot vouch for the invariant.
	if report.Complete {
		t.Error("a search cut by MaxSchedules reported Complete")
	}
	if report.AllInvariantsHold() {
		t.Error("AllInvariantsHold over an incomplete search")
	}
	full, err := rt.Run([]string{"R1", "R2"}, workload.RegisterMoodleFixed, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete || !full.AllInvariantsHold() {
		t.Errorf("default bound: complete %v, invariants hold %v over %d schedules",
			full.Complete, full.AllInvariantsHold(), len(full.Schedules))
	}
}

// TestRetroAppliesCommitsOutsideTheSet: production ran R1 (insert a=1), R2
// (set a=2) and R3 (read a). Retro over {R1, R3} with the unmodified
// handlers does not re-execute R2, so it must apply R2's recorded commit
// before R3 reads: R3 sees 2, as in production, and its result is not
// reported as changed.
func TestRetroAppliesCommitsOutsideTheSet(t *testing.T) {
	prod, prov := db.MustOpenMemory(), db.MustOpenMemory()
	defer prod.Close()
	defer prov.Close()
	if err := prod.ExecScript(`CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER);`); err != nil {
		t.Fatal(err)
	}
	register := func(a *runtime.App) {
		a.Register("put", func(c *runtime.Ctx, args runtime.Args) (any, error) {
			_, err := c.Exec("put", `INSERT INTO kv VALUES ('a', 1)`)
			return nil, err
		})
		a.Register("set", func(c *runtime.Ctx, args runtime.Args) (any, error) {
			_, err := c.Exec("set", `UPDATE kv SET v = 2 WHERE k = 'a'`)
			return nil, err
		})
		a.Register("get", func(c *runtime.Ctx, args runtime.Args) (any, error) {
			rows, err := c.Query("get", `SELECT v FROM kv WHERE k = 'a'`)
			if err != nil {
				return nil, err
			}
			return rows.Rows[0][0].AsInt(), nil
		})
	}
	app := runtime.New(prod)
	register(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: provenance.TableMap{"kv": "KvEvents"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, call := range [][2]string{{"R1", "put"}, {"R2", "set"}, {"R3", "get"}} {
		if _, err := app.InvokeWithReqID(call[0], call[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	report, err := New(prod, tr.Writer()).Run([]string{"R1", "R3"}, register, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Schedules) == 0 {
		t.Fatal("no schedule explored")
	}
	for _, s := range report.Schedules {
		for _, rq := range s.Requests {
			if rq.ReqID != "R3" {
				continue
			}
			if rq.ResultJSON != "2" || rq.ChangedFromOriginal {
				t.Errorf("schedule %v: R3 = %s (changed %v), production returned 2", s.Order, rq.ResultJSON, rq.ChangedFromOriginal)
			}
		}
	}
}

func TestRetroResultChangeDetection(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())

	// R3 alone: the snapshot is taken right before R3, which already holds
	// the duplicates — the retro run reproduces the original failure and
	// the result is NOT flagged as changed.
	report, err := rt.Run([]string{"R3"}, workload.RegisterMoodle, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Schedules) != 1 {
		t.Fatalf("schedules = %d", len(report.Schedules))
	}
	rq := report.Schedules[0].Requests[0]
	if rq.Err == nil {
		t.Error("R3 alone should reproduce the duplicate error")
	}
	if rq.ChangedFromOriginal {
		t.Error("identical failure should not be flagged as changed")
	}

	// The full set with the FIX: R3' now succeeds with a subscriber list —
	// a changed result, flagged.
	report, err = rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodleFixed, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range report.Schedules {
		for _, rq := range s.Requests {
			if rq.ReqID != "R3" {
				continue
			}
			if rq.Err != nil {
				t.Errorf("fixed R3' failed: %v", rq.Err)
			}
			if !rq.ChangedFromOriginal {
				t.Error("R3' result change not flagged")
			}
		}
	}
}

func TestRetroErrors(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	if _, err := rt.Run(nil, workload.RegisterMoodle, RetroOptions{}); err == nil {
		t.Error("empty request list should fail")
	}
	if _, err := rt.Run([]string{"R404"}, workload.RegisterMoodle, RetroOptions{}); err == nil {
		t.Error("unknown request should fail")
	}
}

func TestRetroMDL60669FixValidation(t *testing.T) {
	// The full §4.1 arc: the MDL-59854 patch is validated retroactively
	// against the recorded requests INCLUDING a course restore, revealing
	// the follow-on bug MDL-60669 (the patch does not clean up existing
	// duplicates in deleted courses).
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	defer prod.Close()
	defer prov.Close()
	if err := workload.SetupMoodle(prod); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(prod)
	workload.RegisterMoodle(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.MoodleTables})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if err := workload.Race(app, "subscribeUser", "DB.insert", "R1", "R2", u1f2, u1f2); err != nil {
		t.Fatal(err)
	}
	if _, err := app.InvokeWithReqID("R3", "deleteCourse", runtime.Args{"course": "C1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.InvokeWithReqID("R4", "restoreCourse", runtime.Args{"course": "C1"}); err == nil {
		t.Fatal("restore should fail in production (MDL-60669)")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	rt := New(prod, tr.Writer())
	report, err := rt.Run([]string{"R1", "R2", "R3", "R4"}, workload.RegisterMoodleFixed, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With the fix, the race no longer duplicates, so the restore succeeds
	// in the retro world — BUT the paper's point stands when duplicates
	// already exist. Verify both sides:
	for _, s := range report.Schedules {
		for _, rq := range s.Requests {
			if rq.ReqID == "R4" && rq.Err != nil {
				t.Errorf("retro restore failed under %v: %v", s.Order, rq.Err)
			}
		}
	}
}

// TestA3ConflictPruning is the conflict-pruning ablation: the MDL-59854
// subscribe race overlapped with three messages whose outbox writes are
// untraced (empty footprints, so they commute with everything). Pruning
// must explore strictly fewer schedules and branch at strictly fewer points
// than naive enumeration of the same phase.
func TestA3ConflictPruning(t *testing.T) {
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	defer prod.Close()
	defer prov.Close()
	if err := workload.SetupMoodle(prod); err != nil {
		t.Fatal(err)
	}
	if err := workload.SetupProfiles(prod); err != nil {
		t.Fatal(err)
	}
	register := func(a *runtime.App) {
		workload.RegisterMoodle(a)
		workload.RegisterProfiles(a)
	}
	app := runtime.New(prod)
	register(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.MoodleTables})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	calls := []workload.Call{
		{ReqID: "R1", Handler: "subscribeUser", Args: runtime.Args{"userId": "U1", "forum": "F1"}},
		{ReqID: "R2", Handler: "subscribeUser", Args: runtime.Args{"userId": "U1", "forum": "F1"}},
	}
	for i := 0; i < 3; i++ {
		calls = append(calls, workload.Call{ReqID: fmt.Sprintf("R%d", i+3), Handler: "sendMessage",
			Args: runtime.Args{"recipient": fmt.Sprintf("u%d@x", i), "body": "hi"}})
	}
	if err := workload.Overlap(app, calls); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	reqIDs := make([]string, len(calls))
	for i, c := range calls {
		reqIDs[i] = c.ReqID
	}
	rt := New(prod, tr.Writer())
	pruned, err := rt.Run(reqIDs, register, RetroOptions{MaxSchedules: 256, SinglePhase: true})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := rt.Run(reqIDs, register, RetroOptions{MaxSchedules: 256, SinglePhase: true, DisableConflictPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Schedules) >= len(naive.Schedules) {
		t.Errorf("pruning did not reduce schedules: pruned %d, naive %d", len(pruned.Schedules), len(naive.Schedules))
	}
	if pruned.BranchedPoints >= naive.BranchedPoints {
		t.Errorf("pruning did not reduce branch points: pruned %d, naive %d", pruned.BranchedPoints, naive.BranchedPoints)
	}
}
