package experiments

import (
	"fmt"
	"testing"

	"repro/internal/db"
	"repro/internal/retro"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestE3ThroughE7Scenario(t *testing.T) {
	sc, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	t1, err := RunE3Table1(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Committed txns: 2 checks + 2 inserts + 1 fetch = at least 5.
	if len(t1.Rows) < 5 {
		t.Errorf("Table 1 rows = %d", len(t1.Rows))
	}
	t2, err := RunE4Table2(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) < 4 {
		t.Errorf("Table 2 rows = %d", len(t2.Rows))
	}
	if _, err := RunE5DebugQuery(sc); err != nil {
		t.Errorf("E5: %v", err)
	}
	if _, err := RunE6Replay(sc); err != nil {
		t.Errorf("E6: %v", err)
	}
	if _, err := RunE7Retro(sc); err != nil {
		t.Errorf("E7: %v", err)
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
	rt := retro.New(prod, tr.Writer())
	pruned, err := rt.Run(reqIDs, register, retro.Options{MaxSchedules: 256, SinglePhase: true})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := rt.Run(reqIDs, register, retro.Options{MaxSchedules: 256, SinglePhase: true, DisableConflictPruning: true})
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

func TestE8E9Security(t *testing.T) {
	sc, err := NewSecurityScenario()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := RunE8AccessControl(sc); err != nil {
		t.Errorf("E8: %v", err)
	}
	if _, err := RunE9Exfiltration(sc); err != nil {
		t.Errorf("E9: %v", err)
	}
}

func TestE10CaseStudies(t *testing.T) {
	results, err := RunE10CaseStudies()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("case studies = %d", len(results))
	}
	for _, r := range results {
		if !r.Located {
			t.Errorf("%s: provenance did not locate the culprits", r.Bug)
		}
		if !r.Replayed {
			t.Errorf("%s: replay not faithful", r.Bug)
		}
		if !r.FixValidated {
			t.Errorf("%s: fix not validated", r.Bug)
		}
		// MW-39225 manifests only on some interleavings; the others must
		// reproduce deterministically.
		if r.Bug != "MW-39225 (wrong article sizes)" && !r.Reproduced {
			t.Errorf("%s: did not reproduce", r.Bug)
		}
	}
}
