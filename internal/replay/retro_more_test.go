package replay

import (
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestSchedulesAreDistinct(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	report, err := rt.Run([]string{"R1", "R2"}, workload.RegisterMoodle, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range report.Schedules {
		key := strings.Join(s.Order, ",")
		if seen[key] {
			t.Errorf("duplicate schedule %v", s.Order)
		}
		seen[key] = true
	}
}

func TestRetroDeterministicAcrossRuns(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	r1, err := rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodleFixed, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodleFixed, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Schedules) != len(r2.Schedules) {
		t.Fatalf("schedule counts differ: %d vs %d", len(r1.Schedules), len(r2.Schedules))
	}
	for i := range r1.Schedules {
		a := strings.Join(r1.Schedules[i].Order, ",")
		b := strings.Join(r2.Schedules[i].Order, ",")
		if a != b {
			t.Errorf("schedule %d differs: %s vs %s", i, a, b)
		}
		for j := range r1.Schedules[i].Requests {
			ra := r1.Schedules[i].Requests[j]
			rb := r2.Schedules[i].Requests[j]
			if ra.ResultJSON != rb.ResultJSON || (ra.Err == nil) != (rb.Err == nil) {
				t.Errorf("schedule %d request %s nondeterministic: %q/%v vs %q/%v",
					i, ra.ReqID, ra.ResultJSON, ra.Err, rb.ResultJSON, rb.Err)
			}
		}
	}
}

func TestSinglePhaseOverridesIntervals(t *testing.T) {
	// R1 and R3 did NOT overlap in production, but SinglePhase forces them
	// concurrent: the fetch (R3) can now run before the subscribes and see
	// different results across schedules.
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	multi, err := rt.Run([]string{"R1", "R3"}, workload.RegisterMoodle, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Phases) != 2 {
		t.Fatalf("interval phases = %v", multi.Phases)
	}
	single, err := rt.Run([]string{"R1", "R3"}, workload.RegisterMoodle, RetroOptions{SinglePhase: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Phases) != 1 || len(single.Phases[0]) != 2 {
		t.Fatalf("single phases = %v", single.Phases)
	}
	if len(single.Schedules) <= len(multi.Schedules) {
		t.Errorf("single phase should explore more orders: %d vs %d",
			len(single.Schedules), len(multi.Schedules))
	}
}

func TestRetroHandlerErrorDoesNotAbortExploration(t *testing.T) {
	prod, tr := scenario(t)
	rt := New(prod, tr.Writer())
	// The buggy code makes R3 fail in the bad interleavings; all schedules
	// must still complete and be reported.
	report, err := rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodle, RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Schedules) < 6 {
		t.Fatalf("schedules = %d", len(report.Schedules))
	}
	sawError, sawSuccess := false, false
	for _, s := range report.Schedules {
		for _, rq := range s.Requests {
			if rq.ReqID != "R3" {
				continue
			}
			if rq.Err != nil {
				sawError = true
			} else {
				sawSuccess = true
			}
		}
	}
	if !sawError || !sawSuccess {
		t.Errorf("R3 outcomes not interleaving-dependent: err=%v ok=%v", sawError, sawSuccess)
	}
}

func TestRetroAcrossRPCWorkflow(t *testing.T) {
	// The travel bookTrip calls chargeCustomer via RPC: its transactions
	// must be gated under the SAME request in the scheduler.
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	defer prod.Close()
	defer prov.Close()
	if err := workload.SetupTravel(prod); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(prod)
	workload.RegisterTravel(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.TravelTables})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := app.InvokeWithReqID("R1", "bookTrip", runtime.Args{"flightId": "F100", "customer": "early"}); err != nil {
		t.Fatal(err)
	}
	if err := workload.Race(app, "bookTrip", "recordBooking", "R2", "R3",
		runtime.Args{"flightId": "F100", "customer": "a"},
		runtime.Args{"flightId": "F100", "customer": "b"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	rt := New(prod, tr.Writer())
	report, err := rt.Run([]string{"R2", "R3"}, workload.RegisterTravelFixed, RetroOptions{
		MaxSchedules: 32,
		Invariant:    workload.NoOversoldFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fixed bookTrip has 3 txns (insertPayment, bookAtomic, link/void):
	// interleavings of 3+3 = C(6,3) = 20 schedules.
	if len(report.Schedules) != 20 {
		t.Errorf("schedules = %d, want 20", len(report.Schedules))
	}
	if !report.AllInvariantsHold() {
		t.Error("fixed travel code failed an interleaving")
	}
	// Exactly one racer wins the seat in every schedule.
	for _, s := range report.Schedules {
		wins := 0
		for _, rq := range s.Requests {
			if rq.Err != nil {
				t.Errorf("request error under %v: %v", s.Order, rq.Err)
			}
			if rq.ResultJSON != `"sold-out"` {
				wins++
			}
		}
		if wins != 1 {
			t.Errorf("schedule %v: %d winners, want 1", s.Order, wins)
		}
	}
}
