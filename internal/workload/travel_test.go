package workload

import (
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/runtime"
)

func newTravel(t *testing.T, fixed bool) *runtime.App {
	t.Helper()
	d := db.MustOpenMemory()
	t.Cleanup(func() { d.Close() })
	if err := SetupTravel(d); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(d)
	if fixed {
		RegisterTravelFixed(app)
	} else {
		RegisterTravel(app)
	}
	return app
}

func TestTravelHappyPath(t *testing.T) {
	app := newTravel(t, false)
	res, err := app.Invoke("bookTrip", runtime.Args{"flightId": "F100", "customer": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	bookingID := res.(int64)
	if bookingID != 1 {
		t.Errorf("bookingId = %d", bookingID)
	}
	if audit, err := app.Invoke("auditFlight", runtime.Args{"flightId": "F100"}); err != nil || audit != "1/2" {
		t.Errorf("audit = %v, %v", audit, err)
	}
	// Payment captured and linked.
	rows, _ := app.DB().Query(`SELECT state FROM payments WHERE bookingId = ?`, bookingID)
	if len(rows.Rows) != 1 || rows.Rows[0][0].AsText() != "captured" {
		t.Errorf("payment = %v", rows.Rows)
	}
	// Fill the flight, then it's sold out.
	if _, err := app.Invoke("bookTrip", runtime.Args{"flightId": "F100", "customer": "bob"}); err != nil {
		t.Fatal(err)
	}
	res, err = app.Invoke("bookTrip", runtime.Args{"flightId": "F100", "customer": "carol"})
	if err != nil || res != "sold-out" {
		t.Errorf("third booking = %v, %v", res, err)
	}
	// Unknown flight errors.
	if _, err := app.Invoke("bookTrip", runtime.Args{"flightId": "F404", "customer": "x"}); err == nil {
		t.Error("unknown flight should fail")
	}
}

func TestTravelCancelFreesSeat(t *testing.T) {
	app := newTravel(t, false)
	res, err := app.Invoke("bookTrip", runtime.Args{"flightId": "F100", "customer": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Invoke("cancelBooking", runtime.Args{"bookingId": res.(int64)}); err != nil {
		t.Fatal(err)
	}
	if audit, err := app.Invoke("auditFlight", runtime.Args{"flightId": "F100"}); err != nil || audit != "0/2" {
		t.Errorf("after cancel audit = %v, %v", audit, err)
	}
	rows, _ := app.DB().Query(`SELECT state FROM payments`)
	if rows.Rows[0][0].AsText() != "refunded" {
		t.Errorf("payment = %v", rows.Rows)
	}
	// Double cancel fails.
	if _, err := app.Invoke("cancelBooking", runtime.Args{"bookingId": res.(int64)}); err == nil {
		t.Error("double cancel should fail")
	}
}

// takeFirstSeat books one of flight F100's two seats, leaving the last one
// for the racers.
func takeFirstSeat(t *testing.T, app *runtime.App) {
	t.Helper()
	if _, err := app.Invoke("bookTrip", runtime.Args{"flightId": "F100", "customer": "early"}); err != nil {
		t.Fatal(err)
	}
}

var alice, bob = runtime.Args{"flightId": "F100", "customer": "alice"}, runtime.Args{"flightId": "F100", "customer": "bob"}

func TestTravelOverbookingRace(t *testing.T) {
	app := newTravel(t, false)
	takeFirstSeat(t, app)
	// Both availability checks pass before either booking records.
	if err := Race(app, "bookTrip", "recordBooking", "R100", "R101", alice, bob); err != nil {
		t.Fatal(err)
	}
	_, err := app.Invoke("auditFlight", runtime.Args{"flightId": "F100"})
	if err == nil || !strings.Contains(err.Error(), "oversold") {
		t.Fatalf("expected oversell, got %v", err)
	}
	rows, _ := app.DB().Query(`SELECT booked FROM flights WHERE flightId = 'F100'`)
	if rows.Rows[0][0].AsInt() != 3 {
		t.Errorf("booked = %v, want 3 (2 seats oversold by 1)", rows.Rows[0][0])
	}
}

func TestTravelFixedSurvivesRace(t *testing.T) {
	setup := func() *runtime.App {
		app := newTravel(t, true)
		takeFirstSeat(t, app)
		return app
	}
	raceAtomic(t, setup, "bookAtomic", Call{"R100", "bookTrip", alice}, Call{"R101", "bookTrip", bob},
		func(app *runtime.App) {
			audit, err := app.Invoke("auditFlight", runtime.Args{"flightId": "F100"})
			if err != nil {
				t.Fatalf("fixed variant oversold: %v", err)
			}
			if audit != "2/2" {
				t.Errorf("audit = %v", audit)
			}
			// Exactly one of the racers got the seat; the loser's payment voided.
			rows, _ := app.DB().Query(`SELECT COUNT(*) FROM payments WHERE state = 'voided'`)
			if rows.Rows[0][0].AsInt() != 1 {
				t.Errorf("voided payments = %v, want 1", rows.Rows[0][0])
			}
		})
}

func TestTravelWorkflowTracing(t *testing.T) {
	// The booking workflow spans handlers; check RPC edges land in traces.
	d := db.MustOpenMemory()
	defer d.Close()
	if err := SetupTravel(d); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(d)
	RegisterTravel(app)
	var edges int
	app.SetObserver(edgeCounter{&edges})
	if _, err := app.InvokeWithReqID("R1", "bookTrip", runtime.Args{"flightId": "F200", "customer": "x"}); err != nil {
		t.Fatal(err)
	}
	if edges != 2 { // bookTrip entry + chargeCustomer RPC
		t.Errorf("invocation edges = %d, want 2", edges)
	}
}

type edgeCounter struct{ n *int }

func (e edgeCounter) RequestStart(runtime.RequestInfo)  {}
func (e edgeCounter) RequestEnd(runtime.RequestInfo)    {}
func (e edgeCounter) Invocation(runtime.InvocationInfo) { *e.n++ }
func (e edgeCounter) External(runtime.ExternalCall)     {}
