package trod_test

import (
	"fmt"
	"sort"

	trod "repro"
	"repro/internal/workload"
)

// Example_travel is the travel-reservation service the paper opens with.
// bookTrip checks for a free seat in one transaction, charges the customer
// through an RPC, and books in another, so two customers racing for the
// last seat of F100 both get it. TROD locates, replays and retro-tests the
// overbooking, and the same provenance answers the §5 questions:
// per-handler request counts, and which request wrote the bad data.
func Example_travel() {
	sys := must(trod.NewSystem(trod.Config{
		Schema: workload.TravelSchema + `
			INSERT INTO flights VALUES ('F100', 'SFO', 'JFK', 2, 0), ('F200', 'JFK', 'AMS', 50, 0);`,
		TraceTables: workload.TravelTables,
	}))
	defer sys.Close()
	workload.RegisterTravel(sys.App)

	must(sys.App.InvokeWithReqID("R1", "bookTrip", trod.Args{"flightId": "F100", "customer": "early-bird"}))
	check(workload.Race(sys.App, "bookTrip", "recordBooking", "R2", "R3",
		trod.Args{"flightId": "F100", "customer": "alice"},
		trod.Args{"flightId": "F100", "customer": "bob"}))
	_, auditErr := sys.App.InvokeWithReqID("R4", "auditFlight", trod.Args{"flightId": "F100"})
	fmt.Println("R4:", auditErr)
	check(sys.Flush())

	fmt.Println("\n== Bookings on F100, in commit order ==")
	bookings := must(sys.Prov.Query(`SELECT E.Timestamp, E.ReqId, B.customer
		FROM Executions as E, BookingEvents as B ON E.TxnId = B.TxnId
		WHERE B.Type = 'Insert' AND B.flightId = 'F100'
		ORDER BY E.Timestamp`))
	fmt.Print(trod.FormatRows(bookings))

	late := bookings.Rows[2][1].AsText()
	fmt.Printf("\n== Replay %s ==\n", late)
	report := must(sys.Replayer().Replay(late, workload.RegisterTravel, trod.ReplayOptions{}))
	for i, st := range report.Steps {
		fmt.Printf("step %d %s: %d foreign change(s)\n", i, st.Func, len(st.Injected))
	}
	fmt.Println("foreign writers:", report.ForeignWriters)
	fixed := must(sys.Retro().Run([]string{"R2", "R3"}, workload.RegisterTravelFixed,
		trod.RetroOptions{Invariant: workload.NoOversoldFlight}))
	fmt.Println("fix schedules:", len(fixed.Schedules))
	printCase("Travel overbooking", auditErr != nil, len(bookings.Rows) == 3,
		!report.Diverged && len(report.ForeignWriters) == 1, fixed.AllInvariantsHold())

	fmt.Println("\n== §5 performance debugging: requests per handler ==")
	for i := 0; i < 10; i++ {
		must(sys.App.Invoke("bookTrip", trod.Args{"flightId": "F200", "customer": fmt.Sprintf("c%d", i)}))
	}
	check(sys.Flush())
	stats := must(sys.Tracer.Writer().HandlerLatencyStats())
	sort.Slice(stats, func(i, j int) bool { return stats[i].Handler < stats[j].Handler })
	for _, s := range stats {
		fmt.Printf("%s: %d requests, %d errors\n", s.Handler, s.Requests, s.Errors)
	}

	fmt.Println("\n== §5 data-quality debugging: who oversold a flight? ==")
	bad := must(sys.Tracer.Writer().CheckDataQuality("flights", func(r trod.Row) string {
		if seats, booked := r[3].AsInt(), r[4].AsInt(); booked > seats { // flightId, origin, dest, seats, booked
			return fmt.Sprintf("booked %d of %d seats", booked, seats)
		}
		return ""
	}))
	for _, v := range bad {
		fmt.Printf("%s (%s): %s\n", v.ReqID, v.Handler, v.Reason)
	}
	// Output:
	// R4: auditFlight: flight F100 oversold (3/2)
	//
	// == Bookings on F100, in commit order ==
	// Timestamp  ReqId  customer
	// ---------  -----  --------
	// 7          R1     early-bird
	// 23         R3     bob
	// 29         R2     alice
	//
	// == Replay R2 ==
	// step 0 checkSeats: 0 foreign change(s)
	// step 1 insertPayment: 0 foreign change(s)
	// step 2 recordBooking: 4 foreign change(s)
	// step 3 linkPayment: 0 foreign change(s)
	// foreign writers: [R3]
	// fix schedules: 20
	// Travel overbooking: reproduced=true located=true replayed=true fix-validated=true
	//
	// == §5 performance debugging: requests per handler ==
	// auditFlight: 1 requests, 1 errors
	// bookTrip: 13 requests, 0 errors
	//
	// == §5 data-quality debugging: who oversold a flight? ==
	// R2 (bookTrip): booked 3 of 2 seats
}
