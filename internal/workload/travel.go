package workload

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
)

// TravelSchema models the travel-reservation web service the paper's
// introduction motivates: flights with finite seats, bookings, and
// payments, operated by a multi-handler workflow.
const TravelSchema = `
CREATE TABLE flights (flightId TEXT PRIMARY KEY, origin TEXT, dest TEXT, seats INTEGER, booked INTEGER);
CREATE TABLE bookings (bookingId INTEGER PRIMARY KEY, flightId TEXT, customer TEXT, state TEXT);
CREATE TABLE payments (paymentId INTEGER PRIMARY KEY, bookingId INTEGER, customer TEXT, amount INTEGER, state TEXT);
`

// TravelTables maps the travel service's tables to provenance event tables.
var TravelTables = provenance.TableMap{
	"flights":  "FlightEvents",
	"bookings": "BookingEvents",
	"payments": "PaymentEvents",
}

// SetupTravel creates the schema and seeds flights.
func SetupTravel(d *db.DB) error {
	if err := d.ExecScript(TravelSchema); err != nil {
		return err
	}
	return d.ExecScript(`
		INSERT INTO flights VALUES ('F100', 'SFO', 'JFK', 2, 0), ('F200', 'JFK', 'AMS', 50, 0);
	`)
}

// RegisterTravel installs the BUGGY booking workflow. bookTrip is the
// entry handler: it checks availability, charges the customer (an RPC to
// the payments handler), and then records the booking while incrementing
// the seat counter — availability check and seat increment in different
// transactions, so two concurrent bookings for the last seat both pass the
// check and the flight oversells (a classic TOCTOU, same family as
// MDL-59854 but with a quantitative symptom).
func RegisterTravel(app *runtime.App) {
	app.Register("bookTrip", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		flight, customer := args.String("flightId"), args.String("customer")

		// 1st transaction: availability check.
		var available bool
		if err := c.Txn("checkSeats", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT seats, booked FROM flights WHERE flightId = ?`, flight)
			if err != nil {
				return err
			}
			if len(rows.Rows) == 0 {
				return fmt.Errorf("bookTrip: no flight %s", flight)
			}
			available = rows.Rows[0][1].AsInt() < rows.Rows[0][0].AsInt()
			return nil
		}); err != nil {
			return nil, err
		}
		if !available {
			return "sold-out", nil
		}

		// Charge via RPC (its own handler, its own transaction).
		payRes, err := c.Call("chargeCustomer", runtime.Args{"customer": customer, "amount": 450})
		if err != nil {
			return nil, err
		}
		paymentID := payRes.(int64)

		// 2nd transaction: record booking + bump the counter. The check is
		// NOT revalidated — the bug window.
		var bookingID int64
		if err := c.Txn("recordBooking", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT COALESCE(MAX(bookingId), 0) FROM bookings`)
			if err != nil {
				return err
			}
			bookingID = rows.Rows[0][0].AsInt() + 1
			if _, err := tx.Exec(`INSERT INTO bookings VALUES (?, ?, ?, 'confirmed')`, bookingID, flight, customer); err != nil {
				return err
			}
			cur, err := tx.Query(`SELECT booked FROM flights WHERE flightId = ?`, flight)
			if err != nil {
				return err
			}
			_, err = tx.Exec(`UPDATE flights SET booked = ? WHERE flightId = ?`, cur.Rows[0][0].AsInt()+1, flight)
			return err
		}); err != nil {
			return nil, err
		}
		// Link the payment to the booking.
		if _, err := c.Exec("linkPayment", `UPDATE payments SET bookingId = ?, state = 'captured' WHERE paymentId = ?`, bookingID, paymentID); err != nil {
			return nil, err
		}
		c.External("email", fmt.Sprintf("confirmation for %s", customer))
		return bookingID, nil
	})

	app.Register("chargeCustomer", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		customer, amount := args.String("customer"), args.Int("amount")
		var paymentID int64
		err := c.Txn("insertPayment", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT COALESCE(MAX(paymentId), 0) FROM payments`)
			if err != nil {
				return err
			}
			paymentID = rows.Rows[0][0].AsInt() + 1
			_, err = tx.Exec(`INSERT INTO payments VALUES (?, 0, ?, ?, 'authorized')`, paymentID, customer, amount)
			return err
		})
		if err != nil {
			return nil, err
		}
		return paymentID, nil
	})

	registerTravelCommon(app)
}

// RegisterTravelFixed installs the patched bookTrip: the availability check
// and the booking+counter update run in ONE transaction, so the
// serializable database rejects the second booking of the last seat (OCC
// conflict → retry → sees the flight full → sold-out).
func RegisterTravelFixed(app *runtime.App) {
	app.Register("bookTrip", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		flight, customer := args.String("flightId"), args.String("customer")
		payRes, err := c.Call("chargeCustomer", runtime.Args{"customer": customer, "amount": 450})
		if err != nil {
			return nil, err
		}
		paymentID := payRes.(int64)

		var bookingID int64
		soldOut := false
		if err := c.Txn("bookAtomic", func(tx *db.Tx) error {
			soldOut = false
			rows, err := tx.Query(`SELECT seats, booked FROM flights WHERE flightId = ?`, flight)
			if err != nil {
				return err
			}
			if len(rows.Rows) == 0 {
				return fmt.Errorf("bookTrip: no flight %s", flight)
			}
			seats, booked := rows.Rows[0][0].AsInt(), rows.Rows[0][1].AsInt()
			if booked >= seats {
				soldOut = true
				return nil
			}
			ids, err := tx.Query(`SELECT COALESCE(MAX(bookingId), 0) FROM bookings`)
			if err != nil {
				return err
			}
			bookingID = ids.Rows[0][0].AsInt() + 1
			if _, err := tx.Exec(`INSERT INTO bookings VALUES (?, ?, ?, 'confirmed')`, bookingID, flight, customer); err != nil {
				return err
			}
			_, err = tx.Exec(`UPDATE flights SET booked = ? WHERE flightId = ?`, booked+1, flight)
			return err
		}); err != nil {
			return nil, err
		}
		if soldOut {
			// Compensate the authorized payment.
			if _, err := c.Exec("voidPayment", `UPDATE payments SET state = 'voided' WHERE paymentId = ?`, paymentID); err != nil {
				return nil, err
			}
			return "sold-out", nil
		}
		if _, err := c.Exec("linkPayment", `UPDATE payments SET bookingId = ?, state = 'captured' WHERE paymentId = ?`, bookingID, paymentID); err != nil {
			return nil, err
		}
		c.External("email", fmt.Sprintf("confirmation for %s", customer))
		return bookingID, nil
	})
	// chargeCustomer is unchanged in the fix.
	app.Register("chargeCustomer", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		customer, amount := args.String("customer"), args.Int("amount")
		var paymentID int64
		err := c.Txn("insertPayment", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT COALESCE(MAX(paymentId), 0) FROM payments`)
			if err != nil {
				return err
			}
			paymentID = rows.Rows[0][0].AsInt() + 1
			_, err = tx.Exec(`INSERT INTO payments VALUES (?, 0, ?, ?, 'authorized')`, paymentID, customer, amount)
			return err
		})
		if err != nil {
			return nil, err
		}
		return paymentID, nil
	})
	registerTravelCommon(app)
}

func registerTravelCommon(app *runtime.App) {
	// auditFlight raises an error when a flight is oversold or its counter
	// disagrees with the bookings table — the symptom handler.
	app.Register("auditFlight", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		flight := args.String("flightId")
		var report string
		err := c.Txn("DB.audit", func(tx *db.Tx) error {
			f, err := tx.Query(`SELECT seats, booked FROM flights WHERE flightId = ?`, flight)
			if err != nil {
				return err
			}
			if len(f.Rows) == 0 {
				return fmt.Errorf("auditFlight: no flight %s", flight)
			}
			seats, booked := f.Rows[0][0].AsInt(), f.Rows[0][1].AsInt()
			b, err := tx.Query(`SELECT COUNT(*) FROM bookings WHERE flightId = ? AND state = 'confirmed'`, flight)
			if err != nil {
				return err
			}
			actual := b.Rows[0][0].AsInt()
			if actual != booked {
				return fmt.Errorf("auditFlight: counter %d != confirmed bookings %d", booked, actual)
			}
			if booked > seats {
				return fmt.Errorf("auditFlight: flight %s oversold (%d/%d)", flight, booked, seats)
			}
			report = fmt.Sprintf("%d/%d", booked, seats)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return report, nil
	})

	// cancelBooking frees the seat and refunds.
	app.Register("cancelBooking", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		bookingID := args.Int("bookingId")
		err := c.Txn("DB.cancel", func(tx *db.Tx) error {
			b, err := tx.Query(`SELECT flightId, state FROM bookings WHERE bookingId = ?`, bookingID)
			if err != nil {
				return err
			}
			if len(b.Rows) == 0 || b.Rows[0][1].AsText() != "confirmed" {
				return fmt.Errorf("cancelBooking: booking %d not cancellable", bookingID)
			}
			flight := b.Rows[0][0].AsText()
			if _, err := tx.Exec(`UPDATE bookings SET state = 'cancelled' WHERE bookingId = ?`, bookingID); err != nil {
				return err
			}
			f, err := tx.Query(`SELECT booked FROM flights WHERE flightId = ?`, flight)
			if err != nil {
				return err
			}
			if _, err := tx.Exec(`UPDATE flights SET booked = ? WHERE flightId = ?`, f.Rows[0][0].AsInt()-1, flight); err != nil {
				return err
			}
			_, err = tx.Exec(`UPDATE payments SET state = 'refunded' WHERE bookingId = ?`, bookingID)
			return err
		})
		if err != nil {
			return nil, err
		}
		return true, nil
	})
}

// NoOversoldFlight is the overbooking race's retroactive invariant: no
// flight has more bookings than seats.
func NoOversoldFlight(dev *db.DB) error {
	r, err := firstRow(dev, `SELECT flightId FROM flights WHERE booked > seats`)
	if r != nil {
		err = fmt.Errorf("flight %s oversold", r[0].AsText())
	}
	return err
}
