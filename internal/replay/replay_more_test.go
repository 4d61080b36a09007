package replay

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

// travelScenario reproduces the overbooking race with tracing.
func travelScenario(t *testing.T) (*db.DB, *trace.Tracer, string) {
	t.Helper()
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	t.Cleanup(func() { prod.Close(); prov.Close() })
	if err := workload.SetupTravel(prod); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(prod)
	workload.RegisterTravel(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.TravelTables})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if _, err := app.InvokeWithReqID("R1", "bookTrip", runtime.Args{"flightId": "F100", "customer": "early"}); err != nil {
		t.Fatal(err)
	}
	if err := workload.Race(app, "bookTrip", "recordBooking", "R2", "R3",
		runtime.Args{"flightId": "F100", "customer": "alice"},
		runtime.Args{"flightId": "F100", "customer": "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := prov.Query(`SELECT E.ReqId FROM Executions as E, BookingEvents as B
		ON E.TxnId = B.TxnId WHERE B.Type = 'Insert' ORDER BY E.Timestamp`)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("scenario bookings: %v, %v", res, err)
	}
	return prod, tr, res.Rows[2][0].AsText()
}

func TestReplayAcrossRPCWorkflow(t *testing.T) {
	prod, tr, late := travelScenario(t)
	rp := New(prod, tr.Writer())
	report, err := rp.Replay(late, workload.RegisterTravel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Diverged {
		t.Fatalf("RPC-spanning replay diverged: %v", report.Diffs)
	}
	// bookTrip runs 4 txns: checkSeats, insertPayment (via RPC),
	// recordBooking, linkPayment — all replayed under one request.
	if len(report.Steps) != 4 {
		t.Fatalf("steps = %d (%+v)", len(report.Steps), report.Steps)
	}
	labels := []string{"checkSeats", "insertPayment", "recordBooking", "linkPayment"}
	for i, want := range labels {
		if report.Steps[i].Func != want {
			t.Errorf("step %d = %q, want %q", i, report.Steps[i].Func, want)
		}
	}
	// The foreign writes (the other racer's booking) arrive before
	// recordBooking.
	if len(report.Steps[2].Injected) == 0 {
		t.Error("no foreign changes before recordBooking")
	}
	if len(report.ForeignWriters) != 1 {
		t.Errorf("foreign writers = %v", report.ForeignWriters)
	}
}

func TestReplayExternalCallsNotDuplicated(t *testing.T) {
	// The original bookTrip sent a confirmation email; replay must not
	// re-send (the runtime's idempotency is per-request, and the replay app
	// is fresh, so this documents the behaviour: the dev app's external
	// mock records the call locally, production state untouched).
	prod, tr, late := travelScenario(t)
	rp := New(prod, tr.Writer())
	if _, err := rp.Replay(late, workload.RegisterTravel, Options{}); err != nil {
		t.Fatal(err)
	}
	// Production provenance still shows exactly the original externals.
	res, err := tr.Prov().Query(`SELECT COUNT(*) FROM trod_externals`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 3 { // three successful bookings, one email each
		t.Errorf("externals = %v, want 3", res.Rows[0][0])
	}
}

func TestReplayBreakpointOrdering(t *testing.T) {
	prod, tr, late := travelScenario(t)
	rp := New(prod, tr.Writer())
	var steps []int
	_, err := rp.Replay(late, workload.RegisterTravel, Options{
		OnBreakpoint: func(bp Breakpoint) {
			steps = append(steps, bp.Step)
			if bp.ReqID != late {
				t.Errorf("breakpoint req = %q", bp.ReqID)
			}
			if bp.Dev == nil {
				t.Error("breakpoint without dev DB")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		if s != i {
			t.Errorf("breakpoint order = %v", steps)
			break
		}
	}
}

// TestReplayFailsLoudlyOnTruncatedCDC pins the log-retention contract: when
// the production change log no longer reaches back to the replayed
// request's snapshot (a vacuum released the prefix), Replay must refuse with
// a clear error instead of injecting a silently incomplete foreign history.
func TestReplayFailsLoudlyOnTruncatedCDC(t *testing.T) {
	prod, tr, late := travelScenario(t)
	rp := New(prod, tr.Writer())

	// Sanity: replay works while the log is intact.
	if _, err := rp.Replay(late, workload.RegisterTravel, Options{}); err != nil {
		t.Fatal(err)
	}

	// Release the whole log prefix, as a checkpoint's vacuum under
	// HistoryRetention would.
	prod.Store().Vacuum(prod.Store().CurrentSeq())
	_, err := rp.Replay(late, workload.RegisterTravel, Options{})
	if err == nil {
		t.Fatal("replay over a truncated CDC log must fail loudly")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error should name the truncation: %v", err)
	}
}

// TestReplayMapsStepsToBlocks: a handler that tolerates a failed
// transaction block and then runs another replays without divergence. The
// failed block was recorded as an attempt that did not commit; it is step 0
// of the replay, and the commit that followed is step 1.
func TestReplayMapsStepsToBlocks(t *testing.T) {
	prod, prov := db.MustOpenMemory(), db.MustOpenMemory()
	t.Cleanup(func() { prod.Close(); prov.Close() })
	if err := prod.ExecScript(`CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	errNotYet := errors.New("not yet")
	register := func(app *runtime.App) {
		app.Register("tryThenPut", func(c *runtime.Ctx, _ runtime.Args) (any, error) {
			err := c.Txn("try", func(tx *db.Tx) error {
				if _, err := tx.Exec(`INSERT INTO kv VALUES ('a', 1)`); err != nil {
					return err
				}
				return errNotYet
			})
			if !errors.Is(err, errNotYet) {
				return nil, fmt.Errorf("try: %v", err)
			}
			if _, err := c.Exec("put", `INSERT INTO kv VALUES ('b', 2)`); err != nil {
				return nil, err
			}
			return "put", nil
		})
	}
	app := runtime.New(prod)
	register(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: provenance.TableMap{"kv": "KvEvents"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if _, err := app.InvokeWithReqID("R1", "tryThenPut", runtime.Args{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	report, err := New(prod, tr.Writer()).Replay("R1", register, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Diverged {
		t.Fatalf("an unmodified handler diverged on replay: %v", report.Diffs)
	}
	if len(report.Steps) != 2 || report.Steps[0].Func != "try" || report.Steps[1].Func != "put" {
		t.Fatalf("steps = %+v, want try then put", report.Steps)
	}
	for i, st := range report.Steps {
		ex, err := tr.Writer().ExecutionByTxn(st.OriginalTxnID)
		if err != nil || ex.Func != st.Func || ex.Committed != (i == 1) {
			t.Errorf("step %d (%s) maps to %+v, %v; want its own block's attempt", i, st.Func, ex, err)
		}
	}
}
