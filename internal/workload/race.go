package workload

import (
	"sync"

	"repro/internal/db"
	"repro/internal/runtime"
	"repro/internal/value"
)

// Race drives two requests of handler through the racing interleaving the
// paper's case studies share, in lockstep: A runs up to its first
// transaction labelled gate, then B does; B goes through the gate and
// finishes, and only then does A go through. Both requests have passed
// whatever check precedes the gate before either acts on it, B's write
// commits first, and every run produces the same history. A request that
// finishes without reaching the gate is not waited for at it. Race returns
// the first request error; the interceptor is reset afterwards. Race never
// runs the two gate transactions at once; Overlap does.
func Race(app *runtime.App, handler, gate, reqA, reqB string, argsA, argsB runtime.Args) error {
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	g := &lockstep{
		gate: gate,
		held: map[string]chan struct{}{reqA: releaseA, reqB: releaseB},
		at:   make(chan struct{}),
	}
	app.SetTxnInterceptor(g)
	defer app.SetTxnInterceptor(nil)

	// toGate starts a request and returns once it waits at the gate or has
	// finished; its error arrives on the returned channel.
	toGate := func(req string, args runtime.Args) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := app.InvokeWithReqID(req, handler, args)
			done <- err
		}()
		select {
		case <-g.at:
		case err := <-done:
			done <- err
		}
		return done
	}
	doneA := toGate(reqA, argsA)
	doneB := toGate(reqB, argsB)
	close(releaseB)
	errB := <-doneB
	close(releaseA)
	errA := <-doneA
	if errB != nil {
		return errB
	}
	return errA
}

// lockstep holds each racing request at its first gate transaction until
// Race releases it.
type lockstep struct {
	gate string
	mu   sync.Mutex
	held map[string]chan struct{} // requests not yet at the gate, and their release
	at   chan struct{}            // a request has reached the gate
}

// Before implements runtime.TxnInterceptor.
func (g *lockstep) Before(c *runtime.Ctx, label string) error {
	if label != g.gate {
		return nil
	}
	g.mu.Lock()
	release, ok := g.held[c.ReqID]
	delete(g.held, c.ReqID)
	g.mu.Unlock()
	if ok {
		g.at <- struct{}{}
		<-release
	}
	return nil
}

// After implements runtime.TxnInterceptor.
func (g *lockstep) After(*runtime.Ctx, string, error) {}

// Call is one request for Overlap.
type Call struct {
	ReqID, Handler string
	Args           runtime.Args
}

// Overlap runs calls concurrently and holds each request's first
// transaction until every request has reached its own, so the recorded
// execution intervals overlap into one concurrent phase. Every handler must
// run at least one transaction. It returns after all requests finish, with
// the first error; the interceptor is reset afterwards.
func Overlap(app *runtime.App, calls []Call) error { return overlapAt(app, "", calls) }

// overlapAt is Overlap with the hold placed at each request's first
// transaction labelled gate, or at its first transaction when gate is "".
// Unlike Race it releases all requests together, so their gate
// transactions run at the same time.
func overlapAt(app *runtime.App, gate string, calls []Call) error {
	app.SetTxnInterceptor(&firstTxnGate{gate: gate, need: len(calls), arrived: make(map[string]bool), release: make(chan struct{})})
	defer app.SetTxnInterceptor(nil)

	errs := make(chan error, len(calls))
	for _, c := range calls {
		go func(c Call) {
			_, err := app.InvokeWithReqID(c.ReqID, c.Handler, c.Args)
			errs <- err
		}(c)
	}
	var first error
	for range calls {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// firstTxnGate blocks every request's first gate transaction until need
// requests have reached theirs.
type firstTxnGate struct {
	gate    string // "" holds the first transaction, whatever its label
	mu      sync.Mutex
	need    int
	arrived map[string]bool
	release chan struct{}
}

// Before implements runtime.TxnInterceptor.
func (g *firstTxnGate) Before(c *runtime.Ctx, label string) error {
	if g.gate != "" && label != g.gate {
		return nil
	}
	g.mu.Lock()
	first := !g.arrived[c.ReqID]
	if first {
		g.arrived[c.ReqID] = true
		if len(g.arrived) == g.need {
			close(g.release)
		}
	}
	g.mu.Unlock()
	if first {
		<-g.release
	}
	return nil
}

// After implements runtime.TxnInterceptor.
func (g *firstTxnGate) After(*runtime.Ctx, string, error) {}

// firstRow runs a retroactive invariant's query for offending rows and
// returns the first one, or nil when the invariant holds.
func firstRow(dev *db.DB, query string) (value.Row, error) {
	rows, err := dev.Query(query)
	if err != nil || len(rows.Rows) == 0 {
		return nil, err
	}
	return rows.Rows[0], nil
}
