// Package trace implements TROD's always-on interposition layer (paper
// §3.4): it hooks the application runtime (requests, handler invocations,
// external calls) and the database facade, whose commit hook delivers each
// finished transaction's metadata, read provenance and committed writes;
// it buffers events in memory and flushes them in batches to the
// provenance database on a background goroutine.
//
// The buffer is a queue of fixed-size chunks, FlushBatch events each. The
// fast path — what runs inside a handler's request — copies one event into
// the chunk being filled, under a mutex held for nothing else
// (sub-microsecond), which is how the paper's prototype keeps tracing
// overhead under 100µs per request. A filled chunk is handed to the flusher
// whole and applied as one batch; emptied chunks are reused. A flusher that
// falls behind therefore costs one more chunk, never a copy of the backlog.
// Chunks are applied in the order they were filled, and Flush returns only
// once every event pushed before the call is in the provenance database.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/provenance"
	"repro/internal/runtime"
)

// Config tunes the tracer.
type Config struct {
	// Tables maps application tables to provenance event tables; only
	// listed tables get data provenance (all transactions are logged to
	// Executions regardless).
	Tables provenance.TableMap
	// FlushBatch is the buffered-event count that triggers a flush
	// (default 1024).
	FlushBatch int
	// FlushInterval is the maximum event age before a flush (default 5ms).
	FlushInterval time.Duration
	// MaxBuffered bounds the events waiting in memory (0 = unbounded, the
	// historical behavior). When the flusher cannot keep up and the buffer
	// is full, new events are dropped and counted (trod_tracer_drops_total)
	// instead of growing the heap without limit — under an adversarial
	// open-loop burst, losing provenance beats losing the server.
	MaxBuffered int
}

// Tracer is the interposition layer instance.
type Tracer struct {
	writer *provenance.Writer
	cfg    Config

	// mu guards the chunk queue. push holds it for one append and nothing
	// else, so a request never waits for the flusher.
	mu       sync.Mutex
	tail     []provenance.Event   // the chunk being filled; cap FlushBatch
	full     [][]provenance.Event // filled chunks, oldest first
	free     [][]provenance.Event // emptied chunks kept for reuse
	buffered int                  // events in tail and full
	err      error                // first flush error, surfaced on Flush/Close
	closed   bool

	// drainMu serialises applying. Whoever holds it pops chunks oldest first
	// and applies each before popping the next, so batches reach the
	// provenance database in push order, and a Flush that has acquired it
	// knows no earlier batch is still on its way.
	drainMu sync.Mutex

	logical uint64

	wake   chan struct{}
	done   chan struct{}
	exited chan struct{} // closed when flushLoop returns

	// stats
	events  uint64
	flushes uint64
	drops   uint64

	// flushHist times writer.ApplyBatch per batch — scrape-visible as
	// trod_tracer_flush_seconds once RegisterMetrics wires it up.
	flushHist *metrics.Histogram
}

// maxFreeChunks is how many emptied chunks are kept for reuse; the chunks of
// a backlog beyond that go back to the collector once applied.
const maxFreeChunks = 4

// Attach wires a tracer between an application (runtime + production DB)
// and a provenance database. It installs the runtime observer and the db
// hook; tracing is on from the moment Attach returns (always-on tracing).
func Attach(app *runtime.App, prov *db.DB, cfg Config) (*Tracer, error) {
	if cfg.FlushBatch <= 0 {
		cfg.FlushBatch = 1024
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if app.DB() == prov {
		return nil, fmt.Errorf("trace: the provenance database must be separate from the application database")
	}
	writer, err := provenance.Setup(prov, app.DB(), cfg.Tables)
	if err != nil {
		return nil, err
	}
	t := &Tracer{
		writer: writer,
		cfg:    cfg,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
		flushHist: metrics.NewHistogram("trod_tracer_flush_seconds",
			"Latency of flushing one buffered event batch to the provenance database.", nil),
	}

	app.DB().SetHook(func(tr db.TxnTrace) {
		// A commit's writes share one logical time, taken before the
		// transaction's own. Aborted transactions are recorded too
		// (Committed = false, no writes); they carry read provenance that
		// can matter for debugging.
		if writes := tr.Writes(); len(writes) > 0 {
			logical := t.nextLogical()
			for _, ch := range writes {
				t.push(&provenance.Event{
					Kind:    provenance.KindWrite,
					Seq:     tr.CommitSeq,
					TxnID:   tr.TxnID,
					Change:  ch,
					Logical: logical,
				})
			}
		}
		t.push(&provenance.Event{Kind: provenance.KindTxn, Txn: tr, Logical: t.nextLogical()})
	})
	app.SetObserver(t)
	go t.flushLoop()
	return t, nil
}

// Writer returns the provenance writer (query helpers + Forget).
func (t *Tracer) Writer() *provenance.Writer { return t.writer }

// Prov returns the provenance database for declarative debugging queries.
func (t *Tracer) Prov() *db.DB { return t.writer.DB() }

func (t *Tracer) nextLogical() uint64 { return atomic.AddUint64(&t.logical, 1) }

// push copies an event into the chunk being filled — the request-path fast
// path.
func (t *Tracer) push(ev *provenance.Event) {
	t.mu.Lock()
	if t.cfg.MaxBuffered > 0 && t.buffered >= t.cfg.MaxBuffered {
		// Buffer full: the flusher is behind. Dropping here keeps the
		// request path append-or-nothing.
		t.mu.Unlock()
		atomic.AddUint64(&t.drops, 1)
		t.wakeFlusher()
		return
	}
	if t.tail == nil {
		if n := len(t.free); n > 0 {
			t.tail, t.free = t.free[n-1], t.free[:n-1]
		} else {
			t.tail = make([]provenance.Event, 0, t.cfg.FlushBatch)
		}
	}
	t.tail = append(t.tail, *ev)
	t.buffered++
	filled := len(t.tail) == cap(t.tail)
	if filled {
		t.full = append(t.full, t.tail)
		t.tail = nil
	}
	t.mu.Unlock()
	atomic.AddUint64(&t.events, 1)
	if filled {
		t.wakeFlusher()
	}
}

func (t *Tracer) wakeFlusher() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// flushLoop drains the queue when a chunk fills and on a periodic timer,
// which bounds how long an event waits in a chunk that is slow to fill.
func (t *Tracer) flushLoop() {
	defer close(t.exited)
	ticker := time.NewTicker(t.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			t.drain()
			return
		case <-t.wake:
			t.drain()
		case <-ticker.C:
			t.drain()
		}
	}
}

// drain applies everything buffered when it starts, oldest chunk first and
// the partly filled one last, one batch per chunk. Events pushed while it
// runs are left for the next drain, so a steady producer cannot keep one
// going forever.
func (t *Tracer) drain() {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for n := t.buffered; n > 0; {
		var chunk []provenance.Event
		if len(t.full) > 0 {
			chunk, t.full[0] = t.full[0], nil
			t.full = t.full[1:]
		} else {
			chunk, t.tail = t.tail, nil
		}
		t.buffered -= len(chunk)
		n -= len(chunk)
		t.mu.Unlock()

		atomic.AddUint64(&t.flushes, 1)
		start := time.Now()
		err := t.writer.ApplyBatch(chunk)
		t.flushHist.ObserveSince(start)
		clear(chunk) // an idle chunk must not pin row data

		t.mu.Lock()
		if err != nil && t.err == nil {
			t.err = err
		}
		if len(t.free) < maxFreeChunks {
			t.free = append(t.free, chunk[:0])
		}
	}
}

// Flush applies every event pushed before the call and reports the first
// flush error so far. When it returns, that provenance is queryable: a
// batch the background flusher had already taken is waited for, not
// skipped. Call before querying the provenance database.
func (t *Tracer) Flush() error {
	t.drain()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close stops the flusher after a final drain.
func (t *Tracer) Close() error {
	t.mu.Lock()
	if t.closed {
		err := t.err
		t.mu.Unlock()
		return err
	}
	t.closed = true
	t.mu.Unlock()
	close(t.done)
	<-t.exited
	return t.Flush()
}

// Counters reports the full counter set: events captured, events dropped at
// a full buffer (Config.MaxBuffered), and batch flushes — the shape
// server.Config.TracerStats takes.
func (t *Tracer) Counters() (events, drops, flushes uint64) {
	return atomic.LoadUint64(&t.events), atomic.LoadUint64(&t.drops), atomic.LoadUint64(&t.flushes)
}

// RegisterMetrics exports the flush-latency histogram on reg. The tracer's
// counters reach the metrics endpoint through the server's Stats.
func (t *Tracer) RegisterMetrics(reg *metrics.Registry) { reg.Register(t.flushHist) }

// --- runtime.Observer ------------------------------------------------------

// RequestStart implements runtime.Observer. Request rows are written at end
// (with latency); start is a no-op kept for symmetry and future use.
func (t *Tracer) RequestStart(runtime.RequestInfo) {}

// RequestEnd records the finished request with end-to-end latency — the §5
// performance-debugging extension.
func (t *Tracer) RequestEnd(info runtime.RequestInfo) {
	status := "ok"
	if info.Err != nil {
		status = "error: " + info.Err.Error()
	}
	argsText, err := runtime.ArgsJSON(info.Args)
	if err != nil {
		argsText = "<unrepresentable>"
	}
	t.push(&provenance.Event{
		Kind: provenance.KindRequest,
		Call: &provenance.Call{
			ReqID:      info.ReqID,
			Handler:    info.Handler,
			ArgsText:   argsText,
			ResultText: runtime.ResultJSON(info.Result),
			LatencyUs:  info.End.Sub(info.Start).Microseconds(),
			Status:     status,
		},
		Logical: t.nextLogical(),
	})
}

// Invocation records a handler invocation edge in the workflow graph.
func (t *Tracer) Invocation(info runtime.InvocationInfo) {
	t.push(&provenance.Event{
		Kind:    provenance.KindEdge,
		Call:    &provenance.Call{ReqID: info.ReqID, Parent: info.Parent, Child: info.InvocationID, Handler: info.Handler},
		Logical: t.nextLogical(),
	})
}

// External records an external-service call.
func (t *Tracer) External(call runtime.ExternalCall) {
	t.push(&provenance.Event{
		Kind:    provenance.KindExternal,
		Call:    &provenance.Call{ReqID: call.ReqID, Service: call.Service, Payload: call.Payload},
		Logical: t.nextLogical(),
	})
}
