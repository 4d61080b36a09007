package server

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/span"
	"repro/internal/sqlparse"
)

// This file is the server half of request-scoped span tracing: per-request
// span buffers on the serve loop, the tail-sampling completion path, and the
// self-hosted trod_spans system table that makes kept traces queryable over
// normal SQL (on primaries and replicas alike — the spans store is a private
// in-memory database, never subject to the read-only replica gate).

// traceable reports whether a request type gets a span buffer. Ping, stats,
// promote, and subscribe frames are control traffic with no stage structure
// worth a trace.
func traceable(t protocol.MsgType) bool {
	switch t {
	case protocol.MsgQuery, protocol.MsgExec, protocol.MsgBegin,
		protocol.MsgCommit, protocol.MsgRollback:
		return true
	}
	return false
}

// startTrace begins a span buffer for one traced request. The trace ID comes
// from the request frame when the client propagated one (so client- and
// server-side spans share a trace), otherwise from the collector's allocator.
// start is the request's first-byte time: the frame read that just finished
// is recorded immediately, and the session's admission-queue wait — which
// happened once, before the first frame — is attributed to the first traced
// request.
func (ss *session) startTrace(req *protocol.Message, start time.Time) *span.Buf {
	col := ss.srv.cfg.Spans
	if !col.Enabled() || !traceable(req.Type) {
		return nil
	}
	tid := req.TraceID
	if tid == 0 {
		tid = col.NextTraceID()
	}
	buf := span.NewBuf(tid, uint32(req.ParentSpan))
	if qw := ss.queueWait; qw > 0 {
		ss.queueWait = 0
		buf.Record(span.StageQueueWait, span.RootID, start.Add(-qw), qw)
	}
	buf.Record(span.StageFrameRead, span.RootID, start, time.Since(start))
	return buf
}

// completeTrace finishes a traced request: stamps the root span, feeds every
// stage into the trod_span_stage_seconds histograms, and offers the trace to
// the collector's tail sampler. Runs on the request path after the response
// write — everything here is counters, one bounded copy, and (for a kept
// trace) a non-blocking enqueue to the trod_spans writer.
func (ss *session) completeTrace(buf *span.Buf, req *protocol.Message, start time.Time, lat time.Duration) {
	buf.Finish(start, lat)
	srv := ss.srv
	spans := buf.Spans()
	for i := range spans {
		if st := int(spans[i].Stage); st < len(srv.spanByStage) {
			srv.spanByStage[st].Observe(float64(spans[i].Dur) / 1e9)
		}
	}
	srv.cfg.Spans.Offer(&span.Trace{
		TraceID: buf.TraceID,
		ReqID:   ss.lastReqID,
		Kind:    msgTypeName(req.Type),
		Status:  ss.lastStatus,
		Wall:    lat,
		Start:   start,
		Seq:     buf.CommitSeq(),
		Spans:   spans,
	})
}

// usesSpanTable reports whether a statement names the trod_spans system
// table, which runs against the server's spans store instead of the
// application database. Only an identifier counts: the same text in a
// string literal or a comment is application data. The substring check
// keeps every other statement off the tokenizer.
func usesSpanTable(sql string) bool {
	if !strings.Contains(strings.ToLower(sql), "trod_spans") {
		return false
	}
	toks, err := sqlparse.Tokenize(sql)
	if err != nil {
		return false // the application database reports the syntax error
	}
	for _, tok := range toks {
		if tok.Kind == sqlparse.TokIdent && strings.EqualFold(tok.Text, "trod_spans") {
			return true
		}
	}
	return false
}

// execSpansSQL serves a statement against the trod_spans store (autocommit,
// outside any interactive transaction — system-table reads never join
// application transactions).
func (ss *session) execSpansSQL(req *protocol.Message) *protocol.Message {
	reqID, finish := ss.srv.startRequest("remote-spans", req.SQL)
	ss.lastReqID = reqID
	rows, err := ss.srv.spanStore.db.ExecMeta(db.TxMeta{}, req.SQL, req.Args)
	finish(nil, err)
	ss.lastStatus = statementStatus(err)
	if err != nil {
		return ss.sqlError(err)
	}
	resp := &protocol.Message{Type: protocol.MsgResult}
	if rows != nil {
		resp.Columns = rows.Columns
		resp.Rows = rows.Rows
		resp.RowsAffected = int64(rows.RowsAffected)
	}
	return resp
}

// spanSchema is the trod_spans system table: one row per span of every kept
// trace. Times are microseconds (start_us is unix-epoch); seq is the commit
// sequence a commit-pinned stage belongs to — join it against provenance
// Executions.CommitSeq or feed it to BeginAt for time-travel replay.
const spanSchema = `
CREATE TABLE IF NOT EXISTS trod_spans (
	id INTEGER PRIMARY KEY, trace_id INTEGER, req_id TEXT, kind TEXT,
	status TEXT, span_id INTEGER, parent_id INTEGER, stage TEXT,
	start_us INTEGER, dur_us INTEGER, seq INTEGER);`

// spanStoreTraces bounds the store to this many retained traces; the oldest
// trace's rows are deleted when a new one lands (ring semantics in SQL).
const spanStoreTraces = 256

// spanStoreQueue buffers kept traces between the request path (enqueue) and
// the writer goroutine (SQL inserts). A full queue drops the trace and bumps
// a counter instead of blocking a session.
const spanStoreQueue = 256

// spanStore self-hosts kept traces in a private in-memory database so they
// are queryable over the server's own SQL surface.
type spanStore struct {
	db *db.DB
	ch chan *span.Trace

	inserted atomic.Uint64
	dropped  atomic.Uint64

	closeOnce sync.Once
	quit      chan struct{}
	done      chan struct{}

	// Writer-goroutine state: insertion-ordered retained trace IDs and the
	// next span row ID.
	traceQ []uint64
	nextID uint64
}

func newSpanStore() (*spanStore, error) {
	d, err := db.Open(db.Options{})
	if err != nil {
		return nil, err
	}
	if err := d.ExecScript(spanSchema); err != nil {
		d.Close()
		return nil, err
	}
	if _, err := d.Exec(`CREATE INDEX spans_req ON trod_spans (req_id)`); err != nil {
		d.Close()
		return nil, err
	}
	st := &spanStore{db: d, ch: make(chan *span.Trace, spanStoreQueue),
		quit: make(chan struct{}), done: make(chan struct{})}
	go st.loop()
	return st, nil
}

// enqueue hands a kept trace to the writer goroutine; the collector calls it
// from the request path, so it never blocks.
func (st *spanStore) enqueue(t *span.Trace) {
	select {
	case st.ch <- t:
	default:
		st.dropped.Add(1)
	}
}

func (st *spanStore) loop() {
	defer close(st.done)
	for {
		select {
		case t := <-st.ch:
			st.insert(t)
		case <-st.quit:
			// Final drain: anything already queued still lands.
			for {
				select {
				case t := <-st.ch:
					st.insert(t)
				default:
					return
				}
			}
		}
	}
}

// insert writes one trace's spans as trod_spans rows and evicts the oldest
// retained trace past the ring capacity.
func (st *spanStore) insert(t *span.Trace) {
	if len(t.Spans) == 0 {
		return
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO trod_spans (id, trace_id, req_id, kind, status, span_id, parent_id, stage, start_us, dur_us, seq) VALUES `)
	args := make([]any, 0, 11*len(t.Spans))
	for i := range t.Spans {
		sp := &t.Spans[i]
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)")
		st.nextID++
		args = append(args, int64(st.nextID), int64(t.TraceID), t.ReqID, t.Kind,
			t.Status, int64(sp.ID), int64(sp.Parent), sp.Stage.String(),
			sp.Start/1e3, sp.Dur/1e3, int64(sp.Seq))
	}
	if _, err := st.db.Exec(sb.String(), args...); err != nil {
		st.dropped.Add(1)
		return
	}
	st.inserted.Add(1)
	st.traceQ = append(st.traceQ, t.TraceID)
	for len(st.traceQ) > spanStoreTraces {
		old := st.traceQ[0]
		st.traceQ = st.traceQ[1:]
		_, _ = st.db.Exec(`DELETE FROM trod_spans WHERE trace_id = ?`, int64(old))
	}
}

// close stops the writer goroutine after a final drain. The data channel is
// never closed and the store database stays open (it is in-memory): sessions
// racing an abrupt Kill can still enqueue and query harmlessly.
func (st *spanStore) close() {
	st.closeOnce.Do(func() { close(st.quit) })
	<-st.done
}
