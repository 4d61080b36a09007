// Package server implements trod-server's network front end: a TCP server
// speaking the internal/protocol frame format over an embedded db.DB, which
// turns the engine into a servable system — the on-ramp for the ROADMAP's
// "heavy traffic from millions of users".
//
// Architecture:
//
//   - Each accepted connection becomes a session served by one goroutine;
//     requests on a connection execute strictly in order.
//   - A session owns at most one interactive transaction (Begin … Commit/
//     Rollback). Interactive transactions carry a server-side deadline
//     (db.BeginInteractive): a transaction abandoned by a stalled or
//     disconnected client is rolled back by the engine's deadline watcher
//     and later operations fail with a typed txn-expired protocol error.
//   - Admission control: at most MaxConns sessions run concurrently; up to
//     QueueDepth further connections wait (bounded, FIFO-ish) for at most
//     QueueWait before being turned away with a typed busy error. The queue
//     is the backpressure mechanism — clients see fast typed rejection
//     instead of unbounded latency.
//   - Idle sessions are disconnected after IdleTimeout (any live interactive
//     transaction is rolled back by the cleanup path).
//   - Shutdown drains: the listener closes, in-flight requests finish and
//     get their responses, sessions close, and the WAL is checkpointed so
//     the next start recovers from a snapshot instead of a long replay.
//
// Every remote request gets a request ID — from the attached runtime.App's
// allocator when one is configured (so provenance records remote executions
// exactly like in-process ones), or from a session-scoped fallback counter —
// and the ID rides the transaction metadata into the provenance log.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/repl"
	"repro/internal/runtime"
	"repro/internal/span"
	"repro/internal/storage"
)

// Config configures a Server. DB is required; everything else defaults.
type Config struct {
	// DB is the database the server fronts.
	DB *db.DB
	// App, when set, allocates request IDs for remote requests and reports
	// them to the runtime observer, so an attached tracer records remote
	// executions in provenance exactly like in-process ones.
	App *runtime.App
	// MaxConns caps concurrently served sessions (default 64).
	MaxConns int
	// QueueDepth caps connections waiting for a session slot (default
	// 2*MaxConns). Beyond it, connections are rejected immediately with a
	// typed busy error.
	QueueDepth int
	// QueueWait bounds the time a connection may wait in the admission
	// queue before a typed busy rejection (default 2s).
	QueueWait time.Duration
	// IdleTimeout disconnects a session with no traffic (default 2m). A
	// live interactive transaction on the session is rolled back.
	IdleTimeout time.Duration
	// TxnTimeout is the interactive-transaction deadline (default 15s):
	// a transaction still open this long after Begin is rolled back
	// server-side and surfaces as a typed txn-expired error.
	TxnTimeout time.Duration
	// MaxFrame caps request frame payloads (default protocol.MaxFrame).
	MaxFrame int
	// Source, when set, lets sessions turn into replication subscribers
	// via MsgSubscribe (a primary serving replicas). Without it, Subscribe
	// requests get a typed bad-request error.
	Source *repl.Source
	// Replica, when set, marks this server as a replica and feeds the
	// replication fields of Stats (applied sequence, primary sequence,
	// connection state). Whether Begin is refused follows the DB's
	// read-only flag (db.SetReadOnly), which the replica's Promote clears.
	Replica *repl.Replica
	// TracerStats, when set, feeds the tracer counters (events, drops,
	// flushes) into Stats and the metrics endpoint. A hook instead of a
	// *trace.Tracer keeps the server package free of a tracer dependency.
	TracerStats func() (events, drops, flushes uint64)
	// SlowQueryThreshold enables the slow-query log: any query or exec
	// statement whose frame-to-response latency meets or exceeds it emits
	// one JSON line on SlowQueryOutput. Zero disables.
	SlowQueryThreshold time.Duration
	// SlowQueryOutput receives slow-query lines (required to enable the
	// slow-query log; typically stderr or an opened log file).
	SlowQueryOutput io.Writer
	// Spans, when set, enables request-scoped span tracing: every query,
	// exec, and transaction-control request records a cross-layer span tree,
	// tail-sampled at completion by this collector. Kept traces land in the
	// self-hosted trod_spans system table (queryable over normal SQL) and
	// every recorded stage feeds the trod_span_stage_seconds histograms.
	Spans *span.Collector
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxConns <= 0 {
		out.MaxConns = 64
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 2 * out.MaxConns
	}
	if out.QueueWait <= 0 {
		out.QueueWait = 2 * time.Second
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 2 * time.Minute
	}
	if out.TxnTimeout <= 0 {
		out.TxnTimeout = 15 * time.Second
	}
	return out
}

// Server is a trod network front end over one database.
type Server struct {
	cfg Config

	slots   chan struct{} // MaxConns admission tokens
	waiters atomic.Int64  // connections queued for a slot

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}

	draining atomic.Bool
	drainCh  chan struct{} // closed when Shutdown starts

	// promoted marks a replica server that now serves as the primary.
	promoted atomic.Bool

	accepted     atomic.Uint64
	rejectedBusy atomic.Uint64
	requests     atomic.Uint64
	commits      atomic.Uint64
	conflicts    atomic.Uint64
	expiredTxns  atomic.Uint64
	activeTxns   atomic.Int64
	nextSession  atomic.Uint64
	nextReqID    atomic.Uint64 // fallback allocator when no App is attached

	// Always-on instruments (see metrics.go); registered on a metrics
	// registry via RegisterMetrics when the operator asks for an endpoint.
	latVec        *metrics.HistogramVec
	latByType     map[protocol.MsgType]*metrics.Histogram
	latOther      *metrics.Histogram
	queueWaitHist *metrics.Histogram
	slow          *slowLog // nil unless the slow-query log is enabled

	// Span tracing (nil/empty unless cfg.Spans is set; see spans.go).
	spanVec     *metrics.HistogramVec
	spanByStage []*metrics.Histogram // indexed by span.Stage
	spanStore   *spanStore           // trod_spans system table
}

// New returns an unstarted server; call Serve with a listener.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg = (&cfg).withDefaults()
	s := &Server{
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.MaxConns),
		sessions: make(map[*session]struct{}),
		drainCh:  make(chan struct{}),
	}
	s.newInstruments()
	if cfg.SlowQueryThreshold > 0 && cfg.SlowQueryOutput != nil {
		s.slow = &slowLog{w: cfg.SlowQueryOutput}
	}
	if cfg.Spans.Enabled() {
		st, err := newSpanStore()
		if err != nil {
			return nil, fmt.Errorf("server: spans store: %w", err)
		}
		s.spanStore = st
		// Kept traces flow to the trod_spans table.
		cfg.Spans.SetOnKeep(st.enqueue)
	}
	return s, nil
}

// Serve accepts connections on ln until Shutdown (returns nil) or a fatal
// listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.draining.Load() {
		// Shutdown/Kill ran before Serve published the listener and found
		// nothing to close; close it here or Accept blocks forever.
		ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		go s.admit(conn)
	}
}

// Addr returns the listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// admit runs admission control for one raw connection, then serves it as a
// session.
func (s *Server) admit(conn net.Conn) {
	if s.draining.Load() {
		s.refuse(conn, protocol.CodeShutdown, "server is shutting down")
		return
	}
	enqueued := time.Now()
	select {
	case s.slots <- struct{}{}:
		s.queueWaitHist.ObserveSince(enqueued)
	default:
		// All slots busy: join the bounded admission queue.
		if s.waiters.Add(1) > int64(s.cfg.QueueDepth) {
			s.waiters.Add(-1)
			s.rejectedBusy.Add(1)
			s.refuse(conn, protocol.CodeBusy, "connection limit reached and admission queue full")
			return
		}
		timer := time.NewTimer(s.cfg.QueueWait)
		select {
		case s.slots <- struct{}{}:
			timer.Stop()
			s.waiters.Add(-1)
			s.queueWaitHist.ObserveSince(enqueued)
		case <-timer.C:
			s.waiters.Add(-1)
			s.rejectedBusy.Add(1)
			// Timed-out waiters count too: their wait is real queueing
			// experienced by clients, and hiding it would make the queue
			// look fast exactly when it is saturated.
			s.queueWaitHist.ObserveSince(enqueued)
			s.refuse(conn, protocol.CodeBusy, "timed out waiting for a session slot")
			return
		case <-s.drainCh:
			timer.Stop()
			s.waiters.Add(-1)
			s.refuse(conn, protocol.CodeShutdown, "server is shutting down")
			return
		}
	}
	s.accepted.Add(1)
	tc := &timedConn{Conn: conn}
	id := s.nextSession.Add(1)
	sess := &session{srv: s, conn: protocol.NewConn(tc), tc: tc, id: id,
		workflow: "session-" + strconv.FormatUint(id, 10), queueWait: time.Since(enqueued)}
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	defer func() {
		sess.cleanup()
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		<-s.slots
	}()
	sess.serve()
}

// refuse answers a not-admitted connection with a typed error and closes it.
func (s *Server) refuse(conn net.Conn, code protocol.ErrCode, msg string) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_ = protocol.WriteMessage(conn, &protocol.Message{Type: protocol.MsgError, Code: code, Err: msg})
	conn.Close()
}

// Shutdown stops accepting connections, drains in-flight requests, closes
// every session, and checkpoints the WAL so the next open recovers from a
// snapshot. It returns once the drain completes or ctx expires (remaining
// connections are then force-closed); the checkpoint always runs.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("server: already shut down")
	}
	close(s.drainCh)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	// Drain: in-flight requests finish and respond, then sessions unwind.
	// Once ctx expires, force-close the stragglers and give them a bounded
	// grace period to run their cleanup before checkpointing anyway.
	forced := false
	graceUntil := time.Time{}
	for {
		s.mu.Lock()
		n := len(s.sessions)
		// Wake sessions parked in ReadMessage on every iteration, not just
		// once: a session that checked the draining flag before it flipped
		// may re-arm its idle read deadline after a one-shot poke, stalling
		// the drain for the whole idle timeout.
		for sess := range s.sessions {
			sess.conn.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if ctx.Err() != nil {
			if !forced {
				forced = true
				graceUntil = time.Now().Add(time.Second)
				s.mu.Lock()
				for sess := range s.sessions {
					sess.conn.Close()
				}
				s.mu.Unlock()
			} else if time.Now().After(graceUntil) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.spanStore != nil {
		s.spanStore.close()
	}
	return s.cfg.DB.Checkpoint()
}

// Kill stops the server abruptly: the listener and every session connection
// close immediately — no drain, no responses to in-flight requests, no
// checkpoint. It is the network face of SIGKILL, used by the failover chaos
// harness to kill an in-process primary mid-load. The database is left open
// (and inconsistent only in the ways a real crash leaves it).
func (s *Server) Kill() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	close(s.drainCh)
	s.mu.Lock()
	ln := s.ln
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if s.spanStore != nil {
		s.spanStore.close()
	}
}

// Stats snapshots every counter the server reports: its own, and those of
// the database, replication role, tracer and span collector it fronts. It
// is the one reader of those counters behind the Stats message and the
// metrics endpoint.
func (s *Server) Stats() protocol.Stats {
	s.mu.Lock()
	sessions := len(s.sessions)
	s.mu.Unlock()
	d, store := s.cfg.DB, s.cfg.DB.Store()
	pc := d.PlanCacheStats()
	st := protocol.Stats{
		ActiveSessions:  uint64(sessions),
		ActiveTxns:      uint64(max(s.activeTxns.Load(), 0)),
		QueuedConns:     uint64(max(s.waiters.Load(), 0)),
		Accepted:        s.accepted.Load(),
		RejectedBusy:    s.rejectedBusy.Load(),
		Requests:        s.requests.Load(),
		Commits:         s.commits.Load(),
		Conflicts:       s.conflicts.Load(),
		ExpiredTxns:     s.expiredTxns.Load(),
		Checkpoints:     d.Checkpoints(),
		WALSyncs:        d.WALStats().Syncs,
		PlanCacheHits:   pc.Hits,
		PlanCacheMisses: pc.Misses,
		PlanCacheSize:   uint64(pc.Size),
		CommitSeq:       store.CurrentSeq(),
		HistoryFloor:    store.HistoryRetainedFrom(),
	}
	st.DBCommits, st.DBConflicts = d.CommitStats()
	vac := store.VacuumTotals()
	st.VacuumRuns = vac.Runs
	st.VacuumDropped = vac.DroppedRowVersions + vac.DroppedIndexVersions
	census := store.VersionCensus()
	st.ResidentVersions = census.ResidentRowVersions
	st.MaxChainLength = census.MaxChainLength
	if r := s.cfg.Replica; r != nil && !s.promoted.Load() {
		st.IsReplica = 1
		st.AppliedSeq = r.AppliedSeq()
		st.PrimarySeq = max(r.PrimarySeq(), st.AppliedSeq) // before first primary contact
		st.ReplLag = st.PrimarySeq - st.AppliedSeq
		st.ReplConnected = flag(r.Connected())
	}
	if src := s.cfg.Source; src != nil {
		st.Subscribers = uint64(src.Subscribers())
		st.StreamedCommits = src.StreamedCommits()
		st.QuorumStalls = src.QuorumStalls()
		st.SubscriberLags = src.SubscriberLags(st.CommitSeq)
	}
	if e := s.epochState(); e != nil {
		st.Epoch = e.Current()
		st.Fenced = flag(e.Fenced())
	}
	if s.cfg.TracerStats != nil {
		st.TracerEvents, st.TracerDrops, st.TracerFlushes = s.cfg.TracerStats()
	}
	sc := s.cfg.Spans.Stats()
	st.SpanTracesStarted, st.SpanTracesKept, st.SpanTracesSampled = sc.Started, sc.Kept, sc.Sampled
	if s.spanStore != nil {
		st.SpanStoreInserted = s.spanStore.inserted.Load()
		st.SpanStoreDropped = s.spanStore.dropped.Load()
	}
	return st
}

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Draining reports whether Shutdown or Kill has begun. The metrics
// endpoint's health check keys off it: a draining server answers /healthz
// with 503 so load balancers stop routing to it while in-flight requests
// finish.
func (s *Server) Draining() bool { return s.draining.Load() }

// epochState resolves the node's replication-epoch state from whichever
// replication role is attached (both share one Epoch on a node).
func (s *Server) epochState() *repl.Epoch {
	if s.cfg.Source != nil {
		return s.cfg.Source.Epoch()
	}
	if s.cfg.Replica != nil {
		return s.cfg.Replica.Epoch()
	}
	return nil
}

// startRequest allocates a request ID and its completion callback — through
// the runtime when attached (provenance parity with in-process requests),
// otherwise from the fallback counter.
// sql, when not empty, is the statement text the runtime records as the
// request's argument.
func (s *Server) startRequest(handler, sql string) (string, func(any, error)) {
	if s.cfg.App != nil {
		var args runtime.Args
		if sql != "" {
			args = runtime.Args{"sql": sql}
		}
		return s.cfg.App.StartRemote(handler, args)
	}
	return "S" + strconv.FormatUint(s.nextReqID.Add(1), 10), func(any, error) {}
}

// session is one connection's server-side state.
type session struct {
	srv      *Server
	conn     *protocol.Conn // reads and writes every frame of the session
	tc       *timedConn     // under conn: stamps each frame's first byte
	id       uint64
	workflow string // "session-<id>", the provenance workflow of its requests

	// The interactive transaction, nil when none is open. Touched only by
	// the session goroutine; the deadline watcher aborts the underlying
	// transaction through its own guard and is observed here via typed
	// errors.
	tx       *db.Tx
	txFinish func(any, error)
	txReqID  string // provenance request ID of the open transaction

	// Slow-query context for the statement just handled, recorded by
	// execSQL and read by slowCheck after the response write. Session
	// goroutine only.
	lastReqID  string
	lastStatus string

	// queueWait is the admission-queue wait this connection experienced; the
	// first traced request records it as a queue_wait span, then zeroes it.
	queueWait time.Duration
}

// serve runs the session's request loop: one frame in, one frame out.
// Request latency is measured from the first byte of the request frame
// (stamped by timedConn) through the response write, so time a request
// spends queued behind frame reads is part of what the histograms show.
func (ss *session) serve() {
	for {
		if ss.srv.draining.Load() {
			return
		}
		ss.conn.SetReadDeadline(time.Now().Add(ss.srv.cfg.IdleTimeout))
		// Bytes already buffered from an earlier read belong to this frame:
		// it started arriving no later than now.
		ss.tc.arm(ss.conn.Buffered() > 0)
		req, err := ss.conn.ReadMessage(ss.srv.cfg.MaxFrame)
		if err != nil {
			// Disconnect, idle timeout, drain wake-up, or corrupt stream:
			// either way the session ends and cleanup rolls back any live
			// transaction. Nothing useful can be written on a broken frame
			// protocol, so close silently.
			return
		}
		if req.Type == protocol.MsgSubscribe {
			// The session becomes a replication subscriber: the source takes
			// over the connection and pushes snapshot chunks and log batches
			// until the stream ends. A typed log-truncated refusal keeps the
			// session alive for the follow-up bootstrap subscribe.
			ss.srv.requests.Add(1)
			src := ss.srv.cfg.Source
			if src == nil {
				resp := errMsg(protocol.CodeBadRequest, "this server is not a replication source")
				ss.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
				if ss.conn.WriteMessage(resp, protocol.MaxFrame) != nil {
					return
				}
				continue
			}
			// Clear the idle deadline: the source owns the connection in both
			// directions from here (stream writes and subscriber acks set
			// their own deadlines) until the stream ends. It reads through
			// the session's buffer, which may already hold its first acks.
			ss.conn.SetReadDeadline(time.Time{})
			src.Serve(ss.conn, req, ss.srv.drainCh)
			return
		}
		start := time.Now()
		if t0, ok := ss.tc.frameStart(); ok {
			start = t0
		}
		buf := ss.startTrace(req, start)
		resp := ss.handle(req, buf)
		ss.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		var wStart time.Time
		if buf != nil {
			wStart = time.Now()
		}
		wErr := ss.conn.WriteMessage(resp, protocol.MaxFrame)
		if wErr != nil && errors.Is(wErr, protocol.ErrFrameTooLarge) {
			// Nothing was written; answer with a typed error instead of
			// silently dropping the session over an oversized result.
			big := errMsg(protocol.CodeSQL,
				"result set exceeds the %d-byte frame cap; narrow the query or add LIMIT", protocol.MaxFrame)
			if ss.conn.WriteMessage(big, protocol.MaxFrame) == nil {
				wErr = nil
			}
		}
		if buf != nil {
			buf.Record(span.StageFrameWrite, span.RootID, wStart, time.Since(wStart))
		}
		lat := time.Since(start)
		ss.srv.observeRequest(req.Type, lat)
		if buf != nil {
			ss.completeTrace(buf, req, start, lat)
		}
		ss.slowCheck(req, lat, buf)
		if wErr != nil {
			return
		}
	}
}

// cleanup releases everything a session holds; runs exactly once, after the
// serve loop exits (including abrupt disconnect mid-transaction).
func (ss *session) cleanup() {
	if ss.tx != nil {
		ss.tx.Rollback() // no-op if the deadline watcher already aborted it
		ss.endTxn(errors.New("session closed"))
	}
	ss.conn.Close()
}

// endTxn drops the session's transaction state and completes its request.
func (ss *session) endTxn(err error) {
	if ss.txFinish != nil {
		ss.txFinish(nil, err)
	}
	ss.tx = nil
	ss.txFinish = nil
	ss.txReqID = ""
	ss.srv.activeTxns.Add(-1)
}

func errMsg(code protocol.ErrCode, format string, args ...any) *protocol.Message {
	return &protocol.Message{Type: protocol.MsgError, Code: code, Err: fmt.Sprintf(format, args...)}
}

// handle serves one request message. Every frame counts as one request —
// statements inside interactive transactions and Commit/Rollback included —
// so Stats.Requests reflects the protocol load actually served. sp is the
// request's span buffer (nil when tracing is off or the type is untraced).
func (ss *session) handle(req *protocol.Message, sp *span.Buf) *protocol.Message {
	ss.srv.requests.Add(1)
	switch req.Type {
	case protocol.MsgPing:
		return &protocol.Message{Type: protocol.MsgPong}
	case protocol.MsgStats:
		st := ss.srv.Stats()
		return &protocol.Message{Type: protocol.MsgStatsResult, Stats: &st}
	case protocol.MsgBegin:
		return ss.begin()
	case protocol.MsgCommit:
		return ss.commit(sp)
	case protocol.MsgRollback:
		return ss.rollbackTx()
	case protocol.MsgQuery, protocol.MsgExec:
		return ss.execSQL(req, sp)
	case protocol.MsgPromote:
		return ss.promote(req)
	default:
		return errMsg(protocol.CodeBadRequest, "unexpected message type %d", req.Type)
	}
}

// promote flips this replica server into a writable primary (operator
// command or failover harness). The underlying Replica stops following,
// the node's epoch advances, and the server starts accepting transactions.
func (ss *session) promote(req *protocol.Message) *protocol.Message {
	r := ss.srv.cfg.Replica
	if r == nil {
		return errMsg(protocol.CodeBadRequest, "this server is not a replica; nothing to promote")
	}
	if !ss.srv.promoted.CompareAndSwap(false, true) {
		return errMsg(protocol.CodeTxnState, "this server was already promoted")
	}
	epoch, seq, err := r.Promote(req.Epoch)
	if err != nil {
		ss.srv.promoted.Store(false)
		return errMsg(protocol.CodeBadRequest, "promote: %v", err)
	}
	return &protocol.Message{Type: protocol.MsgPromoted, Epoch: epoch, Seq: seq}
}

func (ss *session) begin() *protocol.Message {
	if ss.srv.cfg.DB.ReadOnly() {
		ss.lastStatus = "error"
		return errMsg(protocol.CodeReadOnly, "this server is a read-only replica; run transactions on the primary")
	}
	if ss.tx != nil {
		ss.lastStatus = "error"
		return errMsg(protocol.CodeTxnState, "session already has an open transaction")
	}
	reqID, finish := ss.srv.startRequest("remote-txn", "")
	meta := db.TxMeta{ReqID: reqID, Handler: "remote", Func: "interactive", Workflow: ss.workflow}
	srv := ss.srv
	ss.tx = srv.cfg.DB.BeginInteractive(meta, srv.cfg.TxnTimeout, func() { srv.expiredTxns.Add(1) })
	ss.txFinish = finish
	ss.txReqID = reqID
	ss.lastReqID = reqID
	ss.lastStatus = "ok"
	srv.activeTxns.Add(1)
	return &protocol.Message{Type: protocol.MsgTxState, TxnID: ss.tx.ID()}
}

func (ss *session) commit(sp *span.Buf) *protocol.Message {
	if ss.tx == nil {
		ss.lastStatus = "error"
		return errMsg(protocol.CodeTxnState, "no open transaction to commit")
	}
	// The commit request owns the transaction's final spans (OCC validation,
	// WAL append, fsync/group-commit wait, quorum wait) and is attributed to
	// the transaction's provenance request ID in traces and the slow log.
	ss.tx.SetSpanBuf(sp)
	ss.lastReqID = ss.txReqID
	err := ss.tx.Commit()
	ss.lastStatus = statementStatus(err)
	seq := ss.tx.Inner().CommitSeq()
	txnID := ss.tx.ID()
	ss.endTxn(err)
	if err != nil {
		return ss.sqlError(err)
	}
	ss.srv.commits.Add(1)
	return &protocol.Message{Type: protocol.MsgTxState, TxnID: txnID, Seq: seq}
}

func (ss *session) rollbackTx() *protocol.Message {
	if ss.tx == nil {
		ss.lastStatus = "error"
		return errMsg(protocol.CodeTxnState, "no open transaction to roll back")
	}
	txnID := ss.tx.ID()
	ss.lastReqID = ss.txReqID
	ss.lastStatus = "ok"
	ss.tx.Rollback()
	ss.endTxn(errors.New("rolled back"))
	return &protocol.Message{Type: protocol.MsgTxState, TxnID: txnID}
}

// execSQL runs one statement: on the session's interactive transaction when
// one is open, otherwise autocommit (with the engine's conflict retry).
// Statements over the trod_spans system table route to the spans store.
func (ss *session) execSQL(req *protocol.Message, sp *span.Buf) *protocol.Message {
	if ss.srv.spanStore != nil && usesSpanTable(req.SQL) {
		return ss.execSpansSQL(req)
	}
	var rows *db.Rows
	var err error
	if ss.tx != nil {
		ss.lastReqID = ss.txReqID
		// Each request's spans land in its own buffer; set (or clear) the
		// transaction's buffer every statement.
		ss.tx.SetSpanBuf(sp)
		rows, err = ss.tx.ExecRow(req.SQL, req.Args)
		if errors.Is(err, db.ErrTxnExpired) {
			// The deadline watcher already rolled the transaction back;
			// release the session's handle so the client can Begin anew.
			ss.endTxn(err)
		}
	} else {
		reqID, finish := ss.srv.startRequest("remote", req.SQL)
		ss.lastReqID = reqID
		meta := db.TxMeta{ReqID: reqID, Handler: "remote", Func: "autocommit", Workflow: ss.workflow, Spans: sp}
		rows, err = ss.srv.cfg.DB.ExecMeta(meta, req.SQL, req.Args)
		finish(nil, err)
		if err == nil && rows != nil && rows.RowsAffected > 0 {
			ss.srv.commits.Add(1)
		}
	}
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

// statementStatus classifies a statement outcome for the slow-query log.
// The errors.As target is declared past the nil check, so a successful
// statement does not allocate it.
func statementStatus(err error) string {
	if err == nil {
		return "ok"
	}
	var conflict *storage.ConflictError
	if errors.As(err, &conflict) {
		return "conflict"
	}
	return "error"
}

// sqlError maps an engine error to a typed protocol error.
func (ss *session) sqlError(err error) *protocol.Message {
	var conflict *storage.ConflictError
	switch {
	case errors.As(err, &conflict):
		ss.srv.conflicts.Add(1)
		return errMsg(protocol.CodeConflict, "%v", err)
	case errors.Is(err, db.ErrTxnExpired):
		return errMsg(protocol.CodeTxnExpired, "transaction exceeded the server deadline and was rolled back")
	case errors.Is(err, db.ErrReadOnly):
		return errMsg(protocol.CodeReadOnly, "this server is a read-only replica; send writes to the primary")
	case errors.Is(err, db.ErrReadOnlyTxn):
		return errMsg(protocol.CodeReadOnlyTxn, "%v", err)
	case errors.Is(err, storage.ErrHistoryTruncated):
		return errMsg(protocol.CodeLogTruncated, "%v", err)
	case errors.Is(err, db.ErrFenced):
		return errMsg(protocol.CodeFenced, "%v", err)
	case errors.Is(err, db.ErrQuorumUnavailable):
		return errMsg(protocol.CodeQuorumUnavailable, "%v", err)
	default:
		return errMsg(protocol.CodeSQL, "%v", err)
	}
}
