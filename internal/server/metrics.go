package server

import (
	"encoding/json"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/span"
)

// timedConn stamps the arrival time of the first byte of each request frame.
// Request latency measured from that stamp includes the time spent reading
// the frame itself — a slow client, a large frame, or a session goroutine
// busy with the previous request all show up, where timing from after the
// frame decode would hide them. Only the session goroutine touches
// armed/start (deadline pokes from Shutdown go through the embedded Conn).
type timedConn struct {
	net.Conn
	armed bool
	start time.Time
}

func (t *timedConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 && t.armed {
		t.armed = false
		t.start = time.Now()
	}
	return n, err
}

// arm marks the next byte read as the start of a new frame, or, when the
// frame's first bytes are already buffered, stamps it now.
func (t *timedConn) arm(buffered bool) {
	if buffered {
		t.armed, t.start = false, time.Now()
		return
	}
	t.armed = true
}

// frameStart returns the current frame's first-byte time; ok is false when
// no byte has arrived since arm (nothing was read).
func (t *timedConn) frameStart() (time.Time, bool) {
	return t.start, !t.armed && !t.start.IsZero()
}

// msgTypeName labels request types for the per-type latency histogram and
// the slow-query log.
func msgTypeName(t protocol.MsgType) string {
	switch t {
	case protocol.MsgPing:
		return "ping"
	case protocol.MsgQuery:
		return "query"
	case protocol.MsgExec:
		return "exec"
	case protocol.MsgBegin:
		return "begin"
	case protocol.MsgCommit:
		return "commit"
	case protocol.MsgRollback:
		return "rollback"
	case protocol.MsgStats:
		return "stats"
	case protocol.MsgPromote:
		return "promote"
	default:
		return "other"
	}
}

// newInstruments builds the server's always-on instruments. They exist
// whether or not a metrics registry is attached — Observe on an
// unregistered histogram is just as cheap, and Stats/tests read them
// directly.
func (s *Server) newInstruments() {
	s.latVec = metrics.NewHistogramVec("trod_server_request_seconds",
		"Request latency from the first byte of the request frame through the response write, by message type.",
		"type", nil)
	s.latByType = make(map[protocol.MsgType]*metrics.Histogram)
	for _, t := range []protocol.MsgType{
		protocol.MsgPing, protocol.MsgQuery, protocol.MsgExec, protocol.MsgBegin,
		protocol.MsgCommit, protocol.MsgRollback, protocol.MsgStats, protocol.MsgPromote,
	} {
		s.latByType[t] = s.latVec.With(msgTypeName(t))
	}
	s.latOther = s.latVec.With("other")
	s.queueWaitHist = metrics.NewHistogram("trod_server_queue_wait_seconds",
		"Time a connection spent waiting for a session slot in the admission queue (timed-out waiters included).",
		nil)
	s.spanVec = metrics.NewHistogramVec("trod_span_stage_seconds",
		"Duration of traced request stages (sampled requests only), by span stage.",
		"stage", nil)
	s.spanByStage = make([]*metrics.Histogram, 0, len(span.Stages()))
	for _, name := range span.Stages() {
		s.spanByStage = append(s.spanByStage, s.spanVec.With(name))
	}
}

// observeRequest records one served request's end-to-end latency.
func (s *Server) observeRequest(t protocol.MsgType, d time.Duration) {
	h, ok := s.latByType[t]
	if !ok {
		h = s.latOther
	}
	h.Observe(d.Seconds())
}

// RegisterMetrics exports every protocol.StatFields counter and the
// per-subscriber replication lags, rendered from one Stats snapshot per
// scrape, plus the server's latency histograms. Call once, before serving.
func (s *Server) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func() []metrics.Family {
		st := s.Stats()
		out := make([]metrics.Family, 0, len(protocol.StatFields)+2)
		for i := range protocol.StatFields {
			f := &protocol.StatFields[i]
			out = append(out, metrics.Family{Name: f.Family, Help: f.Help, Type: f.Kind.Type(),
				Samples: []metrics.Sample{{Value: float64(*f.Field(&st))}}})
		}
		lag := metrics.Family{Name: "trod_repl_subscriber_lag_seqs", Type: "gauge",
			Help: "Commits each live subscriber trails the head by (subscriber index orders by ack progress, most caught-up first)."}
		age := metrics.Family{Name: "trod_repl_subscriber_last_ack_age_seconds", Type: "gauge",
			Help: "Seconds since each live subscriber's last acknowledgement."}
		for i, l := range st.SubscriberLags {
			labels := `subscriber="` + strconv.Itoa(i) + `"`
			lag.Samples = append(lag.Samples, metrics.Sample{Labels: labels, Value: float64(l.LagSeqs)})
			age.Samples = append(age.Samples, metrics.Sample{Labels: labels, Value: float64(l.LastAckAgeMs) / 1000})
		}
		return append(out, lag, age)
	})
	reg.Register(s.latVec)
	reg.Register(s.queueWaitHist)
	reg.Register(s.spanVec)
}

// slowLog serializes slow-query lines onto one writer: one JSON object per
// line, concurrency-safe across sessions (mutex registered with trodlint's
// lockhold). Emission happens only for statements past the threshold, off
// the common path.
type slowLog struct {
	mu sync.Mutex
	w  io.Writer
}

// slowEntry is one slow-query log line. ReqID is the provenance request ID
// ("R<n>" with a runtime attached): resolve it in the provenance database
// (trod_requests.ReqId) to get the full trace, then BeginAt/replay around
// its commit — the "from slow query to time-travel debug" runbook in the
// README.
type slowEntry struct {
	Time      string  `json:"ts"`
	ReqID     string  `json:"req_id"`
	Session   uint64  `json:"session"`
	Type      string  `json:"type"`
	LatencyMs float64 `json:"latency_ms"`
	SQL       string  `json:"sql,omitempty"`
	Plan      string  `json:"plan,omitempty"`
	Status    string  `json:"status"`
	// Spans is the per-stage millisecond breakdown of the request when span
	// tracing recorded one — where the slow request's time actually went.
	Spans map[string]float64 `json:"spans,omitempty"`
}

func (l *slowLog) emit(e slowEntry) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	data = append(data, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(data)
	l.mu.Unlock()
}

// slowCheck emits a slow-query line for a just-served statement when the
// slow-query log is enabled and the frame-to-response latency crossed the
// threshold. Plan shape is computed here — a plan-cache lookup in the
// common case, and only for statements already past the threshold. Commits
// are logged too (a commit stalled on fsync or the quorum barrier is a slow
// statement in every way that matters); their lines carry the transaction's
// provenance request ID and no SQL or plan. buf, when non-nil, contributes
// the per-stage spans breakdown.
func (ss *session) slowCheck(req *protocol.Message, lat time.Duration, buf *span.Buf) {
	srv := ss.srv
	if srv.slow == nil || lat < srv.cfg.SlowQueryThreshold {
		return
	}
	isStmt := req.Type == protocol.MsgQuery || req.Type == protocol.MsgExec
	if !isStmt && req.Type != protocol.MsgCommit {
		return
	}
	e := slowEntry{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		ReqID:     ss.lastReqID,
		Session:   ss.id,
		Type:      msgTypeName(req.Type),
		LatencyMs: float64(lat.Microseconds()) / 1000,
		Status:    ss.lastStatus,
		Spans:     span.BreakdownMs(buf.Spans()),
	}
	if isStmt {
		e.SQL = req.SQL
		e.Plan = srv.cfg.DB.PlanShape(req.SQL)
	}
	srv.slow.emit(e)
}
