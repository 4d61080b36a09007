package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/repl"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// parseExposition reads Prometheus text output into series-name → value
// (labels kept as part of the name, comments skipped).
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// scrapeAgrees renders reg and checks every protocol.StatFields family
// against the value srv.Stats reports, and the per-subscriber lag families
// against Stats.SubscriberLags. Counters must be quiescent. It returns the
// parsed series and the Stats snapshot.
func scrapeAgrees(t *testing.T, node string, srv *Server, reg *metrics.Registry) (map[string]float64, protocol.Stats) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	series := parseExposition(t, buf.String())
	st := srv.Stats()
	for _, f := range protocol.StatFields {
		got, ok := series[f.Family]
		if !ok {
			t.Errorf("%s: series %s missing from scrape", node, f.Family)
		} else if want := *f.Field(&st); got != float64(want) {
			t.Errorf("%s: %s = %v on /metrics, %s = %d in Stats", node, f.Family, got, f.Key, want)
		}
	}
	for i, l := range st.SubscriberLags {
		label := `{subscriber="` + strconv.Itoa(i) + `"}`
		if got := series["trod_repl_subscriber_lag_seqs"+label]; got != float64(l.LagSeqs) {
			t.Errorf("%s: subscriber %d lag %v on /metrics, %d in Stats", node, i, got, l.LagSeqs)
		}
		if _, ok := series["trod_repl_subscriber_last_ack_age_seconds"+label]; !ok {
			t.Errorf("%s: subscriber %d ack age missing from scrape", node, i)
		}
	}
	return series, st
}

// TestStatsAndScrapeAgree drives traffic through a primary that feeds a
// replica and checks that the protocol Stats message and the Prometheus
// scrape report the same value for every counter, on the primary, on the
// replica, and on the replica once promoted.
func TestStatsAndScrapeAgree(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv, addr := startServer(t, d, Config{Source: repl.NewSource(d, repl.SourceOptions{})})
	reg := metrics.NewRegistry()
	d.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := cl.Exec(`INSERT INTO t VALUES (?, 'x')`, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Query(`SELECT COUNT(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (100, 'txn')`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rd, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "r.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	rd.SetReadOnly(true)
	r := repl.StartReplica(rd, addr, repl.ReplicaOptions{MinBackoff: 5 * time.Millisecond})
	t.Cleanup(r.Stop)
	rsrv, raddr := startServer(t, rd, Config{Replica: r})
	rreg := metrics.NewRegistry()
	rsrv.RegisterMetrics(rreg)
	head := d.Store().CurrentSeq()
	if !r.WaitForSeq(head, 5*time.Second) {
		t.Fatal("replica did not catch up")
	}
	waitFor(t, "the replica's first ack", func() bool {
		lags := srv.Stats().SubscriberLags
		return len(lags) == 1 && lags[0].AckedSeq == head
	})
	settle(t, cl)

	series, st := scrapeAgrees(t, "primary", srv, reg)
	if st.Requests == 0 || st.Commits == 0 || st.DBCommits == 0 || st.Subscribers != 1 || st.StreamedCommits == 0 {
		t.Fatalf("test drove no traffic? stats: %+v", st)
	}
	if got := series["trod_server_queue_wait_seconds_count"]; got != float64(st.Accepted) {
		t.Errorf("queue-wait histogram saw %v admissions, Stats says %d", got, st.Accepted)
	}
	// Every protocol request served lands in exactly one per-type latency
	// bucket, so the histogram counts sum to the request counter, less the
	// replica's subscribe (a stream, not a timed request). Latency is
	// observed after the reply is sent, so the settling ping itself may or
	// may not have landed yet; the two pings before it (Dial's and the
	// test's) and everything else has.
	const pingSeries, pings, subscribes = `trod_server_request_seconds_count{type="ping"}`, 3, 1
	var observed float64
	for name, v := range series {
		if strings.HasPrefix(name, "trod_server_request_seconds_count{") && name != pingSeries {
			observed += v
		}
	}
	if want := st.Requests - pings - subscribes; observed != float64(want) {
		t.Errorf("request_seconds histogram saw %v requests besides pings and subscribes, Stats says %d", observed, want)
	}
	if p := series[pingSeries]; p != pings-1 && p != pings {
		t.Errorf("request_seconds histogram saw %v pings, want %d and perhaps the settling one", p, pings-1)
	}

	if _, st := scrapeAgrees(t, "replica", rsrv, rreg); st.IsReplica != 1 || st.AppliedSeq != head {
		t.Fatalf("replica stats: is_replica %d, applied_seq %d, want 1 and %d", st.IsReplica, st.AppliedSeq, head)
	}
	rcl, err := client.Dial(raddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	if _, _, err := rcl.Promote(); err != nil {
		t.Fatal(err)
	}
	if series, st := scrapeAgrees(t, "promoted replica", rsrv, rreg); st.IsReplica != 0 || series["trod_repl_applied_seq"] != 0 {
		t.Fatalf("promoted replica still reports replica state: %+v", st)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the slow-query
// log while sessions are still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLogLinksToProvenance runs a server with an attached runtime
// and tracer and a 1ns slow-query threshold (everything is slow), then
// checks each logged line carries the plan shape and a request ID that
// resolves in the provenance database — the slow-query → time-travel
// runbook's load-bearing link.
func TestSlowQueryLogLinksToProvenance(t *testing.T) {
	prod := db.MustOpenMemory()
	defer prod.Close()
	prov := db.MustOpenMemory()
	defer prov.Close()
	app := runtime.New(prod)
	if err := prod.ExecScript(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Attach(app, prov, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var slow syncBuffer
	_, addr := startServer(t, prod, Config{
		App:                app,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryOutput:    &slow,
	})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(`INSERT INTO t VALUES (1, 'remote')`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(`SELECT v FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2, 'txn')`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	settle(t, cl)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	type line struct {
		ReqID     string  `json:"req_id"`
		Type      string  `json:"type"`
		LatencyMs float64 `json:"latency_ms"`
		SQL       string  `json:"sql"`
		Plan      string  `json:"plan"`
		Status    string  `json:"status"`
	}
	var lines []line
	for _, raw := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("malformed slow-query line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	// exec(insert), query(select), exec(insert in txn), and the interactive
	// commit — commits are slow statements too (fsync, quorum) and log
	// without SQL or plan, under the transaction's request ID.
	if len(lines) != 4 {
		t.Fatalf("slow-query lines = %d, want 4:\n%s", len(lines), slow.String())
	}
	var sawSelect, sawCommit bool
	for _, l := range lines {
		if l.Type == "commit" {
			sawCommit = true
			if l.SQL != "" || l.Plan != "" {
				t.Errorf("commit line carries SQL/plan: %+v", l)
			}
		} else if l.Status != "ok" || l.SQL == "" || l.LatencyMs <= 0 {
			t.Errorf("bad slow-query line: %+v", l)
		}
		if !strings.HasPrefix(l.ReqID, "R") {
			t.Errorf("req_id %q not from the app allocator", l.ReqID)
		}
		if strings.HasPrefix(l.SQL, "SELECT") {
			sawSelect = true
			if !strings.Contains(l.Plan, "scan(t") {
				t.Errorf("SELECT plan shape = %q, want a scan of t", l.Plan)
			}
		}
		// The load-bearing link: the logged request ID resolves in the
		// provenance DB, where BeginAt/replay can pick the story up.
		rows, err := prov.Query(`SELECT ReqId FROM trod_requests WHERE ReqId = ?`, l.ReqID)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Rows) != 1 {
			t.Errorf("req_id %q did not resolve in provenance (%d rows)", l.ReqID, len(rows.Rows))
		}
	}
	if !sawSelect {
		t.Error("no SELECT line in the slow-query log")
	}
	if !sawCommit {
		t.Error("no commit line in the slow-query log")
	}
}
