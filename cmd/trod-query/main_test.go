package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/span"
	"repro/internal/trace"
)

// TestMain lets the test binary run the real main when re-executed by the
// tests below, so flag handling is exercised exactly as shipped.
func TestMain(m *testing.M) {
	if os.Getenv("TROD_QUERY_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TROD_QUERY_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running main with %v: %v", args, err)
	}
	return string(out), ee.ExitCode()
}

// The satellite fix: unknown flags and misplaced flag-like arguments must
// exit non-zero with a usage message instead of being executed as SQL (or
// silently ignored).
func TestUnknownFlagExitsWithUsage(t *testing.T) {
	out, code := runMain(t, "-bogus")
	if code == 0 {
		t.Fatalf("unknown flag exited 0; output:\n%s", out)
	}
	if !strings.Contains(out, "-bogus") || !strings.Contains(out, "Usage") {
		t.Fatalf("missing usage message for unknown flag:\n%s", out)
	}
}

func TestMisplacedFlagAfterQueryExitsWithUsage(t *testing.T) {
	out, code := runMain(t, "-db", "ignored.wal", "SELECT 1", "-timing")
	if code != 2 {
		t.Fatalf("misplaced flag exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-timing") || !strings.Contains(out, "Usage") {
		t.Fatalf("missing usage message for misplaced flag:\n%s", out)
	}
}

func TestMissingDBAndRemoteExitsWithUsage(t *testing.T) {
	out, code := runMain(t)
	if code != 2 {
		t.Fatalf("no -db/-remote exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-db or -remote") {
		t.Fatalf("missing requirement message:\n%s", out)
	}
}

func TestStatsRequiresRemote(t *testing.T) {
	out, code := runMain(t, "-stats")
	if code != 2 {
		t.Fatalf("-stats without -remote exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-stats requires -remote") {
		t.Fatalf("missing -stats requirement message:\n%s", out)
	}
}

// TestStatsAgainstLiveServer spins an in-process server and checks the
// operator-facing stats output (text and JSON shapes).
func TestStatsAgainstLiveServer(t *testing.T) {
	d := db.MustOpenMemory()
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: d})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}()
	addr := ln.Addr().String()

	out, code := runMain(t, "-remote", addr, "-stats")
	if code != 0 {
		t.Fatalf("-stats exited %d; output:\n%s", code, out)
	}
	for _, want := range []string{"requests:", "plan_cache_hits:", "role:               primary"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text stats missing %q:\n%s", want, out)
		}
	}

	out, code = runMain(t, "-remote", addr, "-stats", "-json")
	if code != 0 {
		t.Fatalf("-stats -json exited %d; output:\n%s", code, out)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("stats JSON does not parse: %v\n%s", err, out)
	}
	if parsed["is_replica"] != false {
		t.Fatalf("json stats: is_replica = %v, want false", parsed["is_replica"])
	}
	if _, ok := parsed["requests"]; !ok {
		t.Fatalf("json stats missing requests:\n%s", out)
	}
}

// node is one in-process trod-server (as cmd/trod-server wires it, metrics
// registry included) torn down with the test.
type node struct {
	addr string
	reg  *metrics.Registry
}

func startNode(t *testing.T, d *db.DB, cfg server.Config, tr *trace.Tracer) node {
	t.Helper()
	cfg.DB = d
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	d.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	if tr != nil {
		tr.RegisterMetrics(reg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return node{addr: ln.Addr().String(), reg: reg}
}

// surfaces returns the metric family names a node's /metrics serves and the
// keys its `-stats -json` prints.
func (n node) surfaces(t *testing.T) (families, keys map[string]bool) {
	t.Helper()
	var b strings.Builder
	if err := n.reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	families = map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = true
		}
	}
	out, code := runMain(t, "-remote", n.addr, "-stats", "-json")
	if code != 0 {
		t.Fatalf("-stats -json exited %d:\n%s", code, out)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("stats JSON does not parse: %v\n%s", err, out)
	}
	keys = map[string]bool{}
	for k := range parsed {
		keys[k] = true
	}
	return families, keys
}

// Every /metrics family and `-stats -json` key an operator can see today, on
// a traced primary with a replication source and on its replica. Surfaces
// may grow; a name that disappears breaks dashboards and scripts.
var (
	pinnedFamilies = map[string][]string{
		"primary": {
			"trod_db_checkpoint_seconds", "trod_db_checkpoints_total", "trod_db_commit_seq",
			"trod_db_commits_total", "trod_db_conflicts_total", "trod_db_history_floor_seq",
			"trod_db_max_chain_length", "trod_db_plan_cache_hits_total", "trod_db_plan_cache_misses_total",
			"trod_db_plan_cache_size", "trod_db_resident_versions", "trod_db_vacuum_dropped_versions_total",
			"trod_db_vacuum_runs_total", "trod_repl_epoch", "trod_repl_fenced",
			"trod_repl_quorum_stalls_total", "trod_repl_streamed_commits_total",
			"trod_repl_subscriber_last_ack_age_seconds", "trod_repl_subscriber_lag_seqs",
			"trod_repl_subscribers", "trod_server_accepted_total", "trod_server_active_sessions",
			"trod_server_active_txns", "trod_server_commits_total", "trod_server_conflicts_total",
			"trod_server_expired_txns_total", "trod_server_queue_wait_seconds", "trod_server_queued_conns",
			"trod_server_rejected_busy_total", "trod_server_request_seconds", "trod_server_requests_total",
			"trod_span_stage_seconds", "trod_span_store_dropped_total", "trod_span_store_inserted_total",
			"trod_span_traces_kept_total", "trod_span_traces_sampled_out_total",
			"trod_span_traces_started_total", "trod_tracer_drops_total", "trod_tracer_events_total",
			"trod_tracer_flush_seconds", "trod_tracer_flushes_total", "trod_wal_syncs_total",
		},
		"replica": {
			"trod_db_checkpoint_seconds", "trod_db_checkpoints_total", "trod_db_commit_seq",
			"trod_db_commits_total", "trod_db_conflicts_total", "trod_db_history_floor_seq",
			"trod_db_max_chain_length", "trod_db_plan_cache_hits_total", "trod_db_plan_cache_misses_total",
			"trod_db_plan_cache_size", "trod_db_resident_versions", "trod_db_vacuum_dropped_versions_total",
			"trod_db_vacuum_runs_total", "trod_repl_applied_seq", "trod_repl_connected", "trod_repl_epoch",
			"trod_repl_fenced", "trod_repl_lag_seqs", "trod_server_accepted_total",
			"trod_server_active_sessions", "trod_server_active_txns", "trod_server_commits_total",
			"trod_server_conflicts_total", "trod_server_expired_txns_total", "trod_server_queue_wait_seconds",
			"trod_server_queued_conns", "trod_server_rejected_busy_total", "trod_server_request_seconds",
			"trod_server_requests_total", "trod_span_stage_seconds", "trod_wal_syncs_total",
		},
	}
	pinnedKeys = map[string][]string{
		"primary": {
			"accepted", "active_sessions", "active_txns", "checkpoints", "commits", "conflicts",
			"db_commits", "db_conflicts", "epoch", "expired_txns", "fenced", "history_floor",
			"is_replica", "max_chain_length", "plan_cache_hits", "plan_cache_misses", "queued_conns",
			"quorum_stalls", "rejected_busy", "requests", "resident_versions", "subscriber_lags",
			"subscribers", "tracer_drops", "tracer_events", "tracer_flushes", "vacuum_dropped",
			"vacuum_runs", "wal_syncs",
		},
		"replica": {
			"accepted", "active_sessions", "active_txns", "applied_seq", "checkpoints", "commits",
			"conflicts", "db_commits", "db_conflicts", "epoch", "expired_txns", "fenced",
			"history_floor", "is_replica", "max_chain_length", "plan_cache_hits", "plan_cache_misses",
			"primary_seq", "queued_conns", "quorum_stalls", "rejected_busy", "replication_connected",
			"replication_lag", "requests", "resident_versions", "subscribers", "tracer_drops",
			"tracer_events", "tracer_flushes", "vacuum_dropped", "vacuum_runs", "wal_syncs",
		},
	}
)

// TestOperatorSurfacesPinned runs a fixed script through a traced primary
// with a replication source and through its replica, then checks that every
// pinned /metrics family and `-stats -json` key is still served.
func TestOperatorSurfacesPinned(t *testing.T) {
	dir := t.TempDir()
	pd, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "p.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pd.Close() })
	prov := db.MustOpenMemory()
	t.Cleanup(func() { prov.Close() })
	app := runtime.New(pd)
	tr, err := trace.Attach(app, prov, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	src := repl.NewSource(pd, repl.SourceOptions{Heartbeat: 20 * time.Millisecond})
	primary := startNode(t, pd, server.Config{App: app, TracerStats: tr.Counters, Source: src,
		Spans: span.NewCollector(span.CollectorOptions{Sample: 1})}, tr)

	rd, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "r.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	rd.SetReadOnly(true)
	r := repl.StartReplica(rd, primary.addr, repl.ReplicaOptions{MinBackoff: 5 * time.Millisecond})
	t.Cleanup(r.Stop)
	replica := startNode(t, rd, server.Config{Replica: r}, nil)

	out, code := runMain(t, "-remote", primary.addr,
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)", "INSERT INTO t VALUES (1, 'a')", "SELECT * FROM t")
	if code != 0 {
		t.Fatalf("primary script exited %d:\n%s", code, out)
	}
	if !r.WaitForSeq(pd.Store().CurrentSeq(), 5*time.Second) {
		t.Fatal("replica did not catch up")
	}
	if out, code := runMain(t, "-remote", replica.addr, "SELECT * FROM t"); code != 0 || !strings.Contains(out, "(1 rows)") {
		t.Fatalf("replica read exited %d:\n%s", code, out)
	}

	for role, n := range map[string]node{"primary": primary, "replica": replica} {
		families, keys := n.surfaces(t)
		for _, f := range pinnedFamilies[role] {
			if !families[f] {
				t.Errorf("%s /metrics no longer serves %s", role, f)
			}
		}
		for _, k := range pinnedKeys[role] {
			if !keys[k] {
				t.Errorf("%s -stats -json no longer prints %q", role, k)
			}
		}
	}
}

func TestDBAndRemoteMutuallyExclusive(t *testing.T) {
	out, code := runMain(t, "-db", "x.wal", "-remote", "127.0.0.1:1")
	if code != 2 {
		t.Fatalf("-db with -remote exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "mutually exclusive") {
		t.Fatalf("missing exclusivity message:\n%s", out)
	}
}
