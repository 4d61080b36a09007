package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/protocol"
)

// TestMain lets the test binary run the real server when re-executed by a
// test, so the server can be killed like a real process.
func TestMain(m *testing.M) {
	if os.Getenv("TROD_SERVER_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// startServer runs the server in a child process and returns it with the
// address it listens on.
func startServer(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer, string) {
	t.Helper()
	portFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], append(args, "-addr", "127.0.0.1:0", "-portfile", portFile)...)
	cmd.Env = append(os.Environ(), "TROD_SERVER_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	for deadline := time.Now().Add(20 * time.Second); ; {
		if addr, err := os.ReadFile(portFile); err == nil && len(addr) > 0 {
			return cmd, &stderr, string(addr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never wrote its portfile; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerSmoke: a server started on a random port answers CREATE, INSERT
// and SELECT from a remote client, and on SIGTERM drains and exits cleanly.
func TestServerSmoke(t *testing.T) {
	cmd, stderr, addr := startServer(t, "-db", filepath.Join(t.TempDir(), "smoke.wal"))
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("portfile holds %q, not the port the server bound", addr)
	}
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE smoke (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO smoke VALUES (1, 'ci')`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT * FROM smoke`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Columns, ",") != "id,v" || len(res.Rows) != 1 ||
		res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsText() != "ci" {
		t.Fatalf("SELECT * FROM smoke = %v %v, want columns id,v and the one inserted row", res.Columns, res.Rows)
	}
	stopServer(t, cmd, stderr)
}

// TestServerCheckpointsPastThreshold: a server written past its checkpoint
// threshold checkpoints while it runs, so after a kill -9 (no shutdown
// checkpoint) the restart loads that snapshot and replays only the tail.
func TestServerCheckpointsPastThreshold(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "s.wal")
	cmd, stderr, addr := startServer(t, "-db", walPath, "-sync")
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO kv VALUES (1, '')`); err != nil {
		t.Fatal(err)
	}
	// Rewriting one row keeps the snapshot small while the log grows.
	const valueBytes = 1 << 20
	writes := 0
	var last string
	for written := 0; written < checkpointBytes+4*valueBytes; written += valueBytes {
		last = strings.Repeat(string(rune('a'+writes%26)), valueBytes)
		if _, err := c.Exec(`UPDATE kv SET v = ? WHERE k = 1`, last); err != nil {
			t.Fatal(err)
		}
		writes++
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after %d MiB of writes; stderr:\n%s", writes, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	d, err := db.Open(db.Options{Mode: db.Disk, Path: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := d.Recovery()
	if !rec.SnapshotLoaded || rec.TailRecords >= writes {
		t.Fatalf("recovery after %d writes: %+v, want the snapshot and a shorter tail", writes, rec)
	}
	res, err := d.Query(`SELECT v FROM kv WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != last {
		t.Fatal("the last acknowledged write did not survive the kill")
	}
}

// stopServer sends SIGTERM and checks the server drained and exited cleanly.
func stopServer(t *testing.T, cmd *exec.Cmd, stderr *bytes.Buffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, cmd, stderr)
}

// waitDrained waits for a signalled server to exit and checks it drained
// and exited cleanly.
func waitDrained(t *testing.T, cmd *exec.Cmd, stderr *bytes.Buffer) {
	t.Helper()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("no clean drain after SIGTERM; stderr:\n%s", stderr.String())
	}
}

// TestReplicationSmoke runs a primary and a -replica-of replica as two
// processes: DDL and a write on the primary become visible on the replica,
// a write on the replica fails with the typed read-only error, the
// replica's Stats report its role and applied sequence, and both exit
// cleanly on SIGTERM.
func TestReplicationSmoke(t *testing.T) {
	dir := t.TempDir()
	prim, primErr, paddr := startServer(t, "-db", filepath.Join(dir, "prim.wal"))
	repl, replErr, raddr := startServer(t, "-db", filepath.Join(dir, "repl.wal"), "-replica-of", paddr)
	pc, err := client.Dial(paddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Exec(`CREATE TABLE smoke (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Exec(`INSERT INTO smoke VALUES (1, 'replicated')`); err != nil {
		t.Fatal(err)
	}
	rc, err := client.Dial(raddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for deadline := time.Now().Add(20 * time.Second); ; {
		res, err := rc.Query(`SELECT v FROM smoke WHERE id = 1`)
		if err == nil && len(res.Rows) == 1 && res.Rows[0][0].AsText() == "replicated" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the write never reached the replica (last: %v, %v); replica stderr:\n%s", res, err, replErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := rc.Exec(`INSERT INTO smoke VALUES (2, 'nope')`); !protocol.IsCode(err, protocol.CodeReadOnly) {
		t.Fatalf("write on the replica = %v, want the typed read-only error", err)
	}
	st, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IsReplica != 1 || st.AppliedSeq < 1 {
		t.Fatalf("replica stats: is_replica %d, applied_seq %d; want a replica that applied the write", st.IsReplica, st.AppliedSeq)
	}
	stopServer(t, repl, replErr)
	stopServer(t, prim, primErr)
}

// TestMetricsSmoke runs a traced server with the metrics endpoint, a
// lame-duck window and the slow-query log: /healthz answers 200 while it
// serves, /metrics carries a series from every layer and a nonzero tracer
// event count, /healthz answers 503 once SIGTERM opens the lame-duck
// window, the server drains cleanly, and a statement slow by construction
// (a non-equi self-join) is logged as a JSON line with its provenance
// request ID.
func TestMetricsSmoke(t *testing.T) {
	dir := t.TempDir()
	mportFile := filepath.Join(dir, "maddr")
	cmd, stderr, addr := startServer(t, "-db", filepath.Join(dir, "obs.wal"), "-prov", filepath.Join(dir, "obs.prov.wal"),
		"-metrics-addr", "127.0.0.1:0", "-metrics-portfile", mportFile, "-lame-duck", "2s", "-slow-query-ms", "1")
	maddr, err := os.ReadFile(mportFile) // written before the data portfile
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE obs (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		if _, err := c.Exec(`INSERT INTO obs VALUES (?, 'row')`, i); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Query(`SELECT COUNT(*) FROM obs a JOIN obs b ON a.id < b.id`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].AsInt(); n != 300*299/2 {
		t.Fatalf("self-join counted %d pairs, want %d", n, 300*299/2)
	}

	hc := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := hc.Get("http://" + string(maddr) + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while serving = %d %q, want 200", code, body)
	}
	code, scrape := get("/metrics")
	if code != http.StatusOK || !strings.Contains(scrape, "\n# TYPE ") {
		t.Fatalf("/metrics = %d, want 200 and a text exposition:\n%s", code, scrape)
	}
	lines := strings.Split(scrape, "\n")
	for _, series := range []string{"trod_server_requests_total", "trod_server_request_seconds_bucket",
		"trod_server_queue_wait_seconds_count", "trod_db_commits_total", "trod_wal_syncs_total",
		"trod_db_plan_cache_hits_total", "trod_tracer_events_total", "trod_repl_epoch"} {
		if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, series) }) {
			t.Errorf("/metrics has no %s series", series)
		}
	}
	events := -1.0
	for _, l := range lines {
		if v, ok := strings.CutPrefix(l, "trod_tracer_events_total "); ok {
			if events, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if events <= 0 {
		t.Errorf("trod_tracer_events_total = %v, want the traced requests counted", events)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		if code, _ := get("/healthz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never answered 503 during the lame-duck window")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitDrained(t, cmd, stderr)
	if !strings.Contains(stderr.String(), `"req_id":"R`) {
		t.Fatalf("no slow-query line carries a provenance request ID; stderr:\n%s", stderr.String())
	}
}
