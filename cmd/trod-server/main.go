// trod-server serves a TROD database over TCP: clients (cmd/trod-query
// -remote, internal/client) speak the length-prefixed CRC-framed protocol
// with autocommit statements, interactive transactions, and server stats.
//
// Usage:
//
//	trod-server -db path/to/db.wal                    # listen on :7654
//	trod-server -db db.wal -addr 127.0.0.1:0 -portfile /tmp/addr
//	trod-server -db db.wal -sync                      # fsync per commit (group commit)
//	trod-server -db replica.wal -replica-of 10.0.0.1:7654   # read-only replica
//
// Every server is a replication source: replicas subscribe to it and tail
// its commit log. With -replica-of the server instead becomes a read-only
// replica of the given primary — it bootstraps from the primary (snapshot or
// log catch-up), persists everything to its own WAL, serves SELECTs at its
// applied sequence, and rejects writes with a typed read-only error.
//
// The data and -prov databases checkpoint in the background every 64 MiB of
// WAL, so the log and the next start's replay stay bounded. SIGINT/SIGTERM
// trigger a graceful shutdown: the listener closes, in-flight requests
// drain, and the WAL is checkpointed so the next start recovers from a
// snapshot. With -lame-duck, shutdown first flips /healthz to 503 and
// keeps serving for the given window so load balancers stop routing before
// the drain begins.
//
// With -metrics-addr the server also serves a Prometheus-style text endpoint
// (GET /metrics) and a health check (GET /healthz) on a second listener.
// With -slow-query-ms N, every statement slower than N milliseconds emits a
// structured JSON line on stderr (query text, latency, plan shape, request
// ID). With -prov the server attaches the always-on tracer: every remote
// request is recorded in the given provenance database, and slow-query
// request IDs resolve there (SELECT * FROM trod_requests WHERE ReqId = ...).
//
// With -trace-sample P and/or -trace-keep-ms N, requests are span-traced
// across every layer (framing, parse/plan, execute, OCC validation, WAL
// append/fsync, quorum wait) and tail-sampled at completion: errors,
// conflicts, and requests slower than N ms are always kept, the rest with
// probability P. Kept traces land in the in-memory trod_spans system table
// (query it over SQL, or render one with trod-query -trace <req_id>), feed
// the trod_span_stage_seconds histogram, and add a per-stage `spans`
// breakdown to slow-query log lines. On a traced primary, replicated
// commits carry the originating trace ID so replica-side apply spans
// correlate with the request that caused them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	trod "repro"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/internal/wal"
)

// checkpointBytes is the WAL growth after which the data database and the
// -prov database checkpoint in the background: recovery then loads a
// snapshot and replays at most this much log, and each checkpoint releases
// the log generation before the last.
const checkpointBytes = 64 << 20

// errUsage marks a command line run rejects; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "trod-server: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole server: it parses args, serves until SIGINT or SIGTERM,
// drains and returns. Log lines and the slow-query log go to stderr; stdout
// is unused.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trod-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbPath      = fs.String("db", "", "path to the database WAL file (required)")
		addr        = fs.String("addr", ":7654", "listen address (port 0 picks a free port)")
		portFile    = fs.String("portfile", "", "write the bound address to this file once listening")
		syncEach    = fs.Bool("sync", false, "fsync each commit before acknowledging (group commit)")
		maxConns    = fs.Int("max-conns", 64, "max concurrently served sessions")
		queueDepth  = fs.Int("queue", 0, "admission queue depth beyond -max-conns (0 = 2*max-conns)")
		idleTimeout = fs.Duration("idle-timeout", 2*time.Minute, "disconnect idle sessions after this long")
		txnTimeout  = fs.Duration("txn-timeout", 15*time.Second, "abort interactive transactions open longer than this")
		drainWait   = fs.Duration("drain", 10*time.Second, "max graceful-shutdown drain time")
		replicaOf   = fs.String("replica-of", "", "primary address to replicate from (this server becomes a read-only replica)")
		syncRepl    = fs.Int("sync-replicas", 0, "block each commit ack until this many replicas confirm it (0 = async replication)")
		quorumWait  = fs.Duration("quorum-timeout", 5*time.Second, "max wait for -sync-replicas confirmations before failing the commit")
		metricsAddr = fs.String("metrics-addr", "", "serve GET /metrics and /healthz on this address (empty = disabled)")
		metricsPort = fs.String("metrics-portfile", "", "write the bound metrics address to this file once listening")
		slowQueryMs = fs.Int("slow-query-ms", 0, "log statements slower than this many milliseconds as JSON lines on stderr (0 = disabled)")
		provPath    = fs.String("prov", "", "provenance WAL path; attaches the always-on tracer (empty = disabled)")
		lameDuck    = fs.Duration("lame-duck", 0, "on shutdown signal, answer /healthz with 503 for this long before draining")
		traceSample = fs.Float64("trace-sample", 0, "probability (0..1) of keeping a request's span trace; errors and conflicts are always kept once tracing is on")
		traceKeepMs = fs.Int("trace-keep-ms", 0, "always keep span traces of requests at least this slow (0 = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "trod-server: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return errUsage
	}
	if *dbPath == "" {
		fmt.Fprintln(stderr, "trod-server: -db is required")
		fs.Usage()
		return errUsage
	}
	logger := log.New(stderr, "", log.LstdFlags)
	syncPolicy := wal.SyncNever
	if *syncEach {
		syncPolicy = wal.SyncEachCommit
	}
	d, err := trod.OpenDB(trod.DBOptions{Mode: db.Disk, Path: *dbPath, Sync: syncPolicy, CheckpointBytes: checkpointBytes})
	if err != nil {
		return fmt.Errorf("open %s: %w", *dbPath, err)
	}
	defer d.Close()
	if rec := d.Recovery(); rec.TotalRecords > 0 || rec.SnapshotLoaded {
		logger.Printf("recovered %s: snapshot=%v tail=%d records", *dbPath, rec.SnapshotLoaded, rec.TailRecords)
	}
	cfg := server.Config{
		DB:          d,
		MaxConns:    *maxConns,
		QueueDepth:  *queueDepth,
		IdleTimeout: *idleTimeout,
		TxnTimeout:  *txnTimeout,
	}
	if *slowQueryMs > 0 {
		cfg.SlowQueryThreshold = time.Duration(*slowQueryMs) * time.Millisecond
		cfg.SlowQueryOutput = stderr
	}
	// Request-scoped span tracing: tail-sampled traces land in the trod_spans
	// system table (SELECT ... FROM trod_spans, or trod-query -trace <req_id>).
	spanCol := span.NewCollector(span.CollectorOptions{
		Sample:   *traceSample,
		KeepOver: time.Duration(*traceKeepMs) * time.Millisecond,
	})
	if spanCol.Enabled() {
		// Seed trace IDs from the clock so IDs from different nodes (and
		// restarts) don't collide in cross-node trace queries.
		spanCol.SeedTraceIDs(uint64(time.Now().UnixNano()))
		cfg.Spans = spanCol
		logger.Printf("span tracing enabled: sample=%g keep-over=%dms", *traceSample, *traceKeepMs)
	}
	// Always-on tracing: requests, statements, and row provenance land in
	// a second database, queryable with the same SQL engine. Slow-query
	// request IDs resolve there.
	var tracer *trace.Tracer
	if *provPath != "" {
		prov, err := trod.OpenDB(trod.DBOptions{Mode: db.Disk, Path: *provPath, CheckpointBytes: checkpointBytes})
		if err != nil {
			return fmt.Errorf("open provenance db %s: %w", *provPath, err)
		}
		defer prov.Close()
		app := runtime.New(d)
		tracer, err = trace.Attach(app, prov, trace.Config{})
		if err != nil {
			return fmt.Errorf("attach tracer: %w", err)
		}
		defer tracer.Close()
		cfg.App = app
		cfg.TracerStats = tracer.Counters
		logger.Printf("always-on tracing to %s", *provPath)
	}
	// The replication epoch lives next to the WAL and fences a deposed
	// primary across restarts: a node whose epoch file records a newer
	// epoch elsewhere boots fenced and rejects writes and subscribers.
	epoch, err := repl.OpenEpoch(*dbPath + ".epoch")
	if err != nil {
		return fmt.Errorf("open epoch: %w", err)
	}
	var replica *repl.Replica
	if *replicaOf != "" {
		d.SetReadOnly(true)
		ropts := repl.ReplicaOptions{Epoch: epoch}
		if spanCol.Enabled() {
			// Traced commits from the primary record their apply cost here,
			// under the originating request's trace ID: querying this node's
			// trod_spans by trace_id (or seq) shows the replica-side spans.
			ropts.SpanSink = func(buf *span.Buf) {
				spans := buf.Spans()
				root := spans[0]
				spanCol.Offer(&span.Trace{TraceID: buf.TraceID, Kind: "replica", Status: "replica",
					Wall: time.Duration(root.Dur), Start: time.Unix(0, root.Start), Seq: buf.CommitSeq(), Spans: spans})
			}
		}
		replica = repl.StartReplica(d, *replicaOf, ropts)
		defer replica.Stop()
		cfg.Replica = replica
		logger.Printf("replicating from %s (resuming at seq %d, epoch %d)", *replicaOf, replica.AppliedSeq(), epoch.Current())
	}
	// Every node serves replication subscribers — a replica must be able to
	// feed peers the moment it is promoted, and a deposed primary must
	// answer stale subscribers with a typed fenced error. Source and
	// Replica share the node's one epoch.
	cfg.Source = repl.NewSource(d, repl.SourceOptions{
		Epoch:         epoch,
		SyncReplicas:  *syncRepl,
		QuorumTimeout: *quorumWait,
	})
	if epoch.Fenced() {
		logger.Printf("fenced: epoch %d is superseded by %d; this node cannot accept writes", epoch.Current(), epoch.FencedBy())
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	// The metrics endpoint rides a second listener so scrapes never compete
	// with the frame protocol. /healthz answers 503 once the lame-duck
	// window opens or the drain begins — load balancers stop routing while
	// in-flight requests finish.
	var lameDucking atomic.Bool
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		d.RegisterMetrics(reg)
		srv.RegisterMetrics(reg)
		if tracer != nil {
			tracer.RegisterMetrics(reg)
		}
		ms, err := metrics.ServeHTTP(*metricsAddr, reg, func() error {
			if lameDucking.Load() || srv.Draining() {
				return fmt.Errorf("draining")
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("metrics listen %s: %w", *metricsAddr, err)
		}
		defer ms.Close()
		logger.Printf("metrics on http://%s/metrics", ms.Addr())
		if *metricsPort != "" {
			if err := os.WriteFile(*metricsPort, []byte(ms.Addr()), 0o644); err != nil {
				return fmt.Errorf("metrics portfile: %w", err)
			}
		}
	}

	// Signals are caught before the portfile appears, so a supervisor that
	// waits for it can always stop the server cleanly.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	logger.Printf("trod-server listening on %s (db %s)", ln.Addr(), *dbPath)
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("portfile: %w", err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		if *lameDuck > 0 {
			lameDucking.Store(true)
			logger.Printf("received %v; lame-duck for %v (healthz now 503), then draining", sig, *lameDuck)
			time.Sleep(*lameDuck)
		} else {
			logger.Printf("received %v; draining sessions and checkpointing", sig)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-done
		if replica != nil {
			replica.Stop()
		}
		st := srv.Stats()
		if st.IsReplica == 1 {
			logger.Printf("drained cleanly: %d requests served, applied seq %d (lag %d)",
				st.Requests, st.AppliedSeq, st.ReplLag)
		} else {
			logger.Printf("drained cleanly: %d requests served, %d commits, %d WAL syncs",
				st.Requests, st.Commits, st.WALSyncs)
		}
	case err := <-done:
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}
