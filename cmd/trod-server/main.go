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
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-flight
// requests drain, and the WAL is checkpointed so the next start recovers
// from a snapshot. With -lame-duck, shutdown first flips /healthz to 503 and
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
	"flag"
	"fmt"
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

var (
	dbPath      = flag.String("db", "", "path to the database WAL file (required)")
	addr        = flag.String("addr", ":7654", "listen address (port 0 picks a free port)")
	portFile    = flag.String("portfile", "", "write the bound address to this file once listening")
	syncEach    = flag.Bool("sync", false, "fsync each commit before acknowledging (group commit)")
	maxConns    = flag.Int("max-conns", 64, "max concurrently served sessions")
	queueDepth  = flag.Int("queue", 0, "admission queue depth beyond -max-conns (0 = 2*max-conns)")
	idleTimeout = flag.Duration("idle-timeout", 2*time.Minute, "disconnect idle sessions after this long")
	txnTimeout  = flag.Duration("txn-timeout", 15*time.Second, "abort interactive transactions open longer than this")
	drainWait   = flag.Duration("drain", 10*time.Second, "max graceful-shutdown drain time")
	replicaOf   = flag.String("replica-of", "", "primary address to replicate from (this server becomes a read-only replica)")
	syncRepl    = flag.Int("sync-replicas", 0, "block each commit ack until this many replicas confirm it (0 = async replication)")
	quorumWait  = flag.Duration("quorum-timeout", 5*time.Second, "max wait for -sync-replicas confirmations before failing the commit")
	metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics and /healthz on this address (empty = disabled)")
	metricsPort = flag.String("metrics-portfile", "", "write the bound metrics address to this file once listening")
	slowQueryMs = flag.Int("slow-query-ms", 0, "log statements slower than this many milliseconds as JSON lines on stderr (0 = disabled)")
	provPath    = flag.String("prov", "", "provenance WAL path; attaches the always-on tracer (empty = disabled)")
	lameDuck    = flag.Duration("lame-duck", 0, "on shutdown signal, answer /healthz with 503 for this long before draining")
	traceSample = flag.Float64("trace-sample", 0, "probability (0..1) of keeping a request's span trace; errors and conflicts are always kept once tracing is on")
	traceKeepMs = flag.Int("trace-keep-ms", 0, "always keep span traces of requests at least this slow (0 = disabled)")
)

func main() {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "trod-server: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *dbPath == "" {
		fmt.Fprintln(os.Stderr, "trod-server: -db is required")
		flag.Usage()
		os.Exit(2)
	}
	sync := wal.SyncNever
	if *syncEach {
		sync = wal.SyncEachCommit
	}
	d, err := trod.OpenDB(trod.DBOptions{Mode: db.Disk, Path: *dbPath, Sync: sync})
	if err != nil {
		log.Fatalf("open %s: %v", *dbPath, err)
	}
	defer d.Close()
	if rec := d.Recovery(); rec.TotalRecords > 0 || rec.SnapshotLoaded {
		log.Printf("recovered %s: snapshot=%v tail=%d records", *dbPath, rec.SnapshotLoaded, rec.TailRecords)
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
		cfg.SlowQueryOutput = os.Stderr
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
		log.Printf("span tracing enabled: sample=%g keep-over=%dms", *traceSample, *traceKeepMs)
	}
	// Always-on tracing: requests, statements, and row provenance land in
	// a second database, queryable with the same SQL engine. Slow-query
	// request IDs resolve there.
	var tracer *trace.Tracer
	if *provPath != "" {
		prov, err := trod.OpenDB(trod.DBOptions{Mode: db.Disk, Path: *provPath})
		if err != nil {
			log.Fatalf("open provenance db %s: %v", *provPath, err)
		}
		defer prov.Close()
		app := runtime.New(d)
		tracer, err = trace.Attach(app, prov, trace.Config{})
		if err != nil {
			log.Fatalf("attach tracer: %v", err)
		}
		defer tracer.Close()
		cfg.App = app
		cfg.TracerStats = tracer.Counters
		log.Printf("always-on tracing to %s", *provPath)
	}
	// The replication epoch lives next to the WAL and fences a deposed
	// primary across restarts: a node whose epoch file records a newer
	// epoch elsewhere boots fenced and rejects writes and subscribers.
	epoch, err := repl.OpenEpoch(*dbPath + ".epoch")
	if err != nil {
		log.Fatalf("open epoch: %v", err)
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
		log.Printf("replicating from %s (resuming at seq %d, epoch %d)", *replicaOf, replica.AppliedSeq(), epoch.Current())
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
		log.Printf("fenced: epoch %d is superseded by %d; this node cannot accept writes", epoch.Current(), epoch.FencedBy())
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
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
			log.Fatalf("metrics listen %s: %v", *metricsAddr, err)
		}
		defer ms.Close()
		log.Printf("metrics on http://%s/metrics", ms.Addr())
		if *metricsPort != "" {
			if err := os.WriteFile(*metricsPort, []byte(ms.Addr()), 0o644); err != nil {
				log.Fatalf("metrics portfile: %v", err)
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	log.Printf("trod-server listening on %s (db %s)", ln.Addr(), *dbPath)
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("portfile: %v", err)
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		if *lameDuck > 0 {
			lameDucking.Store(true)
			log.Printf("received %v; lame-duck for %v (healthz now 503), then draining", sig, *lameDuck)
			time.Sleep(*lameDuck)
		} else {
			log.Printf("received %v; draining sessions and checkpointing", sig)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		<-done
		if replica != nil {
			replica.Stop()
		}
		st := srv.Stats()
		if st.IsReplica == 1 {
			log.Printf("drained cleanly: %d requests served, applied seq %d (lag %d)",
				st.Requests, st.AppliedSeq, st.ReplLag)
		} else {
			log.Printf("drained cleanly: %d requests served, %d commits, %d WAL syncs",
				st.Requests, st.Commits, st.WALSyncs)
		}
	case err := <-done:
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
	}
}
