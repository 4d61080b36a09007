// trod-query is a SQL shell for TROD databases: open a WAL-backed database
// file (production or provenance) and run queries against it, pipe a script
// on stdin, or connect to a running trod-server with -remote.
//
// Usage:
//
//	trod-query -db path/to/db.wal "SELECT * FROM Executions LIMIT 10"
//	echo "SELECT COUNT(*) FROM forum_sub;" | trod-query -db db.wal
//	trod-query -db db.wal            # interactive: one statement per line
//	trod-query -remote 127.0.0.1:7654 "SELECT * FROM t"
//	trod-query -remote 127.0.0.1:7654 -stats        # server counters (text)
//	trod-query -remote 127.0.0.1:7654 -stats -json  # ... as JSON
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	trod "repro"
	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/span"
)

var (
	dbPath   = flag.String("db", "", "path to the database WAL file")
	remote   = flag.String("remote", "", "trod-server address to connect to instead of opening -db")
	timing   = flag.Bool("timing", false, "print per-query execution time")
	stats    = flag.Bool("stats", false, "print the server's Stats response and exit (requires -remote)")
	jsonOut  = flag.Bool("json", false, "with -stats: print the stats as JSON")
	promote  = flag.Bool("promote", false, "promote the -remote replica to primary at the next epoch and exit")
	traceReq = flag.String("trace", "", "render the span tree of a kept trace by request ID and exit (requires -remote and server-side -trace-sample/-trace-keep-ms)")
)

// queryer runs one SQL statement; the local (embedded DB) and remote
// (trod-server client) modes both satisfy it.
type queryer interface {
	Query(sql string, args ...any) (*trod.Rows, error)
	Tables() []string
	Close() error
}

type localDB struct{ d *trod.DB }

func (l localDB) Query(sql string, args ...any) (*trod.Rows, error) { return l.d.Query(sql, args...) }
func (l localDB) Tables() []string                                  { return l.d.Store().Tables() }
func (l localDB) Close() error                                      { return l.d.Close() }

type remoteDB struct{ c *client.Client }

func (r remoteDB) Query(sql string, args ...any) (*trod.Rows, error) {
	res, err := r.c.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return &trod.Rows{Columns: res.Columns, Rows: res.Rows, RowsAffected: int(res.RowsAffected)}, nil
}
func (r remoteDB) Tables() []string { return nil }
func (r remoteDB) Close() error     { return r.c.Close() }

func main() {
	flag.Parse()
	// A misplaced flag after the first positional argument would otherwise
	// be executed as SQL and produce a baffling parse error; reject it.
	for _, a := range flag.Args() {
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(os.Stderr, "trod-query: unknown flag or misplaced argument %q (flags go before queries)\n", a)
			flag.Usage()
			os.Exit(2)
		}
	}
	var q queryer
	switch {
	case *remote != "" && *dbPath != "":
		fmt.Fprintln(os.Stderr, "trod-query: -db and -remote are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	case *stats && *remote == "":
		fmt.Fprintln(os.Stderr, "trod-query: -stats requires -remote")
		flag.Usage()
		os.Exit(2)
	case *promote && *remote == "":
		fmt.Fprintln(os.Stderr, "trod-query: -promote requires -remote")
		flag.Usage()
		os.Exit(2)
	case *traceReq != "" && *remote == "":
		fmt.Fprintln(os.Stderr, "trod-query: -trace requires -remote")
		flag.Usage()
		os.Exit(2)
	case *remote != "":
		c, err := client.Dial(*remote, client.Options{})
		if err != nil {
			log.Fatalf("connect %s: %v", *remote, err)
		}
		if *promote {
			epoch, seq, err := c.Promote()
			c.Close()
			if err != nil {
				log.Fatalf("promote: %v", err)
			}
			fmt.Printf("promoted: epoch %d, seq %d\n", epoch, seq)
			fmt.Printf("this node now accepts writes; point replicas and clients at %s\n", *remote)
			return
		}
		if *stats {
			st, err := c.Stats()
			c.Close()
			if err != nil {
				log.Fatalf("stats: %v", err)
			}
			printStats(st, *jsonOut)
			return
		}
		if *traceReq != "" {
			err := renderTrace(c, *traceReq)
			c.Close()
			if err != nil {
				log.Fatalf("trace: %v", err)
			}
			return
		}
		q = remoteDB{c}
	case *dbPath != "":
		d, err := trod.OpenDiskDBNoSync(*dbPath)
		if err != nil {
			log.Fatalf("open %s: %v", *dbPath, err)
		}
		q = localDB{d}
	default:
		fmt.Fprintln(os.Stderr, "trod-query: one of -db or -remote is required")
		flag.Usage()
		os.Exit(2)
	}
	defer q.Close()

	if flag.NArg() > 0 {
		for _, stmt := range flag.Args() {
			if err := runOne(q, stmt); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminalish()
	if interactive {
		fmt.Println("trod-query: one SQL statement per line; tables: .tables; quit: .exit")
		fmt.Print("trod> ")
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "--"):
		case line == ".exit" || line == ".quit":
			return
		case line == ".tables":
			if *remote != "" {
				fmt.Fprintln(os.Stderr, "error: .tables is not available in remote mode")
				break
			}
			for _, t := range q.Tables() {
				fmt.Println(t)
			}
		default:
			if err := runOne(q, strings.TrimSuffix(line, ";")); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		if interactive {
			fmt.Print("trod> ")
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

func runOne(q queryer, stmt string) error {
	t0 := time.Now()
	rows, err := q.Query(stmt)
	if err != nil {
		return err
	}
	if len(rows.Columns) > 0 {
		fmt.Print(trod.FormatRows(rows))
		fmt.Printf("(%d rows)\n", len(rows.Rows))
	} else {
		fmt.Printf("ok (%d rows affected)\n", rows.RowsAffected)
	}
	if *timing {
		fmt.Printf("time: %.2f ms\n", float64(time.Since(t0).Microseconds())/1000)
	}
	return nil
}

// renderTrace fetches a kept trace's spans from the server's trod_spans
// system table and prints the span tree with per-stage durations and the
// critical path. Multiple traces can share a request ID only across retries;
// the newest (highest trace ID) wins.
func renderTrace(c *client.Client, reqID string) error {
	res, err := c.Query(`SELECT trace_id, kind, status, span_id, parent_id, stage, start_us, dur_us, seq FROM trod_spans WHERE req_id = ?`, reqID)
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("no kept trace for request %q (server needs -trace-sample or -trace-keep-ms, and the trace must have been kept)", reqID)
	}
	var newest int64
	for _, row := range res.Rows {
		if tid := row[0].AsInt(); tid > newest {
			newest = tid
		}
	}
	t := &span.Trace{TraceID: uint64(newest), ReqID: reqID}
	for _, row := range res.Rows {
		if row[0].AsInt() != newest {
			continue
		}
		stage, ok := span.ParseStage(row[5].AsText())
		if !ok {
			continue
		}
		sp := span.Span{
			ID:     uint32(row[3].AsInt()),
			Parent: uint32(row[4].AsInt()),
			Stage:  stage,
			Start:  row[6].AsInt() * 1000,
			Dur:    row[7].AsInt() * 1000,
			Seq:    uint64(row[8].AsInt()),
		}
		if sp.ID == span.RootID {
			t.Kind = row[1].AsText()
			t.Status = row[2].AsText()
			t.Wall = time.Duration(sp.Dur)
			t.Seq = sp.Seq
		}
		t.Spans = append(t.Spans, sp)
	}
	fmt.Print(span.Render(t))
	if t.Seq != 0 {
		fmt.Printf("commit seq %d — replay it: trod-query -db <wal> \"...\" at BeginAt(%d), or inspect provenance via req_id\n", t.Seq, t.Seq)
	}
	return nil
}

// printStats renders a Stats response for operators: the node's role, then
// every protocol.StatFields counter under its key, one per line (stable,
// grep-friendly), or one JSON object with -json. Flags print as booleans.
func printStats(st protocol.Stats, asJSON bool) {
	value := func(f *protocol.StatField) any {
		if f.Kind == protocol.StatFlag {
			return *f.Field(&st) == 1
		}
		return *f.Field(&st)
	}
	if asJSON {
		out := map[string]any{}
		for i := range protocol.StatFields {
			out[protocol.StatFields[i].Key] = value(&protocol.StatFields[i])
		}
		if len(st.SubscriberLags) > 0 {
			lags := make([]map[string]any, len(st.SubscriberLags))
			for i, l := range st.SubscriberLags {
				lags[i] = map[string]any{
					"acked_seq":       l.AckedSeq,
					"lag_seqs":        l.LagSeqs,
					"last_ack_age_ms": l.LastAckAgeMs,
				}
			}
			out["subscriber_lags"] = lags
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	role := "primary"
	if st.IsReplica == 1 {
		role = "replica"
	}
	fmt.Printf("%-19s %s\n", "role:", role)
	for i := range protocol.StatFields {
		fmt.Printf("%-19s %v\n", protocol.StatFields[i].Key+":", value(&protocol.StatFields[i]))
	}
	for i, l := range st.SubscriberLags {
		fmt.Printf("%-19s acked_seq=%d lag_seqs=%d last_ack_age_ms=%d\n",
			fmt.Sprintf("subscriber_%d:", i), l.AckedSeq, l.LagSeqs, l.LastAckAgeMs)
	}
}

// isTerminalish reports whether stdin looks interactive (best effort, no
// syscalls beyond Stat).
func isTerminalish() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
