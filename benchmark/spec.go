package main

// spec.go is the benchmark's definition: workload names and sizes, the
// end-to-end and per-layer metric names with their units, and the load
// shape. BENCHMARK.json at the repository root repeats the names, units and
// regression bounds for the driver; bench_test.go checks the two agree.

// Load shape shared by every workload: a closed loop over a fixed operation
// count, cut into one discarded warm-up segment and five timed segments.
const (
	warmSegments  = 1
	timedSegments = 5
	segments      = warmSegments + timedSegments
	// setupRepeats is how often set-up is rebuilt from scratch in one run;
	// setup_s is the median of the repeats and the last build is the one
	// measured.
	setupRepeats = 3
)

// sizes holds every table size and option value a workload depends on. The
// full sizes are the benchmark; tiny exists so bench_test.go can run every
// workload inside tier-1 in a few seconds.
type sizes struct {
	name string
	// seconds, when non-zero, replaces -seconds in sizing the operation
	// counts.
	seconds float64

	minUsers     int // app.*: floor on seeded users
	postsPerUser int // app.*: seeded posts per user (ids disjoint from RequestMix's)

	accounts int // server.*: rows in accounts
	owners   int // server.*: distinct owners, accounts/owners rows each

	historyRetention int // server.write: db.Options.HistoryRetention

	provEvents int // prov.query: provenance events loaded
	provBatch  int // prov.query: Writer.ApplyBatch size during load (E2's)
}

var (
	fullSizes = sizes{
		name:             "full",
		minUsers:         2000,
		postsPerUser:     20,
		accounts:         100_000,
		owners:           1000,
		historyRetention: 1024,
		provEvents:       200_000,
		provBatch:        2000,
	}
	tinySizes = sizes{
		name:             "tiny",
		seconds:          0.1,
		minUsers:         200,
		postsPerUser:     20,
		accounts:         2000,
		owners:           20,
		historyRetention: 64,
		provEvents:       4000,
		provBatch:        2000,
	}
)

// followsPerUser is what workload.SetupMicroservice seeds (three attempts
// per user, minus the rare self/duplicate pick).
const followsPerUser = 3

// appUsers sizes the users table so that neither follows (10% of requests
// insert one) nor posts (40% insert one) grows by more than a quarter over
// the whole run. Both app workloads use the count derived from the larger
// (untraced) operation count so their request streams and databases match.
func appUsers(sz sizes, totalOps int) int {
	need := totalOps / 10 * 4 / followsPerUser // follows: 0.1*ops <= 0.25*3*users
	if p := totalOps * 4 / 10 * 4 / sz.postsPerUser; p > need {
		need = p
	}
	users := sz.minUsers
	for users < need {
		users += 1000
	}
	return users
}

// workloadSpec names one workload. rate is the nominal operations per second
// of -seconds on the reference sandbox: it turns the driver's run length into
// a fixed operation count, so counts repeat exactly from run to run and a
// faster program finishes sooner instead of doing more work.
type workloadSpec struct {
	name    string
	why     string
	callers int
	rate    float64
	build   func(e *env) (instance, error)
}

// appUntracedRate also sizes app.traced's database; see appUsers.
const appUntracedRate = 14000

var workloads = []workloadSpec{
	{
		name:    "app.untraced",
		why:     "E1 baseline: runtime.App.Invoke of the microservice mix on an in-memory db, no tracer, no wire, no WAL; the bypass for tracer and provenance changes",
		callers: 1,
		rate:    appUntracedRate,
		build:   func(e *env) (instance, error) { return buildApp(e, false) },
	},
	{
		name:    "app.traced",
		why:     "the paper's headline claim: the same request stream with trace.Attach into an in-memory provenance db; ops_s includes the Tracer.Flush drain",
		callers: 1,
		rate:    9000,
		build:   func(e *env) (instance, error) { return buildApp(e, true) },
	},
	{
		name:    "server.read",
		why:     "two connections of point and indexed reads with two statement texts: client, protocol and server framing dominate, wal and commit do nothing, plan cache always hits",
		callers: 2,
		rate:    30000,
		build:   func(e *env) (instance, error) { return buildServer(e, serverRead) },
	},
	{
		name:    "server.write",
		why:     "disk mode with fsync per commit: interactive read-modify-write and auto-commit inserts, so occ_validate, wal append/group commit/fsync and checkpoints do the work",
		callers: 2,
		rate:    4000,
		build:   func(e *env) (instance, error) { return buildServer(e, serverWrite) },
	},
	{
		name:    "server.adhoc",
		why:     "point reads with the id inlined in the SQL text, Zipf over 100,000 ids against a 4,096-text plan cache: parse, compile and the wholesale cache reset dominate",
		callers: 2,
		rate:    36000,
		build:   func(e *env) (instance, error) { return buildServer(e, serverAdhoc) },
	},
	{
		name:    "prov.query",
		why:     "E2: the section 3.3 needle join and a GROUP BY aggregate over 200,000 provenance events; sqlexec scan, join and aggregate operators do all the work",
		callers: 1,
		rate:    24,
		build:   buildProv,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// segOpsFor is the fixed operation count of one segment: the nominal rate
// times the run length, shared out over the segments and the callers.
func segOpsFor(rate float64, callers int, seconds float64) int {
	n := int(rate * seconds / segments)
	return max(n-n%callers, callers)
}

// metricDef describes one reported metric. Per-layer metrics also name the
// layer (the repository's package) and which end-to-end metric they should
// move on which workload — written down before measuring, so a later change
// is judged against a prediction.
type metricDef struct {
	name, unit string
	layer      string
	moves      string
}

// endToEnd are measured with tracing off; each is the median over the five
// timed segments.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_s", unit: "1/s"},
	{name: "p50_us", unit: "us"},
	{name: "p99_us", unit: "us"},
}

// perLayer come from the -trace 1 run. A layer a workload does not exercise
// reports 0, which is itself a checked prediction (wal on server.read).
var perLayer = []metricDef{
	{"wire_self_us", "us", "client+server", "server.read p50_us and ops_s; 0 on app.* and prov.query"},
	{"server_requests", "count", "client+server", "requests the server counted in the traced segment"},
	{"server_busy_rejections", "count", "client+server", "must stay 0: a refused request is a failed operation"},
	{"server_conflicts", "count", "client+server", "must stay 0: callers own disjoint ids"},
	{"codec_us", "us", "protocol", "server.read p50_us"},
	{"bytes_per_op", "B", "protocol", "server.read p50_us"},
	{"facade_self_us", "us", "db", "every workload's p50_us, small"},
	{"plan_cache_hit_ratio", "ratio", "db", "server.adhoc ops_s; >=0.99 on server.read"},
	{"plan_cache_resets", "count", "db", "server.adhoc ops_s; 0 on server.read"},
	{"checkpoint_ms", "ms", "db", "server.write p99_us only"},
	{"recovery_ms", "ms", "db", "none end to end; restart cost of the run's own WAL"},
	{"recovery_tail_records", "count", "db", "recovery_ms"},
	{"parse_us", "us", "sqlparse", "server.adhoc ops_s and p50_us; negligible on server.read"},
	{"compile_us", "us", "sqlexec", "server.adhoc ops_s and p50_us; negligible on server.read"},
	{"run_us", "us", "sqlexec", "prov.query p50_us; server.read p50_us"},
	{"run_needle_us", "us", "sqlexec", "prov.query p50_us"},
	{"run_agg_us", "us", "sqlexec", "prov.query p50_us"},
	{"point_us", "us", "txn+storage", "app.untraced and server.read p50_us"},
	{"rmw_us", "us", "txn+storage", "server.write p50_us"},
	{"index_scan_us", "us", "txn+storage", "server.read and app.* p50_us"},
	{"resident_versions", "count", "txn+storage", "peak_rss_mb; server.write checkpoint_ms"},
	{"vacuum_dropped", "count", "txn+storage", "resident_versions on server.write"},
	{"wal_appends_per_op", "count", "wal", "must stay 0 on server.read"},
	{"append_us", "us", "wal", "server.write p50_us"},
	{"sync_wait_us", "us", "wal", "server.write p50_us and p99_us"},
	{"syncs_per_commit", "ratio", "wal", "server.write ops_s"},
	{"bytes_per_commit", "B", "wal", "server.write sync_wait_us"},
	{"row_codec_us", "us", "value", "small share everywhere"},
	{"invoke_self_us", "us", "runtime", "app.* p50_us"},
	{"request_path_us", "us", "trace", "app.traced p50_us; the paper's per-request tracing cost"},
	{"events_per_req", "count", "trace", "app.traced ops_s; 0 on app.untraced"},
	{"tracer_drops", "count", "trace", "must stay 0: dropped provenance is a failed operation"},
	{"tracer_flushes", "count", "trace", "app.traced ops_s"},
	{"backlog_drain_s", "s", "trace", "app.traced ops_s"},
	{"apply_us_per_event_1024", "us", "provenance", "app.traced ops_s (the tracer's default batch)"},
	{"apply_us_per_event_2000", "us", "provenance", "prov.query setup_s (the load batch)"},
	{"apply_events_s", "1/s", "provenance", "app.traced ops_s"},
	{"heap_bytes_per_event", "B", "provenance", "peak_rss_mb on app.traced and prov.query"},
	{"observe_ns", "ns", "metrics", "server.* p50_us"},
	{"record_ns", "ns", "span", "server.* p50_us when span tracing is on"},
	{"record_nil_ns", "ns", "span", "server.* p50_us; the disabled path"},
	{"unattributed_us", "us", "budget", "untraced mean latency minus the sum of layer self times"},
	{"tracing_overhead_pct", "%", "budget", "traced against untraced ops_s of neighbouring segments"},
}
