// Package trod is the public API of TROD, a transaction-oriented debugging
// framework for database-backed applications, reproducing "Transactions
// Make Debugging Easy" (CIDR 2023).
//
// TROD targets applications that follow three design principles:
//
//	P1. Store all shared state in databases.
//	P2. Access or update shared state only through ACID transactions.
//	P3. Produce deterministic outputs and state changes.
//
// Given such an application — written against this package's App/Ctx
// runtime and its embedded serializable SQL database — TROD provides:
//
//   - Always-on tracing (AttachTracer): an interposition layer records
//     every request, handler invocation, transaction, and the data each
//     transaction read and wrote, into a SQL-queryable provenance database.
//   - Declarative debugging: query the provenance database directly
//     (System.Prov or Tracer.Prov) with SQL to locate buggy executions.
//   - Bug replay (NewReplayer): faithfully re-execute any past request in a
//     development database, with the concurrent writes it originally
//     observed injected at transaction boundaries and divergence detection
//     against the original trace.
//   - Retroactive programming (NewRetro): re-execute past requests against
//     modified handler code, systematically exploring the transaction-level
//     interleavings of concurrent requests, with invariant checks.
//   - Security pattern detection (DetectUserProfiles, DetectAuthentication,
//     DetectExfiltration): access-control and forensic queries over the
//     provenance data.
//
// The quickest way in is NewSystem, which wires a production database, an
// application runtime, a provenance database, and a tracer together:
//
//	sys, err := trod.NewSystem(trod.Config{
//	    Schema:      "CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)",
//	    TraceTables: trod.TableMap{"kv": "KvEvents"},
//	})
//	sys.App.Register("put", func(c *trod.Ctx, args trod.Args) (any, error) { ... })
//	sys.App.Invoke("put", trod.Args{"k": "a", "v": 1})
//	rows, _ := sys.Prov.Query(`SELECT * FROM Executions`)
package trod

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/detect"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/wal"
)

// Re-exported core types. TROD's layers live in internal packages; these
// aliases are the supported public names.
type (
	// DB is TROD's embedded serializable SQL database (the production,
	// provenance, and development databases are all instances of it).
	DB = db.DB
	// Tx is an explicit transaction handle.
	Tx = db.Tx
	// Rows is a query result set.
	Rows = db.Rows
	// TxMeta is the per-transaction interposition metadata.
	TxMeta = db.TxMeta

	// App is the application runtime: a handler registry over a DB.
	App = runtime.App
	// Ctx is the per-invocation handler context.
	Ctx = runtime.Ctx
	// Args carries named handler arguments.
	Args = runtime.Args
	// Handler is a request handler function.
	Handler = runtime.Handler

	// Tracer is the always-on interposition layer.
	Tracer = trace.Tracer
	// TraceConfig tunes the tracer.
	TraceConfig = trace.Config
	// TableMap maps application tables to provenance event tables.
	TableMap = provenance.TableMap
	// ProvenanceWriter exposes provenance query helpers and Forget.
	ProvenanceWriter = provenance.Writer
	// Execution is one row of the provenance Executions table.
	Execution = provenance.Execution

	// Replayer is the debugging engine; Replay is its faithful-replay
	// policy (paper §3.5).
	Replayer = replay.Replayer
	// ReplayOptions configures a replay.
	ReplayOptions = replay.Options
	// ReplayReport is a replay outcome.
	ReplayReport = replay.Report
	// Breakpoint is the per-transaction replay inspection point.
	Breakpoint = replay.Breakpoint

	// Retro is the same engine; Run is its retroactive-programming policy
	// (paper §3.6).
	Retro = replay.Replayer
	// RetroOptions configures a retroactive run.
	RetroOptions = replay.RetroOptions
	// RetroReport is a retroactive run outcome.
	RetroReport = replay.RetroReport
	// ScheduleResult is one explored interleaving's outcome.
	ScheduleResult = replay.ScheduleResult

	// Violation is one detected access-control violation (paper §4.2).
	Violation = detect.Violation
	// ExfilFinding is one suspected exfiltration workflow (paper §4.2).
	ExfilFinding = detect.ExfilFinding

	// Value is a SQL value (rows in query results and provenance callbacks).
	Value = value.Value
	// Row is an ordered tuple of SQL values.
	Row = value.Row
)

// DBOptions configures OpenDB: storage mode, WAL path, sync policy, and
// automatic checkpoint triggers (see the README "Durability" section).
type DBOptions = db.Options

// Storage modes and WAL sync policies for DBOptions.
const (
	ModeMemory = db.Memory
	ModeDisk   = db.Disk

	// SyncNever buffers WAL writes (durability up to the OS page cache).
	SyncNever = wal.SyncNever
	// SyncEachCommit makes every commit durable before acknowledging it;
	// concurrent committers share fsyncs through group commit.
	SyncEachCommit = wal.SyncEachCommit
)

// OpenMemoryDB returns an in-memory database (the paper's VoltDB-like
// regime: microsecond commits, no durability).
func OpenMemoryDB() *DB { return db.MustOpenMemory() }

// OpenDiskDB returns a WAL-backed database that recovers from path on open
// and makes each commit durable before acknowledging it (the paper's
// Postgres-like regime; concurrent commits share fsyncs via group commit).
func OpenDiskDB(path string) (*DB, error) {
	return db.Open(db.Options{Mode: db.Disk, Path: path, Sync: wal.SyncEachCommit})
}

// OpenDiskDBNoSync is OpenDiskDB without per-commit fsync (durability up to
// the OS page cache); useful for faster test cycles.
func OpenDiskDBNoSync(path string) (*DB, error) {
	return db.Open(db.Options{Mode: db.Disk, Path: path, Sync: wal.SyncNever})
}

// OpenDB opens a database with full control over mode, durability policy,
// and checkpoint triggers. DB.Checkpoint() forces a checkpoint at any time.
func OpenDB(opts DBOptions) (*DB, error) { return db.Open(opts) }

// NewApp creates an application runtime over a database.
func NewApp(database *DB) *App { return runtime.New(database) }

// AttachTracer wires TROD's always-on tracing between an application and a
// separate provenance database. Call after the application schema exists.
func AttachTracer(app *App, prov *DB, cfg TraceConfig) (*Tracer, error) {
	return trace.Attach(app, prov, cfg)
}

// NewReplayer returns a bug-replay engine over a production database and
// the tracer that recorded its provenance.
func NewReplayer(prod *DB, tr *Tracer) *Replayer {
	return replay.New(prod, tr.Writer())
}

// NewRetro returns a retroactive-programming engine.
func NewRetro(prod *DB, tr *Tracer) *Retro {
	return replay.New(prod, tr.Writer())
}

// DetectUserProfiles runs the §4.2 User Profiles pattern check.
func DetectUserProfiles(tr *Tracer, appTable, ownerCol, updaterCol string) ([]Violation, error) {
	return detect.UserProfiles(tr.Writer(), appTable, ownerCol, updaterCol)
}

// DetectAuthentication runs the §4.2 Authentication pattern check.
func DetectAuthentication(tr *Tracer, appTable string, allowedHandlers []string) ([]Violation, error) {
	return detect.Authentication(tr.Writer(), appTable, allowedHandlers)
}

// DetectExfiltration runs the §4.2 workflow exfiltration tracing.
func DetectExfiltration(tr *Tracer, sensitiveTable, egressTable string) ([]ExfilFinding, error) {
	return detect.Exfiltration(tr.Writer(), sensitiveTable, egressTable)
}

// Config configures NewSystem.
type Config struct {
	// Schema is an optional SQL script (CREATE TABLE ...) applied to the
	// production database before tracing attaches.
	Schema string
	// DiskPath, when set, makes the production database disk-backed (WAL at
	// this path, fsync per commit). Empty means in-memory.
	DiskPath string
	// TraceTables maps application tables to provenance event tables; only
	// listed tables get data provenance.
	TraceTables TableMap
	// Trace tunes buffering; zero values take the tracer defaults. The
	// Tables field inside it is overridden by TraceTables.
	Trace TraceConfig
}

// System bundles a production database, application runtime, provenance
// database, and tracer — the full Figure 2 production side.
type System struct {
	DB     *DB
	Prov   *DB
	App    *App
	Tracer *Tracer
}

// NewSystem builds a ready-to-serve TROD deployment.
func NewSystem(cfg Config) (*System, error) {
	var prod *DB
	var err error
	if cfg.DiskPath != "" {
		prod, err = OpenDiskDB(cfg.DiskPath)
		if err != nil {
			return nil, err
		}
	} else {
		prod = OpenMemoryDB()
	}
	if cfg.Schema != "" {
		if err := prod.ExecScript(cfg.Schema); err != nil {
			prod.Close()
			return nil, fmt.Errorf("trod: applying schema: %w", err)
		}
	}
	app := NewApp(prod)
	prov := OpenMemoryDB()
	tcfg := cfg.Trace
	tcfg.Tables = cfg.TraceTables
	tracer, err := AttachTracer(app, prov, tcfg)
	if err != nil {
		prod.Close()
		prov.Close()
		return nil, err
	}
	return &System{DB: prod, Prov: prov, App: app, Tracer: tracer}, nil
}

// Replayer returns a bug-replay engine for this system.
func (s *System) Replayer() *Replayer { return NewReplayer(s.DB, s.Tracer) }

// Retro returns a retroactive-programming engine for this system.
func (s *System) Retro() *Retro { return NewRetro(s.DB, s.Tracer) }

// Flush drains buffered trace events; call before querying provenance.
func (s *System) Flush() error { return s.Tracer.Flush() }

// Close shuts down the tracer and both databases.
func (s *System) Close() error {
	err := s.Tracer.Close()
	if e := s.DB.Close(); err == nil {
		err = e
	}
	if e := s.Prov.Close(); err == nil {
		err = e
	}
	return err
}

// HandlerStats aggregates per-handler request latencies (§5 performance
// debugging); produced by Tracer.Writer().HandlerLatencyStats().
type HandlerStats = provenance.HandlerStats

// SlowRequest is a slow request with its per-transaction latency breakdown.
type SlowRequest = provenance.SlowRequest

// QualityViolation reports a data-quality test failure with the request
// that caused it (§5 data-quality debugging).
type QualityViolation = provenance.QualityViolation
