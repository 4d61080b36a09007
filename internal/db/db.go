// Package db is the database facade of the TROD stack: it wires the SQL
// front end, the executor, the transaction manager, the MVCC store, and the
// WAL into a single embeddable database with two modes — pure in-memory (the
// paper's VoltDB-like regime) and disk-backed with a write-ahead log (the
// Postgres-like regime).
//
// The facade is also where the TROD interposition layer hooks in: every
// transaction carries metadata (request ID, handler name, function name) and
// collects per-statement read provenance; a commit hook hands the complete
// transaction trace, reads and committed writes, to the tracer (paper §3.4).
package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/schema"
	"repro/internal/span"
	"repro/internal/sqlexec"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Mode selects the storage regime.
type Mode uint8

// Storage modes.
const (
	// Memory keeps all state in RAM with no durability; commits are
	// microsecond-scale. This models the paper's in-memory DBMS (VoltDB).
	Memory Mode = iota
	// Disk appends every DDL statement and commit to a WAL and recovers on
	// open. This models the paper's on-disk DBMS (Postgres).
	Disk
)

// Options configures Open.
type Options struct {
	Mode Mode
	// Path is the WAL file path (Disk mode only).
	Path string
	// Sync selects the WAL durability policy (Disk mode only). The default,
	// wal.SyncEachCommit, makes every commit durable before acknowledging it;
	// concurrent committers share fsyncs through group commit.
	Sync wal.SyncPolicy
	// CheckpointBytes, when > 0, triggers an automatic checkpoint once the
	// WAL grows past this many bytes since the last checkpoint (Disk mode).
	// A checkpoint snapshots the full committed state next to the WAL
	// (<path>.snap.<seq>) and truncates the log, bounding recovery time.
	// Automatic checkpoints run on a background goroutine; the commit that
	// crosses the threshold does not wait for one.
	CheckpointBytes int64
	// CheckpointRecords, when > 0, triggers an automatic checkpoint once the
	// WAL holds this many records since the last checkpoint (Disk mode).
	CheckpointRecords int
	// HistoryRetention, when > 0, garbage-collects MVCC version history on
	// every checkpoint (and on explicit Vacuum calls): version chains are
	// compacted to the versions visible within the most recent
	// HistoryRetention commits, clamped to the oldest pinned snapshot so an
	// active reader never loses versions it can see. Time travel (BeginAt,
	// replay) below the resulting history floor fails with a typed error
	// (storage.ErrHistoryTruncated). The in-memory change log is cut at the
	// same horizon, so replication catch-up reaches back as far as time
	// travel does. 0 keeps all history and the whole log resident — both
	// grow without bound under sustained updates.
	HistoryRetention int
}

// RecoveryInfo describes what the last Open did to rebuild state.
type RecoveryInfo struct {
	// SnapshotLoaded reports that recovery started from a checkpoint
	// snapshot instead of replaying the log from the beginning.
	SnapshotLoaded bool
	// SnapshotSeq is the commit sequence the loaded snapshot captured.
	SnapshotSeq uint64
	// SnapshotErr records why a checkpoint's snapshot was unusable (recovery
	// then fell back to full replay of the retained log generations).
	SnapshotErr string
	// TotalRecords is the number of intact WAL records scanned.
	TotalRecords int
	// TailRecords is the number of records replayed after the snapshot (the
	// WAL tail); without a snapshot it equals TotalRecords.
	TailRecords int
}

// Rows is a query result set.
type Rows = sqlexec.Result

// TxMeta is the TROD interposition metadata attached to a transaction by
// the application runtime: which request and handler issued it (paper
// Table 1's ReqId / HandlerName / Metadata columns).
type TxMeta struct {
	ReqID    string
	Handler  string
	Func     string
	Workflow string

	// Spans, when non-nil, is the request's span buffer: the facade records
	// parse/plan, execute, OCC-validate, WAL, and quorum stage spans into it
	// (all recording is nil-safe, so untraced transactions pay one nil check
	// per stage).
	Spans *span.Buf
}

// ReadEvent is one read-provenance record: a base-table row a statement
// read. A nil Row marks a statement that scanned the table but matched
// nothing (the paper logs these as Read rows with NULL data columns).
type ReadEvent struct {
	Table string
	Row   value.Row
}

// StmtTrace is the trace of one statement inside a transaction. A commit
// that applied writes adds a last entry, Query "COMMIT", carrying them.
type StmtTrace struct {
	Query  string
	Reads  []ReadEvent
	writes []storage.Change
}

// TxnTrace is everything the interposition layer learns about one finished
// transaction: what it read, statement by statement, and what it wrote.
type TxnTrace struct {
	TxnID     uint64
	CommitSeq uint64
	Snapshot  uint64
	Meta      TxMeta
	Stmts     []StmtTrace
	Start     time.Time
	End       time.Time
	Committed bool
}

// Writes returns the change set the commit applied, nil unless it did: the
// slice the store logged at CommitSeq, so read-only. It rides on the COMMIT
// entry because provenance.Event queues a TxnTrace by value and must not widen.
func (tr *TxnTrace) Writes() []storage.Change {
	if n := len(tr.Stmts); n > 0 {
		return tr.Stmts[n-1].writes
	}
	return nil
}

// maxReadsPerStmt caps the read-provenance rows a traced statement records,
// so tracing cost does not grow with the rows a scan touches (paper §5).
const maxReadsPerStmt = 64

// DB is an embedded SQL database.
type DB struct {
	store *storage.Store
	log   *wal.Log
	mode  Mode
	// hook is the interposition point (SetHook): it receives every finished
	// transaction's trace, committed or not.
	hook func(TxnTrace)

	// walPath and sync mirror the Disk-mode options; recovery is what Open
	// did to rebuild state from walPath.
	walPath    string
	syncPolicy wal.SyncPolicy
	recovery   RecoveryInfo

	// ckptMu serializes checkpoints; DDL takes the read side so no schema
	// change can slip between a snapshot and the log rotation that trusts it.
	ckptMu      sync.RWMutex
	ckptBytes   int64
	ckptRecords int
	histRetain  int
	ckptErrMu   sync.Mutex
	ckptErr     error         // last automatic-checkpoint failure, surfaced on Close
	ckptSeq     atomic.Uint64 // commit sequence the newest snapshot captured

	// The checkpointer goroutine (Disk mode with a threshold set): commits
	// signal ckptKick, Close closes ckptStop and waits on ckptDone. All three
	// are nil when there is no checkpointer.
	ckptKick chan struct{}
	ckptStop chan struct{}
	ckptDone chan struct{}

	// plans caches parsed statements together with their compiled physical
	// plans, keyed by query text (plan validity keyed by schema epoch); see
	// plancache.go.
	plans *planCache

	// readOnly rejects writes and DDL arriving through the SQL layer with
	// ErrReadOnly (replicas serve reads only; replicated apply bypasses it).
	// Atomic because promotion flips it on a live database.
	readOnly atomic.Bool

	// fenced rejects writes with ErrFenced: the node's replication epoch is
	// stale (a newer primary exists), so nothing it commits can survive.
	// Reads stay available. Set by the replication layer on fencing.
	fenced atomic.Bool

	// commitBarrier, when set, runs after a write commit is locally durable
	// and before it is acknowledged; an error makes the commit surface as
	// unacknowledged (the replication source uses it for quorum acks). Must
	// be set before the database serves concurrent traffic.
	commitBarrier func(seq uint64) error

	// Engine-level observability: write commits applied and commit attempts
	// aborted on serialization conflict, counted at the facade so every path
	// (autocommit retries, interactive transactions, ApplyCommit batch
	// writers) lands in one place; checkpoint runs and their durations.
	// The storage layer itself is deliberately uninstrumented — it is in the
	// deterministic set (trodlint detpath) where time.Now is forbidden.
	commits     atomic.Uint64
	conflicts   atomic.Uint64
	checkpoints atomic.Uint64
	ckptHist    *metrics.Histogram

	closed bool
	mu     sync.Mutex
}

// Open creates or recovers a database.
//
// Disk-mode recovery order: finish any interrupted log rotation, then — when
// the log opens with a checkpoint record whose snapshot is intact — load the
// snapshot and replay only the WAL tail. An unreadable snapshot falls back
// to full replay of the retained log generations (<path>.old then <path>),
// which covers crashes between snapshot write and rotation; only if the
// pre-checkpoint history is gone too does Open fail.
func Open(opts Options) (*DB, error) {
	db := &DB{
		store:       storage.NewStore(),
		mode:        opts.Mode,
		syncPolicy:  opts.Sync,
		ckptBytes:   opts.CheckpointBytes,
		ckptRecords: opts.CheckpointRecords,
		histRetain:  opts.HistoryRetention,
		plans:       newPlanCache(defaultPlanCacheCap),
		ckptHist:    newCheckpointHist(),
	}
	if opts.Mode == Memory {
		return db, nil
	}
	if opts.Path == "" {
		return nil, errors.New("db: Disk mode requires Options.Path")
	}
	db.walPath = opts.Path
	if err := db.recover(opts.Path); err != nil {
		return nil, err
	}
	log, err := wal.Open(opts.Path, opts.Sync)
	if err != nil {
		return nil, err
	}
	db.log = log
	if db.ckptBytes > 0 || db.ckptRecords > 0 {
		db.ckptKick = make(chan struct{}, 1)
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.checkpointer()
	}
	return db, nil
}

// recover rebuilds the store from the WAL (and snapshot) at path.
func (db *DB) recover(path string) error {
	wal.RepairRotation(path)
	paths := []string{path}
	if head := wal.ReadHead(path); head != nil && head.Type == wal.RecordCheckpoint {
		// Fast path: start from the checkpoint's snapshot and replay only
		// this log (the tail). The .old generation is pre-checkpoint history
		// and is only needed when the snapshot is unusable.
		st, err := storage.LoadSnapshotFile(db.resolveSnapshot(head.Checkpoint))
		switch {
		case err != nil:
			db.recovery.SnapshotErr = err.Error()
		case st.CurrentSeq() != head.Checkpoint.Seq:
			db.recovery.SnapshotErr = fmt.Sprintf("snapshot seq %d does not match checkpoint seq %d",
				st.CurrentSeq(), head.Checkpoint.Seq)
		default:
			db.store = st
			db.recovery.SnapshotLoaded = true
			db.recovery.SnapshotSeq = head.Checkpoint.Seq
		}
	}
	if !db.recovery.SnapshotLoaded {
		if _, err := os.Stat(path + ".old"); err == nil {
			paths = []string{path + ".old", path}
		}
	}
	for _, p := range paths {
		if err := db.replayLog(p); err != nil {
			return err
		}
	}
	return nil
}

// replayLog applies one log generation on top of the current store state.
// Commit records at or below the store's sequence are duplicates from an
// earlier generation (or covered by the snapshot) and are skipped.
func (db *DB) replayLog(path string) error {
	return wal.Replay(path, func(rec wal.Record) error {
		db.recovery.TotalRecords++
		switch rec.Type {
		case wal.RecordDDL:
			stmt, err := sqlparse.Parse(rec.DDL)
			if err != nil {
				return fmt.Errorf("db: recovering DDL %q: %w", rec.DDL, err)
			}
			db.recovery.TailRecords++
			_, _, err = db.applyDDL(stmt, true)
			return err
		case wal.RecordCommit:
			if rec.Commit.Seq <= db.store.CurrentSeq() {
				return nil // duplicate of already-recovered state
			}
			db.recovery.TailRecords++
			if err := db.store.ApplyCommitted(rec.Commit, nil); err != nil {
				if db.recovery.SnapshotErr != "" {
					return fmt.Errorf("db: WAL tail unreachable (snapshot unusable: %s): %w",
						db.recovery.SnapshotErr, err)
				}
				return err
			}
			return nil
		case wal.RecordCheckpoint:
			// Mid-replay checkpoint pointer (an .old generation head, or a
			// second rotation). Usable only if it advances past the state
			// replayed so far; otherwise recovery continues record by record.
			if rec.Checkpoint.Seq <= db.store.CurrentSeq() {
				return nil
			}
			st, err := storage.LoadSnapshotFile(db.resolveSnapshot(rec.Checkpoint))
			if err == nil && st.CurrentSeq() == rec.Checkpoint.Seq {
				db.store = st
				db.recovery.SnapshotLoaded = true
				db.recovery.SnapshotSeq = rec.Checkpoint.Seq
				db.recovery.TailRecords = 0
				return nil
			}
			if err == nil {
				err = fmt.Errorf("snapshot seq %d does not match checkpoint seq %d",
					st.CurrentSeq(), rec.Checkpoint.Seq)
			}
			db.recovery.SnapshotErr = err.Error()
			return nil
		}
		return nil
	})
}

// resolveSnapshot maps a checkpoint record's snapshot name (a base name) to
// a path next to the WAL.
func (db *DB) resolveSnapshot(cp wal.Checkpoint) string {
	name := cp.Snapshot
	if name == "" {
		name = filepath.Base(db.walPath) + ".snap"
	}
	return filepath.Join(filepath.Dir(db.walPath), name)
}

// Recovery reports what the last Open did to rebuild state (Disk mode).
func (db *DB) Recovery() RecoveryInfo { return db.recovery }

// newCheckpointHist builds the checkpoint-duration instrument every DB
// carries; RegisterMetrics exports it when a metrics endpoint is wired.
func newCheckpointHist() *metrics.Histogram {
	return metrics.NewHistogram("trod_db_checkpoint_seconds",
		"Duration of checkpoint runs: snapshot encode + write + CRC read-back, log rotation, and vacuum.", nil)
}

// CommitStats reports the facade-level commit counters: write commits
// applied (every path — autocommit, interactive transactions, ApplyCommit
// batch writers) and commit attempts aborted on serialization conflict.
// Unlike the server's per-session counters these include internal writers
// and each retry of an autocommit statement, so conflict *rate* computed
// from them reflects what the OCC validator actually saw.
func (db *DB) CommitStats() (commits, conflicts uint64) {
	return db.commits.Load(), db.conflicts.Load()
}

// Checkpoints reports completed checkpoint runs.
func (db *DB) Checkpoints() uint64 { return db.checkpoints.Load() }

// PlanShape compiles (or fetches from the plan cache) the physical plan for
// query and returns its compact shape string — what the slow-query log
// records so an operator sees *how* a slow statement ran (scan vs index,
// join strategy) without re-running EXPLAIN by hand. Unplannable or
// unparsable statements return "".
func (db *DB) PlanShape(query string) string {
	stmt, err := db.parse(query)
	if err != nil {
		return ""
	}
	if !isPlannable(stmt) {
		return ""
	}
	plan, err := db.planFor(query, stmt, nil, 0)
	if err != nil {
		return ""
	}
	return plan.Shape()
}

// RegisterMetrics exports the checkpoint-duration histogram on reg. The
// engine's counters reach the metrics endpoint through the server's Stats.
func (db *DB) RegisterMetrics(reg *metrics.Registry) { reg.Register(db.ckptHist) }

// Log exposes the write-ahead log (nil in Memory mode); tests and tools
// use it for stats and fault injection.
func (db *DB) Log() *wal.Log { return db.log }

// WALStats returns the WAL's counters (zero in Memory mode).
func (db *DB) WALStats() wal.Stats {
	if db.log == nil {
		return wal.Stats{}
	}
	return db.log.Stats()
}

// ApplyCommit runs a pre-built storage commit through the commit path: the
// store validates and applies it, the WAL logs it, the caller blocks until
// the record is durable (group commit) and past the commit barrier, and
// checkpoint triggers fire. Batch writers that bypass the SQL layer (the
// provenance writer) must use this instead of Store().Commit, or their
// commits are never logged.
func (db *DB) ApplyCommit(req storage.CommitRequest) (uint64, error) {
	return db.commit(&commitOp{kind: batchCommit, req: req})
}

// Checkpoint snapshots the full committed state next to the WAL and
// truncates the log to a checkpoint pointer plus the commits that landed
// after the snapshot, bounding recovery to the snapshot load plus a short
// tail. The previous log generation is kept as <path>.old so a later
// unreadable snapshot still has a full-replay fallback. It is also the
// routine the background checkpointer runs. No-op in Memory mode.
func (db *DB) Checkpoint() error {
	if db.log == nil {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	ckptStart := time.Now()
	// Pin the snapshot's seq until the rotation has the tail after it: a
	// concurrent Vacuum cannot cut records the rotated log must carry.
	pin := db.store.PinSnapshot()
	data, seq := db.store.EncodeSnapshot()
	// Each checkpoint gets its own snapshot file: overwriting a single name
	// would destroy the snapshot the current log head still points to, so a
	// crash between this write and the rotation below would leave nothing
	// that matches the head pointer. With unique names the previous
	// snapshot stays valid until the rotation lands; a crash in between
	// merely leaves an orphan file that the next checkpoint cleans up.
	// WriteSnapshotFile reads the file back and checks its CRC before the
	// rename, so rotation below only ever trusts the encoder's exact bytes.
	snapPath := fmt.Sprintf("%s.snap.%d", db.walPath, seq)
	err := storage.WriteSnapshotFile(snapPath, data)
	if err == nil {
		// Collect the post-snapshot commit tail and rotate under the store's
		// commit lock, so no commit can land between tail capture and
		// rotation.
		err = db.store.CheckpointTail(seq, func(tail []storage.CommitRecord) error {
			return db.log.Rotate(wal.Checkpoint{Seq: seq, Snapshot: filepath.Base(snapPath)}, tail)
		})
	}
	db.store.UnpinSnapshot(pin)
	if err != nil {
		return err
	}
	db.ckptSeq.Store(seq)
	db.cleanupSnapshots(filepath.Base(snapPath))
	// With the snapshot durable, version chains and log entries older than
	// the retention window serve no read that is still allowed: compact
	// them. Vacuum clamps to the oldest pinned snapshot itself, so
	// long-running readers are safe.
	db.Vacuum()
	db.checkpoints.Add(1)
	db.ckptHist.ObserveSince(ckptStart)
	return nil
}

// Vacuum garbage-collects MVCC version history outside the configured
// HistoryRetention window (a no-op when HistoryRetention is 0): version
// chains compact to what is visible within the last HistoryRetention
// commits, tombstoned rows older than that are physically removed, and the
// history floor (Store.HistoryRetainedFrom) and the change log's start
// rise to the vacuum horizon.
// Checkpoints call it automatically; Memory-mode databases (no checkpoints)
// call it directly when they want the same bound.
func (db *DB) Vacuum() storage.VacuumStats {
	if db.histRetain <= 0 {
		return storage.VacuumStats{}
	}
	seq := db.store.CurrentSeq()
	if seq <= uint64(db.histRetain) {
		return storage.VacuumStats{}
	}
	return db.store.Vacuum(seq - uint64(db.histRetain))
}

// cleanupSnapshots removes snapshot files no longer reachable from either
// log generation: everything except the snapshot just written and the one
// the .old generation's head still points to (the fallback when the new
// snapshot later proves unreadable). Best effort — an undeleted orphan only
// costs disk space.
func (db *DB) cleanupSnapshots(current string) {
	keep := map[string]bool{current: true}
	if old := wal.ReadHead(db.walPath + ".old"); old != nil && old.Type == wal.RecordCheckpoint && old.Checkpoint.Snapshot != "" {
		keep[old.Checkpoint.Snapshot] = true
	}
	matches, err := filepath.Glob(db.walPath + ".snap*")
	if err != nil {
		return
	}
	for _, m := range matches {
		if !keep[filepath.Base(m)] {
			os.Remove(m)
		}
	}
}

// checkpointDue reports whether the WAL has outgrown a configured threshold
// since the last checkpoint and a commit has landed since that checkpoint's
// snapshot. The second test keeps a threshold smaller than the rotated log's
// own checkpoint record from asking for checkpoints of an unchanged state.
func (db *DB) checkpointDue() bool {
	st := db.log.Stats()
	return ((db.ckptBytes > 0 && st.BytesSinceCheckpoint >= db.ckptBytes) ||
		(db.ckptRecords > 0 && st.RecordsSinceCheckpoint >= db.ckptRecords)) &&
		db.store.CurrentSeq() > db.ckptSeq.Load()
}

// signalCheckpoint is the commit path's checkpoint trigger: when a threshold
// is crossed it wakes the checkpointer and returns at once. A signal sent
// while one is already pending is dropped; the checkpointer re-checks the
// threshold after every run, so no crossing goes unserved.
func (db *DB) signalCheckpoint() {
	if db.ckptKick == nil || !db.checkpointDue() {
		return
	}
	select {
	case db.ckptKick <- struct{}{}:
	default:
	}
}

// checkpointer runs automatic checkpoints off the commit path until Close.
// Failures don't fail the (already durable) commits that crossed the
// threshold; the error is kept and surfaced on Close, and the next signal
// retries.
func (db *DB) checkpointer() {
	defer close(db.ckptDone)
	for {
		select {
		case <-db.ckptStop:
			return
		case <-db.ckptKick:
		}
		for db.checkpointDue() {
			select {
			case <-db.ckptStop:
				return
			default:
			}
			err := db.Checkpoint()
			db.ckptErrMu.Lock()
			// A later successful checkpoint supersedes an earlier transient
			// failure (the log is truncated and consistent again).
			db.ckptErr = err
			db.ckptErrMu.Unlock()
			if err != nil {
				break
			}
		}
	}
}

// MustOpenMemory returns an in-memory database, panicking on error (which
// cannot happen for Memory mode); a convenience for examples and tests.
func MustOpenMemory() *DB {
	db, err := Open(Options{Mode: Memory})
	if err != nil {
		panic(err)
	}
	return db
}

// Close stops the checkpointer, waiting for a checkpoint in flight, then
// flushes and closes the WAL. It also surfaces the last automatic
// checkpoint failure, if any (automatic checkpoints never fail the commits
// that triggered them).
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.ckptStop != nil {
		close(db.ckptStop)
		<-db.ckptDone
	}
	var err error
	if db.log != nil {
		err = db.log.Close()
	}
	db.ckptErrMu.Lock()
	ckptErr := db.ckptErr
	db.ckptErrMu.Unlock()
	return errors.Join(err, ckptErr)
}

// Store exposes the underlying MVCC store to the TROD layers (replay time
// travel, replication log reads). Application code should not need it.
func (db *DB) Store() *storage.Store { return db.store }

// SetHook installs the interposition hook: fn receives the trace of every
// finished transaction — committed, failed at commit, or rolled back
// (TxnTrace.Committed tells them apart). Must be called before concurrent
// use.
func (db *DB) SetHook(fn func(TxnTrace)) { db.hook = fn }

// parse returns the cached AST for query, parsing at most once per text.
// Statements and plans share one capped cache entry (see plancache.go);
// parsing is schema-independent, so the statement half of an entry stays
// valid across DDL while the plan half is epoch-checked.
func (db *DB) parse(query string) (sqlparse.Statement, error) {
	if stmt, ok := db.plans.stmt(query); ok {
		return stmt, nil
	}
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	db.plans.put(query, stmt, nil, 0)
	return stmt, nil
}

// execDDL applies a live SQL-layer DDL statement and, like a write commit,
// holds its acknowledgement behind the replication barrier: schema changes
// ride the same replicated log as commits, so an acked DDL must clear the
// same quorum an acked commit does. Replicated and recovery-replayed DDL
// bypass the barrier, exactly like ApplyReplicatedCommit.
func (db *DB) execDDL(stmt sqlparse.Statement) error {
	seq, logged, err := db.applyDDL(stmt, false)
	if err != nil || !logged {
		return err
	}
	if err := db.barrier(seq, nil); err != nil {
		return fmt.Errorf("db: ddl at commit seq %d: %w", seq, err)
	}
	return nil
}

// applyDDL executes a schema statement against the store and returns the
// position it took in the change log (logged is false when the statement
// changed nothing). The store runs the WAL append as the statement's log
// step, under its commit lock, so the WAL's order is the execution order;
// the durable wait runs here, after the lock is released, and a statement
// whose record is not durable fails like a commit whose record is not.
// Outside recovery it holds the checkpoint lock's read side, so a schema
// change can never land between a checkpoint's snapshot and its log
// rotation (the rotated tail carries only commit records, not DDL).
func (db *DB) applyDDL(stmt sqlparse.Statement, recovering bool) (seq uint64, logged bool, err error) {
	if !recovering {
		db.ckptMu.RLock()
		defer db.ckptMu.RUnlock()
	}
	var op commitOp
	step := func(at uint64, text string) {
		seq, logged = at, true
		if db.log != nil {
			op.lsn, op.walErr = db.log.AppendDDLLSN(text)
		}
	}
	switch s := stmt.(type) {
	case *sqlparse.CreateTable:
		tbl, terr := TableFromAST(s)
		if terr != nil {
			return 0, false, terr
		}
		err = db.store.CreateTable(tbl, s.IfNotExists, step)
	case *sqlparse.CreateIndex:
		tbl := db.store.Table(s.Table)
		if tbl == nil {
			return 0, false, fmt.Errorf("db: CREATE INDEX on unknown table %q", s.Table)
		}
		cols := make([]int, len(s.Columns))
		for i, c := range s.Columns {
			pos := tbl.ColumnIndex(c)
			if pos < 0 {
				return 0, false, fmt.Errorf("db: index column %q not in table %q", c, s.Table)
			}
			cols[i] = pos
		}
		err = db.store.CreateIndex(&schema.Index{Name: s.Name, Table: tbl.Name, Columns: cols, Unique: s.Unique}, step)
	case *sqlparse.DropTable:
		err = db.store.DropTable(s.Name, s.IfExists, step)
	default:
		return 0, false, fmt.Errorf("db: %T is not DDL", stmt)
	}
	if err != nil || !logged {
		return seq, logged, err
	}
	if _, err := db.waitDurable(&op); err != nil {
		// Applied in memory, but durability could not be confirmed (sticky
		// WAL failure): callers must treat the database as failed.
		return seq, true, fmt.Errorf("db: ddl at commit seq %d not durable: %w", seq, err)
	}
	return seq, true, nil
}

// TableFromAST converts a parsed CREATE TABLE into a schema.Table.
func TableFromAST(ct *sqlparse.CreateTable) (*schema.Table, error) {
	cols := make([]schema.Column, len(ct.Columns))
	var pk []string
	for i, c := range ct.Columns {
		cols[i] = schema.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
		if c.PrimaryKey {
			pk = append(pk, c.Name)
		}
	}
	if len(ct.PrimaryKey) > 0 {
		if len(pk) > 0 {
			return nil, fmt.Errorf("db: table %q has both inline and table-level PRIMARY KEY", ct.Name)
		}
		pk = ct.PrimaryKey
	}
	return schema.NewTable(ct.Name, cols, pk)
}

func isDDL(stmt sqlparse.Statement) bool {
	switch stmt.(type) {
	case *sqlparse.CreateTable, *sqlparse.CreateIndex, *sqlparse.DropTable:
		return true
	}
	return false
}

func convertArgs(args []any) ([]value.Value, error) {
	vals := make([]value.Value, len(args))
	for i, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("db: argument %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// Exec runs a statement in autocommit mode (its own transaction, retried on
// serialization conflict). DDL executes directly.
func (db *DB) Exec(query string, args ...any) (*Rows, error) {
	vals, err := convertArgs(args)
	if err != nil {
		return nil, err
	}
	return db.exec(TxMeta{}, query, vals)
}

// ExecMeta is Exec with transaction metadata attached and the arguments
// already values (the server passes the row it decoded from the request).
func (db *DB) ExecMeta(meta TxMeta, query string, args value.Row) (*Rows, error) {
	return db.exec(meta, query, args)
}

// readOnlyViolation rejects non-SELECT statements on a read-only or fenced
// database.
func (db *DB) readOnlyViolation(stmt sqlparse.Statement) error {
	fenced := db.fenced.Load()
	if !db.readOnly.Load() && !fenced {
		return nil
	}
	if _, ok := stmt.(*sqlparse.Select); ok {
		return nil
	}
	if fenced {
		return ErrFenced
	}
	return ErrReadOnly
}

func (db *DB) exec(meta TxMeta, query string, vals []value.Value) (*Rows, error) {
	// parse_plan covers the parse and the plan-cache lookup; compilation on
	// a miss nests under it as plan_compile (recorded inside planFor). The
	// span ID is reserved up front so the child can parent under it before
	// the window closes.
	sp := meta.Spans
	var ppID uint32
	var ppStart time.Time
	if sp != nil {
		ppStart = time.Now()
		ppID = sp.Reserve(span.StageParsePlan, span.RootID)
	}
	stmt, err := db.parse(query)
	if err != nil {
		sp.Complete(ppID, ppStart, time.Since(ppStart))
		return nil, err
	}
	if err := db.readOnlyViolation(stmt); err != nil {
		sp.Complete(ppID, ppStart, time.Since(ppStart))
		return nil, err
	}
	if isDDL(stmt) {
		sp.Complete(ppID, ppStart, time.Since(ppStart))
		return &Rows{}, db.execDDL(stmt)
	}
	switch stmt.(type) {
	case *sqlparse.Begin, *sqlparse.Commit, *sqlparse.Rollback:
		sp.Complete(ppID, ppStart, time.Since(ppStart))
		return nil, errors.New("db: use Begin()/Tx.Commit()/Tx.Rollback() for transaction control")
	}
	if _, isSelect := stmt.(*sqlparse.Select); isSelect {
		// Auto-commit SELECT: a read-only snapshot transaction. No read-set
		// tracking, no validation, and — by construction — no conflict-retry
		// loop: a snapshot read cannot be invalidated by concurrent writers.
		tx := db.beginReadOnlyMeta(meta)
		plan, err := db.planFor(query, stmt, sp, ppID)
		sp.Complete(ppID, ppStart, time.Since(ppStart))
		if err != nil {
			tx.Rollback()
			return nil, err
		}
		res, err := tx.execPlanned(stmt, plan, query, vals)
		if err != nil {
			tx.Rollback()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		return res, nil
	}
	var res *Rows
	err = db.runWithRetry(meta, func(tx *Tx) error {
		// Re-validate the plan per attempt: a cache hit is a lock-free-ish
		// map lookup, and concurrent DDL between attempts (epoch bump)
		// re-plans instead of running a stale catalog snapshot — matching
		// the pre-plan-cache behaviour of resolving tables on every attempt.
		plan, err := db.planFor(query, stmt, sp, ppID)
		if ppID != 0 {
			// The parse_plan window closes after the first attempt's lookup;
			// retry-loop re-plans stand alone as plan_compile spans.
			sp.Complete(ppID, ppStart, time.Since(ppStart))
			ppID = 0
		}
		if err != nil {
			return err
		}
		res, err = tx.execPlanned(stmt, plan, query, vals)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Query is Exec for read statements; provided for call-site clarity.
func (db *DB) Query(query string, args ...any) (*Rows, error) {
	return db.Exec(query, args...)
}

// ExecScript runs a semicolon-separated script of DDL/DML statements, each
// in autocommit mode. Useful for schema setup and workload seeding.
func (db *DB) ExecScript(script string) error {
	stmts, err := sqlparse.ParseAll(script)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if err := db.readOnlyViolation(stmt); err != nil {
			return err
		}
		if isDDL(stmt) {
			if err := db.execDDL(stmt); err != nil {
				return err
			}
			continue
		}
		if _, isSelect := stmt.(*sqlparse.Select); isSelect {
			tx := db.beginReadOnlyMeta(TxMeta{})
			if _, err := tx.execPlanned(stmt, nil, "", nil); err != nil {
				tx.Rollback()
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
			continue
		}
		err := db.runWithRetry(TxMeta{}, func(tx *Tx) error {
			_, err := tx.execPlanned(stmt, nil, "", nil)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runWithRetry runs fn in a transaction, retrying on serialization conflict.
func (db *DB) runWithRetry(meta TxMeta, fn func(*Tx) error) error {
	for attempt := 0; attempt < txn.MaxRetries; attempt++ {
		tx := db.BeginMeta(meta)
		if err := fn(tx); err != nil {
			tx.Rollback()
			var conflict *storage.ConflictError
			if errors.As(err, &conflict) {
				continue
			}
			return err
		}
		err := tx.Commit()
		if err == nil {
			return nil
		}
		var conflict *storage.ConflictError
		if !errors.As(err, &conflict) {
			return err
		}
	}
	return fmt.Errorf("db: giving up after %d serialization retries", txn.MaxRetries)
}

// RunTx executes fn in a transaction with conflict retry; this is the
// application-facing transactional block (the runtime's ctx.Txn wraps it).
func (db *DB) RunTx(meta TxMeta, fn func(*Tx) error) error {
	return db.runWithRetry(meta, fn)
}

// Begin starts an explicit transaction.
func (db *DB) Begin() *Tx { return db.BeginMeta(TxMeta{}) }

// BeginMeta starts an explicit transaction carrying TROD metadata.
func (db *DB) BeginMeta(meta TxMeta) *Tx {
	return &Tx{
		db:    db,
		inner: txn.Begin(db.store),
		meta:  meta,
		start: time.Now(),
	}
}

// ErrTxnExpired reports an interactive transaction that exceeded its
// deadline: the server (or another session owner) abandoned it, the
// deadline watcher rolled it back, and every later operation on the handle
// fails with this error. It maps to a typed protocol error on the wire.
var ErrTxnExpired = errors.New("db: interactive transaction expired")

// txGuard serializes an interactive transaction's operations against its
// deadline watcher. Plain transactions (guard == nil) pay nothing.
type txGuard struct {
	mu      sync.Mutex
	timer   *time.Timer
	expired bool
}

// BeginInteractive starts an explicit transaction owned by a session that
// may go quiet mid-transaction (a network client, an operator shell). If the
// transaction is still active when timeout elapses, it is rolled back by a
// deadline watcher — firing the interposition hook like any abort —
// and subsequent operations return ErrTxnExpired; onExpire (optional) runs
// after the deadline abort, outside any database lock. A timeout <= 0
// disables the watcher. Unlike plain Tx handles, the returned handle is safe
// for the owning session and the watcher to race; it is still not a
// general-purpose concurrent handle.
func (db *DB) BeginInteractive(meta TxMeta, timeout time.Duration, onExpire func()) *Tx {
	tx := db.BeginMeta(meta)
	if timeout <= 0 {
		return tx
	}
	g := &txGuard{}
	tx.guard = g
	g.timer = time.AfterFunc(timeout, func() {
		g.mu.Lock()
		if g.expired || tx.inner.State() != txn.StateActive {
			g.mu.Unlock()
			return
		}
		g.expired = true
		tx.rollback()
		g.mu.Unlock()
		if onExpire != nil {
			onExpire()
		}
	})
	return tx
}

// ErrReadOnlyTxn re-exports the transaction layer's typed error for writes
// attempted on a read-only snapshot transaction, so wire-facing layers can
// map it without importing txn.
var ErrReadOnlyTxn = txn.ErrReadOnlyTxn

// BeginReadOnly starts a declared read-only snapshot transaction at the
// current sequence: reads skip read-set tracking entirely, commit never
// validates, and the transaction can never abort on serialization conflict.
// Writes fail with ErrReadOnlyTxn. Auto-commit SELECTs, replica follower
// reads, and analytics scans all run through this path.
func (db *DB) BeginReadOnly() *Tx { return db.beginReadOnlyMeta(TxMeta{}) }

func (db *DB) beginReadOnlyMeta(meta TxMeta) *Tx {
	return &Tx{db: db, inner: txn.BeginReadOnly(db.store), meta: meta, start: time.Now()}
}

// BeginAt starts a read-only transaction at a historical snapshot (time
// travel; used by the TROD replay engine). Writes through the returned
// handle fail with ErrReadOnlyTxn — a historical transaction has an empty
// OCC footprint, so a write through it would skip validation entirely and
// blindly clobber the present. Snapshots below the history floor (vacuumed
// away, or behind the checkpoint a restart recovered from) fail with
// storage.ErrHistoryTruncated rather than silently reading rows as missing.
func (db *DB) BeginAt(seq uint64) (*Tx, error) {
	inner := txn.BeginAt(db.store, seq)
	// Pin first, check second: once the pin is at seq, Vacuum clamps its
	// horizon at or below it, so a floor that passes here cannot rise past
	// seq for the life of the transaction.
	if floor := db.store.HistoryRetainedFrom(); seq < floor {
		inner.Abort()
		return nil, fmt.Errorf("db: time travel to seq %d: %w (history retained from seq %d)",
			seq, storage.ErrHistoryTruncated, floor)
	}
	return &Tx{db: db, inner: inner, start: time.Now()}, nil
}

// Tx is an explicit transaction handle.
type Tx struct {
	db    *DB
	inner *txn.Txn
	meta  TxMeta
	stmts []StmtTrace
	start time.Time
	guard *txGuard // non-nil for interactive transactions (BeginInteractive)
}

// enter takes the interactive guard (no-op for plain transactions) and
// fails fast when the deadline watcher already rolled the transaction back.
func (tx *Tx) enter() error {
	if tx.guard == nil {
		return nil
	}
	tx.guard.mu.Lock()
	if tx.guard.expired {
		tx.guard.mu.Unlock()
		return ErrTxnExpired
	}
	return nil
}

func (tx *Tx) exit() {
	if tx.guard != nil {
		tx.guard.mu.Unlock()
	}
}

// ID returns the TROD transaction ID.
func (tx *Tx) ID() uint64 { return tx.inner.ID() }

// Snapshot returns the snapshot sequence the transaction reads at.
func (tx *Tx) Snapshot() uint64 { return tx.inner.Snapshot() }

// SetSpanBuf points the transaction at a request's span buffer. Interactive
// transactions span many wire requests, each with its own trace; the server
// re-points the buffer per request so statement and commit spans land in
// the trace of the request that triggered them.
func (tx *Tx) SetSpanBuf(b *span.Buf) { tx.meta.Spans = b }

// Inner exposes the low-level transaction (used by the TROD replay engine).
func (tx *Tx) Inner() *txn.Txn { return tx.inner }

// Exec runs one statement inside the transaction. On an interactive
// transaction it fails with ErrTxnExpired once the deadline watcher has
// rolled the transaction back.
func (tx *Tx) Exec(query string, args ...any) (*Rows, error) {
	vals, err := convertArgs(args)
	if err != nil {
		return nil, err
	}
	return tx.ExecRow(query, vals)
}

// ExecRow is Exec with the arguments already values.
func (tx *Tx) ExecRow(query string, vals value.Row) (*Rows, error) {
	if err := tx.enter(); err != nil {
		return nil, err
	}
	defer tx.exit()
	stmt, err := tx.db.parse(query)
	if err != nil {
		return nil, err
	}
	if err := tx.db.readOnlyViolation(stmt); err != nil {
		return nil, err
	}
	if isDDL(stmt) {
		return nil, errors.New("db: DDL is not allowed inside a transaction")
	}
	var plan *sqlexec.Plan
	if isPlannable(stmt) {
		sp := tx.meta.Spans
		var ppID uint32
		var ppStart time.Time
		if sp != nil {
			ppStart = time.Now()
			ppID = sp.Reserve(span.StageParsePlan, span.RootID)
		}
		plan, err = tx.db.planFor(query, stmt, sp, ppID)
		sp.Complete(ppID, ppStart, time.Since(ppStart))
		if err != nil {
			return nil, err
		}
	}
	return tx.execPlanned(stmt, plan, query, vals)
}

// Query is Exec for reads.
func (tx *Tx) Query(query string, args ...any) (*Rows, error) {
	return tx.Exec(query, args...)
}

// execPlanned runs one statement, preferring a cached physical plan; a nil
// plan falls back to transient compilation (script statements, transaction
// control).
func (tx *Tx) execPlanned(stmt sqlparse.Statement, plan *sqlexec.Plan, query string, vals []value.Value) (*Rows, error) {
	// Without interposition hooks there is no consumer for statement
	// traces; skip the bookkeeping entirely so an untraced deployment pays
	// nothing (the tracing-off baseline of experiment E1).
	traced := tx.db.hook != nil
	ex := &sqlexec.Executor{
		Tx:    tx.inner,
		Store: tx.db.store,
		Args:  vals,
	}
	var trace StmtTrace
	if traced {
		trace.Query = query
		ex.OnRead = func(table string, row value.Row) {
			if len(trace.Reads) < maxReadsPerStmt {
				trace.Reads = append(trace.Reads, ReadEvent{Table: table, Row: row.Clone()})
			}
		}
	}
	sp := tx.meta.Spans
	var est time.Time
	if sp != nil {
		est = time.Now()
	}
	var res *Rows
	var err error
	if plan != nil {
		res, err = ex.Run(plan)
	} else {
		res, err = ex.Exec(stmt)
	}
	if sp != nil {
		sp.Record(span.StageExecute, span.RootID, est, time.Since(est))
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		return res, nil
	}
	// Record access markers for read statements that matched nothing, so
	// the provenance log shows "checked, found nothing" (paper Table 2).
	if len(trace.Reads) == 0 {
		for _, tbl := range statementTables(stmt) {
			trace.Reads = append(trace.Reads, ReadEvent{Table: tbl})
		}
	}
	tx.stmts = append(tx.stmts, trace)
	return res, nil
}

// statementTables lists the base tables a read/filter statement touches.
func statementTables(stmt sqlparse.Statement) []string {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		if s.From == nil {
			return nil
		}
		out := []string{s.From.Table}
		for _, j := range s.Joins {
			out = append(out, j.Table.Table)
		}
		return out
	case *sqlparse.Update:
		return []string{s.Table}
	case *sqlparse.Delete:
		return []string{s.Table}
	default:
		return nil
	}
}

// Commit commits the transaction and fires the interposition hook. In Disk
// mode with per-commit sync the call returns only once the commit record is
// fsynced; concurrent committers share the fsync (group commit). On an
// interactive transaction whose deadline already fired, it returns
// ErrTxnExpired (the watcher rolled the transaction back).
func (tx *Tx) Commit() error {
	if err := tx.enter(); err != nil {
		return err
	}
	defer tx.exit()
	if tx.guard != nil {
		tx.guard.timer.Stop()
	}
	_, err := tx.db.commit(&commitOp{kind: primaryCommit, tx: tx, sp: tx.meta.Spans})
	return err
}

// trace is what the interposition hook learns about the finished
// transaction.
func (tx *Tx) trace(seq uint64, committed bool) TxnTrace {
	stmts := tx.stmts
	if writes := tx.inner.Committed(); writes != nil {
		stmts = append(stmts, StmtTrace{Query: "COMMIT", writes: writes})
	}
	return TxnTrace{
		TxnID:     tx.inner.ID(),
		CommitSeq: seq,
		Snapshot:  tx.inner.Snapshot(),
		Meta:      tx.meta,
		Stmts:     stmts,
		Start:     tx.start,
		End:       time.Now(),
		Committed: committed,
	}
}

// Rollback aborts the transaction. Rolling back an interactive transaction
// that already expired is a no-op.
func (tx *Tx) Rollback() {
	if tx.guard != nil {
		tx.guard.mu.Lock()
		defer tx.guard.mu.Unlock()
		if tx.guard.expired {
			return
		}
		tx.guard.timer.Stop()
	}
	tx.rollback()
}

func (tx *Tx) rollback() {
	if tx.inner.State() == txn.StateActive {
		tx.inner.Abort()
		if tx.db.hook != nil {
			tx.db.hook(tx.trace(0, false))
		}
	}
}

// Flush forces buffered WAL writes to the OS (Disk mode).
func (db *DB) Flush() error {
	if db.log != nil {
		return db.log.Flush()
	}
	return nil
}

// NewFromStore wraps an existing MVCC store as an in-memory database. The
// TROD replay and retroactive-programming engines use it to build
// development databases from restored snapshots.
func NewFromStore(s *storage.Store) *DB {
	return &DB{store: s, mode: Memory, plans: newPlanCache(defaultPlanCacheCap), ckptHist: newCheckpointHist()}
}

// CloneAt materialises a full copy of the database as of snapshot seq — the
// "full restore" path for development databases.
func (db *DB) CloneAt(seq uint64) (*DB, error) {
	s, err := db.store.CloneAt(seq)
	if err != nil {
		return nil, err
	}
	return NewFromStore(s), nil
}

// --- replication support -----------------------------------------------------

// ErrReadOnly reports a write or DDL statement rejected because the database
// is in read-only mode (a replica). It maps to a typed protocol error on the
// wire; writes must go to the primary.
var ErrReadOnly = errors.New("db: database is read-only (replica); writes must go to the primary")

// SetReadOnly switches the SQL layer into read-only mode: SELECTs run
// normally, everything else fails with ErrReadOnly. The replicated apply
// path (ApplyReplicatedCommit/ApplyReplicatedDDL/BootstrapFromSnapshot)
// bypasses the guard. Safe to flip on a live database (promotion turns a
// replica writable in place).
func (db *DB) SetReadOnly(ro bool) { db.readOnly.Store(ro) }

// ReadOnly reports whether the SQL layer rejects writes.
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }

// ErrFenced reports a write rejected because the node's replication epoch is
// stale: a newer primary has been promoted, so nothing this node commits can
// survive on the cluster's timeline. Reads stay available.
var ErrFenced = errors.New("db: node is fenced (stale replication epoch); a newer primary exists")

// ErrQuorumUnavailable reports a write commit that was applied and locally
// durable but did not gather the configured replica-quorum acknowledgement
// in time. Its fate on the surviving timeline is unknown: if the primary
// dies now, a promoted replica may or may not carry it.
var ErrQuorumUnavailable = errors.New("db: commit not acknowledged by the replica quorum")

// SetFenced fences (or unfences, after promotion) the SQL layer: while
// fenced, writes and DDL fail with ErrFenced. Reads are served normally —
// a fenced node is still a consistent snapshot of its epoch's prefix.
func (db *DB) SetFenced(f bool) { db.fenced.Store(f) }

// Fenced reports whether the SQL layer rejects writes with ErrFenced.
func (db *DB) Fenced() bool { return db.fenced.Load() }

// SetCommitBarrier installs fn between local durability and commit
// acknowledgement: every write commit (autocommit, interactive, and
// ApplyCommit batch writers) calls fn(seq) after its WAL record is durable
// and reports fn's error as a failed acknowledgement. The replication
// source uses it to hold acks until a replica quorum confirms seq. Must be
// installed before the database serves concurrent traffic.
func (db *DB) SetCommitBarrier(fn func(seq uint64) error) { db.commitBarrier = fn }

// ApplyReplicatedCommit applies one commit record shipped from a replication
// primary through the commit path: the record is force-applied in
// serialization order (exactly like WAL recovery, so indexes and version
// chains match the primary's), appended to this replica's own WAL for
// restart durability, and counted toward automatic checkpoint triggers. sp,
// when non-nil, receives the apply's stage spans (repl_apply,
// repl_wal_append, the fsync wait) and its commit sequence. Records at or
// below the current sequence are duplicates from a reconnect or bootstrap
// overlap and are skipped. Callers must apply records from a single
// goroutine in stream order.
func (db *DB) ApplyReplicatedCommit(rec storage.CommitRecord, sp *span.Buf) error {
	if rec.Seq <= db.store.CurrentSeq() {
		return nil // overlap with already-applied state (resubscribe/bootstrap)
	}
	_, err := db.commit(&commitOp{kind: replicatedCommit, rec: rec, sp: sp})
	return err
}

// ApplyReplicatedDDL applies one DDL statement shipped from a replication
// primary. Application is idempotent — a statement the replica already
// applied (reconnect overlap, bootstrap that captured the catalog) is
// skipped — because a replica resuming at commit sequence S cannot know
// which of the primary's DDL statements at position S it already received.
// Re-applying the full suffix converges: later statements overwrite earlier
// ones, and a table dropped-and-recreated at the same position is empty on
// the primary too (its rows arrive as later commits). The statement is
// persisted to the replica's WAL through the normal DDL log step.
func (db *DB) ApplyReplicatedDDL(stmt string) error {
	parsed, err := sqlparse.Parse(stmt)
	if err != nil {
		return fmt.Errorf("db: replicated DDL %q: %w", stmt, err)
	}
	switch s := parsed.(type) {
	case *sqlparse.CreateTable:
		s.IfNotExists = true
	case *sqlparse.DropTable:
		s.IfExists = true
	case *sqlparse.CreateIndex:
		for _, ix := range db.store.Indexes(s.Table) {
			if strings.EqualFold(ix.Name, s.Name) {
				return nil // already applied
			}
		}
	default:
		return fmt.Errorf("db: replicated statement %q is not DDL", stmt)
	}
	_, _, err = db.applyDDL(parsed, false)
	return err
}

// BootstrapFromSnapshot replaces the database's entire state with a
// primary's snapshot (raw or gzip-compressed EncodeSnapshot bytes): the
// store's contents jump to the snapshot sequence, and in Disk mode the
// snapshot is persisted next to the WAL and the log is rotated to a
// checkpoint pointer, so a restart recovers straight into the bootstrapped
// state. Used by replicas that fell out of the primary's retained log
// window. Concurrent reads stay safe (the swap happens under the store
// lock); transactions begun before the swap observe empty tables.
func (db *DB) BootstrapFromSnapshot(data []byte) error {
	raw, err := storage.DecompressSnapshot(data)
	if err != nil {
		return err
	}
	st, err := storage.DecodeSnapshot(raw)
	if err != nil {
		return err
	}
	seq := st.CurrentSeq()
	if db.log == nil {
		db.store.ResetTo(st)
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	snapPath := fmt.Sprintf("%s.snap.%d", db.walPath, seq)
	if err := storage.WriteSnapshotFile(snapPath, raw); err != nil {
		return err
	}
	db.store.ResetTo(st)
	if err := db.log.Rotate(wal.Checkpoint{Seq: seq, Snapshot: filepath.Base(snapPath)}, nil); err != nil {
		return err
	}
	db.ckptSeq.Store(seq)
	db.cleanupSnapshots(filepath.Base(snapPath))
	return nil
}
