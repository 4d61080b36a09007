package db

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/wal"
)

// commitKind names the three ways into the commit path.
type commitKind uint8

const (
	// primaryCommit is a transaction's commit (Tx.Commit): OCC validation
	// and apply, then the interposition hook.
	primaryCommit commitKind = iota
	// batchCommit is a pre-built request from a writer that bypasses the
	// SQL layer (ApplyCommit; the provenance writer).
	batchCommit
	// replicatedCommit is a record shipped by a replication primary
	// (ApplyReplicatedCommit): force-applied, not counted, and never held
	// behind the commit barrier — the primary already acknowledged it.
	replicatedCommit
)

// commitOp is one commit on its way through DB.commit: what the store
// applies, the request's span buffer, and what the WAL step hands to the
// stages after it. It lives on the committer's stack.
type commitOp struct {
	kind commitKind
	tx   *Tx                   // primaryCommit
	req  storage.CommitRequest // batchCommit
	rec  storage.CommitRecord  // replicatedCommit
	sp   *span.Buf

	// Set by appendWAL, under the store's commit lock.
	lsn    int64 // end of the commit's WAL record; 0 when nothing was appended
	walNs  int64 // how long the append took (measured only when traced)
	walErr error
}

// commit is the database's only commit path. Every write runs the same
// stages in the same order:
//
//  1. store apply: validate and apply (force-apply for a replicated record).
//     The store runs the WAL append as its log step, under its commit lock
//     and before the record reaches the change log, so the WAL's order is
//     the commit order.
//  2. durable wait: block until the record is fsynced, sharing the fsync
//     with every concurrent committer (group commit).
//  3. barrier: the commit barrier (quorum acks), except for a replicated
//     record.
//  4. observe: the commit and conflict counters and the interposition hook.
//     Each earlier stage records its span as it ends.
//  5. checkpoint trigger: signal the background checkpointer when the WAL
//     has outgrown a threshold. The commit never waits for the checkpoint.
//
// A failed store apply goes straight to observe. A read-only or no-op
// transaction (commit sequence 0) appended nothing and skips 2, 3 and 5.
func (db *DB) commit(op *commitOp) (uint64, error) {
	sp := op.sp
	start := stageStart(sp)
	var step storage.LogStep
	if db.log != nil {
		step = func(rec storage.CommitRecord) { op.appendWAL(db.log, rec) }
	}
	var seq uint64
	var err error
	switch op.kind {
	case primaryCommit:
		var traceID uint64
		if sp != nil {
			traceID = sp.TraceID
		}
		seq, err = op.tx.inner.CommitWith(traceID, step)
	case batchCommit:
		seq, err = db.store.Commit(op.req, step)
	case replicatedCommit:
		if err = db.store.ApplyCommitted(op.rec, step); err == nil {
			seq = op.rec.Seq
		}
	}
	if sp != nil && (seq > 0 || err != nil) {
		// The store step's window holds the WAL append; split it into two
		// sibling stages instead of counting the append twice.
		applyStage, walStage := span.StageOCCValidate, span.StageWALAppend
		if op.kind == replicatedCommit {
			applyStage, walStage = span.StageReplApply, span.StageReplWALAppend
		}
		ns := time.Since(start).Nanoseconds()
		walNs := min(op.walNs, ns)
		startNs := start.UnixNano()
		sp.RecordNs(applyStage, span.RootID, startNs, ns-walNs, seq)
		if walNs > 0 {
			sp.RecordNs(walStage, span.RootID, startNs+ns-walNs, walNs, seq)
		}
	}

	var durErr, ackErr error
	if err == nil && seq > 0 {
		waitStart := stageStart(sp)
		var led bool
		led, durErr = db.waitDurable(op)
		waitStage := span.StageGroupCommitWait
		if led {
			waitStage = span.StageWALFsync
		}
		stageEnd(sp, waitStage, waitStart, seq)
		if durErr == nil && op.kind != replicatedCommit {
			ackErr = db.barrier(seq, sp)
		}
	}

	if op.kind != replicatedCommit {
		if err != nil {
			var conflict *storage.ConflictError
			if errors.As(err, &conflict) {
				db.conflicts.Add(1)
			}
		} else if seq > 0 {
			db.commits.Add(1)
		}
	}
	if seq > 0 {
		sp.NoteSeq(seq)
	}
	if op.kind == primaryCommit && db.hook != nil {
		db.hook(op.tx.trace(seq, err == nil))
	}
	switch {
	case err != nil:
		return 0, err
	case durErr != nil:
		// Applied in memory, but durability could not be confirmed (sticky
		// WAL failure): callers must treat the database as failed.
		return seq, fmt.Errorf("db: commit %d not durable: %w", seq, durErr)
	case ackErr != nil:
		// Applied and locally durable, but the barrier refused the
		// acknowledgement (no quorum, or the node was fenced mid-commit).
		return seq, fmt.Errorf("db: commit %d: %w", seq, ackErr)
	}
	if seq > 0 {
		db.signalCheckpoint()
	}
	return seq, nil
}

// appendWAL is the commit's log step (storage.LogStep). It only appends: the
// durable wait runs after the store releases its commit lock, so concurrent
// commits can share one fsync. The clock is read here because the WAL and
// the store are in the deterministic set.
func (op *commitOp) appendWAL(log *wal.Log, rec storage.CommitRecord) {
	start := stageStart(op.sp)
	op.lsn, op.walErr = log.AppendCommitLSN(rec)
	if op.sp != nil {
		op.walNs = time.Since(start).Nanoseconds()
	}
}

// waitDurable blocks until op's WAL record is fsynced and reports whether
// this committer led the fsync batch — the span layer labels the wait
// wal_fsync (leader) or group_commit_wait (a follower riding another
// leader's fsync). A failed append surfaces here. Under SyncNever, and in
// Memory mode, there is nothing to wait for.
func (db *DB) waitDurable(op *commitOp) (led bool, err error) {
	if op.walErr != nil {
		return false, op.walErr
	}
	if db.syncPolicy != wal.SyncEachCommit || op.lsn == 0 {
		return false, nil
	}
	return db.log.WaitDurableLed(op.lsn)
}

// barrier holds an acknowledgement at commit sequence seq behind the commit
// barrier, if one is installed (SetCommitBarrier), recording the wait as a
// quorum_wait span.
func (db *DB) barrier(seq uint64, sp *span.Buf) error {
	if db.commitBarrier == nil {
		return nil
	}
	start := stageStart(sp)
	err := db.commitBarrier(seq)
	stageEnd(sp, span.StageQuorumWait, start, seq)
	return err
}

// stageStart reads the clock for a traced commit; an untraced one never
// reads it.
func stageStart(sp *span.Buf) time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageEnd records the span of a stage that began at start.
func stageEnd(sp *span.Buf, stage span.Stage, start time.Time, seq uint64) {
	if sp != nil {
		sp.RecordNs(stage, span.RootID, start.UnixNano(), time.Since(start).Nanoseconds(), seq)
	}
}
