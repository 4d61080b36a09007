// Package txn implements the transaction layer over the MVCC storage
// engine: snapshot transactions with buffered writes, read-your-writes
// semantics, precise read-set tracking for OCC validation, and a retry
// helper for serialization conflicts.
//
// A transaction reads a fixed snapshot (the commit sequence at Begin),
// buffers all writes locally, and validates at commit. Commit order equals
// serialization order, so committed histories are strictly serializable —
// the isolation level the paper assumes (§3.1).
package txn

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// State is a transaction's lifecycle phase.
type State uint8

// Transaction states.
const (
	StateActive State = iota
	StateCommitted
	StateAborted
)

// ErrDone is returned when operating on a finished transaction.
var ErrDone = errors.New("txn: transaction already committed or aborted")

// ErrReadOnlyTxn is returned when a write is attempted on a read-only
// snapshot transaction (BeginReadOnly, or any historical-snapshot
// transaction from BeginAt). It maps to the wire code "read-only-txn".
var ErrReadOnlyTxn = errors.New("txn: write on read-only snapshot transaction")

// pendingWrite is the buffered effect on one row: the image the transaction
// first observed (orig, nil when the row did not exist) and the current
// local image (cur, nil when locally deleted).
type pendingWrite struct {
	orig value.Row
	cur  value.Row
}

// Txn is a single transaction.
//
// A read-only transaction (BeginReadOnly / BeginAt) carries a nil read set:
// snapshot reads can never be invalidated, so there is nothing to track and
// commit never validates. Writes on such a transaction fail with
// ErrReadOnlyTxn.
type Txn struct {
	store     *storage.Store
	id        uint64
	snapshot  uint64
	reads     *storage.ReadSet                    // nil for read-only transactions
	writes    map[string]map[string]*pendingWrite // lowercased table -> key
	state     State
	readOnly  bool
	commitSeq uint64
	committed []storage.Change // the change set the commit applied
}

// Begin starts a transaction at the store's current snapshot. The snapshot
// is pinned until Commit or Abort so Vacuum cannot cut the store's change
// log inside the transaction's OCC validation window.
func Begin(store *storage.Store) *Txn {
	return &Txn{
		store:    store,
		id:       store.NextTxnID(),
		snapshot: store.PinSnapshot(),
		reads:    storage.NewReadSet(),
		writes:   make(map[string]map[string]*pendingWrite),
	}
}

// BeginReadOnly starts a read-only transaction at the store's current
// snapshot. It keeps no read set — snapshot reads are consistent by
// construction and can never be invalidated by concurrent writers — so
// Commit never validates and the transaction can never abort on conflict.
// All write methods fail with ErrReadOnlyTxn.
func BeginReadOnly(store *storage.Store) *Txn {
	return &Txn{
		store:    store,
		id:       store.NextTxnID(),
		snapshot: store.PinSnapshot(),
		readOnly: true,
	}
}

// BeginAt starts a read-only transaction at an explicit historical snapshot.
// The TROD replay engine uses this for time-travel reads. Historical
// transactions are strictly read-only: a write through one would have an
// empty OCC footprint (nothing to validate) and could blindly clobber the
// present — see ErrReadOnlyTxn.
func BeginAt(store *storage.Store, snapshot uint64) *Txn {
	t := BeginReadOnly(store)
	t.store.MovePin(t.snapshot, snapshot)
	t.snapshot = snapshot
	return t
}

// ID returns the transaction's unique identifier (assigned at Begin, used
// by TROD as the TxnId in provenance logs).
func (t *Txn) ID() uint64 { return t.id }

// Snapshot returns the commit sequence this transaction reads at.
func (t *Txn) Snapshot() uint64 { return t.snapshot }

// State returns the lifecycle phase.
func (t *Txn) State() State { return t.state }

// CommitSeq returns the assigned commit sequence (valid after Commit).
// Read-only and no-op commits report 0: they did not commit anywhere in the
// sequence — the position they read at is Snapshot, a distinct notion.
func (t *Txn) CommitSeq() uint64 { return t.commitSeq }

// Committed returns the change set the commit applied: the slice the
// store logged, not a copy, so callers must not modify it. It is nil until
// a commit with effects succeeds.
func (t *Txn) Committed() []storage.Change { return t.committed }

// ReadOnly reports whether this is a declared read-only transaction.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// ReadSet exposes the tracked reads (the TROD tracer snapshots it at commit).
// Read-only transactions track nothing and return nil.
func (t *Txn) ReadSet() *storage.ReadSet { return t.reads }

// HasWrites reports whether the transaction has buffered writes on table.
// (IndexScan merges buffered writes itself, so index access no longer
// depends on this; it remains useful for diagnostics and tests.)
func (t *Txn) HasWrites(table string) bool {
	return len(t.writes[strings.ToLower(table)]) > 0
}

func (t *Txn) tableWrites(table string) map[string]*pendingWrite {
	key := strings.ToLower(table)
	m, ok := t.writes[key]
	if !ok {
		m = make(map[string]*pendingWrite)
		t.writes[key] = m
	}
	return m
}

// Get returns the row at (table, key) as seen by this transaction: buffered
// writes shadow the snapshot. The read is recorded for OCC validation.
func (t *Txn) Get(table, key string) (value.Row, bool, error) {
	if t.state != StateActive {
		return nil, false, ErrDone
	}
	if t.reads != nil {
		t.reads.AddKey(table, key)
	}
	if w, ok := t.writes[strings.ToLower(table)][key]; ok {
		if w.cur == nil {
			return nil, false, nil
		}
		return w.cur.Clone(), true, nil
	}
	row, ok := t.store.Get(table, key, t.snapshot)
	if !ok {
		return nil, false, nil
	}
	return row.Clone(), true, nil
}

// Scan visits rows with keys in [lo, hi) in key order, merging the snapshot
// with buffered writes. The scanned range is recorded for phantom-safe
// validation. fn returns false to stop early.
func (t *Txn) Scan(table, lo, hi string, fn func(key string, row value.Row) bool) error {
	return t.ScanDir(table, lo, hi, storage.Ascending, fn)
}

// ScanDir is Scan in dir's key order. The whole [lo, hi) range is recorded
// for validation even when fn stops the walk early.
func (t *Txn) ScanDir(table, lo, hi string, dir storage.Direction, fn func(key string, row value.Row) bool) error {
	if t.state != StateActive {
		return ErrDone
	}
	if t.reads != nil {
		t.reads.AddRange(table, lo, hi)
	}

	// Local keys within range, in walk order.
	local := t.writes[strings.ToLower(table)]
	localKeys := make([]string, 0, len(local))
	for k := range local {
		if k >= lo && (hi == "" || k < hi) {
			localKeys = append(localKeys, k)
		}
	}
	sort.Strings(localKeys)
	if dir == storage.Descending {
		slices.Reverse(localKeys)
	}
	before := keyBefore(dir)

	li := 0
	stopped := false
	emitLocal := func(k string) bool {
		if w := local[k]; w.cur != nil {
			return fn(k, w.cur.Clone())
		}
		return true
	}
	t.store.ScanRange(table, lo, hi, t.snapshot, dir, func(k string, row value.Row) bool {
		for li < len(localKeys) && before(localKeys[li], k) {
			if !emitLocal(localKeys[li]) {
				stopped = true
				return false
			}
			li++
		}
		if li < len(localKeys) && localKeys[li] == k {
			ok := emitLocal(localKeys[li])
			li++
			if !ok {
				stopped = true
			}
			return ok
		}
		if !fn(k, row) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return nil
	}
	for ; li < len(localKeys); li++ {
		if !emitLocal(localKeys[li]) {
			return nil
		}
	}
	return nil
}

// keyBefore reports whether key a comes strictly before key b in a walk in
// dir's order.
func keyBefore(dir storage.Direction) func(a, b string) bool {
	if dir == storage.Descending {
		return func(a, b string) bool { return a > b }
	}
	return func(a, b string) bool { return a < b }
}

// indexPosting is one buffered row's projection into an index: its encoded
// index key, primary key, and current local image.
type indexPosting struct {
	k, pk string
	row   value.Row
}

// IndexScan visits secondary-index postings with index keys in [lo, hi) as
// seen by this transaction: committed postings at the snapshot merged with
// the transaction's buffered writes (read-your-writes), in index-key order.
// Buffered rows shadow their committed images, so a local update that moves
// a row out of the scanned range hides it and one that moves it in surfaces
// it. fn receives the referenced primary key and the row image and returns
// false to stop early. The scanned interval is recorded as a precise
// index-key range for OCC validation — not a whole-table range — so writers
// touching disjoint index ranges do not conflict with this reader.
func (t *Txn) IndexScan(tbl *schema.Table, ix *schema.Index, lo, hi string, fn func(pk string, row value.Row) bool) error {
	return t.IndexScanDir(tbl, ix, lo, hi, storage.Ascending, fn)
}

// IndexScanDir is IndexScan in dir's index-key order. The whole [lo, hi)
// range is recorded for validation even when fn stops the walk early.
//
// Postings with equal index keys (a unique index, where a buffered row
// claims a key a committed row still holds until commit rejects it) come
// out in the same relative order in both directions: committed first, then
// buffered by primary key.
func (t *Txn) IndexScanDir(tbl *schema.Table, ix *schema.Index, lo, hi string, dir storage.Direction, fn func(pk string, row value.Row) bool) error {
	if t.state != StateActive {
		return ErrDone
	}
	if t.reads != nil {
		t.reads.AddIndexRange(tbl.Name, ix.Name, lo, hi)
	}

	// Project buffered writes into walk order within [lo, hi).
	local := t.writes[strings.ToLower(tbl.Name)]
	var localPosts []indexPosting
	for pk, w := range local {
		if w.cur == nil {
			continue
		}
		k := ix.EncodeIndexKey(tbl, w.cur)
		if k >= lo && (hi == "" || k < hi) {
			localPosts = append(localPosts, indexPosting{k: k, pk: pk, row: w.cur})
		}
	}
	before := keyBefore(dir)
	sort.Slice(localPosts, func(i, j int) bool {
		if localPosts[i].k != localPosts[j].k {
			return before(localPosts[i].k, localPosts[j].k)
		}
		return localPosts[i].pk < localPosts[j].pk
	})

	li := 0
	stopped := false
	err := t.store.IndexScanRows(tbl.Name, ix.Name, lo, hi, t.snapshot, dir, func(k, pk string, row value.Row) bool {
		for li < len(localPosts) && before(localPosts[li].k, k) {
			if !fn(localPosts[li].pk, localPosts[li].row.Clone()) {
				stopped = true
				return false
			}
			li++
		}
		if _, shadowed := local[pk]; shadowed {
			// The transaction rewrote or deleted this row; its buffered image
			// (if still in range) is emitted from localPosts instead.
			return true
		}
		if !fn(pk, row) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	for ; li < len(localPosts); li++ {
		if !fn(localPosts[li].pk, localPosts[li].row.Clone()) {
			return nil
		}
	}
	return nil
}

// Insert buffers a new row. It fails if the key already exists (either in
// the snapshot or locally).
func (t *Txn) Insert(tbl *schema.Table, row value.Row) error {
	if t.state != StateActive {
		return ErrDone
	}
	if t.readOnly {
		return ErrReadOnlyTxn
	}
	checked, err := tbl.CheckRow(row)
	if err != nil {
		return err
	}
	key := tbl.EncodePrimaryKey(checked)
	existing, found, err := t.Get(tbl.Name, key)
	if err != nil {
		return err
	}
	if found {
		_ = existing
		return fmt.Errorf("txn: duplicate primary key %v in table %q", tbl.PrimaryKey(checked), tbl.Name)
	}
	w := t.tableWrites(tbl.Name)
	if pw, ok := w[key]; ok {
		pw.cur = checked // re-insert after local delete
	} else {
		w[key] = &pendingWrite{orig: nil, cur: checked}
	}
	return nil
}

// Update buffers a full-row replacement for an existing key. The new row
// must have the same primary key.
func (t *Txn) Update(tbl *schema.Table, newRow value.Row) error {
	if t.state != StateActive {
		return ErrDone
	}
	if t.readOnly {
		return ErrReadOnlyTxn
	}
	checked, err := tbl.CheckRow(newRow)
	if err != nil {
		return err
	}
	key := tbl.EncodePrimaryKey(checked)
	old, found, err := t.Get(tbl.Name, key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("txn: update of missing key %v in table %q", tbl.PrimaryKey(checked), tbl.Name)
	}
	w := t.tableWrites(tbl.Name)
	if pw, ok := w[key]; ok {
		pw.cur = checked
	} else {
		w[key] = &pendingWrite{orig: old, cur: checked}
	}
	return nil
}

// Delete buffers removal of the row at key. Deleting an absent row is a
// no-op returning found=false.
func (t *Txn) Delete(tbl *schema.Table, key string) (bool, error) {
	if t.state != StateActive {
		return false, ErrDone
	}
	if t.readOnly {
		return false, ErrReadOnlyTxn
	}
	old, found, err := t.Get(tbl.Name, key)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	w := t.tableWrites(tbl.Name)
	if pw, ok := w[key]; ok {
		pw.cur = nil
	} else {
		w[key] = &pendingWrite{orig: old, cur: nil}
	}
	return true, nil
}

// PendingChanges materialises the buffered writes as CDC-style changes,
// sorted by (table, key) for determinism. No-op writes (delete of a row the
// transaction itself inserted, or an update back to the original image) are
// elided.
func (t *Txn) PendingChanges() []storage.Change {
	type tk struct{ table, key string }
	var keys []tk
	for table, m := range t.writes {
		for k := range m {
			keys = append(keys, tk{table, k})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].key < keys[j].key
	})
	var changes []storage.Change
	for _, k := range keys {
		pw := t.writes[k.table][k.key]
		tbl := t.store.Table(k.table)
		name := k.table
		if tbl != nil {
			name = tbl.Name
		}
		switch {
		case pw.orig == nil && pw.cur == nil:
			// created and deleted locally: nothing happened
		case pw.orig == nil:
			changes = append(changes, storage.Change{Table: name, Key: k.key, Op: storage.OpInsert, After: pw.cur})
		case pw.cur == nil:
			changes = append(changes, storage.Change{Table: name, Key: k.key, Op: storage.OpDelete, Before: pw.orig})
		case pw.orig.Equal(pw.cur):
			// updated back to the original image: no effect
		default:
			changes = append(changes, storage.Change{Table: name, Key: k.key, Op: storage.OpUpdate, Before: pw.orig, After: pw.cur})
		}
	}
	return changes
}

// Commit validates and applies the transaction. On serialization conflict
// it returns *storage.ConflictError and marks the transaction aborted; the
// caller should retry with a fresh transaction (see Run).
//
// Read-only transactions (and writable transactions with no effective
// changes) never validate and never abort: they return commit seq 0, which
// is not a position in the commit sequence. The snapshot they read at is
// available via Snapshot — reporting it here would let a time-travel reader
// masquerade as a transaction that committed in the past.
func (t *Txn) Commit() (uint64, error) { return t.CommitWith(0, nil) }

// CommitWith is Commit with the record's trace ID and the commit's
// write-ahead step passed through to Store.Commit (see
// storage.CommitRecord.TraceID and storage.LogStep).
func (t *Txn) CommitWith(traceID uint64, log storage.LogStep) (uint64, error) {
	if t.state != StateActive {
		return 0, ErrDone
	}
	changes := t.PendingChanges()
	if len(changes) == 0 {
		// Nothing to validate: snapshot reads are consistent by construction.
		t.state = StateCommitted
		t.commitSeq = 0
		t.store.UnpinSnapshot(t.snapshot)
		return 0, nil
	}
	seq, err := t.store.Commit(storage.CommitRequest{
		TxnID:    t.id,
		Snapshot: t.snapshot,
		Reads:    t.reads,
		Changes:  changes,
		TraceID:  traceID,
	}, log)
	t.store.UnpinSnapshot(t.snapshot)
	if err != nil {
		t.state = StateAborted
		return 0, err
	}
	t.state = StateCommitted
	t.commitSeq = seq
	t.committed = changes
	return seq, nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	if t.state == StateActive {
		t.state = StateAborted
		t.store.UnpinSnapshot(t.snapshot)
	}
}

// MaxRetries bounds Run's conflict-retry loop.
const MaxRetries = 64

// Run executes fn inside a transaction, committing on success and retrying
// the whole function on serialization conflicts (fresh snapshot each time).
// Any other error aborts and is returned.
func Run(store *storage.Store, fn func(*Txn) error) error {
	for attempt := 0; attempt < MaxRetries; attempt++ {
		t := Begin(store)
		if err := fn(t); err != nil {
			t.Abort()
			var conflict *storage.ConflictError
			if errors.As(err, &conflict) {
				continue
			}
			return err
		}
		_, err := t.Commit()
		if err == nil {
			return nil
		}
		var conflict *storage.ConflictError
		if !errors.As(err, &conflict) {
			return err
		}
	}
	return fmt.Errorf("txn: giving up after %d serialization retries", MaxRetries)
}
