package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/schema"
	"repro/internal/value"
)

// Op classifies a row change in the commit log.
type Op uint8

// Row change operations.
const (
	OpInsert Op = iota
	OpUpdate
	OpDelete
)

// String names the operation as the provenance tables render it (paper
// Table 2 uses "Insert"/"Update"/"Delete"/"Read").
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "Insert"
	case OpUpdate:
		return "Update"
	case OpDelete:
		return "Delete"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Change is one row mutation inside a commit: the encoded primary key plus
// before and after images. Before is nil for inserts, After nil for deletes.
type Change struct {
	Table  string
	Key    string
	Op     Op
	Before value.Row
	After  value.Row
}

// CommitRecord is the unit of the change-data-capture log: all changes of
// one committed transaction, in order, tagged with the global commit
// sequence that defines the serialization order.
type CommitRecord struct {
	Seq     uint64
	TxnID   uint64
	Changes []Change
	// TraceID is the span trace of the request that produced the commit (0
	// when untraced). It lives only in memory — the WAL encoding leaves it
	// out — so a replication source catching a subscriber up from the
	// change log can ship each commit with its originating trace.
	TraceID uint64
}

// LogStep is a commit's write-ahead step. Commit and ApplyCommitted run it
// under the commit lock, once the record's changes are applied and before
// the record reaches the change log or any subscriber, so the write-ahead
// log's order is the serialization order. The step must not call back into
// the store; what it did (and whether it failed) is the caller's to carry
// back.
type LogStep func(rec CommitRecord)

// DDLStep is a schema statement's write-ahead step, the DDL counterpart of
// LogStep: CreateTable, DropTable and CreateIndex run it under the commit
// lock with the statement and its position (after commit seq, before commit
// seq+1) once the change is applied. A statement that changes nothing (IF
// NOT EXISTS on an existing table, IF EXISTS on a missing one) does not run
// it.
type DDLStep func(seq uint64, stmt string)

// LogEntry is one entry of the store's change log: a commit record, or a
// schema statement (DDL set) that executed after commit Seq and before
// commit Seq+1, whose record carries only that Seq.
type LogEntry struct {
	CommitRecord
	DDL string
}

// ErrLogTruncated reports a ReadLog window that starts before the retained
// change log: the entries it needs were cut (Vacuum) or folded into the
// snapshot the store was restored from.
var ErrLogTruncated = errors.New("storage: change log truncated")

// ReadRange describes a scanned key interval for OCC validation. Hi == ""
// means unbounded above.
type ReadRange struct {
	Table  string
	Lo, Hi string
}

// IndexRange describes a scanned secondary-index key interval: commits whose
// changes enter or leave [Lo, Hi) in the index's key space conflict with the
// reader. Hi == "" means unbounded above.
type IndexRange struct {
	Table  string // lowercased
	Index  string // lowercased
	Lo, Hi string
}

// ReadSet is everything a transaction observed: point reads, primary-key
// range scans, and secondary-index range scans. Table and index names are
// normalised to lower case at insertion so validation cannot miss conflicts
// for callers that pass a non-canonical spelling.
type ReadSet struct {
	Keys        map[string]map[string]struct{} // lowercased table -> key set
	Ranges      []ReadRange
	IndexRanges []IndexRange

	// ixSeen deduplicates IndexRanges in O(1) per insertion.
	ixSeen map[IndexRange]struct{}
}

// NewReadSet returns an empty read set.
func NewReadSet() *ReadSet {
	return &ReadSet{Keys: make(map[string]map[string]struct{})}
}

// AddKey records a point read.
func (rs *ReadSet) AddKey(table, key string) {
	table = strings.ToLower(table)
	ks, ok := rs.Keys[table]
	if !ok {
		ks = make(map[string]struct{})
		rs.Keys[table] = ks
	}
	ks[key] = struct{}{}
}

// AddRange records a scanned primary-key interval.
func (rs *ReadSet) AddRange(table, lo, hi string) {
	rs.Ranges = append(rs.Ranges, ReadRange{Table: strings.ToLower(table), Lo: lo, Hi: hi})
}

// AddIndexRange records a scanned secondary-index interval. Exact duplicates
// (the same query re-executed inside one transaction) are collapsed.
func (rs *ReadSet) AddIndexRange(table, index, lo, hi string) {
	ir := IndexRange{Table: strings.ToLower(table), Index: strings.ToLower(index), Lo: lo, Hi: hi}
	if _, dup := rs.ixSeen[ir]; dup {
		return
	}
	if rs.ixSeen == nil {
		rs.ixSeen = make(map[IndexRange]struct{})
	}
	rs.ixSeen[ir] = struct{}{}
	rs.IndexRanges = append(rs.IndexRanges, ir)
}

// Contains reports whether the read set covers (table, key) via a point read
// or a primary-key range (index ranges are checked by the store, which can
// encode a change's index keys).
func (rs *ReadSet) Contains(table, key string) bool {
	table = strings.ToLower(table)
	if ks, ok := rs.Keys[table]; ok {
		if _, hit := ks[key]; hit {
			return true
		}
	}
	for _, r := range rs.Ranges {
		if r.Table == table && key >= r.Lo && (r.Hi == "" || key < r.Hi) {
			return true
		}
	}
	return false
}

// contains reports whether key falls inside the index range.
func (ir *IndexRange) contains(key string) bool {
	return key >= ir.Lo && (ir.Hi == "" || key < ir.Hi)
}

// version is one MVCC version of a row: the commit sequence that created it
// and the row image (nil = tombstone).
type version struct {
	seq uint64
	row value.Row // nil means deleted
}

// entry is a row's version chain, append-only in seq order.
type entry struct {
	versions []version
}

// visible returns the row image visible at snapshot seq, or nil.
func (e *entry) visible(seq uint64) value.Row {
	for i := len(e.versions) - 1; i >= 0; i-- {
		if e.versions[i].seq <= seq {
			return e.versions[i].row
		}
	}
	return nil
}

// latestSeq is the newest version's commit sequence.
func (e *entry) latestSeq() uint64 {
	if len(e.versions) == 0 {
		return 0
	}
	return e.versions[len(e.versions)-1].seq
}

// indexEntry is a versioned secondary-index posting: present/absent over
// time, referencing the row's primary key.
type indexEntry struct {
	versions []indexVersion
}

// indexVersion is one version of a posting. A present one names its row
// twice: by primary key, and by row, the version chain stored at that key,
// so that a scan resolves the row without descending the primary tree; a
// tombstone has no row. The pointer stays good for as long as the posting
// is visible: Vacuum compacts a chain in place and unlinks it only once the
// whole chain is dead at the horizon, when every posting made for it is
// tombstoned too; a key inserted again gets a new chain, and a new posting
// version that points at it.
type indexVersion struct {
	seq uint64
	pk  string
	row *entry // nil means the posting was removed
}

// visible returns the posting version visible at seq, or nil when none is
// or the visible one is a tombstone.
func (e *indexEntry) visible(seq uint64) *indexVersion {
	for i := len(e.versions) - 1; i >= 0; i-- {
		if v := &e.versions[i]; v.seq <= seq {
			if v.row == nil {
				return nil
			}
			return v
		}
	}
	return nil
}

// tableData holds a table's rows and secondary indexes.
type tableData struct {
	rows    *btree[*entry]
	indexes map[string]*btree[*indexEntry] // lowercased index name
}

// Store is the MVCC storage engine. One Store backs one database (the
// production database, the provenance database, or a development database
// used by replay/retroactive programming are each their own Store).
type Store struct {
	mu       sync.RWMutex
	catalog  map[string]*schema.Table   // lowercased table name
	indexDef map[string][]*schema.Index // lowercased table name -> defs
	data     map[string]*tableData
	epoch    uint64 // bumped on every DDL; keys plan-cache validity
	seq      uint64 // latest committed sequence
	nextTxn  uint64

	// The change log: commits in log, dense (log[i].Seq == logBase+i+1), and
	// the DDL statements in ddl, each positioned at the commit it followed,
	// in execution order. It holds every commit after logBase and every DDL
	// positioned at or after it. ReadLog merges the two.
	log     []CommitRecord
	ddl     []LogEntry
	logBase uint64
	// logWait is closed when the next entry reaches the log (LogSignal);
	// nil while nobody waits.
	logWait chan struct{}
	cdcSubs []func(CommitRecord)

	// pins counts active transactions per snapshot sequence. Vacuum never
	// cuts a record a pinned snapshot could still need for OCC validation
	// (commits after the snapshot), so releasing the log is safe under
	// concurrent transactions of any age.
	pins map[uint64]int

	// historyFloor is the oldest snapshot at which version-chain reads are
	// still complete. Vacuum raises it to the horizon it compacted to, and
	// restoring from a checkpoint snapshot sets it to the snapshot sequence
	// (a snapshot carries single-version row images, not history). Reads
	// below the floor would silently return "row missing" for rows that did
	// exist — time-travel entry points must refuse them instead (see
	// ErrHistoryTruncated).
	historyFloor uint64

	// vac accumulates Vacuum run counters for Stats.
	vac VacuumStats

	scratch commitScratch
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		catalog:  make(map[string]*schema.Table),
		indexDef: make(map[string][]*schema.Index),
		data:     make(map[string]*tableData),
		pins:     make(map[uint64]int),
	}
}

// --- catalog ---------------------------------------------------------------

// CreateTable installs a table. It fails if the name is taken unless
// ifNotExists is set. log, when non-nil, runs on the statement as its
// write-ahead step.
func (s *Store) CreateTable(t *schema.Table, ifNotExists bool, log DDLStep) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, exists := s.catalog[key]; exists {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("storage: table %q already exists", t.Name)
	}
	s.catalog[key] = t
	s.data[key] = &tableData{rows: newBTree[*entry](), indexes: make(map[string]*btree[*indexEntry])}
	s.logDDL(t.String(), log)
	return nil
}

// DropTable removes a table and its indexes. log is as for CreateTable.
func (s *Store) DropTable(name string, ifExists bool, log DDLStep) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := s.catalog[key]; !exists {
		if ifExists {
			return nil
		}
		return fmt.Errorf("storage: table %q does not exist", name)
	}
	delete(s.catalog, key)
	delete(s.data, key)
	delete(s.indexDef, key)
	s.logDDL("DROP TABLE "+name, log)
	return nil
}

// CreateIndex installs a secondary index and backfills it from the current
// table contents (at the latest sequence). log is as for CreateTable.
func (s *Store) CreateIndex(ix *schema.Index, log DDLStep) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tkey := strings.ToLower(ix.Table)
	tbl, ok := s.catalog[tkey]
	if !ok {
		return fmt.Errorf("storage: index %q references unknown table %q", ix.Name, ix.Table)
	}
	ikey := strings.ToLower(ix.Name)
	td := s.data[tkey]
	if _, exists := td.indexes[ikey]; exists {
		return fmt.Errorf("storage: index %q already exists on %q", ix.Name, ix.Table)
	}
	tree := newBTree[*indexEntry]()
	var backfillErr error
	td.rows.Ascend(func(pk string, e *entry) bool {
		row := e.visible(s.seq)
		if row == nil {
			return true
		}
		k := ix.EncodeIndexKey(tbl, row)
		if _, found := tree.Get(k); found && ix.Unique {
			backfillErr = fmt.Errorf("storage: unique index %q violated by existing data", ix.Name)
			return false
		}
		tree.Set(k, &indexEntry{versions: []indexVersion{{seq: s.seq, pk: pk, row: e}}})
		return true
	})
	if backfillErr != nil {
		return backfillErr
	}
	td.indexes[ikey] = tree
	s.indexDef[tkey] = append(s.indexDef[tkey], ix)
	uniq := ""
	if ix.Unique {
		uniq = "UNIQUE "
	}
	cols := make([]string, len(ix.Columns))
	for i, c := range ix.Columns {
		cols[i] = tbl.Columns[c].Name
	}
	s.logDDL(fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", uniq, ix.Name, ix.Table, strings.Join(cols, ", ")), log)
	return nil
}

// logDDL finishes an applied schema change: it bumps the schema epoch, runs
// the write-ahead step and appends the statement to the change log at the
// current position. Called under s.mu.
func (s *Store) logDDL(stmt string, log DDLStep) {
	s.epoch++
	if log != nil {
		log(s.seq, stmt)
	}
	s.ddl = append(s.ddl, LogEntry{CommitRecord: CommitRecord{Seq: s.seq}, DDL: stmt})
	s.signalLocked()
}

// Table returns the schema for name, or nil.
func (s *Store) Table(name string) *schema.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.catalog[strings.ToLower(name)]
}

// Tables lists all table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.catalog))
	for _, t := range s.catalog {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// Indexes returns the index definitions on a table.
func (s *Store) Indexes(table string) []*schema.Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defs := s.indexDef[strings.ToLower(table)]
	out := make([]*schema.Index, len(defs))
	copy(out, defs)
	return out
}

// SchemaEpoch returns a counter that increases on every successful DDL
// statement (CREATE TABLE, CREATE INDEX, DROP TABLE). The SQL layer keys its
// physical-plan cache on (query text, epoch): any schema change invalidates
// every cached plan on its next lookup, so plans may safely bake in resolved
// column offsets, table handles, and index choices.
func (s *Store) SchemaEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// --- sequence and transaction identity --------------------------------------

// CurrentSeq returns the latest committed sequence (a consistent snapshot
// handle).
func (s *Store) CurrentSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// NextTxnID allocates a unique transaction ID. IDs are assigned at
// transaction start and are independent of commit order.
func (s *Store) NextTxnID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTxn++
	return s.nextTxn
}

// --- reads -------------------------------------------------------------------

// Get returns the row visible at snapshot seq for (table, key).
func (s *Store) Get(table, key string, seq uint64) (value.Row, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	td, ok := s.data[strings.ToLower(table)]
	if !ok {
		return nil, false
	}
	e, ok := td.rows.Get(key)
	if !ok {
		return nil, false
	}
	row := e.visible(seq)
	if row == nil {
		return nil, false
	}
	return row, true
}

// Direction is the key order a range walk visits rows in.
type Direction uint8

// Walk directions.
const (
	Ascending Direction = iota
	Descending
)

// ScanRange visits rows with keys in [lo, hi) visible at snapshot seq, in
// dir's key order. hi == "" is unbounded. fn returns false to stop.
func (s *Store) ScanRange(table, lo, hi string, seq uint64, dir Direction, fn func(key string, row value.Row) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	td, ok := s.data[strings.ToLower(table)]
	if !ok {
		return
	}
	td.rows.Range(lo, hi, dir, func(k string, e *entry) bool {
		row := e.visible(seq)
		if row == nil {
			return true
		}
		return fn(k, row)
	})
}

// IndexScanRange visits index postings with index keys in [lo, hi) visible
// at seq, yielding the referenced primary keys in index order. It exposes
// raw postings (without resolving rows) for tools and tests; the executor's
// scan path is Txn.IndexScan over IndexScanRows, which shares the same
// posting-visibility rule below.
func (s *Store) IndexScanRange(table, index, lo, hi string, seq uint64, fn func(indexKey, pk string) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	td, ok := s.data[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	tree, ok := td.indexes[strings.ToLower(index)]
	if !ok {
		return fmt.Errorf("storage: unknown index %q on %q", index, table)
	}
	tree.Range(lo, hi, Ascending, func(k string, e *indexEntry) bool {
		v := e.visible(seq)
		if v == nil {
			return true
		}
		return fn(k, v.pk)
	})
	return nil
}

// IndexScanRows visits index postings with index keys in [lo, hi) visible at
// seq and resolves each referenced row under the same lock, through the
// posting's own pointer to the row, streaming (indexKey, pk, row) to fn in
// dir's index order. This lets the transaction layer merge committed
// postings with buffered writes without re-entering the store per row (and
// lets LIMIT stop the scan early via fn returning false).
func (s *Store) IndexScanRows(table, index, lo, hi string, seq uint64, dir Direction, fn func(indexKey, pk string, row value.Row) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	td, ok := s.data[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	tree, ok := td.indexes[strings.ToLower(index)]
	if !ok {
		return fmt.Errorf("storage: unknown index %q on %q", index, table)
	}
	tree.Range(lo, hi, dir, func(k string, e *indexEntry) bool {
		v := e.visible(seq)
		if v == nil {
			return true
		}
		row := v.row.visible(seq)
		if row == nil {
			return true
		}
		return fn(k, v.pk, row)
	})
	return nil
}

// SplitKeys returns at most n-1 primary keys, in order, that cut the table
// into up to n key ranges of about equal size, read from the top levels of
// its B-tree. Any keys split the table: a range walk at a snapshot sees
// every row of that snapshot in exactly one range, whatever was committed
// since. A parallel reader walks [lo, k1), [k1, k2), …, [kn-1, hi).
func (s *Store) SplitKeys(table string, n int) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	td, ok := s.data[strings.ToLower(table)]
	if !ok || n < 2 {
		return nil
	}
	return td.rows.splitKeys(n)
}

// ApproxRows returns the number of distinct keys ever stored in the table
// (live rows plus tombstoned ones) in O(1). The SQL planner uses it as a
// cheap cardinality estimate for join-strategy decisions.
func (s *Store) ApproxRows(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	td, ok := s.data[strings.ToLower(table)]
	if !ok {
		return 0
	}
	return td.rows.Len()
}

// RowCount returns the number of live rows at seq (O(n); for tests/tools).
func (s *Store) RowCount(table string, seq uint64) int {
	count := 0
	s.ScanRange(table, "", "", seq, Ascending, func(string, value.Row) bool {
		count++
		return true
	})
	return count
}

// --- commit -------------------------------------------------------------------

// ConflictError reports an OCC validation failure; the transaction should be
// retried from a fresh snapshot.
type ConflictError struct {
	Table string
	Key   string
	Seq   uint64 // the conflicting committed sequence
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("storage: serialization conflict on %s[%x] with commit %d", e.Table, e.Key, e.Seq)
}

// CommitRequest carries a transaction's buffered effects into Commit.
type CommitRequest struct {
	TxnID    uint64
	Snapshot uint64
	Reads    *ReadSet
	Changes  []Change // in execution order; at most one change per key
	TraceID  uint64   // copied onto the CommitRecord
	// Unlogged marks a commit nobody will read back from the change log — a
	// provenance batch: replay and retro consume the production log. The
	// store keeps its record out of the log when no subscriber and no pinned
	// snapshot can need it, and otherwise releases the log up to it as
	// Vacuum would. Either way the Changes slice stays the caller's to reuse
	// once Commit returns.
	Unlogged bool
}

// Commit validates the read set against everything committed after the
// transaction's snapshot and, if valid, atomically applies the changes,
// assigns the next commit sequence, runs log (when non-nil) on the record,
// appends it to the change log, and notifies subscribers. On conflict it
// returns *ConflictError.
//
// Validation is precise at key granularity and phantom-safe: every commit in
// (snapshot, now] is checked for writes that intersect the read set's keys
// or scanned ranges. This implements first-committer-wins OCC; commit order
// equals serialization order, so histories are strictly serializable.
func (s *Store) Commit(req CommitRequest, log LogStep) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Validate reads against commits after our snapshot.
	if req.Reads != nil && req.Snapshot < s.seq {
		for i := s.logIndex(req.Snapshot + 1); i < len(s.log); i++ {
			rec := &s.log[i]
			for _, ch := range rec.Changes {
				if req.Reads.Contains(ch.Table, ch.Key) {
					return 0, &ConflictError{Table: ch.Table, Key: ch.Key, Seq: rec.Seq}
				}
				if s.indexRangeConflict(req.Reads, &ch) {
					return 0, &ConflictError{Table: ch.Table, Key: ch.Key, Seq: rec.Seq}
				}
			}
		}
	}

	defer s.scratch.release()
	if err := s.locate(req.Changes, true); err != nil {
		return 0, err
	}
	newSeq := s.seq + 1
	s.apply(req.Changes, newSeq)

	s.seq = newSeq
	rec := CommitRecord{Seq: newSeq, TxnID: req.TxnID, Changes: req.Changes, TraceID: req.TraceID}
	if log != nil {
		// Before the Unlogged shortcut: a record nobody reads back from the
		// change log still has to reach the write-ahead log.
		log(rec)
	}
	if req.Unlogged && len(s.log) == 0 && len(s.cdcSubs) == 0 && len(s.pins) == 0 {
		// Nobody can ask for this record: every pin is older than the commit,
		// so none means no transaction's validation window reaches it.
		s.cutLog(newSeq)
		return newSeq, nil
	}
	if req.Unlogged {
		rec.Changes = slices.Clone(req.Changes)
	}
	s.log = append(s.log, rec)
	for _, sub := range s.cdcSubs {
		sub(rec)
	}
	s.signalLocked()
	if req.Unlogged {
		s.cutLog(newSeq)
	}
	return newSeq, nil
}

// commitTable is one table as a commit sees it, resolved once per commit so
// that the per-change work folds no names and looks nothing up in a map.
type commitTable struct {
	name  string // as the changes spell it
	td    *tableData
	tbl   *schema.Table
	defs  []*schema.Index
	trees []*btree[*indexEntry] // trees[k] is the tree of defs[k]
}

// located is where one change lands: its table and its row's version chain.
type located struct {
	t     int // index into commitScratch.tables
	e     *entry
	fresh bool // this commit put e in the tree
}

// commitScratch is the working memory of Commit and ApplyCommitted. It lives
// on the Store and is used only under s.mu, so that a commit allocates what
// it stores and nothing else.
type commitScratch struct {
	tables []commitTable
	at     []located // one per change
	fresh  int       // how many of at are fresh
	keyBuf []byte
	keyEnd []int
}

// release drops every reference the scratch holds into the store's data.
func (c *commitScratch) release() {
	for i := range c.tables {
		t := &c.tables[i]
		clear(t.trees)
		*t = commitTable{trees: t.trees[:0]}
	}
	c.tables = c.tables[:0]
	clear(c.at)
	c.at = c.at[:0]
	c.fresh = 0
}

// commitTable resolves a table name to its place in s.scratch.tables. A
// commit touches a handful of tables, so the search is a short scan.
func (s *Store) commitTable(name string) (int, bool) {
	c := &s.scratch
	for i := range c.tables {
		if c.tables[i].name == name {
			return i, true
		}
	}
	tkey := strings.ToLower(name)
	td, ok := s.data[tkey]
	if !ok {
		return 0, false
	}
	n := len(c.tables)
	if n < cap(c.tables) {
		c.tables = c.tables[:n+1]
	} else {
		c.tables = append(c.tables, commitTable{})
	}
	t := &c.tables[n]
	t.name, t.td, t.tbl, t.defs = name, td, s.catalog[tkey], s.indexDef[tkey]
	for _, ix := range t.defs {
		t.trees = append(t.trees, td.indexes[strings.ToLower(ix.Name)])
	}
	return n, true
}

// slab hands out the elements of one allocation one at a time, each as a
// slice of capacity one: appending to it copies instead of running into its
// neighbour, so what it is stored in behaves exactly as if it had been
// allocated alone. The allocation is made on first use, for as many
// elements as the caller says may still be asked for.
type slab[T any] struct{ buf []T }

func (s *slab[T]) one(remaining int) []T {
	if len(s.buf) == 0 {
		s.buf = make([]T, max(remaining, 1))
	}
	p := s.buf[0:1:1]
	s.buf = s.buf[1:]
	return p
}

// locate reaches every change's row in one B-tree descent and leaves its
// version chain in s.scratch.at for apply. A key that is absent gets an
// empty chain, which reads as absent, put in the tree on the way.
//
// With validate set it also re-checks uniqueness and write-write sanity
// against the latest committed state and refreshes Before images; on
// failure it takes the empty chains out again, so a refused commit leaves
// the store as it found it.
func (s *Store) locate(changes []Change, validate bool) error {
	c := &s.scratch
	inserts := 0
	for i := range changes {
		if changes[i].Op == OpInsert {
			inserts++
		}
	}
	var ents slab[entry]
	fail := func(err error) error {
		for i, at := range c.at {
			if at.fresh {
				c.tables[at.t].td.rows.Delete(changes[i].Key)
			}
		}
		return err
	}
	for i := range changes {
		ch := &changes[i]
		t, ok := s.commitTable(ch.Table)
		if !ok {
			return fail(fmt.Errorf("storage: commit touches unknown table %q", ch.Table))
		}
		rows := c.tables[t].td.rows
		at := located{t: t}
		if ch.Op == OpInsert || !validate {
			var loaded bool
			at.e, loaded = rows.GetOrSet(ch.Key, func() *entry { return &ents.one(inserts)[0] })
			if !loaded {
				at.fresh = true
				c.fresh++
			}
			if ch.Op == OpInsert {
				inserts--
			}
		} else {
			at.e, _ = rows.Get(ch.Key)
		}
		c.at = append(c.at, at)
		if !validate {
			continue
		}
		var curRow value.Row
		if at.e != nil {
			curRow = at.e.visible(s.seq)
		}
		switch ch.Op {
		case OpInsert:
			if curRow != nil {
				return fail(&ConflictError{Table: ch.Table, Key: ch.Key, Seq: at.e.latestSeq()})
			}
		case OpUpdate, OpDelete:
			if curRow == nil {
				// The row vanished after our snapshot — a conflicting commit.
				latest := uint64(0)
				if at.e != nil {
					latest = at.e.latestSeq()
				}
				return fail(&ConflictError{Table: ch.Table, Key: ch.Key, Seq: latest})
			}
			// Refresh the before image to the committed truth so CDC is exact.
			ch.Before = curRow
		}
	}
	if validate {
		if err := s.validateUnique(changes); err != nil {
			return fail(err)
		}
	}
	return nil
}

// apply appends one version at seq to every located chain and updates the
// indexes. A chain that starts here takes its first version from a slab
// shared by the whole commit.
func (s *Store) apply(changes []Change, seq uint64) {
	c := &s.scratch
	var vers slab[version]
	fresh := c.fresh
	for i := range changes {
		v := version{seq: seq}
		if changes[i].Op != OpDelete {
			v.row = changes[i].After
		}
		e := c.at[i].e
		if e.versions == nil {
			e.versions = vers.one(fresh)
			e.versions[0] = v
			fresh--
		} else {
			e.versions = append(e.versions, v)
		}
	}
	s.applyIndexChanges(changes, seq)
}

// applyIndexChanges appends index versions for one commit's changes at seq,
// in two passes: every old-image posting is tombstoned before any new-image
// posting is written. The order matters because a commit may free and
// re-claim the same (unique) index key across two changes, and version
// chains resolve equal-seq entries last-writer-wins — interleaving per
// change would let a tombstone land on top of the new posting whenever the
// claiming change sorts before the freeing one. Called under s.mu, after
// locate.
func (s *Store) applyIndexChanges(changes []Change, seq uint64) {
	c := &s.scratch
	for i := range changes {
		ch := &changes[i]
		if ch.Before == nil {
			continue
		}
		t := &c.tables[c.at[i].t]
		for k, ix := range t.defs {
			c.keyBuf = ix.AppendIndexKey(c.keyBuf[:0], t.tbl, ch.Before)
			ie, _ := t.trees[k].GetOrSet(string(c.keyBuf), func() *indexEntry { return &indexEntry{} })
			ie.versions = append(ie.versions, indexVersion{seq: seq})
		}
	}
	// The new-image keys of the whole commit are encoded into one buffer and
	// become one string that the postings share.
	c.keyBuf, c.keyEnd = c.keyBuf[:0], c.keyEnd[:0]
	for i := range changes {
		ch := &changes[i]
		if ch.After == nil {
			continue
		}
		t := &c.tables[c.at[i].t]
		for _, ix := range t.defs {
			c.keyBuf = ix.AppendIndexKey(c.keyBuf, t.tbl, ch.After)
			c.keyEnd = append(c.keyEnd, len(c.keyBuf))
		}
	}
	if len(c.keyEnd) == 0 {
		return
	}
	keys := string(c.keyBuf)
	var ents slab[indexEntry]
	var vers slab[indexVersion]
	n, start := 0, 0
	for i := range changes {
		ch := &changes[i]
		if ch.After == nil {
			continue
		}
		for _, tree := range c.tables[c.at[i].t].trees {
			key, remaining := keys[start:c.keyEnd[n]], len(c.keyEnd)-n
			start = c.keyEnd[n]
			n++
			ie, _ := tree.GetOrSet(key, func() *indexEntry { return &ents.one(remaining)[0] })
			v := indexVersion{seq: seq, pk: ch.Key, row: c.at[i].e}
			if ie.versions == nil {
				ie.versions = vers.one(remaining)
				ie.versions[0] = v
			} else {
				ie.versions = append(ie.versions, v)
			}
		}
	}
}

// indexRangeConflict reports whether a committed change intersects any of
// the read set's scanned index ranges: the change's old image leaving a
// scanned interval or its new image entering one both invalidate the read
// (update-out and phantom-in respectively). Called under s.mu.
func (s *Store) indexRangeConflict(rs *ReadSet, ch *Change) bool {
	if len(rs.IndexRanges) == 0 {
		return false
	}
	tkey := strings.ToLower(ch.Table)
	defs := s.indexDef[tkey]
	if len(defs) == 0 {
		return false
	}
	tbl := s.catalog[tkey]
	for _, ix := range defs {
		iname := strings.ToLower(ix.Name)
		// Encode the change's old/new keys once per index, not per range:
		// this runs inside the serialized commit section.
		var beforeK, afterK string
		encoded := false
		for i := range rs.IndexRanges {
			ir := &rs.IndexRanges[i]
			if ir.Table != tkey || ir.Index != iname {
				continue
			}
			if !encoded {
				if ch.Before != nil {
					beforeK = ix.EncodeIndexKey(tbl, ch.Before)
				}
				if ch.After != nil {
					afterK = ix.EncodeIndexKey(tbl, ch.After)
				}
				encoded = true
			}
			if ch.Before != nil && ir.contains(beforeK) {
				return true
			}
			if ch.After != nil && ir.contains(afterK) {
				return true
			}
		}
	}
	return false
}

// validateUnique checks every unique index against the commit's *net* effect:
// a key claimed by two different rows within the request is a violation even
// though neither posting is committed yet, while a key whose committed owner
// is deleted (or updated away) by this same request may be re-claimed. The
// per-change Before images must already be refreshed to committed truth.
// Called under s.mu.
func (s *Store) validateUnique(changes []Change) error {
	c := &s.scratch
	uniqueID := func(t *commitTable, ix *schema.Index) string {
		return strings.ToLower(t.tbl.Name) + "\x00" + strings.ToLower(ix.Name) + "\x00"
	}
	var freed map[string]struct{} // table \x00 index \x00 old index key
	var claims map[string]string  // table \x00 index \x00 new index key -> claiming pk
	for i := range changes {
		ch := &changes[i]
		t := &c.tables[c.at[i].t]
		for _, ix := range t.defs {
			if !ix.Unique {
				continue
			}
			id := uniqueID(t, ix)
			if ch.Before != nil {
				if freed == nil {
					freed = make(map[string]struct{})
				}
				freed[id+ix.EncodeIndexKey(t.tbl, ch.Before)] = struct{}{}
			}
			if ch.Op == OpDelete {
				continue
			}
			k := id + ix.EncodeIndexKey(t.tbl, ch.After)
			if claims == nil {
				claims = make(map[string]string)
			}
			if prev, dup := claims[k]; dup && prev != ch.Key {
				return fmt.Errorf("storage: unique index %q violation on table %q", ix.Name, ch.Table)
			}
			claims[k] = ch.Key
		}
	}
	if claims == nil {
		return nil
	}
	// Claims not freed by this commit must be absent from (or owned by the
	// same row in) the committed state at s.seq.
	for i := range changes {
		ch := &changes[i]
		if ch.Op == OpDelete {
			continue
		}
		t := &c.tables[c.at[i].t]
		for k, ix := range t.defs {
			if !ix.Unique {
				continue
			}
			ikey := ix.EncodeIndexKey(t.tbl, ch.After)
			if _, ok := freed[uniqueID(t, ix)+ikey]; ok {
				continue
			}
			if e, found := t.trees[k].Get(ikey); found {
				if v := e.visible(s.seq); v != nil && v.pk != ch.Key {
					return fmt.Errorf("storage: unique index %q violation on table %q", ix.Name, ch.Table)
				}
			}
		}
	}
	return nil
}

// logIndex returns the s.log position of the record with sequence seq
// (commit sequences are dense: log[i].Seq == logBase + i + 1).
func (s *Store) logIndex(seq uint64) int {
	if seq <= s.logBase {
		return 0
	}
	return int(seq - s.logBase - 1)
}

// --- the change log and time travel -------------------------------------------

// SubscribeCDC registers fn to receive every future commit record. fn runs
// under the store lock: it must be fast and must not call back into the
// store. Its one remaining caller is the benchmark's per-layer breakdown of
// server.write (benchmark/server_layers.go); readers that can pull use
// ReadLog and LogSignal instead.
func (s *Store) SubscribeCDC(fn func(CommitRecord)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cdcSubs = append(s.cdcSubs, fn)
}

// ReadLog returns what a reader positioned at commit `from` has not seen, up
// to commit `to`, in execution order: the commits with Seq in (from, to]
// and the DDL statements positioned in [from, to]. DDL at exactly `from`
// is included because a reader at `from` cannot know whether it already
// applied it; replication re-applies it idempotently. A window that starts
// before the retained log fails with ErrLogTruncated rather than coming
// back short.
func (s *Store) ReadLog(from, to uint64) ([]LogEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if from < s.logBase {
		return nil, fmt.Errorf("%w: cannot read from seq %d, the log is complete from seq %d", ErrLogTruncated, from, s.logBase)
	}
	var out []LogEntry
	ci := s.logIndex(from + 1)
	di := sort.Search(len(s.ddl), func(i int) bool { return s.ddl[i].Seq >= from })
	for {
		commit := ci < len(s.log) && s.log[ci].Seq <= to
		ddl := di < len(s.ddl) && s.ddl[di].Seq <= to
		switch {
		case ddl && (!commit || s.ddl[di].Seq < s.log[ci].Seq):
			out = append(out, s.ddl[di])
			di++
		case commit:
			out = append(out, LogEntry{CommitRecord: s.log[ci]})
			ci++
		default:
			return out, nil
		}
	}
}

// LogSignal returns a channel that is closed when the next entry, a commit
// or a DDL statement, reaches the change log. A reader takes it before
// ReadLog, so nothing appended after the read goes unnoticed.
func (s *Store) LogSignal() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logWait == nil {
		s.logWait = make(chan struct{})
	}
	return s.logWait
}

// signalLocked wakes LogSignal waiters; with none it costs a nil check.
// Called under s.mu.
func (s *Store) signalLocked() {
	if s.logWait != nil {
		close(s.logWait)
		s.logWait = nil
	}
}

// PinSnapshot registers the caller as an active reader at the current
// committed sequence and returns it. Until the matching UnpinSnapshot,
// Vacuum keeps every version and log entry from that sequence on, so a
// transaction's OCC validation window can never be cut out from under it.
// The transaction layer pins at Begin and unpins at Commit/Abort.
func (s *Store) PinSnapshot() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[s.seq]++
	return s.seq
}

// MovePin re-registers a pin taken at `from` onto snapshot `to` (BeginAt
// rewinds a fresh transaction to a historical snapshot).
func (s *Store) MovePin(from, to uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unpinLocked(from)
	s.pins[to]++
}

// UnpinSnapshot releases a pin taken by PinSnapshot.
func (s *Store) UnpinSnapshot(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unpinLocked(seq)
}

func (s *Store) unpinLocked(seq uint64) {
	if n := s.pins[seq]; n > 1 {
		s.pins[seq] = n - 1
	} else {
		delete(s.pins, seq)
	}
}

// LogRetainedFrom returns the first commit sequence still present in the
// change log. ReadLog refuses windows that start before it.
func (s *Store) LogRetainedFrom() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.logBase + 1
}

// OldestPin returns the oldest pinned snapshot sequence and whether any pin
// exists. Vacuum clamps its horizon to it so an active reader's snapshot can
// never be compacted out from under it.
func (s *Store) OldestPin() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.oldestPinLocked()
}

func (s *Store) oldestPinLocked() (uint64, bool) {
	oldest, found := uint64(0), false
	for seq := range s.pins {
		if !found || seq < oldest {
			oldest, found = seq, true
		}
	}
	return oldest, found
}

// HistoryRetainedFrom returns the oldest snapshot sequence at which version
// chains are still complete — the analogue of LogRetainedFrom for MVCC
// history rather than the change log. Time-travel reads (BeginAt, CloneAt,
// replay restore) below it must fail loudly: vacuum or a checkpointed
// restart has discarded the versions they would need, and proceeding would
// return plausible-but-empty results.
func (s *Store) HistoryRetainedFrom() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.historyFloor
}

// cutLog releases the change log up to upTo: commit records with Seq <=
// upTo and DDL positioned before it. The cut is clamped to the oldest
// pinned snapshot: entries in an active reader's window (anything after its
// snapshot) are always retained. Called under s.mu.
func (s *Store) cutLog(upTo uint64) {
	for seq := range s.pins {
		if seq < upTo {
			upTo = seq
		}
	}
	if upTo <= s.logBase {
		return
	}
	idx := min(s.logIndex(upTo+1), len(s.log))
	s.log = append([]CommitRecord(nil), s.log[idx:]...)
	d := sort.Search(len(s.ddl), func(i int) bool { return s.ddl[i].Seq >= upTo })
	s.ddl = append([]LogEntry(nil), s.ddl[d:]...)
	s.logBase = upTo
}

// ApplyCommitted force-applies an already-serialized commit record, used by
// WAL recovery and by a replica applying a primary's stream. It bypasses
// validation and assigns exactly rec.Seq (which must be s.seq+1); log, when
// non-nil, runs on the record as in Commit.
func (s *Store) ApplyCommitted(rec CommitRecord, log LogStep) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Seq != s.seq+1 {
		return fmt.Errorf("storage: out-of-order recovery commit %d (have %d)", rec.Seq, s.seq)
	}
	defer s.scratch.release()
	if err := s.locate(rec.Changes, false); err != nil {
		return err
	}
	s.apply(rec.Changes, rec.Seq)
	s.seq = rec.Seq
	if rec.TxnID > s.nextTxn {
		s.nextTxn = rec.TxnID
	}
	if log != nil {
		log(rec)
	}
	s.log = append(s.log, rec)
	s.signalLocked()
	return nil
}

// ResetTo replaces this store's entire committed state — catalog, index
// definitions, data, commit sequence, transaction counter — with src's,
// atomically under the store lock. Replication uses it to re-bootstrap a
// replica from a primary snapshot when the replica has fallen out of the
// primary's retained log window: the store object (and every handle held on
// it by servers and sessions) stays valid while its contents jump forward.
//
// The change log restarts at the new sequence with src's (the DDL the
// snapshot carried at its base). CDC subscriptions and snapshot pins are
// preserved; transactions
// begun before the reset keep running but read at snapshots below the new
// base, where row versions no longer exist — they observe empty tables, and
// any write commit fails validation. The schema epoch is advanced past both
// histories so cached plans from either cannot be reused.
func (s *Store) ResetTo(src *Store) {
	src.mu.RLock()
	defer src.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catalog = src.catalog
	s.indexDef = src.indexDef
	s.data = src.data
	s.seq = src.seq
	if src.nextTxn > s.nextTxn {
		s.nextTxn = src.nextTxn
	}
	s.log, s.ddl = nil, src.ddl
	s.logBase = src.seq
	s.historyFloor = src.historyFloor
	s.epoch += src.epoch + 1
	s.signalLocked()
}

// CloneAt materialises a new Store containing this store's schema and the
// row images visible at snapshot seq: the base of a development database.
func (s *Store) CloneAt(seq uint64) (*Store, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if seq < s.historyFloor {
		return nil, historyTruncatedf(seq, s.historyFloor)
	}
	dst := NewStore()
	// Iterate the catalog in sorted order so the clone's schema log and
	// the synthetic commit below are byte-stable across runs; map order
	// would make two clones of the same store diverge.
	tkeys := make([]string, 0, len(s.catalog))
	for tkey := range s.catalog {
		tkeys = append(tkeys, tkey)
	}
	sort.Strings(tkeys)
	for _, tkey := range tkeys {
		if err := dst.CreateTable(s.catalog[tkey].Clone(), false, nil); err != nil {
			return nil, err
		}
		for _, ix := range s.indexDef[tkey] {
			cp := *ix
			if err := dst.CreateIndex(&cp, nil); err != nil {
				return nil, err
			}
		}
	}
	// Copy rows via one synthetic commit per table batch.
	var changes []Change
	for _, tkey := range tkeys {
		td := s.data[tkey]
		tableName := s.catalog[tkey].Name
		td.rows.Ascend(func(pk string, e *entry) bool {
			row := e.visible(seq)
			if row == nil {
				return true
			}
			changes = append(changes, Change{Table: tableName, Key: pk, Op: OpInsert, After: row.Clone()})
			return true
		})
	}
	if len(changes) > 0 {
		if _, err := dst.Commit(CommitRequest{Changes: changes}, nil); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
