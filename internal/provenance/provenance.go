// Package provenance defines the TROD provenance database: the structured,
// SQL-queryable tables the interposition layer fills (paper §3.4) and the
// helpers debugging operations use to read them back.
//
// Schema (names match the paper where it names them):
//
//	Executions        — one row per transaction: TxnId, Timestamp,
//	                    HandlerName, ReqId, Func (the paper's Metadata
//	                    column), Workflow, CommitSeq, Snapshot, Committed,
//	                    LatencyUs. This is "Table 1" / the table the §3.3
//	                    debugging query calls Executions.
//	trod_requests     — one row per top-level request with end-to-end
//	                    latency and status (the §5 performance extension).
//	trod_rpc_edges    — the workflow graph: parent/child invocation edges
//	                    (used by §4.2 exfiltration tracing).
//	trod_externals    — external-service calls (assumed idempotent).
//	<T>Events         — one per traced application table (e.g. ForumEvents
//	                    for forum_sub): Read/Insert/Update/Delete events
//	                    with the observed row values ("Table 2").
package provenance

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// TableMap maps an application table name (case-insensitive) to its event
// table name in the provenance database, e.g. "forum_sub" -> "ForumEvents".
type TableMap map[string]string

// normalize returns a lower-keyed copy.
func (m TableMap) normalize() TableMap {
	out := make(TableMap, len(m))
	for k, v := range m {
		out[strings.ToLower(k)] = v
	}
	return out
}

// Event is one provenance record buffered by the tracer and applied by the
// Writer. Kind says which payload is set. The tracer queues these by value,
// so the three payloads the runtime reports share one pointer instead of
// each widening every queued event.
type Event struct {
	Kind Kind
	// Logical is the tracer-assigned total-order timestamp.
	Logical uint64

	// KindTxn: the finished transaction with read provenance.
	Txn db.TxnTrace

	// KindWrite: one CDC change.
	Seq    uint64
	TxnID  uint64
	Change storage.Change

	// KindRequest, KindEdge, KindExternal.
	Call *Call
}

// Call is what the application runtime reports: a finished request, an
// invocation edge of the workflow graph, or an external-service call.
type Call struct {
	ReqID   string
	Handler string // KindRequest, KindEdge

	// KindRequest.
	ArgsText   string
	ResultText string
	LatencyUs  int64
	Status     string

	// KindEdge.
	Parent string
	Child  string

	// KindExternal.
	Service string
	Payload string
}

// Kind discriminates Event payloads.
type Kind uint8

// Event kinds.
const (
	KindTxn Kind = iota
	KindWrite
	KindRequest
	KindEdge
	KindExternal
)

// Writer applies events to the provenance database.
//
// The write path bypasses the SQL layer: batches are turned directly into
// storage commits against the provenance store. The provenance schema is
// owned by the Writer (nothing else writes it), so this is safe, and it is
// what keeps background flushing cheap enough for always-on tracing on
// small machines.
type Writer struct {
	prov    *db.DB
	tables  TableMap
	appCols map[string][]schema.Column // app table (lower) -> columns
	// evTables holds each traced table's event table and its block.
	evTables map[string]*tableBlock // lowercased app table -> event table
	// dests memoizes destination lookups per exact table-name spelling so the
	// per-event hot path (render/renderTxn) avoids strings.ToLower; a nil
	// entry marks an untraced table. Guarded by mu (ApplyBatch holds it).
	dests map[string]*dest
	exec  tableBlock
	req   tableBlock
	edge  tableBlock
	ext   tableBlock
	// mu serialises ApplyBatch: the synthetic-ID counters, the batch buffers
	// below and the single-writer commit assumption require exclusion.
	mu      sync.Mutex
	evSeq   uint64
	edgeSeq uint64
	extSeq  uint64

	// One batch's working memory, reused from batch to batch.
	changes []storage.Change
	keyBuf  []byte // the batch's encoded primary keys, end to end
	keyEnd  []int  // keyEnd[i] is where changes[i]'s key ends in keyBuf
}

// tableBlock is one destination table and what is left of its latest block
// of stored values, which the table's next rows are cut from. Every table
// has a block of its own, so one table's rows sit next to each other in
// memory in the order they were stored. Where keys rise as rows are
// stored, as an event table's EvIds do, that is the order a scan reads
// them, and the scan does not stride over other tables' rows.
type tableBlock struct {
	tbl  *schema.Table
	vals []value.Value
}

// newRow cuts a row of n values from the block.
func (b *tableBlock) newRow(n int) value.Row {
	if len(b.vals) < n {
		b.vals = make([]value.Value, max(valueBlock, n))
	}
	row := b.vals[:n:n]
	b.vals = b.vals[n:]
	return row
}

// eventHeaderCols is how many provenance columns (EvId, TxnId, Seq, Type,
// Query) precede the traced table's own in an event table.
const eventHeaderCols = 5

// valueBlock is how many values one block of stored rows holds. Rows cut
// from a block stay reachable as long as any one of them is stored.
const valueBlock = 4096

// Setup creates the provenance schema inside prov for the given application
// database and table map, returning a Writer. Event tables get the traced
// table's columns (nullable) plus the provenance header columns.
func Setup(prov *db.DB, appDB *db.DB, tables TableMap) (*Writer, error) {
	w := &Writer{
		prov:     prov,
		tables:   tables.normalize(),
		appCols:  make(map[string][]schema.Column),
		evTables: make(map[string]*tableBlock),
		dests:    make(map[string]*dest),
	}
	ddl := `
	CREATE TABLE IF NOT EXISTS Executions (
		TxnId INTEGER PRIMARY KEY, Timestamp INTEGER, HandlerName TEXT,
		ReqId TEXT, Func TEXT, Workflow TEXT, CommitSeq INTEGER,
		Snapshot INTEGER, Committed BOOL, LatencyUs INTEGER);
	CREATE TABLE IF NOT EXISTS trod_requests (
		ReqId TEXT PRIMARY KEY, HandlerName TEXT, Args TEXT, Result TEXT,
		Timestamp INTEGER, LatencyUs INTEGER, Status TEXT);
	CREATE TABLE IF NOT EXISTS trod_rpc_edges (
		EdgeId INTEGER PRIMARY KEY, ReqId TEXT, Parent TEXT, Child TEXT,
		HandlerName TEXT, Timestamp INTEGER);
	CREATE TABLE IF NOT EXISTS trod_externals (
		CallId INTEGER PRIMARY KEY, ReqId TEXT, Service TEXT, Payload TEXT,
		Timestamp INTEGER);`
	if err := prov.ExecScript(ddl); err != nil {
		return nil, fmt.Errorf("provenance: schema: %w", err)
	}
	// CREATE INDEX has no IF NOT EXISTS in our dialect; create it only when
	// absent (the prov DB may be re-attached across runs).
	hasIdx := false
	for _, ix := range prov.Store().Indexes("Executions") {
		if strings.EqualFold(ix.Name, "ex_req") {
			hasIdx = true
		}
	}
	if !hasIdx {
		if _, err := prov.Exec(`CREATE INDEX ex_req ON Executions (ReqId)`); err != nil {
			return nil, err
		}
	}

	for appTable, evTable := range w.tables {
		tbl := appDB.Store().Table(appTable)
		if tbl == nil {
			return nil, fmt.Errorf("provenance: traced table %q does not exist in the application database", appTable)
		}
		w.appCols[appTable] = tbl.Columns
		if prov.Store().Table(evTable) != nil {
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "CREATE TABLE %s (EvId INTEGER PRIMARY KEY, TxnId INTEGER, Seq INTEGER, Type TEXT, Query TEXT", evTable)
		for _, c := range tbl.Columns {
			fmt.Fprintf(&sb, ", %s %s", c.Name, sqlTypeName(c.Type))
		}
		sb.WriteString(")")
		if _, err := prov.Exec(sb.String()); err != nil {
			return nil, fmt.Errorf("provenance: event table %s: %w", evTable, err)
		}
		if _, err := prov.Exec(fmt.Sprintf("CREATE INDEX %s_txn ON %s (TxnId)", evTable, evTable)); err != nil {
			return nil, err
		}
	}
	for appTable, evTable := range w.tables {
		// ApplyBatch writes event rows without a per-row schema check, so the
		// event table must be the one this Writer would have created.
		evTbl, cols := prov.Store().Table(evTable), w.appCols[appTable]
		if len(evTbl.Columns) != eventHeaderCols+len(cols) {
			return nil, fmt.Errorf("provenance: event table %s has %d columns, traced table %q needs %d",
				evTable, len(evTbl.Columns), appTable, eventHeaderCols+len(cols))
		}
		for i, c := range cols {
			if got := evTbl.Columns[eventHeaderCols+i].Type; sqlTypeName(got) != sqlTypeName(c.Type) {
				return nil, fmt.Errorf("provenance: event table %s column %s is %s, traced table %q has %s",
					evTable, c.Name, got, appTable, c.Type)
			}
		}
		w.evTables[appTable] = &tableBlock{tbl: evTbl}
	}
	w.exec.tbl = prov.Store().Table("Executions")
	w.req.tbl = prov.Store().Table("trod_requests")
	w.edge.tbl = prov.Store().Table("trod_rpc_edges")
	w.ext.tbl = prov.Store().Table("trod_externals")
	// Resume the synthetic-ID counters past any recovered rows, so a
	// tracer re-attached to a durable provenance database keeps appending
	// (the restart arc in the root durability tests).
	maxOf := func(table, col string) (uint64, error) {
		res, err := prov.Query(fmt.Sprintf("SELECT COALESCE(MAX(%s), 0) FROM %s", col, table))
		if err != nil {
			return 0, err
		}
		return uint64(res.Rows[0][0].AsInt()), nil
	}
	for _, evTable := range w.tables {
		n, err := maxOf(evTable, "EvId")
		if err != nil {
			return nil, err
		}
		if n > w.evSeq {
			w.evSeq = n
		}
	}
	var err error
	if w.edgeSeq, err = maxOf("trod_rpc_edges", "EdgeId"); err != nil {
		return nil, err
	}
	if w.extSeq, err = maxOf("trod_externals", "CallId"); err != nil {
		return nil, err
	}
	return w, nil
}

func sqlTypeName(k value.Kind) string {
	switch k {
	case value.KindInt:
		return "INTEGER"
	case value.KindFloat:
		return "FLOAT"
	case value.KindBool:
		return "BOOL"
	case value.KindBytes:
		return "BYTES"
	default:
		return "TEXT"
	}
}

// dest bundles the resolved destination for one traced application table.
type dest struct {
	ev      *tableBlock
	appCols []schema.Column
}

// dest resolves the provenance destination for an application table name,
// lowercasing at most once per distinct spelling. Returns nil for untraced
// tables. Callers must hold w.mu.
func (w *Writer) dest(table string) *dest {
	d, ok := w.dests[table]
	if !ok {
		key := strings.ToLower(table)
		if ev := w.evTables[key]; ev != nil {
			d = &dest{ev: ev, appCols: w.appCols[key]}
		}
		w.dests[table] = d
	}
	return d
}

// DB returns the provenance database for direct declarative debugging.
func (w *Writer) DB() *db.DB { return w.prov }

// EventTable returns the event-table name for an application table, or "".
func (w *Writer) EventTable(appTable string) string {
	return w.tables[strings.ToLower(appTable)]
}

// ApplyBatch writes a batch of events as one storage commit against the
// provenance store. Every stored row is rendered once, straight into the
// memory the store keeps: the Writer owns the provenance schema (Setup
// checked it), so there is no per-row validation pass to copy it again.
func (w *Writer) ApplyBatch(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	rows := 0
	for i := range events {
		rows += events[i].maxRows()
	}
	if cap(w.changes) < rows {
		w.changes = make([]storage.Change, 0, rows)
	}
	defer func() {
		clear(w.changes) // the store has the rows now; keep no second reference
		w.changes, w.keyBuf, w.keyEnd = w.changes[:0], w.keyBuf[:0], w.keyEnd[:0]
	}()
	for i := range events {
		if err := w.render(&events[i]); err != nil {
			return err
		}
	}
	if len(w.changes) == 0 {
		return nil
	}
	keys, start := string(w.keyBuf), 0
	for i, end := range w.keyEnd {
		w.changes[i].Key = keys[start:end]
		start = end
	}
	store := w.prov.Store()
	// Commit through the facade so a disk-backed provenance database gets
	// the full durability path: group-commit waiting and automatic
	// checkpoint triggers (batches bypass the SQL layer but not the WAL).
	// Unlogged: the provenance database needs no CDC history of its own
	// (replay and retro consume the PRODUCTION commit log), so the always-on
	// tracer's memory footprint is just the provenance rows.
	_, err := w.prov.ApplyCommit(storage.CommitRequest{
		TxnID: store.NextTxnID(), Snapshot: store.CurrentSeq(), Changes: w.changes, Unlogged: true,
	})
	return err
}

// maxRows bounds the rows the event is stored as: one, plus for a
// transaction one per read (reads of untraced tables store nothing).
func (ev *Event) maxRows() int {
	n := 1
	if ev.Kind == KindTxn {
		for i := range ev.Txn.Stmts {
			n += len(ev.Txn.Stmts[i].Reads)
		}
	}
	return n
}

// store adds the insert of row, cut from b, into b's table to the batch.
func (w *Writer) store(b *tableBlock, row value.Row) {
	w.keyBuf = b.tbl.AppendPrimaryKey(w.keyBuf, row)
	w.keyEnd = append(w.keyEnd, len(w.keyBuf))
	w.changes = append(w.changes, storage.Change{Table: b.tbl.Name, Op: storage.OpInsert, After: row})
}

// render turns one event into the rows it is stored as.
func (w *Writer) render(ev *Event) error {
	switch ev.Kind {
	case KindTxn:
		w.renderTxn(ev)
	case KindWrite:
		if d := w.dest(ev.Change.Table); d != nil {
			row := ev.Change.After
			if ev.Change.Op == storage.OpDelete {
				row = ev.Change.Before
			}
			w.renderEvent(d, int64(ev.TxnID), int64(ev.Seq), ev.Change.Op.String(), "", row)
		}
	case KindRequest:
		c, row := ev.Call, w.req.newRow(7)
		row[0], row[1], row[2], row[3] = value.Text(c.ReqID), value.Text(c.Handler), value.Text(c.ArgsText), value.Text(c.ResultText)
		row[4], row[5], row[6] = value.Int(int64(ev.Logical)), value.Int(c.LatencyUs), value.Text(c.Status)
		w.store(&w.req, row)
	case KindEdge:
		w.edgeSeq++
		c, row := ev.Call, w.edge.newRow(6)
		row[0], row[1], row[2] = value.Int(int64(w.edgeSeq)), value.Text(c.ReqID), value.Text(c.Parent)
		row[3], row[4], row[5] = value.Text(c.Child), value.Text(c.Handler), value.Int(int64(ev.Logical))
		w.store(&w.edge, row)
	case KindExternal:
		w.extSeq++
		c, row := ev.Call, w.ext.newRow(5)
		row[0], row[1], row[2] = value.Int(int64(w.extSeq)), value.Text(c.ReqID), value.Text(c.Service)
		row[3], row[4] = value.Text(c.Payload), value.Int(int64(ev.Logical))
		w.store(&w.ext, row)
	default:
		return fmt.Errorf("provenance: unknown event kind %d", ev.Kind)
	}
	return nil
}

func (w *Writer) renderTxn(ev *Event) {
	tr := &ev.Txn
	row := w.exec.newRow(10)
	row[0], row[1], row[2] = value.Int(int64(tr.TxnID)), value.Int(int64(ev.Logical)), value.Text(tr.Meta.Handler)
	row[3], row[4], row[5] = value.Text(tr.Meta.ReqID), value.Text(tr.Meta.Func), value.Text(tr.Meta.Workflow)
	row[6], row[7] = value.Int(int64(tr.CommitSeq)), value.Int(int64(tr.Snapshot))
	row[8], row[9] = value.Bool(tr.Committed), value.Int(tr.End.Sub(tr.Start).Microseconds())
	w.store(&w.exec, row)
	// Read provenance rows into the per-table event tables.
	for si := range tr.Stmts {
		st := &tr.Stmts[si]
		for ri := range st.Reads {
			rd := &st.Reads[ri]
			if d := w.dest(rd.Table); d != nil {
				w.renderEvent(d, int64(tr.TxnID), int64(tr.Snapshot), "Read", st.Query, rd.Row)
			}
		}
	}
}

// renderEvent stores one event-table row: the provenance header, then the
// traced table's columns as observed (NULL where the row has none).
func (w *Writer) renderEvent(d *dest, txnID, seq int64, typ, query string, row value.Row) {
	w.evSeq++
	out := d.ev.newRow(eventHeaderCols + len(d.appCols))
	out[0], out[1], out[2] = value.Int(int64(w.evSeq)), value.Int(txnID), value.Int(seq)
	out[3], out[4] = value.Text(typ), value.Text(query)
	copy(out[eventHeaderCols:], row)
	w.store(d.ev, out)
}

// --- query helpers -------------------------------------------------------------

// Execution is one row of the Executions table.
type Execution struct {
	TxnID     uint64
	Timestamp uint64
	Handler   string
	ReqID     string
	Func      string
	Workflow  string
	CommitSeq uint64
	Snapshot  uint64
	Committed bool
	LatencyUs int64
}

func executionFromRow(r value.Row) Execution {
	b := func(v value.Value) uint64 {
		if v.IsNull() {
			return 0
		}
		return uint64(v.AsInt())
	}
	s := func(v value.Value) string {
		if v.IsNull() {
			return ""
		}
		return v.AsText()
	}
	return Execution{
		TxnID: b(r[0]), Timestamp: b(r[1]), Handler: s(r[2]), ReqID: s(r[3]),
		Func: s(r[4]), Workflow: s(r[5]), CommitSeq: b(r[6]), Snapshot: b(r[7]),
		Committed: !r[8].IsNull() && r[8].AsBool(), LatencyUs: r[9].AsInt(),
	}
}

const executionCols = `TxnId, Timestamp, HandlerName, ReqId, Func, Workflow, CommitSeq, Snapshot, Committed, LatencyUs`

// ExecutionsForRequest returns a request's transactions in execution order.
func (w *Writer) ExecutionsForRequest(reqID string) ([]Execution, error) {
	res, err := w.prov.Query(`SELECT `+executionCols+` FROM Executions WHERE ReqId = ? ORDER BY Timestamp`, reqID)
	if err != nil {
		return nil, err
	}
	out := make([]Execution, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = executionFromRow(r)
	}
	return out, nil
}

// ExecutionByTxn returns the execution record for one transaction.
func (w *Writer) ExecutionByTxn(txnID uint64) (Execution, error) {
	res, err := w.prov.Query(`SELECT `+executionCols+` FROM Executions WHERE TxnId = ?`, int64(txnID))
	if err != nil {
		return Execution{}, err
	}
	if len(res.Rows) == 0 {
		return Execution{}, fmt.Errorf("provenance: no execution for txn %d", txnID)
	}
	return executionFromRow(res.Rows[0]), nil
}

// RequestsTouchingTable returns the distinct request IDs that read or wrote
// the given application table, in first-touch order. Retroactive programming
// uses this to find "other requests that may touch the same table" (§4.1).
func (w *Writer) RequestsTouchingTable(appTable string) ([]string, error) {
	evTable := w.EventTable(appTable)
	if evTable == "" {
		return nil, fmt.Errorf("provenance: table %q is not traced", appTable)
	}
	res, err := w.prov.Query(`SELECT E.ReqId, MIN(E.Timestamp) AS t
		FROM Executions AS E JOIN ` + evTable + ` AS F ON E.TxnId = F.TxnId
		GROUP BY E.ReqId ORDER BY t`)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].AsText())
	}
	return out, nil
}

// WorkflowEdges returns the RPC edges of one request in invocation order.
func (w *Writer) WorkflowEdges(reqID string) ([][2]string, error) {
	res, err := w.prov.Query(`SELECT Parent, Child FROM trod_rpc_edges WHERE ReqId = ? ORDER BY Timestamp`, reqID)
	if err != nil {
		return nil, err
	}
	out := make([][2]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = [2]string{r[0].AsText(), r[1].AsText()}
	}
	return out, nil
}

// Forget deletes every provenance record whose traced column equals the
// given value — the GDPR/CCPA deletion hook sketched in §5. It removes
// matching event rows from every traced table; execution and request rows
// are kept (they carry no row data).
func (w *Writer) Forget(column string, val any) (int, error) {
	total := 0
	for appTable, evTable := range w.tables {
		hasCol := false
		for _, c := range w.appCols[appTable] {
			if strings.EqualFold(c.Name, column) {
				hasCol = true
				break
			}
		}
		if !hasCol {
			continue
		}
		res, err := w.prov.Exec(fmt.Sprintf(`DELETE FROM %s WHERE %s = ?`, evTable, column), val)
		if err != nil {
			return total, err
		}
		total += res.RowsAffected
	}
	return total, nil
}

// Request is one row of trod_requests.
type Request struct {
	ReqID     string
	Handler   string
	ArgsJSON  string
	Result    string
	Timestamp uint64
	LatencyUs int64
	Status    string
}

// RequestByID returns the recorded request, or an error when unknown.
func (w *Writer) RequestByID(reqID string) (Request, error) {
	res, err := w.prov.Query(`SELECT ReqId, HandlerName, Args, Result, Timestamp, LatencyUs, Status FROM trod_requests WHERE ReqId = ?`, reqID)
	if err != nil {
		return Request{}, err
	}
	if len(res.Rows) == 0 {
		return Request{}, fmt.Errorf("provenance: no request %q", reqID)
	}
	r := res.Rows[0]
	s := func(v value.Value) string {
		if v.IsNull() {
			return ""
		}
		return v.AsText()
	}
	return Request{
		ReqID: s(r[0]), Handler: s(r[1]), ArgsJSON: s(r[2]), Result: s(r[3]),
		Timestamp: uint64(r[4].AsInt()), LatencyUs: r[5].AsInt(), Status: s(r[6]),
	}, nil
}

// Requests returns all recorded requests in timestamp order.
func (w *Writer) Requests() ([]Request, error) {
	res, err := w.prov.Query(`SELECT ReqId, HandlerName, Args, Result, Timestamp, LatencyUs, Status FROM trod_requests ORDER BY Timestamp`)
	if err != nil {
		return nil, err
	}
	out := make([]Request, 0, len(res.Rows))
	for _, r := range res.Rows {
		s := func(v value.Value) string {
			if v.IsNull() {
				return ""
			}
			return v.AsText()
		}
		out = append(out, Request{
			ReqID: s(r[0]), Handler: s(r[1]), ArgsJSON: s(r[2]), Result: s(r[3]),
			Timestamp: uint64(r[4].AsInt()), LatencyUs: r[5].AsInt(), Status: s(r[6]),
		})
	}
	return out, nil
}
