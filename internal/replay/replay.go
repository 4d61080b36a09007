// Package replay implements TROD's faithful bug replay (paper §3.5).
//
// Given a past request's ID, the replayer:
//
//  1. finds the request's transactions in the provenance database,
//  2. restores a development database to the snapshot the request's first
//     transaction read (fully, or selectively — only chosen tables),
//  3. re-executes the handler code in a fresh runtime, pausing at a
//     breakpoint before every transaction to inject the foreign committed
//     writes the original execution observed between its transactions, and
//  4. verifies the re-execution against the original trace: transaction
//     labels, write sets, and the handler result must match (divergence
//     detection).
//
// The injected foreign writes are surfaced in the report — for MDL-59854
// this is exactly the "request R2 inserted (U1, F2) between your two
// transactions" insight Figure 3 (top) illustrates.
package replay

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/value"
)

// Replayer replays past requests from a production database + provenance.
type Replayer struct {
	prod *db.DB
	prov *provenance.Writer
}

// New creates a replayer over a production database and its provenance.
func New(prod *db.DB, prov *provenance.Writer) *Replayer {
	return &Replayer{prod: prod, prov: prov}
}

// Breakpoint is passed to the OnBreakpoint hook before each re-executed
// transaction — the point where a developer would attach GDB and
// single-step (§3.5).
type Breakpoint struct {
	Step     int    // 0-based transaction index within the request
	Func     string // transaction label (paper's Metadata column)
	ReqID    string
	Injected []storage.Change // foreign writes applied at this breakpoint
	Dev      *db.DB           // the development database, inspectable
}

// Options configures a replay.
type Options struct {
	// Tables restricts state restoration to the listed tables (selective
	// restore): a replay whose request touches a few tables need not copy
	// the rest. Empty means full restore of every table.
	Tables []string
	// OnBreakpoint is invoked before each re-executed transaction.
	OnBreakpoint func(Breakpoint)
}

// Step reports one re-executed transaction.
type Step struct {
	Func          string
	OriginalTxnID uint64
	Injected      []storage.Change // foreign writes injected before it
	WriteDiffs    []string         // divergences from the original write set
	LabelMismatch bool
}

// Report is the outcome of a replay.
type Report struct {
	ReqID    string
	Handler  string
	Steps    []Step
	Result   any
	Err      error
	Diverged bool
	Diffs    []string // request-level divergences (result, step count)
	// ForeignWriters lists the other requests whose writes were injected —
	// the concurrent executions involved in the bug.
	ForeignWriters []string
}

// interceptor drives breakpoints and foreign-write injection during replay.
type interceptor struct {
	mu      sync.Mutex
	r       *Replayer
	dev     *db.DB
	execs   []provenance.Execution
	prodLog []storage.LogEntry // the production log over the replay window
	applied uint64             // prod commit seq up to which foreign writes are applied
	ownTxns map[uint64]bool
	report  *Report
	onBreak func(Breakpoint)
	devMark uint64 // dev commit seq before the current step ran
	step    int
}

func (ic *interceptor) Before(c *runtime.Ctx, fnLabel string) error {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	step := ic.step
	st := Step{Func: fnLabel}
	var injected []storage.Change
	if step < len(ic.execs) {
		orig := ic.execs[step]
		st.OriginalTxnID = orig.TxnID
		if orig.Func != fnLabel {
			st.LabelMismatch = true
			ic.report.Diverged = true
			ic.report.Diffs = append(ic.report.Diffs,
				fmt.Sprintf("step %d ran %q but the original ran %q", step, fnLabel, orig.Func))
		}
		// Inject foreign committed writes the original transaction saw:
		// everything committed in (applied, orig.Snapshot] by other txns.
		if orig.Snapshot > ic.applied {
			for _, rec := range ic.prodLog {
				if rec.DDL != "" || rec.Seq <= ic.applied || rec.Seq > orig.Snapshot || ic.ownTxns[rec.TxnID] {
					continue
				}
				injected = append(injected, rec.Changes...)
				if ex, err := ic.r.prov.ExecutionByTxn(rec.TxnID); err == nil && ex.ReqID != ic.report.ReqID {
					ic.addForeignWriter(ex.ReqID)
				}
			}
			ic.applied = orig.Snapshot
		}
		if len(injected) > 0 {
			if err := applyForeign(ic.dev.Store(), injected); err != nil {
				return fmt.Errorf("replay: injecting foreign writes before step %d: %w", step, err)
			}
		}
	}
	// The injection commit above is not part of the re-executed
	// transaction's write set: the step's writes are what commits after it.
	ic.devMark = ic.dev.Store().CurrentSeq()
	st.Injected = injected
	ic.report.Steps = append(ic.report.Steps, st)
	if ic.onBreak != nil {
		ic.onBreak(Breakpoint{Step: step, Func: fnLabel, ReqID: ic.report.ReqID, Injected: injected, Dev: ic.dev})
	}
	return nil
}

func (ic *interceptor) After(c *runtime.Ctx, fnLabel string, err error) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	step := ic.step
	ic.step++
	if step >= len(ic.report.Steps) {
		return
	}
	// Read the dev writes this transaction produced from the dev store's
	// log and compare with the original transaction's write set from the
	// production log.
	if step >= len(ic.execs) {
		return
	}
	devStore := ic.dev.Store()
	devLog, logErr := devStore.ReadLog(ic.devMark, devStore.CurrentSeq())
	if logErr != nil {
		// A dev store is never vacuumed, so its window is always retained.
		ic.report.Diffs = append(ic.report.Diffs, fmt.Sprintf("step %d: %v", step, logErr))
		ic.report.Diverged = true
		return
	}
	var devChanges []storage.Change
	for _, rec := range devLog {
		if rec.DDL == "" {
			devChanges = append(devChanges, rec.Changes...)
		}
	}
	orig := ic.execs[step]
	var origChanges []storage.Change
	for _, rec := range ic.prodLog {
		if rec.DDL == "" && rec.Seq == orig.CommitSeq && rec.TxnID == orig.TxnID {
			origChanges = rec.Changes
		}
	}
	diffs := diffChanges(origChanges, devChanges)
	if len(diffs) > 0 {
		ic.report.Steps[step].WriteDiffs = diffs
		ic.report.Diverged = true
	}
}

func (ic *interceptor) addForeignWriter(reqID string) {
	for _, r := range ic.report.ForeignWriters {
		if r == reqID {
			return
		}
	}
	ic.report.ForeignWriters = append(ic.report.ForeignWriters, reqID)
}

// applyForeign applies production changes to a development store whose
// sequence numbering differs. Missing rows are upserted and absent deletes
// skipped, so selective restores stay consistent for the touched tables.
func applyForeign(dev *storage.Store, changes []storage.Change) error {
	adjusted := make([]storage.Change, 0, len(changes))
	for _, ch := range changes {
		if dev.Table(ch.Table) == nil {
			continue // table not restored
		}
		_, exists := dev.Get(ch.Table, ch.Key, dev.CurrentSeq())
		switch ch.Op {
		case storage.OpInsert:
			if exists {
				ch.Op = storage.OpUpdate
			}
		case storage.OpUpdate:
			if !exists {
				ch.Op = storage.OpInsert
				ch.Before = nil
			}
		case storage.OpDelete:
			if !exists {
				continue
			}
		}
		adjusted = append(adjusted, ch)
	}
	if len(adjusted) == 0 {
		return nil
	}
	_, err := dev.Commit(storage.CommitRequest{Changes: adjusted}, nil)
	return err
}

// diffChanges compares two write sets, ignoring order.
func diffChanges(orig, got []storage.Change) []string {
	key := func(ch storage.Change) string {
		after := "<nil>"
		if ch.After != nil {
			after = ch.After.String()
		}
		return fmt.Sprintf("%s|%x|%s|%s", strings.ToLower(ch.Table), ch.Key, ch.Op, after)
	}
	a := make([]string, 0, len(orig))
	for _, ch := range orig {
		a = append(a, key(ch))
	}
	b := make([]string, 0, len(got))
	for _, ch := range got {
		b = append(b, key(ch))
	}
	sort.Strings(a)
	sort.Strings(b)
	var diffs []string
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && (j >= len(b) || a[i] < b[j]):
			diffs = append(diffs, "missing write: "+a[i])
			i++
		case j < len(b) && (i >= len(a) || b[j] < a[i]):
			diffs = append(diffs, "extra write: "+b[j])
			j++
		default:
			i++
			j++
		}
	}
	return diffs
}

// Replay re-executes the request in a development environment. register
// installs the application's handlers on the fresh development runtime
// (the same code as production for faithful replay).
func (r *Replayer) Replay(reqID string, register func(app *runtime.App), opts Options) (*Report, error) {
	req, err := r.prov.RequestByID(reqID)
	if err != nil {
		return nil, err
	}
	args, err := runtime.ParseArgsJSON(req.ArgsJSON)
	if err != nil {
		return nil, err
	}
	allExecs, err := r.prov.ExecutionsForRequest(reqID)
	if err != nil {
		return nil, err
	}
	var execs []provenance.Execution
	ownTxns := make(map[uint64]bool)
	for _, e := range allExecs {
		ownTxns[e.TxnID] = true
		if e.Committed {
			execs = append(execs, e)
		}
	}
	if len(execs) == 0 {
		return nil, fmt.Errorf("replay: request %q has no committed transactions to replay", reqID)
	}
	baseSeq, last := execs[0].Snapshot, execs[0].Snapshot
	for _, e := range execs {
		last = max(last, e.Snapshot, e.CommitSeq)
	}
	// Replay injects the foreign commits in (baseSeq, last snapshot] and
	// compares write sets against the request's own commit records, all read
	// from the production change log. Pin the production store at baseSeq
	// for the replay's lifetime so a concurrent checkpoint's vacuum cannot
	// cut that window mid-replay, then read it (after pinning — the order
	// closes the check-then-act race); a window already released fails
	// loudly instead of replaying against a silently incomplete history.
	prodStore := r.prod.Store()
	prodStore.MovePin(prodStore.PinSnapshot(), baseSeq)
	defer prodStore.UnpinSnapshot(baseSeq)
	// Restoring the dev database reads row versions at baseSeq, which Vacuum
	// (or a checkpointed restart) may have compacted away.
	if floor := prodStore.HistoryRetainedFrom(); baseSeq < floor {
		return nil, fmt.Errorf(
			"replay: request %q needs row versions at snapshot %d: %w (history retained from %d)",
			reqID, baseSeq, storage.ErrHistoryTruncated, floor)
	}
	prodLog, err := prodStore.ReadLog(baseSeq, last)
	if err != nil {
		return nil, fmt.Errorf("replay: request %q needs production history from commit %d: %w; replay unavailable",
			reqID, baseSeq+1, err)
	}

	dev, err := r.restore(baseSeq, opts.Tables)
	if err != nil {
		return nil, err
	}

	report := &Report{ReqID: reqID, Handler: req.Handler}
	ic := &interceptor{
		r:       r,
		dev:     dev,
		execs:   execs,
		prodLog: prodLog,
		applied: baseSeq,
		ownTxns: ownTxns,
		report:  report,
		onBreak: opts.OnBreakpoint,
	}
	devApp := runtime.New(dev)
	register(devApp)
	devApp.SetTxnInterceptor(ic)

	result, err := devApp.InvokeWithReqID(reqID, req.Handler, args)
	report.Result = result
	report.Err = err

	if len(report.Steps) != len(execs) {
		report.Diverged = true
		report.Diffs = append(report.Diffs,
			fmt.Sprintf("re-execution ran %d transactions, original ran %d", len(report.Steps), len(execs)))
	}
	if req.Result != "<unrepresentable>" {
		if got := runtime.ResultJSON(result); got != req.Result {
			report.Diverged = true
			report.Diffs = append(report.Diffs,
				fmt.Sprintf("result %s differs from original %s", got, req.Result))
		}
	}
	return report, nil
}

// restore builds the development database at the given production snapshot.
// With tables empty it is a full clone (CloneAt); otherwise the schema is
// copied in full but only the listed tables' rows are restored.
func (r *Replayer) restore(seq uint64, tables []string) (*db.DB, error) {
	if len(tables) == 0 {
		return r.prod.CloneAt(seq)
	}
	want := make(map[string]bool, len(tables))
	for _, t := range tables {
		want[strings.ToLower(t)] = true
	}
	prodStore := r.prod.Store()
	dev := storage.NewStore()
	for _, name := range prodStore.Tables() {
		tbl := prodStore.Table(name)
		if err := dev.CreateTable(tbl.Clone(), false, nil); err != nil {
			return nil, err
		}
		for _, ix := range prodStore.Indexes(name) {
			cp := *ix
			if err := dev.CreateIndex(&cp, nil); err != nil {
				return nil, err
			}
		}
		if !want[strings.ToLower(name)] {
			continue
		}
		var changes []storage.Change
		prodStore.ScanRange(name, "", "", seq, storage.Ascending, func(key string, row value.Row) bool {
			changes = append(changes, storage.Change{Table: tbl.Name, Key: key, Op: storage.OpInsert, After: row.Clone()})
			return true
		})
		if len(changes) > 0 {
			if _, err := dev.Commit(storage.CommitRequest{Changes: changes}, nil); err != nil {
				return nil, err
			}
		}
	}
	return db.NewFromStore(dev), nil
}
