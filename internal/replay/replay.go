// Package replay is TROD's debugging engine: it re-executes past requests
// in a development database restored from production (paper §§3.5–3.6).
//
// One engine serves two policies. Every run has three inputs:
//
//  1. a base development database, cloned from production at the snapshot
//     the earliest re-executed request first read;
//  2. the requests to re-execute, loaded from provenance, with the code to
//     run them;
//  3. the production change log over the run's window, read once while a
//     pin keeps vacuum from cutting it.
//
// At each transaction boundary of a re-executed request, one interceptor
// waits for the schedule to grant the turn, applies the recorded commits of
// every request the run does not re-execute up to that transaction's
// original snapshot (as recorded row images, not by re-running them),
// records the step with its write diff against the original commit, and
// calls the breakpoint hook.
//
// Faithful replay (§3.5, Replayer.Replay) re-runs one request, with the
// production code, in its recorded order, and checks transaction labels,
// write sets and the result against the trace (divergence detection). The
// injected commits are the debugging insight: for MDL-59854 they say
// "request R2 inserted (U1, F2) between your two transactions" (Figure 3,
// top).
//
// Retroactive programming (§3.6, Replayer.Run) re-runs a set of requests,
// usually with modified code, in every transaction-granularity
// interleaving, and checks an invariant after each. Requests whose original
// executions overlapped in time form a concurrent phase; later phases run
// after earlier ones (the paper's R3' runs after R1'/R2'). Schedules are
// enumerated depth-first, branching only where more than one *conflicting*
// request is ready: requests with disjoint traced-table footprints commute,
// so their relative order is not branched on (ablation A3). Because
// handlers share state only through transactions (P2), the transaction
// boundary is the only place interleavings can differ.
package replay

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// Replayer is the debugging engine over a production database and its
// provenance. Replay and Run are its two policies.
type Replayer struct {
	prod *db.DB
	prov *provenance.Writer
}

// New creates an engine over a production database and its provenance.
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
	Diffs    []string // request-level divergences (labels, step count, result)
	// ForeignWriters lists the other requests whose writes were injected —
	// the concurrent executions involved in the bug.
	ForeignWriters []string
}

// Replay re-executes the request in a development environment. register
// installs the application's handlers on the fresh development runtime
// (the same code as production for faithful replay).
func (r *Replayer) Replay(reqID string, register func(app *runtime.App), opts Options) (*Report, error) {
	w, release, err := r.load([]string{reqID})
	if err != nil {
		return nil, err
	}
	defer release()
	req := w.reqs[0]
	run, err := r.runSchedule(w, [][]int{{0}}, register, nil, RetroOptions{}, opts.OnBreakpoint)
	if err != nil {
		return nil, err
	}
	out := run.result.Requests[0]
	report := &Report{ReqID: reqID, Handler: req.handler, Steps: run.steps[0], Result: out.Result, Err: out.Err}
	for i, st := range report.Steps {
		if st.LabelMismatch {
			report.Diffs = append(report.Diffs,
				fmt.Sprintf("step %d ran %q but the original ran %q", i, st.Func, req.blocks[i].Func))
		}
		report.Diverged = report.Diverged || st.LabelMismatch || len(st.WriteDiffs) > 0
	}
	if len(report.Steps) != len(req.blocks) {
		report.Diverged = true
		report.Diffs = append(report.Diffs,
			fmt.Sprintf("re-execution ran %d transactions, original ran %d", len(report.Steps), len(req.blocks)))
	}
	if out.ChangedFromOriginal {
		report.Diverged = true
		report.Diffs = append(report.Diffs, fmt.Sprintf("result %s differs from original %s", out.ResultJSON, req.origRes))
	}
	for _, txn := range run.foreign {
		// A commit outside any request (an untraced writer) names no one.
		ex, err := r.prov.ExecutionByTxn(txn)
		if err != nil || ex.ReqID == "" || ex.ReqID == reqID || slices.Contains(report.ForeignWriters, ex.ReqID) {
			continue
		}
		report.ForeignWriters = append(report.ForeignWriters, ex.ReqID)
	}
	return report, nil
}

// request is a past request loaded from provenance.
type request struct {
	id, handler string
	args        runtime.Args
	origRes     string
	blocks      []provenance.Execution // each transaction block's final attempt, in order
	start, end  uint64                 // first and last execution timestamps
	tables      map[string]bool        // traced-table footprint (Run fills it)
}

// snapshot is the production snapshot the step-th re-executed transaction
// reads: its original block's, or, past the recorded blocks (modified
// code), the last one the request read.
func (q *request) snapshot(step int) uint64 {
	return q.blocks[min(step, len(q.blocks)-1)].Snapshot
}

// finalAttempts groups a request's recorded attempts, in execution order,
// into its transaction blocks and returns each block's final attempt. A
// block is one Ctx.Txn call: the attempts a serialization conflict retried,
// then the one that committed or failed, which is what the handler saw. A
// retried attempt did not commit, and the next attempt has its label and
// invocation. Provenance does not record why an attempt failed, so a
// handler that at once reruns a failed block under the same label reads as
// one block.
func finalAttempts(all []provenance.Execution) []provenance.Execution {
	var out []provenance.Execution
	for i, e := range all {
		if !e.Committed && i+1 < len(all) && all[i+1].Func == e.Func && all[i+1].Workflow == e.Workflow {
			continue // retried
		}
		out = append(out, e)
	}
	return out
}

// window is what one engine run re-executes against.
type window struct {
	reqs []*request
	base uint64             // the earliest request's base snapshot
	log  []storage.LogEntry // production commits after base
	own  map[uint64]bool    // the re-executed requests' original transactions
}

// load reads the requests from provenance and the production change log
// over their window. The production store stays pinned at the base until
// release is called, so a concurrent checkpoint's vacuum cannot cut the
// window while the run clones the base and reads the log; the log is read
// after pinning, which closes the check-then-act race, and a window already
// released fails loudly instead of re-executing against an incomplete
// history.
func (r *Replayer) load(reqIDs []string) (w *window, release func(), err error) {
	if len(reqIDs) == 0 {
		return nil, nil, fmt.Errorf("replay: no requests given")
	}
	w = &window{own: make(map[uint64]bool)}
	var last uint64
	for i, id := range reqIDs {
		rec, err := r.prov.RequestByID(id)
		if err != nil {
			return nil, nil, err
		}
		args, err := runtime.ParseArgsJSON(rec.ArgsJSON)
		if err != nil {
			return nil, nil, err
		}
		all, err := r.prov.ExecutionsForRequest(id)
		if err != nil {
			return nil, nil, err
		}
		if len(all) == 0 {
			return nil, nil, fmt.Errorf("replay: request %q has no recorded transactions", id)
		}
		q := &request{
			id: id, handler: rec.Handler, args: args, origRes: rec.Result, blocks: finalAttempts(all),
			start: all[0].Timestamp, end: all[len(all)-1].Timestamp,
			tables: make(map[string]bool),
		}
		for _, e := range all {
			w.own[e.TxnID] = true
			last = max(last, e.Snapshot, e.CommitSeq)
		}
		if base := q.snapshot(0); i == 0 || base < w.base {
			w.base = base
		}
		w.reqs = append(w.reqs, q)
	}
	prodStore := r.prod.Store()
	prodStore.MovePin(prodStore.PinSnapshot(), w.base)
	release = func() { prodStore.UnpinSnapshot(w.base) }
	// Cloning the base reads row versions at it, which vacuum (or a
	// checkpointed restart) may have compacted away.
	if floor := prodStore.HistoryRetainedFrom(); w.base < floor {
		release()
		return nil, nil, fmt.Errorf("replay: requests %v need row versions at snapshot %d: %w (history retained from %d)",
			reqIDs, w.base, storage.ErrHistoryTruncated, floor)
	}
	if w.log, err = prodStore.ReadLog(w.base, last); err != nil {
		release()
		return nil, nil, fmt.Errorf("replay: requests %v need production history from commit %d: %w; replay unavailable",
			reqIDs, w.base+1, err)
	}
	return w, release, nil
}

// interceptor is the engine's transaction interceptor. The schedule grants
// one re-executed transaction at a time, so its state needs no lock: each
// grant and each report back to the scheduler is a channel handoff.
type interceptor struct {
	w       *window
	dev     *db.DB
	byReq   map[string]int
	events  chan schedEvent
	proceed []chan struct{}
	onBreak func(Breakpoint)
	steps   [][]Step // per request
	foreign []uint64 // outside transactions applied, in order
	applied uint64   // production seq up to which outside commits are applied
	devMark uint64   // dev commit seq before the current step ran
}

// Before implements runtime.TxnInterceptor: report ready, wait for the
// grant, bring the dev database up to the transaction's original snapshot.
func (ic *interceptor) Before(c *runtime.Ctx, fnLabel string) error {
	idx, ok := ic.byReq[c.ReqID]
	if !ok {
		return nil // traffic outside the re-executed set
	}
	ic.events <- schedEvent{idx: idx, kind: evBlocked}
	<-ic.proceed[idx]
	q, step := ic.w.reqs[idx], len(ic.steps[idx])
	st := Step{Func: fnLabel}
	if step < len(q.blocks) {
		st.OriginalTxnID, st.LabelMismatch = q.blocks[step].TxnID, q.blocks[step].Func != fnLabel
	}
	snap := q.snapshot(step)
	for _, rec := range ic.w.log {
		if rec.DDL != "" || rec.Seq <= ic.applied || rec.Seq > snap || ic.w.own[rec.TxnID] {
			continue
		}
		st.Injected = append(st.Injected, rec.Changes...)
		ic.foreign = append(ic.foreign, rec.TxnID)
	}
	ic.applied = max(ic.applied, snap)
	if err := applyForeign(ic.dev.Store(), st.Injected); err != nil {
		return fmt.Errorf("replay: injecting foreign writes before step %d of %s: %w", step, q.id, err)
	}
	// The injection commit is not part of the re-executed transaction's
	// write set: the step's writes are what commits after it.
	ic.devMark = ic.dev.Store().CurrentSeq()
	ic.steps[idx] = append(ic.steps[idx], st)
	if ic.onBreak != nil {
		ic.onBreak(Breakpoint{Step: step, Func: fnLabel, ReqID: q.id, Injected: st.Injected, Dev: ic.dev})
	}
	return nil
}

// After implements runtime.TxnInterceptor: diff the writes the step
// committed in the dev database against its original commit.
func (ic *interceptor) After(c *runtime.Ctx, _ string, _ error) {
	idx, ok := ic.byReq[c.ReqID]
	if !ok {
		return
	}
	q, step := ic.w.reqs[idx], len(ic.steps[idx])-1
	if step >= len(q.blocks) {
		return
	}
	devStore := ic.dev.Store()
	devLog, err := devStore.ReadLog(ic.devMark, devStore.CurrentSeq())
	if err != nil {
		// A dev store is never vacuumed, so its window is always retained.
		ic.steps[idx][step].WriteDiffs = []string{err.Error()}
		return
	}
	var devChanges, origChanges []storage.Change
	for _, rec := range devLog {
		if rec.DDL == "" {
			devChanges = append(devChanges, rec.Changes...)
		}
	}
	orig := q.blocks[step]
	for _, rec := range ic.w.log {
		if rec.DDL == "" && rec.Seq == orig.CommitSeq && rec.TxnID == orig.TxnID {
			origChanges = rec.Changes
		}
	}
	ic.steps[idx][step].WriteDiffs = diffChanges(origChanges, devChanges)
}

// applyForeign applies production changes to a development store whose
// sequence numbering differs. Missing rows are upserted and absent deletes
// skipped, so the row images apply whatever the dev store's own writes did
// to those rows.
func applyForeign(dev *storage.Store, changes []storage.Change) error {
	adjusted := make([]storage.Change, 0, len(changes))
	for _, ch := range changes {
		if dev.Table(ch.Table) == nil {
			continue // not in the dev catalog
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
