package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/runtime"
	"repro/internal/schema"
	"repro/internal/txn"
	"repro/internal/value"
)

// txnSpans is a runtime.TxnInterceptor that records the time between Before
// and After: everything an invocation spends inside db, sqlexec, txn and
// storage. What is left of runtime.Invoke is the runtime's own.
type txnSpans struct {
	t    *tracer
	a    *appInst
	open int
}

func (x *txnSpans) Before(*runtime.Ctx, string) error {
	x.open = x.t.begin(0, spanDBTxn, spanInvoke, x.a.cur)
	return nil
}

func (x *txnSpans) After(*runtime.Ctx, string, error) { x.t.end(0, x.open) }

func (a *appInst) topSpan() spanName { return spanInvoke }

func (a *appInst) mark(t *tracer) {
	if a.tr == nil {
		a.app.SetTxnInterceptor(&txnSpans{t: t, a: a})
		return
	}
	a.markEvents, _, a.markFlushes = a.tr.Counters()
}

func (a *appInst) unmark() {
	if a.tr == nil {
		a.app.SetTxnInterceptor(nil)
		return
	}
	events, _, flushes := a.tr.Counters()
	a.markEvents, a.markFlushes = events-a.markEvents, flushes-a.markFlushes
	a.markDrain = a.lastDrain
}

func (a *appInst) layers(t *tracer, lo, hi int) (*layerReport, error) {
	rep := newLayerReport(hi - lo)
	ops := float64(hi - lo)
	var invokeNs int64 // untraced runtime.Invoke time over the segment
	if a.tr == nil {
		invokeNs = t.totals()[spanInvoke].ns
	} else {
		rep.values["events_per_req"] = float64(a.markEvents) / ops
		rep.values["tracer_drops"] = float64(a.drops)
		rep.values["tracer_flushes"] = float64(a.markFlushes)
		rep.values["backlog_drain_s"] = a.markDrain.Seconds()

		// The tracer's request-path cost is the paper's headline number: the
		// same request, by index, on an identically seeded untraced twin.
		inst, err := buildApp(a.e, false)
		if err != nil {
			return nil, fmt.Errorf("untraced twin: %w", err)
		}
		twin := inst.(*appInst)
		defer twin.close()
		for i := 0; i < lo; i++ {
			rep.did(twin.op(0, i))
		}
		twin.app.SetTxnInterceptor(&txnSpans{t: t, a: twin})
		traced := t.lanes[0][:hi-lo] // the segment's runtime.Invoke spans, in request order
		diffs := make([]float64, 0, hi-lo)
		var diffNs int64
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			err := twin.op(0, i)
			d := int64(time.Since(t0))
			rep.did(err)
			s := &traced[i-lo]
			invokeNs += d
			diffNs += s.end - s.start - d
			diffs = append(diffs, float64(s.end-s.start-d)/1e3)
		}
		twin.app.SetTxnInterceptor(nil)
		sort.Float64s(diffs)
		rep.values["request_path_us"] = median(diffs)
		rep.carved = append(rep.carved, carve{from: "runtime", to: "trace",
			usPerOp: float64(diffNs) / ops / 1e3, callsPerOp: rep.values["events_per_req"]})
		if err := rep.provenanceCosts(a.e); err != nil {
			return nil, err
		}
	}
	pc := a.d.PlanCacheStats()
	rep.planCache(db.PlanCacheStats{}, pc)
	rep.counts["plan_cache_hits"], rep.counts["plan_cache_misses"] = float64(pc.Hits), float64(pc.Misses)
	rep.values["invoke_self_us"] = float64(invokeNs-t.totals()[spanDBTxn].ns) / ops / 1e3

	if err := a.txnCosts(rep, lo, hi); err != nil {
		return nil, err
	}
	rep.storageCensus(a.d.Store())
	rep.sensorCosts()
	rep.unitCosts(t)
	return rep, nil
}

// txnCosts times the three storage accesses the handlers are made of, on
// the application's own tables and the segment's own users: a point read of
// users, the posts_by_user index range readTimeline scans, and the
// read-modify-write that bumps a counter. They are unit costs beside the
// budget, not rows of it, and run on a clone so check still holds.
func (a *appInst) txnCosts(rep *layerReport, lo, hi int) error {
	clone, err := a.d.CloneAt(a.d.Store().CurrentSeq())
	if err != nil {
		return err
	}
	defer clone.Close()
	store := clone.Store()
	users, posts := store.Table("users"), store.Table("posts")
	byUser, err := indexNamed(store, "posts", "posts_by_user")
	if err != nil {
		return err
	}
	var pointNs, scanNs, rmwNs int64
	n := 0
	for i := lo; i < hi; i++ {
		user, ok := a.args[i]["userId"].(int64)
		if !ok {
			continue // readPost carries no user
		}
		n++
		key := schema.EncodeKeyTuple(value.Row{value.Int(user)})
		for _, access := range []struct {
			ns       *int64
			readOnly bool
			fn       func(tx *txn.Txn) error
		}{
			{&pointNs, true, func(tx *txn.Txn) error {
				_, found, err := tx.Get("users", key)
				if err == nil && !found {
					err = errWrongResult
				}
				return err
			}},
			{&scanNs, true, func(tx *txn.Txn) error {
				prefix := byUser.EncodeIndexPrefix(value.Row{value.Int(user)})
				return tx.IndexScan(posts, byUser, prefix, prefix+"\xff", func(string, value.Row) bool { return true })
			}},
			{&rmwNs, false, func(tx *txn.Txn) error { return bump(tx, users, key, 3) }},
		} {
			t0 := time.Now()
			err := inTxn(store, access.readOnly, access.fn)
			*access.ns += int64(time.Since(t0))
			rep.did(err)
			if err != nil {
				return fmt.Errorf("storage access for user %d: %w", user, err)
			}
		}
	}
	if n > 0 {
		rep.values["point_us"] = float64(pointNs) / float64(n) / 1e3
		rep.values["index_scan_us"] = float64(scanNs) / float64(n) / 1e3
		rep.values["rmw_us"] = float64(rmwNs) / float64(n) / 1e3
	}
	return nil
}
