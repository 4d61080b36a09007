package provenance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// This file implements the §5 extensions the paper sketches: performance
// debugging over the traced latencies (the APM-style transaction traces the
// paper compares with Retrace/New Relic) and data-quality debugging over
// the captured write provenance.

// HandlerStats aggregates request latencies per handler.
type HandlerStats struct {
	Handler  string
	Requests int
	Errors   int
	AvgUs    float64
	MaxUs    int64
	TotalUs  int64
}

// HandlerLatencyStats computes per-handler request latency statistics from
// trod_requests — the automatically generated performance traces the paper
// argues replace manual APM annotations (§5).
func (w *Writer) HandlerLatencyStats() ([]HandlerStats, error) {
	res, err := w.prov.Query(`SELECT HandlerName, COUNT(*) AS n, SUM(LatencyUs) AS total, MAX(LatencyUs) AS worst
		FROM trod_requests GROUP BY HandlerName ORDER BY total DESC`)
	if err != nil {
		return nil, err
	}
	out := make([]HandlerStats, 0, len(res.Rows))
	for _, r := range res.Rows {
		hs := HandlerStats{
			Handler:  r[0].AsText(),
			Requests: int(r[1].AsInt()),
			TotalUs:  r[2].AsInt(),
			MaxUs:    r[3].AsInt(),
		}
		if hs.Requests > 0 {
			hs.AvgUs = float64(hs.TotalUs) / float64(hs.Requests)
		}
		out = append(out, hs)
	}
	// Error counts need a second pass (no FILTER clause in the dialect).
	errs, err := w.prov.Query(`SELECT HandlerName, COUNT(*) FROM trod_requests
		WHERE Status != 'ok' GROUP BY HandlerName`)
	if err != nil {
		return nil, err
	}
	byHandler := make(map[string]int, len(errs.Rows))
	for _, r := range errs.Rows {
		byHandler[r[0].AsText()] = int(r[1].AsInt())
	}
	for i := range out {
		out[i].Errors = byHandler[out[i].Handler]
	}
	return out, nil
}

// SlowRequests returns the n slowest requests with their per-transaction
// latency breakdown — the drill-down a performance investigation starts
// from.
type SlowRequest struct {
	Request Request
	// TxnLatencies maps each transaction's Func label to its latency.
	TxnLatencies []TxnLatency
}

// TxnLatency is one transaction's share of a slow request.
type TxnLatency struct {
	TxnID     uint64
	Func      string
	LatencyUs int64
}

// SlowRequests lists the n slowest requests, slowest first.
func (w *Writer) SlowRequests(n int) ([]SlowRequest, error) {
	res, err := w.prov.Query(`SELECT ReqId, HandlerName, Args, Result, Timestamp, LatencyUs, Status
		FROM trod_requests ORDER BY LatencyUs DESC LIMIT ?`, n)
	if err != nil {
		return nil, err
	}
	out := make([]SlowRequest, 0, len(res.Rows))
	for _, r := range res.Rows {
		req := Request{
			ReqID: r[0].AsText(), Handler: r[1].AsText(),
			Timestamp: uint64(r[4].AsInt()), LatencyUs: r[5].AsInt(), Status: r[6].AsText(),
		}
		if !r[2].IsNull() {
			req.ArgsJSON = r[2].AsText()
		}
		if !r[3].IsNull() {
			req.Result = r[3].AsText()
		}
		txns, err := w.prov.Query(`SELECT TxnId, Func, LatencyUs FROM Executions
			WHERE ReqId = ? ORDER BY Timestamp`, req.ReqID)
		if err != nil {
			return nil, err
		}
		sr := SlowRequest{Request: req}
		for _, tr := range txns.Rows {
			sr.TxnLatencies = append(sr.TxnLatencies, TxnLatency{
				TxnID:     uint64(tr[0].AsInt()),
				Func:      tr[1].AsText(),
				LatencyUs: tr[2].AsInt(),
			})
		}
		out = append(out, sr)
	}
	return out, nil
}

// --- data-quality debugging (§5) ---------------------------------------------

// QualityViolation reports a write event whose row fails a data-quality
// predicate, with the request that caused it.
type QualityViolation struct {
	ReqID     string
	Handler   string
	Timestamp uint64
	TxnID     uint64
	Row       value.Row // the event table row (EvId, TxnId, Seq, Type, Query, app columns...)
	Reason    string
}

// CheckDataQuality runs a data-quality test over a traced table's write
// provenance: test receives the application columns of every Insert/Update
// event and returns a non-empty reason when the row is bad. The result
// names the requests that introduced the bad data — the paper's "find
// requests that caused data quality degradation" (§5).
func (w *Writer) CheckDataQuality(appTable string, test func(appRow value.Row) string) ([]QualityViolation, error) {
	evTable := w.EventTable(appTable)
	if evTable == "" {
		return nil, fmt.Errorf("provenance: table %q is not traced", appTable)
	}
	res, err := w.prov.Query(fmt.Sprintf(
		`SELECT E.ReqId, E.HandlerName, E.Timestamp, F.* FROM %s as F, Executions as E
		 ON E.TxnId = F.TxnId
		 WHERE F.Type IN ('Insert', 'Update') ORDER BY F.EvId`, evTable))
	if err != nil {
		return nil, err
	}
	var out []QualityViolation
	for _, r := range res.Rows {
		evRow := r[3:]
		appRow := evRow[eventHeaderCols:]
		if reason := test(appRow); reason != "" {
			out = append(out, QualityViolation{
				ReqID:     textOrEmpty(r[0]),
				Handler:   textOrEmpty(r[1]),
				Timestamp: uint64(r[2].AsInt()),
				TxnID:     uint64(evRow[1].AsInt()),
				Row:       evRow.Clone(),
				Reason:    reason,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out, nil
}

func textOrEmpty(v value.Value) string {
	if v.IsNull() {
		return ""
	}
	return v.AsText()
}

// FormatHandlerStats renders stats as an aligned table for tool output.
func FormatHandlerStats(stats []HandlerStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %8s %8s %12s %12s\n", "handler", "reqs", "errors", "avg us", "max us")
	for _, s := range stats {
		fmt.Fprintf(&sb, "%-20s %8d %8d %12.1f %12d\n", s.Handler, s.Requests, s.Errors, s.AvgUs, s.MaxUs)
	}
	return sb.String()
}

// Expire deletes provenance older than the given logical timestamp from
// every provenance table — the retention companion to Forget. Event rows
// are matched through their transaction's execution record.
func (w *Writer) Expire(beforeLogical uint64) (int, error) {
	total := 0
	// Event tables first (they reference Executions by TxnId).
	for _, evTable := range w.tables {
		res, err := w.prov.Query(fmt.Sprintf(`SELECT F.EvId FROM %s as F, Executions as E
			ON E.TxnId = F.TxnId WHERE E.Timestamp < ?`, evTable), int64(beforeLogical))
		if err != nil {
			return total, err
		}
		for _, r := range res.Rows {
			del, err := w.prov.Exec(fmt.Sprintf(`DELETE FROM %s WHERE EvId = ?`, evTable), r[0].AsInt())
			if err != nil {
				return total, err
			}
			total += del.RowsAffected
		}
	}
	for _, stmt := range []string{
		`DELETE FROM Executions WHERE Timestamp < ?`,
		`DELETE FROM trod_requests WHERE Timestamp < ?`,
		`DELETE FROM trod_rpc_edges WHERE Timestamp < ?`,
		`DELETE FROM trod_externals WHERE Timestamp < ?`,
	} {
		res, err := w.prov.Exec(stmt, int64(beforeLogical))
		if err != nil {
			return total, err
		}
		total += res.RowsAffected
	}
	return total, nil
}
