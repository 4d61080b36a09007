package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records spans from the benchmark's own files, around calls
// into each layer's public functions. The program's internals are not
// touched, so a layer's children are measured by replaying the same
// operation one level further down: an operation's spans share its op id,
// each names its parent, and a span's self time is its duration minus its
// children's. They are links of cause, not of time: a child replay runs after
// its parent has returned.

// spanName identifies the call a span wraps; spanInfo maps it to the
// repository package the time is charged to.
type spanName uint8

const (
	noParent spanName = iota
	spanRoundTrip
	spanCodec
	spanRowCodec
	spanDBCall
	spanParse
	spanCompile
	spanRun
	spanRunNeedle
	spanRunAgg
	spanPoint
	spanIndexScan
	spanRMW
	spanInsert
	spanKeyCodec
	spanWALAppend
	spanWALSync
	spanInvoke
	spanDBTxn
	spanRound
	numSpanNames
)

var spanInfo = [numSpanNames]struct{ name, layer string }{
	spanRoundTrip: {"client.roundtrip", "client+server"},
	spanCodec:     {"protocol.codec", "protocol"},
	spanRowCodec:  {"value.row_codec", "value"},
	spanDBCall:    {"db.call", "db"},
	spanParse:     {"sqlparse.Parse", "sqlparse"},
	spanCompile:   {"sqlexec.Compile", "sqlexec"},
	spanRun:       {"sqlexec.Run", "sqlexec"},
	spanRunNeedle: {"sqlexec.Run(needle)", "sqlexec"},
	spanRunAgg:    {"sqlexec.Run(aggregate)", "sqlexec"},
	spanPoint:     {"txn.point", "txn+storage"},
	spanIndexScan: {"txn.index_scan", "txn+storage"},
	spanRMW:       {"txn.rmw", "txn+storage"},
	spanInsert:    {"txn.insert", "txn+storage"},
	spanKeyCodec:  {"value.key_codec", "value"},
	spanWALAppend: {"wal.AppendCommitLSN", "wal"},
	spanWALSync:   {"wal.WaitDurable", "wal"},
	spanInvoke:    {"runtime.Invoke", "runtime"},
	spanDBTxn:     {"runtime.Ctx.Txn", "db+sqlexec+txn+storage"},
	spanRound:     {"round", "benchmark"},
}

type spanRec struct {
	name, parent spanName
	op           int32
	start, end   int64 // ns since the tracer was made
}

// tracer keeps spans in memory, one lane per caller so recording takes no
// lock; replays run on one goroutine after the callers are done and use
// lane 0.
type tracer struct {
	t0    time.Time
	lanes [][]spanRec
}

func newTracer(callers int) *tracer {
	return &tracer{t0: time.Now(), lanes: make([][]spanRec, callers)}
}

func (t *tracer) begin(lane int, name, parent spanName, op int) int {
	t.lanes[lane] = append(t.lanes[lane], spanRec{name: name, parent: parent, op: int32(op), start: int64(time.Since(t.t0))})
	return len(t.lanes[lane]) - 1
}

func (t *tracer) end(lane, id int) {
	t.lanes[lane][id].end = int64(time.Since(t.t0))
}

// spanTotals is what the budget needs from the spans of one name.
type spanTotals struct {
	calls  int
	ns     int64
	parent spanName
}

func (t *tracer) totals() [numSpanNames]spanTotals {
	var tot [numSpanNames]spanTotals
	for _, lane := range t.lanes {
		for i := range lane {
			s := &lane[i]
			tot[s.name].calls++
			tot[s.name].ns += s.end - s.start
			tot[s.name].parent = s.parent
		}
	}
	return tot
}

// meanUs is the mean duration of one name's spans, per call.
func (tot *spanTotals) meanUs() float64 {
	if tot.calls == 0 {
		return 0
	}
	return float64(tot.ns) / float64(tot.calls) / 1e3
}

// budgetRow is one line of the per-layer budget.
type budgetRow struct {
	Layer      string  `json:"layer"`
	CallsPerOp float64 `json:"calls_per_op"`
	SelfUsOp   float64 `json:"self_us_per_op"`
	Share      float64 `json:"share_of_untraced_mean"`
}

// budget turns span totals into self time per layer per operation: a name's
// self time is its total minus its children's totals, and names of one layer
// add up.
func (t *tracer) budget(ops int, untracedMeanUs float64) (rows []budgetRow, sumUs float64) {
	tot := t.totals()
	self := [numSpanNames]int64{}
	for n := range tot {
		self[n] += tot[n].ns
		if p := tot[n].parent; p != noParent {
			self[p] -= tot[n].ns
		}
	}
	byLayer := map[string]*budgetRow{}
	for n := range tot {
		if tot[n].calls == 0 {
			continue
		}
		layer := spanInfo[n].layer
		r := byLayer[layer]
		if r == nil {
			r = &budgetRow{Layer: layer}
			byLayer[layer] = r
		}
		r.CallsPerOp += float64(tot[n].calls) / float64(ops)
		r.SelfUsOp += float64(self[n]) / float64(ops) / 1e3
	}
	for _, r := range byLayer {
		if untracedMeanUs > 0 {
			r.Share = r.SelfUsOp / untracedMeanUs
		}
		sumUs += r.SelfUsOp
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUsOp > rows[j].SelfUsOp })
	return rows, sumUs
}

// writeFile writes every span as [name, parent, op, start_ns, end_ns].
func (t *tracer) writeFile(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names := make([]string, numSpanNames)
	for i := range spanInfo {
		names[i] = spanInfo[i].name
	}
	hdr, _ := json.Marshal(names)
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"name\",\"parent\",\"op\",\"start_ns\",\"end_ns\"],\"names\":%s,\"spans\":[", workload, hdr)
	first := true
	for _, lane := range t.lanes {
		for i := range lane {
			s := &lane[i]
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", s.name, s.parent, s.op, s.start, s.end)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
