// Span-tree rendering for trod-query -trace: a fixed text layout
// (golden-tested) that prints per-stage durations and marks the critical
// path.
package span

import (
	"fmt"
	"sort"
	"strings"
)

// CriticalPath returns the span IDs on the trace's critical path: from the
// root, greedily descend into the child whose end time is latest — the chain
// of stages that determined the request's wall time.
func CriticalPath(spans []Span) map[uint32]bool {
	children := childIndex(spans)
	path := map[uint32]bool{}
	id := RootID
	for {
		path[id] = true
		kids := children[id]
		if len(kids) == 0 {
			return path
		}
		latest := kids[0]
		for _, k := range kids[1:] {
			if k.End() > latest.End() {
				latest = k
			}
		}
		id = latest.ID
	}
}

// childIndex groups spans by parent, ordered by start time then ID (stable
// for rendering). Spans whose parent is not in the set (a root span carrying
// a remote parent ID) are treated as children of the root, except the root
// itself.
func childIndex(spans []Span) map[uint32][]Span {
	present := make(map[uint32]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	children := make(map[uint32][]Span)
	for _, s := range spans {
		if s.ID == RootID {
			continue
		}
		p := s.Parent
		if p == 0 || !present[p] {
			p = RootID
		}
		children[p] = append(children[p], s)
	}
	for _, kids := range children {
		sort.SliceStable(kids, func(i, j int) bool {
			if kids[i].Start != kids[j].Start {
				return kids[i].Start < kids[j].Start
			}
			return kids[i].ID < kids[j].ID
		})
	}
	return children
}

// Render prints a trace's span tree: header, then one line per span with
// its stage, duration, share of the root's wall time, commit seq when
// pinned, and a `*` on every critical-path span.
//
//	trace 7 req R12 exec status=ok wall 12.41ms
//	└─ request 12.41ms *
//	   ├─ parse_plan 0.11ms (0.9%)
//	   │  └─ plan_compile 0.08ms (0.6%)
//	   ├─ execute 1.02ms (8.2%)
//	   └─ wal_fsync 10.9ms (87.8%) *
func Render(t *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d req %s %s status=%s wall %s\n",
		t.TraceID, t.ReqID, t.Kind, t.Status, fmtMs(int64(t.Wall)))
	root, ok := findRoot(t.Spans)
	if !ok {
		b.WriteString("(no spans)\n")
		return b.String()
	}
	children := childIndex(t.Spans)
	crit := CriticalPath(t.Spans)
	renderNode(&b, root, children, crit, root.Dur, "", "└─ ", true)
	return b.String()
}

func findRoot(spans []Span) (Span, bool) {
	for _, s := range spans {
		if s.ID == RootID {
			return s, true
		}
	}
	return Span{}, false
}

func renderNode(b *strings.Builder, s Span, children map[uint32][]Span, crit map[uint32]bool, wallNs int64, indent, branch string, isRoot bool) {
	b.WriteString(indent)
	b.WriteString(branch)
	b.WriteString(s.Stage.String())
	b.WriteString(" ")
	b.WriteString(fmtMs(s.Dur))
	if !isRoot && wallNs > 0 {
		fmt.Fprintf(b, " (%.1f%%)", 100*float64(s.Dur)/float64(wallNs))
	}
	if s.Seq != 0 {
		fmt.Fprintf(b, " seq=%d", s.Seq)
	}
	if crit[s.ID] {
		b.WriteString(" *")
	}
	b.WriteString("\n")
	kids := children[s.ID]
	childIndent := indent
	if branch == "└─ " {
		childIndent += "   "
	} else if branch == "├─ " {
		childIndent += "│  "
	}
	for i, k := range kids {
		kb := "├─ "
		if i == len(kids)-1 {
			kb = "└─ "
		}
		renderNode(b, k, children, crit, wallNs, childIndent, kb, false)
	}
}

// fmtMs renders nanoseconds as fixed-point milliseconds (two decimals).
func fmtMs(ns int64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/1e6)
}

// BreakdownMs aggregates span durations by stage (root excluded), in
// milliseconds — the slow-query log's `spans` field.
func BreakdownMs(spans []Span) map[string]float64 {
	if len(spans) == 0 {
		return nil
	}
	out := make(map[string]float64, len(spans))
	for _, s := range spans {
		if s.Stage == StageRequest {
			continue
		}
		out[s.Stage.String()] += float64(s.Dur) / 1e6
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// StageSumNs sums all non-root span durations — the "spans account for the
// wall time" acceptance check (stages are disjoint siblings except
// plan_compile, which nests under parse_plan and is excluded).
func StageSumNs(spans []Span) int64 {
	var sum int64
	for _, s := range spans {
		if s.Stage == StageRequest || s.Stage == StagePlanCompile {
			continue
		}
		sum += s.Dur
	}
	return sum
}
