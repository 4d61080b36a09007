package sqlexec

import (
	"strconv"
	"strings"
)

// Shape renders a compact one-line description of the compiled plan for the
// slow-query log: per-source access strategy (equality/range bounds and
// whether a secondary index is available to serve them), join strategy
// (pk-lookup vs hash), and the post-processing stages (group/order/distinct/
// limit). It is a static summary — index *choice* happens per execution once
// bound values are known — but it tells an operator at a glance whether a
// slow statement had index support or fell back to a full scan. A scan that
// yields the ORDER BY itself is marked asc or desc, and "→ order" appears
// only when a sort runs.
//
// Examples:
//
//	scan(accounts eq[id] ix) → agg
//	scan(posts eq[userId] ix desc) → limit
//	scan(posts) join-hash(users pk) → order → limit
//	insert(accounts ×3)
//	update(accounts eq[id])
func (p *Plan) Shape() string {
	switch {
	case p.sel != nil:
		return p.sel.shape()
	case p.ins != nil:
		return "insert(" + p.ins.tbl.Name + " ×" + strconv.Itoa(len(p.ins.rows)) + ")"
	case p.upd != nil:
		return "update(" + sourceShape(p.upd.src) + ")"
	case p.del != nil:
		return "delete(" + sourceShape(p.del.src) + ")"
	}
	return ""
}

func (p *selectPlan) shape() string {
	ordered := p.scanOrdered()
	var b strings.Builder
	if p.fromless {
		b.WriteString("const")
	} else {
		b.WriteString("scan(")
		b.WriteString(sourceShape(p.sources[0]))
		if ordered {
			if p.orderDesc {
				b.WriteString(" desc")
			} else {
				b.WriteString(" asc")
			}
		}
		b.WriteByte(')')
		for _, j := range p.joins {
			if j.pkLookup != nil {
				b.WriteString(" join-pk(")
			} else if len(j.pairs) > 0 {
				b.WriteString(" join-hash(")
			} else {
				b.WriteString(" join-nested(")
			}
			b.WriteString(sourceShape(j.src))
			b.WriteByte(')')
		}
	}
	if p.grouped {
		b.WriteString(" → group")
	} else if len(p.aggNodes) > 0 {
		b.WriteString(" → agg")
	}
	if p.sel.Distinct {
		b.WriteString(" → distinct")
	}
	if len(p.orderBy) > 0 && !ordered {
		b.WriteString(" → order")
	}
	if p.sel.Limit != nil {
		b.WriteString(" → limit")
	}
	return b.String()
}

// scanOrdered reports whether the scan yields the ORDER BY: whether the
// path pickPath takes, when every planned equality bound has a value, yields
// it. At run time a bound whose value cannot be coerced to its column's type
// is dropped, and the path, and so the answer, may differ.
func (p *selectPlan) scanOrdered() bool {
	if p.orderCols == nil {
		return false
	}
	s := p.sources[0]
	_, ok := pickPath(s, s.hasEqOn).order(s.tbl, p.orderCols, p.orderDesc)
	return ok
}

// sourceShape describes one table access: the table name, its equality and
// range bound columns, and whether any secondary index covers the leading
// bound ("ix") — absent bounds mean a full scan.
func sourceShape(s *planSource) string {
	var b strings.Builder
	b.WriteString(s.tbl.Name)
	if len(s.eqBounds) > 0 {
		b.WriteString(" eq[")
		for i, eb := range s.eqBounds {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(s.tbl.Columns[eb.col].Name)
		}
		b.WriteByte(']')
	}
	if len(s.ranges) > 0 {
		b.WriteString(" range[")
		seen := map[int]bool{}
		first := true
		for _, rb := range s.ranges {
			if seen[rb.col] {
				continue
			}
			seen[rb.col] = true
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(s.tbl.Columns[rb.col].Name)
		}
		b.WriteByte(']')
	}
	if boundsIndexed(s) {
		b.WriteString(" ix")
	}
	return b.String()
}

// boundsIndexed reports whether some candidate index's leading column is
// covered by an equality or range bound — the static precondition for the
// executor's index scan.
func boundsIndexed(s *planSource) bool {
	if len(s.eqBounds) == 0 && len(s.ranges) == 0 {
		return false
	}
	for _, ix := range s.indexes {
		if len(ix.Columns) == 0 {
			continue
		}
		lead := ix.Columns[0]
		for _, eb := range s.eqBounds {
			if eb.col == lead {
				return true
			}
		}
		for _, rb := range s.ranges {
			if rb.col == lead {
				return true
			}
		}
	}
	return false
}
