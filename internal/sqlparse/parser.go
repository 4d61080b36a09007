package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks         []Token
	pos          int
	placeholders int
	src          string
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return stmt, nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(src string) ([]Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	var out []Statement
	for !p.atEOF() {
		if p.acceptSymbol(";") {
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.acceptSymbol(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, got %q", p.peek().Text)
		}
	}
	return out, nil
}

// CountPlaceholders parses src and returns its placeholder count.
func CountPlaceholders(stmt Statement) int {
	count := 0
	visit := func(e Expr) {
		if ph, ok := e.(*Placeholder); ok {
			if ph.Index+1 > count {
				count = ph.Index + 1
			}
		}
	}
	walkStatement(stmt, visit)
	return count
}

// walkStatement visits every expression in the statement.
func walkStatement(stmt Statement, fn func(Expr)) {
	switch s := stmt.(type) {
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				Walk(e, fn)
			}
		}
	case *Update:
		for _, a := range s.Set {
			Walk(a.Value, fn)
		}
		Walk(s.Where, fn)
	case *Delete:
		Walk(s.Where, fn)
	case *Select:
		for _, it := range s.Items {
			Walk(it.Expr, fn)
		}
		for _, j := range s.Joins {
			Walk(j.On, fn)
		}
		Walk(s.Where, fn)
		for _, g := range s.GroupBy {
			Walk(g, fn)
		}
		Walk(s.Having, fn)
		for _, o := range s.OrderBy {
			Walk(o.Expr, fn)
		}
		Walk(s.Limit, fn)
		Walk(s.Offset, fn)
	}
}

// --- token plumbing --------------------------------------------------------

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }
func (p *Parser) next() Token {
	// The stream ends in one EOF token; next never moves past it, so a
	// statement cut short reads EOF again instead of running off the end.
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}
func (p *Parser) backup()       { p.pos-- }
func (p *Parser) save() int     { return p.pos }
func (p *Parser) restore(s int) { p.pos = s }

func (p *Parser) errorf(format string, args ...any) error {
	t := p.peek()
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), t.Pos)
}

func (p *Parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, got %q", sym, p.peek().Text)
	}
	return nil
}

// expectIdent consumes an identifier. Unreserved keywords that commonly
// appear as column names in app schemas (e.g. KEY, INDEX as bare names) are
// not allowed — app schemas must avoid keywords.
func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.Text)
}

// --- statements ------------------------------------------------------------

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement keyword, got %q", t.Text)
	}
	switch t.Text {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SELECT":
		return p.parseSelect()
	case "BEGIN":
		p.next()
		return &Begin{}, nil
	case "COMMIT":
		p.next()
		return &Commit{}, nil
	case "ROLLBACK":
		p.next()
		return &Rollback{}, nil
	default:
		return nil, p.errorf("unsupported statement %q", t.Text)
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, p.errorf("UNIQUE is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	ct := &CreateTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ct.PrimaryKey = cols
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
		}
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	var def ColumnDef
	name, err := p.expectIdent()
	if err != nil {
		return def, err
	}
	def.Name = name
	t := p.next()
	if t.Kind != TokKeyword {
		return def, p.errorf("expected column type for %q, got %q", name, t.Text)
	}
	switch t.Text {
	case "INTEGER", "INT":
		def.Type = value.KindInt
	case "FLOAT", "REAL":
		def.Type = value.KindFloat
	case "TEXT", "VARCHAR":
		def.Type = value.KindText
		// Allow VARCHAR(255)-style length, which we ignore.
		if p.acceptSymbol("(") {
			if tk := p.next(); tk.Kind != TokInt {
				return def, p.errorf("expected length after VARCHAR(")
			}
			if err := p.expectSymbol(")"); err != nil {
				return def, err
			}
		}
	case "BOOL", "BOOLEAN":
		def.Type = value.KindBool
	case "BYTES", "BLOB":
		def.Type = value.KindBytes
	default:
		return def, p.errorf("unsupported column type %q", t.Text)
	}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return def, err
			}
			def.PrimaryKey = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return def, err
			}
			def.NotNull = true
		default:
			return def, nil
		}
	}
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cols, err := p.parseIdentList()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, Unique: unique}, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

func (p *Parser) parseIdentList() ([]string, error) {
	var out []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.acceptSymbol(",") {
			return out, nil
		}
	}
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptSymbol("(") {
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	sel := &Select{}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = &ref
		for {
			switch {
			case p.acceptSymbol(","):
				// Comma join; the paper's queries use "FROM a AS x, b AS y
				// ON x.c = y.c" — an ON after a comma join attaches as the
				// join condition.
				jt, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				jc := JoinClause{Kind: JoinCross, Table: jt}
				if p.acceptKeyword("ON") {
					on, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					jc.Kind = JoinInner
					jc.On = on
				}
				sel.Joins = append(sel.Joins, jc)
			case p.acceptKeyword("JOIN"):
				jc, err := p.parseJoinTail(JoinInner)
				if err != nil {
					return nil, err
				}
				sel.Joins = append(sel.Joins, jc)
			case p.acceptKeyword("INNER"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				jc, err := p.parseJoinTail(JoinInner)
				if err != nil {
					return nil, err
				}
				sel.Joins = append(sel.Joins, jc)
			case p.acceptKeyword("LEFT"):
				p.acceptKeyword("OUTER")
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				jc, err := p.parseJoinTail(JoinLeft)
				if err != nil {
					return nil, err
				}
				sel.Joins = append(sel.Joins, jc)
			case p.acceptKeyword("CROSS"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				jt, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				sel.Joins = append(sel.Joins, JoinClause{Kind: JoinCross, Table: jt})
			default:
				goto fromDone
			}
		}
	}
fromDone:

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

func (p *Parser) parseJoinTail(kind JoinKind) (JoinClause, error) {
	jt, err := p.parseTableRef()
	if err != nil {
		return JoinClause{}, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return JoinClause{}, err
	}
	on, err := p.parseExpr()
	if err != nil {
		return JoinClause{}, err
	}
	return JoinClause{Kind: kind, Table: jt, On: on}, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		ref.Alias = t.Text
	}
	return ref, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// alias.* form.
	if t := p.peek(); t.Kind == TokIdent {
		mark := p.save()
		p.pos++
		if p.acceptSymbol(".") && p.acceptSymbol("*") {
			return SelectItem{Star: true, StarTable: t.Text}, nil
		}
		p.restore(mark)
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		item.Alias = t.Text
	}
	return item, nil
}

// --- expressions (precedence climbing) --------------------------------------
//
// Precedence, loosest first: OR, AND, NOT, comparison/IS/IN/LIKE/BETWEEN,
// additive (+ - ||), multiplicative (* / %), unary minus, primary.

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: '!', Operand: inner}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinaryOp{
	"=": OpEq, "!=": OpNe, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		op, isCmp := comparisonOps[t.Text]
		switch {
		case t.Kind == TokSymbol && isCmp:
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: op, Left: left, Right: right}
		case t.Kind == TokKeyword && t.Text == "IS":
			p.pos++
			neg := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{Operand: left, Negate: neg}
		case t.Kind == TokKeyword && (t.Text == "IN" || t.Text == "NOT"):
			neg := false
			if t.Text == "NOT" {
				// could be NOT IN / NOT LIKE / NOT BETWEEN
				mark := p.save()
				p.pos++
				switch {
				case p.acceptKeyword("IN"):
					neg = true
					e, err := p.parseInTail(left, neg)
					if err != nil {
						return nil, err
					}
					left = e
					continue
				case p.acceptKeyword("LIKE"):
					right, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					left = &UnaryExpr{Op: '!', Operand: &BinaryExpr{Op: OpLike, Left: left, Right: right}}
					continue
				case p.acceptKeyword("BETWEEN"):
					e, err := p.parseBetweenTail(left, true)
					if err != nil {
						return nil, err
					}
					left = e
					continue
				default:
					p.restore(mark)
					return left, nil
				}
			}
			p.pos++ // IN
			e, err := p.parseInTail(left, neg)
			if err != nil {
				return nil, err
			}
			left = e
		case t.Kind == TokKeyword && t.Text == "LIKE":
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpLike, Left: left, Right: right}
		case t.Kind == TokKeyword && t.Text == "BETWEEN":
			p.pos++
			e, err := p.parseBetweenTail(left, false)
			if err != nil {
				return nil, err
			}
			left = e
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseInTail(operand Expr, neg bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &InExpr{Operand: operand, List: list, Negate: neg}, nil
}

func (p *Parser) parseBetweenTail(operand Expr, neg bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BetweenExpr{Operand: operand, Lo: lo, Hi: hi, Negate: neg}, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol {
			return left, nil
		}
		var op BinaryOp
		switch t.Text {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		case "||":
			op = OpConcat
		default:
			return left, nil
		}
		p.pos++
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol {
			return left, nil
		}
		var op BinaryOp
		switch t.Text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		case "%":
			op = OpMod
		default:
			return left, nil
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals immediately.
		if lit, ok := inner.(*Literal); ok {
			switch lit.Val.Kind() {
			case value.KindInt:
				return &Literal{Val: value.Int(-lit.Val.AsInt())}, nil
			case value.KindFloat:
				return &Literal{Val: value.Float(-lit.Val.AsFloat())}, nil
			}
		}
		return &UnaryExpr{Op: '-', Operand: inner}, nil
	}
	if p.acceptSymbol("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt:
		p.pos++
		iv, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return &Literal{Val: value.Int(iv)}, nil
	case TokFloat:
		p.pos++
		fv, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q", t.Text)
		}
		return &Literal{Val: value.Float(fv)}, nil
	case TokString:
		p.pos++
		return &Literal{Val: value.Text(t.Text)}, nil
	case TokPlaceholder:
		p.pos++
		ph := &Placeholder{Index: p.placeholders}
		p.placeholders++
		return ph, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &Literal{Val: value.Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: value.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: value.Bool(false)}, nil
		case "COUNT":
			// COUNT is a keyword so it can be used even though aggregate
			// names are otherwise ordinary identifiers.
			p.pos++
			return p.parseFuncTail("COUNT")
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.Text)
	case TokIdent:
		p.pos++
		// Function call?
		if p.peekSymbol("(") {
			return p.parseFuncTail(strings.ToUpper(t.Text))
		}
		// Qualified column?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}

func (p *Parser) peekSymbol(sym string) bool {
	t := p.peek()
	return t.Kind == TokSymbol && t.Text == sym
}

func (p *Parser) parseFuncTail(name string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.acceptSymbol("*") {
		fc.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	fc.Distinct = p.acceptKeyword("DISTINCT")
	if p.acceptSymbol(")") {
		return fc, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, a)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return fc, nil
}
