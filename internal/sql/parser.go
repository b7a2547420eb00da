package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/types"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses a script into statements (semicolon-separated).
func Parse(src string) ([]Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for p.more() {
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if err := p.endStmt(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// more skips empty statements and reports whether another one starts.
func (p *parser) more() bool {
	for p.peek().kind == tokSym && p.peek().text == ";" {
		p.next()
	}
	return p.peek().kind != tokEOF
}

// stmtEnd is the position of the ';' or end of input after the statement
// at p.pos.
func (p *parser) stmtEnd() int {
	end := p.pos
	for t := p.toks[end]; t.kind != tokEOF && !(t.kind == tokSym && t.text == ";"); t = p.toks[end] {
		end++
	}
	return end
}

// endStmt consumes the ';' that ends a statement, if any; anything else
// but the end of input is an error.
func (p *parser) endStmt() error {
	if p.peek().kind == tokSym && p.peek().text == ";" {
		p.next()
	} else if p.peek().kind != tokEOF {
		return fmt.Errorf("sql: expected ';' or end of input, got %s", p.peek())
	}
	return nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectSym(sym string) error {
	t := p.next()
	if t.kind != tokSym || t.text != sym {
		return fmt.Errorf("sql: expected %q, got %s", sym, t)
	}
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if !t.isKeyword(kw) {
		return fmt.Errorf("sql: expected %s, got %s", kw, t)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %s", t)
	}
	return t.text, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.isKeyword("CREATE"):
		return p.parseCreate()
	case t.isKeyword("INSERT"):
		return p.parseInsert()
	case t.isKeyword("SELECT"):
		return p.parseSelect()
	case t.isKeyword("UPDATE"):
		return p.parseUpdate()
	case t.isKeyword("DELETE"):
		return p.parseDelete()
	case t.isKeyword("SET"):
		return p.parseSet()
	case t.isKeyword("BEGIN"):
		return p.parseBegin()
	case t.isKeyword("COMMIT"):
		p.next()
		return &CommitStmt{}, nil
	case t.isKeyword("ROLLBACK"):
		p.next()
		return &RollbackStmt{}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %s at start of statement", t)
	}
}

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var cols []types.Column
		for {
			cname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			tname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			kind, err := kindOf(tname)
			if err != nil {
				return nil, err
			}
			// Optional length suffix VARCHAR(50).
			if p.peek().kind == tokSym && p.peek().text == "(" {
				p.next()
				if _, err := p.expectNumber(); err != nil {
					return nil, err
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			cols = append(cols, types.Column{Name: cname, Type: kind})
			if p.peek().kind == tokSym && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &CreateTableStmt{Name: name, Columns: cols}, nil
	case p.acceptKeyword("INDEX"):
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
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.peek().kind == tokSym && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Columns: cols}, nil
	default:
		return nil, fmt.Errorf("sql: CREATE must be followed by TABLE or INDEX, got %s", p.peek())
	}
}

func kindOf(name string) (types.Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT":
		return types.KindInt, nil
	case "VARCHAR", "TEXT", "CHAR", "STRING":
		return types.KindString, nil
	case "DATE":
		return types.KindDate, nil
	case "BOOL", "BOOLEAN":
		return types.KindBool, nil
	default:
		return 0, fmt.Errorf("sql: unknown column type %s", name)
	}
}

func (p *parser) expectNumber() (int64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sql: expected number, got %s", t)
	}
	return strconv.ParseInt(t.text, 10, 64)
}

func (p *parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.peek().kind == tokSym && p.peek().text == "(" {
		p.next()
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.peek().kind == tokSym && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var vals []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		vals = append(vals, e)
		if p.peek().kind == tokSym && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &InsertStmt{Table: table, Columns: cols, Values: vals}, nil
}

// parseSelect parses both classical and entangled SELECTs (distinguished
// by INTO ANSWER).
func (p *parser) parseSelect() (Stmt, error) {
	sel, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *parser) parseSelectCore() (Stmt, error) {
	p.next() // SELECT
	var items []SelectItem
	if p.peek().kind == tokSym && p.peek().text == "*" {
		p.next()
		items = append(items, SelectItem{Star: true})
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				if p.peek().kind == tokAtVar {
					item.BindVar = p.next().text
				} else {
					alias, err := p.expectIdent()
					if err != nil {
						return nil, err
					}
					item.Alias = alias
				}
			}
			items = append(items, item)
			if p.peek().kind == tokSym && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	// INTO ANSWER name [, ANSWER name]... makes this an entangled query.
	if p.acceptKeyword("INTO") {
		var answers []string
		for {
			if err := p.expectKeyword("ANSWER"); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			answers = append(answers, name)
			if p.peek().kind == tokSym && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		var where Expr
		if p.acceptKeyword("WHERE") {
			w, err := p.parseWhere()
			if err != nil {
				return nil, err
			}
			where = w
			choose := 1
			if p.acceptKeyword("CHOOSE") {
				n, err := p.expectNumber()
				if err != nil {
					return nil, err
				}
				choose = int(n)
			}
			return &EntangledSelectStmt{Items: items, Answers: answers, Where: where, Choose: choose}, nil
		}
		choose := 1
		if p.acceptKeyword("CHOOSE") {
			n, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			choose = int(n)
		}
		return &EntangledSelectStmt{Items: items, Answers: answers, Where: where, Choose: choose}, nil
	}

	sel := &SelectStmt{Items: items}
	if p.acceptKeyword("FROM") {
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref := TableRef{Name: name}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				ref.Alias = alias
			} else if p.peek().kind == tokIdent && !isClauseKeyword(p.peek()) {
				ref.Alias = p.next().text
			}
			sel.From = append(sel.From, ref)
			if p.peek().kind == tokSym && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		sel.Limit = int(n)
	}
	return sel, nil
}

func isClauseKeyword(t token) bool {
	for _, kw := range []string{"WHERE", "LIMIT", "FROM", "AND", "OR", "CHOOSE", "AS", "INTO", "VALUES", "SET", "ON", "IN"} {
		if t.isKeyword(kw) {
			return true
		}
	}
	return false
}

func (p *parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	var set []Assign
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		for _, a := range set {
			if strings.EqualFold(a.Col, col) {
				return nil, fmt.Errorf("sql: column %s assigned twice in SET", col)
			}
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		set = append(set, Assign{Col: col, Expr: e})
		if p.peek().kind == tokSym && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	stmt := &UpdateStmt{Table: table, Set: set}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseSet() (Stmt, error) {
	p.next() // SET
	t := p.next()
	if t.kind != tokAtVar {
		return nil, fmt.Errorf("sql: SET expects @variable, got %s", t)
	}
	if err := p.expectSym("="); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &SetStmt{Name: t.text, Expr: e}, nil
}

func (p *parser) parseBegin() (Stmt, error) {
	p.next() // BEGIN
	if !p.acceptKeyword("TRANSACTION") {
		p.acceptKeyword("WORK")
	}
	stmt := &BeginStmt{}
	if p.acceptKeyword("WITH") {
		if err := p.expectKeyword("TIMEOUT"); err != nil {
			return nil, err
		}
		n, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		unit, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d, err := durationUnit(unit)
		if err != nil {
			return nil, err
		}
		stmt.Timeout = time.Duration(n) * d
	}
	return stmt, nil
}

func durationUnit(unit string) (time.Duration, error) {
	switch strings.ToUpper(strings.TrimSuffix(strings.ToUpper(unit), "S")) {
	case "MILLISECOND", "M":
		return time.Millisecond, nil
	case "SECOND", "SEC":
		return time.Second, nil
	case "MINUTE", "MIN":
		return time.Minute, nil
	case "HOUR":
		return time.Hour, nil
	case "DAY":
		return 24 * time.Hour, nil
	default:
		return 0, fmt.Errorf("sql: unknown duration unit %q", unit)
	}
}

// --- expressions --------------------------------------------------------

// parseExpr parses a value-position expression (no bare expression
// lists); commas terminate it, as in INSERT values and SELECT items.
func (p *parser) parseExpr() (Expr, error) { return p.parseExprAllow(false) }

// parseWhere parses a WHERE-position expression, where the paper's
// bare-list form "a, b IN (SELECT ...)" and tuple form "(a, b) IN ..." are
// permitted.
func (p *parser) parseWhere() (Expr, error) { return p.parseExprAllow(true) }

func (p *parser) parseExprAllow(allowList bool) (Expr, error) {
	left, err := p.parseAnd(allowList)
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd(allowList)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd(allowList bool) (Expr, error) {
	left, err := p.parseCmp(allowList)
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseCmp(allowList)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

// parseCmp parses comparisons and the IN forms. It must handle:
//
//	a = b, a <> b, ...
//	a, b IN (SELECT ...)          -- the paper's bare-list form
//	(a, b) IN (SELECT ...)        -- parenthesized tuple
//	('Minnie', fno, fdate) IN ANSWER R
//	a IN ANSWER R
func (p *parser) parseCmp(allowList bool) (Expr, error) {
	var exprs []Expr
	// Parenthesized tuple vs. parenthesized expression is disambiguated by
	// what follows the closing paren.
	if allowList && p.peek().kind == tokSym && p.peek().text == "(" && !p.peek2().isKeyword("SELECT") {
		save := p.pos
		p.next() // (
		var tuple []Expr
		ok := true
		for {
			e, err := p.parseAdd()
			if err != nil {
				ok = false
				break
			}
			tuple = append(tuple, e)
			if p.peek().kind == tokSym && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if ok && p.peek().kind == tokSym && p.peek().text == ")" {
			p.next() // )
			if p.peek().isKeyword("IN") {
				p.next()
				return p.parseInTarget(tuple)
			}
			if len(tuple) == 1 {
				// Plain parenthesized expression; continue with operators.
				return p.continueComparison(tuple[0])
			}
		}
		// Not a tuple form: rewind and parse normally.
		p.pos = save
	}

	first, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	exprs = append(exprs, first)
	for allowList && p.peek().kind == tokSym && p.peek().text == "," {
		// Bare list: must terminate in IN.
		p.next()
		e, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
	}
	if len(exprs) > 1 {
		if !p.acceptKeyword("IN") {
			return nil, fmt.Errorf("sql: expression list must be followed by IN, got %s", p.peek())
		}
		return p.parseInTarget(exprs)
	}
	if allowList && p.acceptKeyword("IN") {
		return p.parseInTarget(exprs)
	}
	return p.continueComparison(first)
}

func (p *parser) continueComparison(left Expr) (Expr, error) {
	t := p.peek()
	if t.kind == tokSym {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: t.text, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseInTarget(exprs []Expr) (Expr, error) {
	if p.acceptKeyword("ANSWER") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &InAnswer{Exprs: exprs, Answer: name}, nil
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	if !p.peek().isKeyword("SELECT") {
		return nil, fmt.Errorf("sql: IN expects a subquery or ANSWER relation, got %s", p.peek())
	}
	sub, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	sel, ok := sub.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: entangled SELECT cannot appear in a subquery")
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &InSubquery{Exprs: exprs, Sub: sel}, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokSym && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.next().text
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.param > 0:
		p.next()
		return &Lit{Param: t.param}, nil
	case t.kind == tokNumber:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.text)
		}
		return &Lit{Val: types.Int(n)}, nil
	case t.kind == tokString:
		p.next()
		return &Lit{Val: types.Str(t.text)}, nil
	case t.kind == tokAtVar:
		p.next()
		return &Var{Name: t.text}, nil
	case t.isKeyword("TRUE"):
		p.next()
		return &Lit{Val: types.Bool(true)}, nil
	case t.isKeyword("FALSE"):
		p.next()
		return &Lit{Val: types.Bool(false)}, nil
	case t.isKeyword("NULL"):
		p.next()
		return &Lit{Val: types.Null()}, nil
	case t.kind == tokIdent:
		p.next()
		if p.peek().kind == tokSym && p.peek().text == "." {
			p.next()
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &Col{Table: t.text, Name: col}, nil
		}
		return &Col{Name: t.text}, nil
	case t.kind == tokSym && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %s in expression", t)
	}
}
