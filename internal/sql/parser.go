package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parser consumes a token stream into an AST.
type Parser struct {
	toks []Token
	pos  int
	// Literal nodes, taken from arrays allocated a chunk at a time.
	ints   slab[IntLit]
	floats slab[FloatLit]
	strs   slab[StringLit]
}

// slab hands out nodes of one type from arrays it allocates a chunk at a
// time, each twice the size of the last up to 1024 nodes: a VALUES
// list's thousands of literals cost a few allocations, not one each, and
// a statement with a literal or two costs what it did.
type slab[T any] struct {
	free []T
	next int // the next chunk's size
}

func (s *slab[T]) new(v T) *T {
	if len(s.free) == 0 {
		s.next = min(max(2*s.next, 4), 1024)
		s.free = make([]T, s.next)
	}
	n := &s.free[0]
	*n = v
	s.free = s.free[1:]
	return n
}

// Parse lexes and parses one statement (a trailing ';' is allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	return ParseTokens(toks)
}

// ParseTokens parses one statement from Lex's output, or from what
// Normalize made of it.
func ParseTokens(toks []Token) (Statement, error) {
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, fmt.Errorf("sql: unexpected trailing input %q", p.cur().Text)
	}
	return stmt, nil
}

// ParseAll parses a ';'-separated script (see SplitStatement). It holds
// every statement's AST at once; to run a long script, split and parse
// one statement at a time.
func ParseAll(input string) ([]Statement, error) {
	var out []Statement
	for part, rest := SplitStatement(input); part != ""; part, rest = SplitStatement(rest) {
		s, err := Parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	return Token{}, fmt.Errorf("sql: expected %q, found %q at position %d", text, p.cur().Text, p.cur().Pos)
}

func (p *Parser) expectIdent() (string, error) {
	if p.cur().Kind == TokIdent {
		t := p.cur()
		p.pos++
		return t.Text, nil
	}
	return "", fmt.Errorf("sql: expected identifier, found %q at position %d", p.cur().Text, p.cur().Pos)
}

// parseTableName reads a table reference: a bare identifier or a
// namespace-qualified "ns.name" pair (virtual tables such as
// system.statements live in a dotted namespace).
func (p *Parser) parseTableName() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	if p.accept(TokSymbol, ".") {
		// After the dot a reserved word is just a name part: the lexer
		// upper-cases keywords, so system.tables arrives as TABLES.
		if t := p.cur(); t.Kind == TokKeyword {
			p.pos++
			return name + "." + strings.ToLower(t.Text), nil
		}
		rest, err := p.expectIdent()
		if err != nil {
			return "", err
		}
		name += "." + rest
	}
	return name, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.at(TokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(TokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(TokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(TokKeyword, "EVALUATE"):
		return p.parseEvaluate()
	case p.at(TokKeyword, "SHOW"):
		return p.parseShow()
	case p.accept(TokKeyword, "EXPLAIN"):
		// EXPLAIN ANALYZE <statement> profiles the execution.
		if p.accept(TokKeyword, "ANALYZE") {
			inner, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			return &ExplainStmt{Inner: inner, Analyze: true}, nil
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Inner: inner}, nil
	case p.accept(TokKeyword, "ANALYZE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &AnalyzeStmt{Table: name}, nil
	case p.accept(TokKeyword, "PREPARE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AS"); err != nil {
			return nil, err
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &PrepareStmt{Name: name, Stmt: inner}, nil
	case p.accept(TokKeyword, "EXECUTE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st := &ExecStmt{Name: name}
		if p.accept(TokSymbol, "(") {
			if !p.at(TokSymbol, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					st.Args = append(st.Args, a)
					if !p.accept(TokSymbol, ",") {
						break
					}
				}
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		return st, nil
	case p.accept(TokKeyword, "DEALLOCATE"):
		p.accept(TokKeyword, "PREPARE") // tolerated: DEALLOCATE PREPARE name
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DeallocateStmt{Name: name}, nil
	case p.accept(TokKeyword, "BEGIN"):
		return &BeginStmt{}, nil
	case p.accept(TokKeyword, "COMMIT"):
		return &CommitStmt{}, nil
	case p.accept(TokKeyword, "ROLLBACK"):
		return &RollbackStmt{}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected token %q at start of statement", p.cur().Text)
	}
}

func (p *Parser) parseSelect() (Statement, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept(TokKeyword, "DISTINCT")
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := SelectItem{Expr: e}
		if p.accept(TokKeyword, "AS") {
			a, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			item.Alias = a
		}
		s.Items = append(s.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	s.Table = tbl
	if p.cur().Kind == TokIdent { // bare alias
		s.Alias = p.cur().Text
		p.pos++
	}
	for p.accept(TokKeyword, "JOIN") {
		jt, err := p.parseTableName()
		if err != nil {
			return nil, err
		}
		jc := JoinClause{Table: jt}
		if p.cur().Kind == TokIdent {
			jc.Alias = p.cur().Text
			p.pos++
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		be, ok := cond.(*BinaryExpr)
		if !ok || be.Op != "=" {
			return nil, fmt.Errorf("sql: JOIN ON requires an equality condition, got %s", cond.String())
		}
		jc.On = be
		s.Joins = append(s.Joins, jc)
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t := p.cur()
		if t.Kind != TokInt {
			return nil, fmt.Errorf("sql: LIMIT expects an integer, found %q", t.Text)
		}
		p.pos++
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: invalid LIMIT %q", t.Text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *Parser) parseCreate() (Statement, error) {
	if _, err := p.expect(TokKeyword, "CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.accept(TokKeyword, "TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		st := &CreateTableStmt{Name: name}
		for {
			cn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			t := p.cur()
			if t.Kind != TokKeyword || (t.Text != "INT" && t.Text != "FLOAT" && t.Text != "TEXT") {
				return nil, fmt.Errorf("sql: expected column type, found %q", t.Text)
			}
			p.pos++
			// Tolerate and ignore PRIMARY KEY.
			if p.accept(TokKeyword, "PRIMARY") {
				if _, err := p.expect(TokKeyword, "KEY"); err != nil {
					return nil, err
				}
			}
			st.Columns = append(st.Columns, ColumnDef{Name: cn, Type: t.Text})
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return st, nil
	case p.accept(TokKeyword, "INDEX"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		tbl, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: tbl, Column: col}, nil
	case p.accept(TokKeyword, "MODEL"):
		return p.parseCreateModel()
	default:
		return nil, fmt.Errorf("sql: CREATE expects TABLE, INDEX or MODEL, found %q", p.cur().Text)
	}
}

// parseCreateModel parses the AISQL extension:
//
//	CREATE MODEL m PREDICT label ON tbl [FEATURES (a, b)] [WITH (k = v, ...)]
func (p *Parser) parseCreateModel() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "PREDICT"); err != nil {
		return nil, err
	}
	label, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &CreateModelStmt{Name: name, Label: label, Table: tbl, Options: map[string]string{}}
	if p.accept(TokKeyword, "FEATURES") {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			f, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Features = append(st.Features, f)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if p.accept(TokKeyword, "WITH") {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			k, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, "="); err != nil {
				return nil, err
			}
			t := p.cur()
			if t.Kind != TokInt && t.Kind != TokFloat && t.Kind != TokString && t.Kind != TokIdent {
				return nil, fmt.Errorf("sql: invalid option value %q", t.Text)
			}
			p.pos++
			st.Options[strings.ToLower(k)] = t.Text
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if _, err := p.expect(TokKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: tbl}
	// Rows after the first are cut from chunks of cells sized by the
	// first row's width, each chunk twice the last up to 256 rows: a
	// VALUES list costs a few allocations, not one per row.
	var cells []Expr
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		if n := len(st.Rows); n > 0 && cap(cells)-len(cells) < len(st.Rows[0]) {
			cells = make([]Expr, 0, min(n, 256)*len(st.Rows[0]))
		}
		start := len(cells)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cells = append(cells, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, cells[start:len(cells):len(cells)])
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if _, err := p.expect(TokKeyword, "UPDATE"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: tbl, Set: map[string]Expr{}}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set[col] = e
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if _, err := p.expect(TokKeyword, "DELETE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: tbl}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	if _, err := p.expect(TokKeyword, "DROP"); err != nil {
		return nil, err
	}
	switch {
	case p.accept(TokKeyword, "TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: name}, nil
	case p.accept(TokKeyword, "MODEL"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropModelStmt{Name: name}, nil
	default:
		return nil, fmt.Errorf("sql: DROP expects TABLE or MODEL, found %q", p.cur().Text)
	}
}

func (p *Parser) parseEvaluate() (Statement, error) {
	if _, err := p.expect(TokKeyword, "EVALUATE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "MODEL"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &EvaluateModelStmt{Name: name, Table: tbl}, nil
}

func (p *Parser) parseShow() (Statement, error) {
	if _, err := p.expect(TokKeyword, "SHOW"); err != nil {
		return nil, err
	}
	switch {
	case p.accept(TokKeyword, "TABLES"):
		return &ShowStmt{What: "TABLES"}, nil
	case p.accept(TokKeyword, "MODELS"):
		return &ShowStmt{What: "MODELS"}, nil
	default:
		return nil, fmt.Errorf("sql: SHOW expects TABLES or MODELS, found %q", p.cur().Text)
	}
}

// Expression parsing with precedence: OR < AND < NOT < comparison < add < mul.

// parseExpr parses one expression. A literal, signed or not, that a ','
// or ')' closes — the cells of a VALUES list, most arguments — is the
// whole expression, as no operator can follow it: it is taken straight
// from parsePrimary, not through the six precedence levels.
func (p *Parser) parseExpr() (Expr, error) {
	i := p.pos
	if t := p.toks[i]; t.Kind == TokSymbol && t.Text == "-" {
		i++
	}
	switch p.toks[i].Kind {
	case TokInt, TokFloat, TokString:
		if next := p.toks[i+1]; next.Kind == TokSymbol && (next.Text == "," || next.Text == ")") {
			return p.parsePrimary()
		}
	}
	return p.parseOr()
}

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.accept(TokKeyword, "BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Subject: left, Lo: lo, Hi: hi}, nil
	}
	negated := false
	if p.at(TokKeyword, "NOT") && p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text == "IN" {
		p.pos++
		negated = true
	}
	if p.accept(TokKeyword, "IN") {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		in := &InExpr{Subject: left, Negated: negated}
		for {
			e, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return in, nil
	}
	if negated {
		return nil, fmt.Errorf("sql: expected IN after NOT at position %d", p.cur().Pos)
	}
	for _, op := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if p.accept(TokSymbol, op) {
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "+"):
			op = "+"
		case p.accept(TokSymbol, "-"):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "*"):
			op = "*"
		case p.accept(TokSymbol, "/"):
			op = "/"
		default:
			return left, nil
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.pos++
		v, err := intValue(t.Text, false)
		if err != nil {
			return nil, fmt.Errorf("sql: invalid integer %q", t.Text)
		}
		return p.ints.new(IntLit{Value: v}), nil
	case t.Kind == TokFloat:
		p.pos++
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: invalid float %q", t.Text)
		}
		return p.floats.new(FloatLit{Value: v}), nil
	case t.Kind == TokString:
		p.pos++
		return p.strs.new(StringLit{Value: t.Text}), nil
	case t.Kind == TokParam:
		p.pos++
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("sql: invalid parameter $%s at position %d", t.Text, t.Pos)
		}
		return &ParamRef{Index: n}, nil
	case t.Kind == TokSymbol && t.Text == "*":
		p.pos++
		return &Star{}, nil
	case t.Kind == TokSymbol && t.Text == "-":
		p.pos++
		if n := p.cur(); n.Kind == TokInt {
			// The sign and the digits are one literal, so the smallest
			// INT, whose magnitude is no int64, reads.
			p.pos++
			v, err := intValue(n.Text, true)
			if err != nil {
				return nil, fmt.Errorf("sql: invalid integer %q", "-"+n.Text)
			}
			return p.ints.new(IntLit{Value: v}), nil
		}
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		switch l := inner.(type) {
		case *IntLit:
			if l.Value == math.MinInt64 {
				return nil, fmt.Errorf("sql: integer -(%d) out of range at position %d", l.Value, t.Pos)
			}
			return p.ints.new(IntLit{Value: -l.Value}), nil
		case *FloatLit:
			return p.floats.new(FloatLit{Value: -l.Value}), nil
		default:
			return &BinaryExpr{Op: "-", Left: &IntLit{Value: 0}, Right: inner}, nil
		}
	case t.Kind == TokSymbol && t.Text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent || (t.Kind == TokKeyword && t.Text == "PREDICT"):
		p.pos++
		name := t.Text
		if p.accept(TokSymbol, "(") { // function call
			fc := &FuncCall{Name: asciiUpper(name)}
			if !p.at(TokSymbol, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if !p.accept(TokSymbol, ",") {
						break
					}
				}
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if p.accept(TokSymbol, ".") {
			if p.at(TokSymbol, "*") {
				p.pos++
				return &ColumnRef{Table: name, Column: "*"}, nil
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected token %q in expression at position %d", t.Text, t.Pos)
	}
}

// asciiUpper upper-cases the ASCII letters of an identifier and leaves
// every other byte alone, as the lexer reads identifiers byte by byte:
// strings.ToUpper would rewrite a byte that is not UTF-8 into one the
// lexer does not take for a letter.
func asciiUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	return string(b)
}
