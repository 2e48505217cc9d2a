package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"trapp/internal/aggregate"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/relation"
)

// Catalog resolves table names to schemas during parsing.
type Catalog interface {
	// SchemaOf returns the schema of the named table, or false.
	SchemaOf(table string) (*relation.Schema, bool)
}

// MapCatalog is a Catalog backed by a map.
type MapCatalog map[string]*relation.Schema

// SchemaOf looks up the table's schema.
func (m MapCatalog) SchemaOf(table string) (*relation.Schema, bool) {
	s, ok := m[table]
	return s, ok
}

// Error is a parse error with the byte offset of the offending token in
// the statement, so front ends can point at the problem. Every error the
// lexer and parser produce is an *Error; use errors.As to recover the
// position.
type Error struct {
	// Pos is the 0-based byte offset into the statement.
	Pos int
	// Msg describes the problem, without position or "sql:" prefix.
	Msg string
}

// Error formats the message with its position.
func (e *Error) Error() string {
	return fmt.Sprintf("sql: %s at position %d", e.Msg, e.Pos)
}

// errAt builds a positioned parse error.
func errAt(pos int, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Parse compiles a single-aggregate TRAPP/AG query string against the
// catalog, producing an executable query.Query with the predicate bound
// to column indexes. Statements selecting several aggregates are
// rejected; use ParseAll, which compiles them into a batch sharing one
// scan and refresh round (trapp.ExecuteBatch).
func Parse(src string, cat Catalog) (query.Query, error) {
	qs, err := ParseAll(src, cat)
	if err != nil {
		return query.Query{}, err
	}
	if len(qs) != 1 {
		return query.Query{}, errAt(0, "statement selects %d aggregates; use the multi-aggregate entry point (ParseAll)", len(qs))
	}
	return qs[0], nil
}

// ParseAll compiles a TRAPP/AG statement that may select several
// aggregates in one SELECT list:
//
//	SELECT MIN(v), MAX(v) WITHIN 5 FROM t WHERE pred
//
// One query.Query is produced per select item; WITHIN, FROM, WHERE and
// GROUP BY are shared by all of them. The resulting queries are intended
// for ExecuteBatch, which shares one classification scan per (table,
// column, predicate) shape and one deduped refresh round across the
// statement.
func ParseAll(src string, cat Catalog) ([]query.Query, error) {
	st, err := parseWith(src, cat, false)
	return st.Queries, err
}

// Statement is one fully parsed statement: the compiled queries plus
// statement-level modifiers.
type Statement struct {
	// Queries are the compiled queries, one per select item.
	Queries []query.Query
	// Explain reports an EXPLAIN ANALYZE prefix: execute the statement
	// and return its span trace alongside the answer.
	Explain bool
}

// ParseStatement compiles a statement like ParseAll but also accepts the
// EXPLAIN ANALYZE prefix:
//
//	EXPLAIN ANALYZE SELECT SUM(v) WITHIN 10 FROM t
//
// which asks the executor to run the query with tracing enabled and
// return the span tree. The service layer parses with this entry point;
// ParseAll (and the embedded helpers built on it) keep rejecting
// EXPLAIN, since they have no way to return a trace.
func ParseStatement(src string, cat Catalog) (Statement, error) {
	return parseWith(src, cat, true)
}

// parseWith is the shared statement entry point.
func parseWith(src string, cat Catalog, allowExplain bool) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return Statement{}, err
	}
	p := &parser{toks: toks, cat: cat}
	var st Statement
	if allowExplain && p.cur().isKeyword("EXPLAIN") {
		p.advance()
		if err := p.expectKeyword("ANALYZE"); err != nil {
			return Statement{}, err
		}
		st.Explain = true
	}
	st.Queries, err = p.parseStatement()
	if err != nil {
		return Statement{}, err
	}
	if !p.at(tokEOF) {
		return Statement{}, errAt(p.cur().pos, "trailing input %q", p.cur().text)
	}
	return st, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks   []token
	i      int
	cat    Catalog
	table  string
	schema *relation.Schema
	// nodes and groups count the WHERE clause's comparisons, ANDs, ORs
	// and NOTs, and its parenthesized groups, against maxPredicateNodes.
	nodes, groups int
}

// maxPredicateNodes caps a WHERE clause: it may hold at most this many
// comparisons, ANDs, ORs and NOTs, and at most this many parenthesized
// groups. Untrusted input then cannot make the descent recurse, or the
// predicate's rendering (the plan cache's and the standing views' key)
// grow, without bound. An accepted predicate's rendering parses under
// the same cap: it has the same nodes and one group per AND, OR and NOT.
const maxPredicateNodes = 1024

// charge counts the node the parser is about to descend into — a
// parenthesized group at '(' — failing at the current token once the
// count passes the cap.
func (p *parser) charge() error {
	n, what := &p.nodes, "nodes"
	if p.at(tokLParen) {
		n, what = &p.groups, "parenthesized groups"
	}
	if *n++; *n > maxPredicateNodes {
		return errAt(p.cur().pos, "predicate has more than %d %s", maxPredicateNodes, what)
	}
	return nil
}

func (p *parser) cur() token          { return p.toks[p.i] }
func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, errAt(p.cur().pos, "expected %s, found %q", what, p.cur().text)
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.cur().isKeyword(kw) {
		return errAt(p.cur().pos, "expected %s, found %q", kw, p.cur().text)
	}
	p.advance()
	return nil
}

// selectItem is one AGG(col) of the select list, recorded before the
// FROM clause binds its column.
type selectItem struct {
	fn       aggregate.Func
	aggTable string // optional table qualifier
	col      string
	colPos   int
	tablePos int
}

// parseStatement parses the full statement. The FROM clause is parsed
// after the select list, so a two-pass structure records the aggregate
// tokens first and binds columns once the schema is known.
func (p *parser) parseStatement() ([]query.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	var items []selectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}

	within := math.Inf(1)
	relative := 0.0
	if p.cur().isKeyword("WITHIN") {
		p.advance()
		numTok, err := p.expect(tokNumber, "precision constraint")
		if err != nil {
			return nil, err
		}
		r, err := strconv.ParseFloat(numTok.text, 64)
		if err != nil || r < 0 {
			return nil, errAt(numTok.pos, "invalid precision constraint %q", numTok.text)
		}
		if p.at(tokPercent) {
			// Relative precision constraint (§8.1): WITHIN 5% means the
			// answer width is at most 2·|A|·0.05 for the true answer A.
			p.advance()
			relative = r / 100
		} else {
			within = r
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tblTok, err := p.expect(tokIdent, "table name")
	if err != nil {
		return nil, err
	}
	schema, ok := p.cat.SchemaOf(tblTok.text)
	if !ok {
		return nil, errAt(tblTok.pos, "unknown table %q", tblTok.text)
	}
	p.table, p.schema = tblTok.text, schema

	var where predicate.Expr
	if p.cur().isKeyword("WHERE") {
		p.advance()
		where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}

	var groupBy []string
	if p.cur().isKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			colTok, err := p.expect(tokIdent, "grouping column")
			if err != nil {
				return nil, err
			}
			ci, ok := schema.Lookup(colTok.text)
			if !ok {
				return nil, errAt(colTok.pos, "unknown grouping column %q in table %q", colTok.text, p.table)
			}
			if schema.Column(ci).Kind != relation.Exact {
				return nil, errAt(colTok.pos, "grouping column %q must be exact", colTok.text)
			}
			groupBy = append(groupBy, colTok.text)
			if !p.at(tokComma) {
				break
			}
			p.advance()
		}
	}

	qs := make([]query.Query, 0, len(items))
	for _, item := range items {
		if item.aggTable != "" && item.aggTable != p.table {
			return nil, errAt(item.tablePos, "aggregate over table %q but FROM %q", item.aggTable, p.table)
		}
		if _, ok := schema.Lookup(item.col); !ok {
			return nil, errAt(item.colPos, "unknown column %q in table %q", item.col, p.table)
		}
		qs = append(qs, query.Query{
			Table:          p.table,
			Agg:            item.fn,
			Column:         item.col,
			Within:         within,
			RelativeWithin: relative,
			Where:          where,
			GroupBy:        groupBy,
		})
	}
	return qs, nil
}

// parseSelectItem parses one AGG(col) or AGG(table.col).
func (p *parser) parseSelectItem() (selectItem, error) {
	var item selectItem
	aggTok, err := p.expect(tokIdent, "aggregate function")
	if err != nil {
		return item, err
	}
	fn, err := aggregate.ParseFunc(strings.ToUpper(aggTok.text))
	if err != nil {
		return item, errAt(aggTok.pos, "%v", err)
	}
	item.fn = fn
	if _, err := p.expect(tokLParen, "("); err != nil {
		return item, err
	}
	first, err := p.expect(tokIdent, "column name")
	if err != nil {
		return item, err
	}
	item.col, item.colPos = first.text, first.pos
	if p.at(tokDot) {
		p.advance()
		colTok, err := p.expect(tokIdent, "column name after '.'")
		if err != nil {
			return item, err
		}
		item.aggTable, item.tablePos = first.text, first.pos
		item.col, item.colPos = colTok.text, colTok.pos
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return item, err
	}
	return item, nil
}

// parseOr := parseAnd (OR parseAnd)*
func (p *parser) parseOr() (predicate.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().isKeyword("OR") {
		if err := p.charge(); err != nil {
			return nil, err
		}
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = predicate.NewOr(left, right)
	}
	return left, nil
}

// parseAnd := parseUnary (AND parseUnary)*
func (p *parser) parseAnd() (predicate.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().isKeyword("AND") {
		if err := p.charge(); err != nil {
			return nil, err
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = predicate.NewAnd(left, right)
	}
	return left, nil
}

// parseUnary := NOT parseUnary | '(' parseOr ')' | comparison
func (p *parser) parseUnary() (predicate.Expr, error) {
	if err := p.charge(); err != nil {
		return nil, err
	}
	if p.cur().isKeyword("NOT") {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return predicate.NewNot(e), nil
	}
	if p.at(tokLParen) {
		// Could be a parenthesized boolean or a parenthesized operand of a
		// comparison; TRAPP predicates only parenthesize booleans, so
		// treat it as a boolean group.
		p.advance()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parseComparison()
}

// parseComparison := operand op operand
func (p *parser) parseComparison() (predicate.Expr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	var op predicate.Op
	switch opTok.text {
	case "<":
		op = predicate.Lt
	case "<=":
		op = predicate.Le
	case ">":
		op = predicate.Gt
	case ">=":
		op = predicate.Ge
	case "=":
		op = predicate.Eq
	case "<>", "!=":
		op = predicate.Ne
	default:
		return nil, errAt(opTok.pos, "unknown operator %q", opTok.text)
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return predicate.NewCmp(left, op, right), nil
}

// parseOperand := number | [table '.'] column
func (p *parser) parseOperand() (predicate.Operand, error) {
	if p.at(tokNumber) {
		t := p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return predicate.Operand{}, errAt(t.pos, "bad number %q", t.text)
		}
		return predicate.Const(v), nil
	}
	t, err := p.expect(tokIdent, "column or constant")
	if err != nil {
		return predicate.Operand{}, err
	}
	name, pos := t.text, t.pos
	if p.at(tokDot) {
		p.advance()
		colTok, err := p.expect(tokIdent, "column after '.'")
		if err != nil {
			return predicate.Operand{}, err
		}
		if name != p.table {
			return predicate.Operand{}, errAt(t.pos, "unknown table %q", name)
		}
		name, pos = colTok.text, colTok.pos
	}
	col, ok := p.schema.Lookup(name)
	if !ok {
		// A keyword where a column belongs is a malformed predicate; say
		// so rather than "unknown column". A schema may name a column like
		// a keyword (the links schema's "from"), and then it is a column.
		for _, kw := range []string{"AND", "OR", "NOT", "WHERE", "FROM", "SELECT", "WITHIN", "GROUP"} {
			if strings.EqualFold(name, kw) {
				return predicate.Operand{}, errAt(pos, "unexpected keyword %q", name)
			}
		}
		return predicate.Operand{}, errAt(pos, "unknown column %q in table %q", name, p.table)
	}
	return predicate.Column(col, name), nil
}
