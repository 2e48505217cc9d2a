package sql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/workload"
)

func cat() Catalog {
	return MapCatalog{"links": workload.LinkSchema()}
}

func mustParse(t *testing.T, src string) query.Query {
	t.Helper()
	q, err := Parse(src, cat())
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseMinimal(t *testing.T) {
	q := mustParse(t, "SELECT SUM(latency) FROM links")
	if q.Agg != aggregate.Sum || q.Column != "latency" || q.Table != "links" {
		t.Errorf("query = %+v", q)
	}
	if !math.IsInf(q.Within, 1) {
		t.Errorf("Within = %g, want +Inf", q.Within)
	}
	if q.Where != nil {
		t.Errorf("Where = %v", q.Where)
	}
}

func TestParseWithin(t *testing.T) {
	q := mustParse(t, "SELECT AVG(traffic) WITHIN 10 FROM links")
	if q.Within != 10 || q.Agg != aggregate.Avg {
		t.Errorf("query = %+v", q)
	}
	q = mustParse(t, "SELECT MIN(bandwidth) WITHIN 0.5 FROM links")
	if q.Within != 0.5 {
		t.Errorf("Within = %g", q.Within)
	}
}

func TestParseQualifiedColumn(t *testing.T) {
	q := mustParse(t, "SELECT MAX(links.latency) FROM links")
	if q.Column != "latency" {
		t.Errorf("column = %q", q.Column)
	}
}

func TestParseWhereComparison(t *testing.T) {
	q := mustParse(t, "SELECT COUNT(latency) WITHIN 1 FROM links WHERE latency > 10")
	if q.Where == nil {
		t.Fatal("no predicate")
	}
	if got := q.Where.String(); got != "latency > 10" {
		t.Errorf("predicate = %q", got)
	}
}

// TestParseKeywordNamedColumn: an operand spelled like a keyword is a
// column when the schema has one (the links schema's own "from"), and a
// malformed predicate otherwise.
func TestParseKeywordNamedColumn(t *testing.T) {
	for _, tc := range []struct{ where, want string }{
		{"from < 3", "from < 3"},
		{"links.from = 1", "from = 1"},
		{"latency > 5 AND from <> to", "(latency > 5 AND from <> to)"},
	} {
		q := mustParse(t, "SELECT MAX(latency) FROM links WHERE "+tc.where)
		if got := q.Where.String(); got != tc.want {
			t.Errorf("WHERE %s parsed to %q, want %q", tc.where, got, tc.want)
		}
	}
	for _, where := range []string{"AND > 1", "FROM < 3", "links.where = 1"} {
		if _, err := Parse("SELECT MAX(latency) FROM links WHERE "+where, cat()); err == nil {
			t.Errorf("WHERE %s accepted", where)
		}
	}
}

func TestParseWhereBoolean(t *testing.T) {
	q := mustParse(t, `SELECT MIN(traffic) WITHIN 10 FROM links
		WHERE (bandwidth > 50) AND (latency < 10)`)
	want := "(bandwidth > 50 AND latency < 10)"
	if got := q.Where.String(); got != want {
		t.Errorf("predicate = %q, want %q", got, want)
	}
	q = mustParse(t, "SELECT SUM(latency) FROM links WHERE NOT latency <= 3 OR traffic = 100")
	if got := q.Where.String(); got != "(NOT (latency <= 3) OR traffic = 100)" {
		t.Errorf("predicate = %q", got)
	}
}

func TestParsePrecedenceAndOverOr(t *testing.T) {
	q := mustParse(t, "SELECT SUM(latency) FROM links WHERE latency > 1 OR latency < 0 AND traffic > 5")
	// AND binds tighter: a OR (b AND c).
	if got := q.Where.String(); got != "(latency > 1 OR (latency < 0 AND traffic > 5))" {
		t.Errorf("predicate = %q", got)
	}
}

func TestParseOperators(t *testing.T) {
	ops := map[string]predicate.Op{
		"<": predicate.Lt, "<=": predicate.Le, ">": predicate.Gt,
		">=": predicate.Ge, "=": predicate.Eq, "<>": predicate.Ne, "!=": predicate.Ne,
	}
	for text, want := range ops {
		q := mustParse(t, "SELECT SUM(latency) FROM links WHERE latency "+text+" 5")
		cmp, ok := q.Where.(*predicate.Cmp)
		if !ok || cmp.Op != want {
			t.Errorf("op %q parsed as %v", text, q.Where)
		}
	}
}

func TestParseColumnToColumn(t *testing.T) {
	q := mustParse(t, "SELECT SUM(latency) FROM links WHERE latency < bandwidth")
	cmp := q.Where.(*predicate.Cmp)
	if cmp.Left.Col < 0 || cmp.Right.Col < 0 {
		t.Errorf("expected two column refs: %+v", cmp)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q := mustParse(t, "select min(bandwidth) within 5 from links where traffic > 100")
	if q.Agg != aggregate.Min || q.Within != 5 {
		t.Errorf("query = %+v", q)
	}
}

func TestParseNegativeConstant(t *testing.T) {
	q := mustParse(t, "SELECT SUM(latency) FROM links WHERE latency > -3.5")
	cmp := q.Where.(*predicate.Cmp)
	if cmp.Right.Const != -3.5 {
		t.Errorf("const = %g", cmp.Right.Const)
	}
}

func TestParseScientificNotation(t *testing.T) {
	q := mustParse(t, "SELECT SUM(latency) FROM links WHERE latency < 1e3")
	cmp := q.Where.(*predicate.Cmp)
	if cmp.Right.Const != 1000 {
		t.Errorf("const = %g", cmp.Right.Const)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT MEDIAN(latency) FROM links",
		"SELECT SUM(latency FROM links",
		"SELECT SUM(latency) FROM nope",
		"SELECT SUM(nope) FROM links",
		"SELECT SUM(other.latency) FROM links",
		"SELECT SUM(latency) WITHIN -5 FROM links",
		"SELECT SUM(latency) WITHIN x FROM links",
		"SELECT SUM(latency) FROM links WHERE",
		"SELECT SUM(latency) FROM links WHERE latency >",
		"SELECT SUM(latency) FROM links WHERE nope > 5",
		"SELECT SUM(latency) FROM links WHERE other.latency > 5",
		"SELECT SUM(latency) FROM links WHERE latency > 5 garbage",
		"SELECT SUM(latency) FROM links WHERE (latency > 5",
		"SELECT SUM(latency) FROM links WHERE latency ! 5",
		"SELECT SUM(latency) FROM links WHERE latency > 5 AND",
		"SELECT SUM(latency) FROM links WHERE AND > 5",
		"SELECT SUM(latency) FROM links WHERE latency @ 5",
	}
	for _, src := range bad {
		if _, err := Parse(src, cat()); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

// TestParseEndToEndQ6 parses the paper's Q6 and executes it against the
// Figure 2 fixture, checking the Appendix F result.
func TestParseEndToEndQ6(t *testing.T) {
	q := mustParse(t, "SELECT AVG(latency) WITHIN 2 FROM links WHERE traffic > 100")
	p := query.NewProcessor(refresh.Options{Solver: refresh.SolverExactDP})
	p.RegisterStore("links", workload.Figure2Store(), workload.MapOracle(workload.Figure2Master()))
	res, err := p.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(interval.New(8, 9)) {
		t.Errorf("Q6 through parser = %v, want [8, 9]", res.Answer)
	}
}

// TestParsedPredicateMatchesHandBuilt: parsing Figure 7's predicates
// yields the same classifications as hand-built trees.
func TestParsedPredicateMatchesHandBuilt(t *testing.T) {
	tab := workload.Figure2Store()
	q := mustParse(t, "SELECT SUM(traffic) FROM links WHERE (bandwidth > 50) AND (latency < 10)")
	wantClasses := map[int64]predicate.Class{
		1: predicate.Plus, 2: predicate.Maybe, 3: predicate.Minus,
		4: predicate.Maybe, 5: predicate.Maybe, 6: predicate.Maybe,
	}
	for key, want := range wantClasses {
		tu, _ := tab.Get(key)
		got := predicate.ClassifyTuple(q.Where, &tu)
		if got != want {
			t.Errorf("tuple %d: %v, want %v", key, got, want)
		}
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex("a<=b, (c) 3.5 <> x.y")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokOp, tokIdent, tokComma, tokLParen,
		tokIdent, tokRParen, tokNumber, tokOp, tokIdent, tokDot, tokIdent, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v (%q), want kind %v", i, toks[i].kind, toks[i].text, k)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "1.e", "1e", "!x"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded", src)
		}
	}
}

// sprintfRender is the predicate rendering as nested fmt.Sprintf calls
// produced it, kept as the reference the single-pass rendering must
// match byte for byte.
func sprintfRender(e predicate.Expr) string {
	operand := func(o predicate.Operand) string {
		if o.Col < 0 {
			return fmt.Sprintf("%g", o.Const)
		}
		if o.Name != "" {
			return o.Name
		}
		return fmt.Sprintf("col%d", o.Col)
	}
	switch e := e.(type) {
	case *predicate.Cmp:
		return fmt.Sprintf("%s %s %s", operand(e.Left), e.Op, operand(e.Right))
	case *predicate.And:
		return fmt.Sprintf("(%s AND %s)", sprintfRender(e.L), sprintfRender(e.R))
	case *predicate.Or:
		return fmt.Sprintf("(%s OR %s)", sprintfRender(e.L), sprintfRender(e.R))
	case *predicate.Not:
		return fmt.Sprintf("NOT (%s)", sprintfRender(e.E))
	}
	return e.String()
}

func TestPredicateRenderingMatchesSprintf(t *testing.T) {
	checked := 0
	for _, src := range append(append([]string{}, corpus...), scaleCorpus...) {
		q, err := Parse(src, fuzzCatalog)
		if err != nil || q.Where == nil {
			continue
		}
		if got, want := q.Where.String(), sprintfRender(q.Where); got != want {
			t.Errorf("%q renders %q, want %q", src, got, want)
		}
		checked++
	}
	// Anonymous columns and constants the grammar cannot spell.
	e := predicate.NewOr(
		predicate.NewCmp(predicate.Column(7, ""), predicate.Ge, predicate.Const(math.Inf(-1))),
		predicate.NewNot(predicate.NewCmp(predicate.Const(math.Copysign(0, -1)), predicate.Ne, predicate.Const(math.NaN()))))
	if got, want := e.String(), sprintfRender(e); got != want {
		t.Errorf("renders %q, want %q", got, want)
	}
	if checked < 10 {
		t.Fatalf("only %d corpus predicates rendered", checked)
	}
}

func TestPredicateNodeCap(t *testing.T) {
	const prefix = "SELECT SUM(v) FROM t WHERE "
	cases := []struct {
		name  string
		where string
		ok    bool
		at    string // the token the error must point at
	}{
		{"NOT chain at the cap", strings.Repeat("NOT ", maxPredicateNodes-1) + "v < 1", true, ""},
		{"NOT chain past the cap", strings.Repeat("NOT ", maxPredicateNodes) + "v < 1", false, "v"},
		{"AND chain past the cap", "v < 1" + strings.Repeat(" AND v < 1", maxPredicateNodes/2), false, "v < 1"},
		{"groups at the cap", strings.Repeat("(", maxPredicateNodes) + "v < 1" + strings.Repeat(")", maxPredicateNodes), true, ""},
		{"groups past the cap", strings.Repeat("(", maxPredicateNodes+1) + "v < 1" + strings.Repeat(")", maxPredicateNodes+1), false, "("},
	}
	for _, tc := range cases {
		src := prefix + tc.where
		q, err := Parse(src, fuzzCatalog)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
				continue
			}
			checkRoundTrip(t, src, q)
			continue
		}
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v is not a *sql.Error", tc.name, err)
			continue
		}
		if !strings.HasPrefix(src[se.Pos:], tc.at) || !strings.Contains(se.Msg, "predicate has more than") {
			t.Errorf("%s: error %q at %d (%.10q), want one at %q", tc.name, se.Msg, se.Pos, src[se.Pos:], tc.at)
		}
	}
}
